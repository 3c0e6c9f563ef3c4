// Package metrics provides the measurement substrate shared by the
// monitoring agents and the manager: counters, sliding-window rates, time
// points and the trend statistics the root-cause strategies consume
// (Mann-Kendall, Sen's slope).
//
// Concurrency contract: Counter is a single atomic cell; StripedCounter
// and RateWindow spread writers over cache-line-padded per-shard cells
// merged on read (reads are monotone, not atomic snapshots). The point
// and trend functions operate on caller-owned slices and are trivially
// safe.
package metrics

import "time"

// Point is one observation of a time series.
type Point struct {
	T time.Time
	V float64
}

// Downsample reduces time-ordered points to one per bucket of width step,
// keeping the bucket's last value. It is used when rendering figure series
// so one-hour experiments print at a readable resolution.
func Downsample(pts []Point, step time.Duration) []Point {
	if step <= 0 {
		panic("metrics: non-positive downsample step")
	}
	if len(pts) == 0 {
		return nil
	}
	var out []Point
	bucketEnd := pts[0].T.Add(step)
	cur := pts[0]
	for _, p := range pts[1:] {
		if !p.T.Before(bucketEnd) {
			out = append(out, Point{T: bucketEnd, V: cur.V})
			for !p.T.Before(bucketEnd) {
				bucketEnd = bucketEnd.Add(step)
			}
		}
		cur = p
	}
	out = append(out, Point{T: bucketEnd, V: cur.V})
	return out
}
