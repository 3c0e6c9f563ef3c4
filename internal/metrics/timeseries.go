// Package metrics provides the measurement substrate shared by the
// monitoring agents and the manager: append-only time series, counters,
// sliding-window rates, and the trend statistics the root-cause
// strategies consume (Mann-Kendall, Sen's slope).
//
// Concurrency contract: Counter is a single atomic cell; StripedCounter
// and RateWindow spread writers over cache-line-padded per-shard cells
// merged on read (reads are monotone, not atomic snapshots). A Series has
// one writer — callers serialise appends — and any number of lock-free
// readers: the writer fills a slot in a chunk that never moves and then
// publishes the new length with one atomic store, so readers traverse only
// a time-ordered prefix and never block the writer. The trend functions
// operate on caller-owned slices and are trivially safe.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Point is one observation of a time series.
type Point struct {
	T time.Time
	V float64
}

// seriesChunkSize is the number of points per storage chunk. Chunks are
// allocated whole and never moved, so readers can traverse them while the
// writer appends.
const seriesChunkSize = 256

// sample is a stored point: 16 bytes and no pointers, so a chunk costs
// the garbage collector nothing to scan.
type sample struct {
	ns int64 // UnixNano
	v  float64
}

type seriesChunk [seriesChunkSize]sample

// Series is an append-only time series with a single writer and lock-free
// readers: the collector appends under its round lock while root-cause
// queries read snapshots.
//
// The writer fills the next slot and then publishes the new length with
// one atomic store; when a chunk fills it first grows the chunk directory
// copy-on-write. Readers load the length, then the directory, and see
// every slot below that length fully written. Times are stored as
// UnixNano and read back as time.Unix(0, ns).UTC(), the convention the
// wire codec and the snapshots use.
type Series struct {
	name string
	n    atomic.Int64 // published length
	dir  atomic.Pointer[[]*seriesChunk]
}

// NewSeries returns an empty series with the given name.
func NewSeries(name string) *Series {
	s := &Series{name: name}
	s.dir.Store(&[]*seriesChunk{})
	return s
}

// Append records v at time t. Callers must serialise appends. Observations
// must arrive in non-decreasing time order; an out-of-order append panics,
// because it means the caller mixed clocks, which would silently corrupt
// trend estimates. The check runs before anything is written, so a
// rejected append leaves the series unchanged.
func (s *Series) Append(t time.Time, v float64) {
	ns := t.UnixNano()
	n := int(s.n.Load())
	dir := *s.dir.Load()
	if n > 0 {
		if prev := dir[(n-1)/seriesChunkSize][(n-1)%seriesChunkSize].ns; ns < prev {
			panic(fmt.Sprintf("metrics: out-of-order append to %q: %v before %v",
				s.name, t, time.Unix(0, prev).UTC()))
		}
	}
	if n/seriesChunkSize == len(dir) {
		// Slots past a reader's len are never read, so appending in place
		// when capacity allows is as safe as a fresh copy.
		grown := append(dir, new(seriesChunk))
		s.dir.Store(&grown)
		dir = grown
	}
	dir[n/seriesChunkSize][n%seriesChunkSize] = sample{ns: ns, v: v}
	s.n.Store(int64(n + 1))
}

// view returns the chunk directory and the published length. The
// directory is loaded after the length, so it always covers it.
func (s *Series) view() ([]*seriesChunk, int) {
	n := s.n.Load()
	return *s.dir.Load(), int(n)
}

func pointAt(dir []*seriesChunk, i int) Point {
	p := dir[i/seriesChunkSize][i%seriesChunkSize]
	return Point{T: time.Unix(0, p.ns).UTC(), V: p.v}
}

// Len returns the number of observations.
func (s *Series) Len() int { return int(s.n.Load()) }

// Last returns the most recent observation and whether one exists.
func (s *Series) Last() (Point, bool) {
	dir, n := s.view()
	if n == 0 {
		return Point{}, false
	}
	return pointAt(dir, n-1), true
}

// Points returns a copy of all observations.
func (s *Series) Points() []Point {
	dir, n := s.view()
	out := make([]Point, n)
	for i := range out {
		out[i] = pointAt(dir, i)
	}
	return out
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
