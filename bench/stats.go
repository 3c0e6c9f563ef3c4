package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// percentileLadder is the set of percentiles the harness ever reports,
// each with the reciprocal of the share of samples beyond it.
var percentileLadder = []struct {
	p      float64
	beyond int // 1/(1-p/100)
}{{50, 2}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// highestPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it — the choosing-metrics rule that keeps 800
// fold samples at p95 and never prints a "p99.9" made of one outlier. With
// fewer than 100 samples only the median qualifies.
func highestPercentile(n int) float64 {
	best := percentileLadder[0].p
	for _, l := range percentileLadder[1:] {
		if n >= 10*l.beyond {
			best = l.p
		}
	}
	return best
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so
// -repeat computes the same spread the acceptance driver does. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	ld := len(data)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the run-to-run spread of one metric as a share of its median:
// the interquartile distance for four or more values, the full range for
// two or three (where quartiles would be extrapolations).
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	data := sortedCopy(values)
	med := median(data)
	if med == 0 {
		if data[0] == data[len(data)-1] {
			return 0
		}
		return math.Inf(1)
	}
	if len(data) < 4 {
		return (data[len(data)-1] - data[0]) / math.Abs(med)
	}
	q1, _, q3 := quartiles(data)
	return (q3 - q1) / math.Abs(med)
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := sortedCopy(values)
	if len(data)%2 == 0 {
		return (data[len(data)/2-1] + data[len(data)/2]) / 2
	}
	return data[len(data)/2]
}
