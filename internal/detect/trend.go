package detect

import (
	"math"
	"slices"
	"time"

	"repro/internal/metrics"
)

// OnlineTrend is an incremental Mann-Kendall trend detector over a sliding
// window of the most recent Window observations. Where
// metrics.MannKendall re-scans the whole series in O(n²) per query, this
// detector maintains the S statistic and the tie correction across pushes
// and evictions, so absorbing one sample costs two O(Window) compare
// passes and the significance test costs O(1).
//
// Sen's slope is computed on demand, exactly — the O(Window²) pairwise
// slopes and a selection, by the same code as the batch metrics.SenSlope
// — and only Result on a significant trend asks for it: a monitor's
// steady state is that nothing is aging, so the expensive statistic is
// reserved for the few series that trend.
//
// Pushes allocate nothing. The slope estimate works in a metrics.SenScratch
// the detector does not own: a Monitor shares one pre-sized scratch among
// all its detectors, a standalone detector grows a private one on first
// use.
//
// It is not safe for concurrent use: one goroutine — in this repo the
// manager's sampling round — owns it. Consumers that need the verdict from
// other goroutines read the Monitor's published Report instead.
type OnlineTrend struct {
	window int
	alpha  float64

	xs   []float64 // ring buffer, seconds since first sample
	ys   []float64 // ring buffer, values
	head int       // index of the oldest element
	n    int       // current fill

	s int64 // Mann-Kendall S over the window
	// tieCorr is Σ t·(t-1)·(2t+5) over groups of equal values, maintained
	// exactly in integer arithmetic from the equal compares of each push.
	tieCorr int64
	t0      time.Time
	seen    int64 // total samples ever absorbed

	sen *metrics.SenScratch // pairwise-slope scratch, possibly shared
}

// NewOnlineTrend creates a detector with the given window size (minimum 4,
// the smallest n for which the normal approximation of S means anything)
// and Mann-Kendall significance level alpha (default 0.05 when out of
// (0,1)).
func NewOnlineTrend(window int, alpha float64) *OnlineTrend {
	if window < 4 {
		window = 4
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	return &OnlineTrend{
		window: window,
		alpha:  alpha,
		xs:     make([]float64, window),
		ys:     make([]float64, window),
		sen:    new(metrics.SenScratch),
	}
}

// Window returns the configured window size.
func (o *OnlineTrend) Window() int { return o.window }

// Len returns the current number of samples in the window.
func (o *OnlineTrend) Len() int { return o.n }

// Seen returns the total number of samples ever pushed.
func (o *OnlineTrend) Seen() int64 { return o.seen }

// Reset discards the window, e.g. after a workload shift invalidated the
// history the trend was estimated against. The buffers are kept, so a
// reset-refill cycle allocates nothing.
func (o *OnlineTrend) Reset() {
	o.head, o.n, o.s, o.tieCorr = 0, 0, 0, 0
}

// tieTerm is one tie group's contribution to the variance correction.
func tieTerm(t int64) int64 { return t * (t - 1) * (2*t + 5) }

// compare counts the buffered values above, below and equal to v. The
// ring is walked as its two contiguous runs. A NaN is none of the three,
// so it neither moves S nor ties with anything.
func (o *OnlineTrend) compare(v float64) (above, below, equal int64) {
	end := o.head + o.n
	wrapped := max(end-o.window, 0)
	for _, run := range [2][]float64{o.ys[o.head : end-wrapped], o.ys[:wrapped]} {
		for _, y := range run {
			if y > v {
				above++
			}
			if y < v {
				below++
			}
			if y == v {
				equal++
			}
		}
	}
	return above, below, equal
}

// Push absorbs one observation. When the window is full the oldest
// observation is evicted first. Both halves are one compare pass over the
// window: S moves by the pairs the sample forms with the others, and the
// count of equal values is the size of the tie group the sample leaves or
// joins.
func (o *OnlineTrend) Push(t time.Time, v float64) {
	if o.seen == 0 {
		o.t0 = t
	}
	o.seen++
	if o.n == o.window {
		// The oldest is the earlier element of every pair it is in.
		oldest := o.ys[o.head]
		o.head++
		if o.head == o.window {
			o.head = 0
		}
		o.n--
		above, below, equal := o.compare(oldest)
		o.s -= above - below
		o.tieCorr -= tieTerm(equal+1) - tieTerm(equal)
	}
	o.insert(t.Sub(o.t0).Seconds(), v)
}

// insert appends (x, v) to a window that has room; v is the later element
// of every new pair.
func (o *OnlineTrend) insert(x, v float64) {
	above, below, equal := o.compare(v)
	o.s += below - above
	o.tieCorr += tieTerm(equal+1) - tieTerm(equal)
	j := o.head + o.n
	if j >= o.window {
		j -= o.window
	}
	o.xs[j], o.ys[j] = x, v
	o.n++
}

// test runs the Mann-Kendall test over the current window: everything in
// a TrendResult but the slope, in O(1).
func (o *OnlineTrend) test() metrics.TrendResult {
	res := metrics.TrendResult{S: o.s}
	n := o.n
	if n < 4 {
		return res
	}
	varS := float64(int64(n*(n-1)*(2*n+5))-o.tieCorr) / 18
	if varS <= 0 {
		return res
	}
	switch {
	case o.s > 0:
		res.Z = float64(o.s-1) / math.Sqrt(varS)
	case o.s < 0:
		res.Z = float64(o.s+1) / math.Sqrt(varS)
	}
	res.P = 2 * (1 - metrics.StdNormalCDF(math.Abs(res.Z)))
	if res.P < o.alpha {
		if o.s > 0 {
			res.Direction = metrics.TrendIncreasing
		} else {
			res.Direction = metrics.TrendDecreasing
		}
	}
	return res
}

// SenSlope returns Sen's slope over the current window — exactly
// metrics.SenSlope of the buffered samples, whether or not the trend is
// significant. It costs O(Window²); Result calls it only for significant
// trends.
func (o *OnlineTrend) SenSlope() float64 {
	if o.head != 0 {
		// Unroll the ring so the window is one oldest-first run. A moved
		// head implies a full window, so this is a rotation of the whole
		// buffer.
		rotate(o.xs, o.head)
		rotate(o.ys, o.head)
		o.head = 0
	}
	return o.sen.Slope(o.xs[:o.n], o.ys[:o.n])
}

// rotate moves a[k:] to the front of a and a[:k] behind it, in place.
func rotate(a []float64, k int) {
	slices.Reverse(a[:k])
	slices.Reverse(a[k:])
	slices.Reverse(a)
}

// Result computes the Mann-Kendall verdict over the current window.
// SenSlope is filled in only when the trend is significant (Direction is
// not TrendNone) and is 0 otherwise; SenSlope() gives the estimate
// unconditionally.
func (o *OnlineTrend) Result() metrics.TrendResult {
	res := o.test()
	if res.Direction == metrics.TrendNone {
		return res
	}
	res.SenSlope = o.SenSlope()
	if res.SenSlope == 0 {
		// Staircase fallback: a resource that grows in sparse
		// jumps (a leak hit once per many sampling rounds — the
		// signature of a lightly loaded cluster replica) yields a
		// significant Mann-Kendall verdict whose *median*
		// pairwise slope is still exactly zero, because most
		// pairs lie on the same tread. The endpoint slope over
		// the window is the average growth rate and is safe here
		// precisely because the test already confirmed a
		// significant monotone trend — but only when the total
		// rise is material relative to the level, so the
		// floating-point jitter of a genuinely constant series
		// (~1e-16 relative) never masquerades as growth.
		x0, y0 := o.xs[0], o.ys[0] // SenSlope left the window oldest-first
		xn, yn := o.xs[o.n-1], o.ys[o.n-1]
		rise := yn - y0
		if xn > x0 && math.Abs(rise) > 1e-9*math.Max(math.Abs(y0), math.Abs(yn)) {
			res.SenSlope = rise / (xn - x0)
		}
	}
	return res
}
