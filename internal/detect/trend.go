package detect

import (
	"math"
	"time"

	"repro/internal/metrics"
)

// OnlineTrend is an incremental Mann-Kendall trend detector over a sliding
// window of the most recent Window observations. Where
// metrics.MannKendall re-scans the whole series in O(n²) per query, this
// detector maintains the S statistic and the tie correction across pushes
// and evictions, so the significance test costs O(1).
//
// Beside the time-ordered ring the detector keeps the window's values in
// ascending order. A push counts the values above, below and equal to
// the sample that leaves and the one that enters by binary search, and
// turns the eviction plus the insertion into one replace inside the
// sorted array: the values between the two positions shift by one, and
// nothing moves when the leaving value equals the entering one. A NaN
// sample takes a ring slot but stays out of the sorted view: it is above,
// below and equal to nothing, so it neither moves S nor ties.
//
// Sample instants are kept as int64 nanoseconds since the first sample
// ever pushed and become seconds (time.Duration.Seconds, exactly what
// t.Sub(t0).Seconds() gives) only when a Sen slope is formed.
//
// Sen's slope is computed on demand, exactly — the O(Window²) pairwise
// slopes and a selection, by the same code as the batch metrics.SenSlope
// — and only Result on a significant trend asks for it: a bank's steady
// state is that nothing is aging, so the expensive statistic is reserved
// for the few series that trend.
//
// Pushes allocate nothing. The slope estimate works in a scratch the
// detector does not own: a Bank shares one pre-sized scratch among all
// its detectors, a standalone detector grows a private one on first use.
//
// It is not safe for concurrent use: one goroutine owns it.
type OnlineTrend struct {
	window int
	alpha  float64

	xs     []int64   // ring buffer, nanoseconds since the first sample
	ys     []float64 // ring buffer, values
	head   int       // index of the oldest element
	n      int       // current fill
	sorted []float64 // the window's non-NaN values, ascending

	s int64 // Mann-Kendall S over the window
	// tieCorr is Σ t·(t-1)·(2t+5) over groups of equal values, maintained
	// exactly in integer arithmetic from the equal counts of each push.
	tieCorr int64
	t0      int64 // UnixNano of the first sample ever pushed
	seen    int64 // total samples ever absorbed

	sen *senScratch // slope-estimate scratch, possibly shared
}

// senScratch is the working memory of a Sen-slope estimate: the pairwise
// slope buffer and the window unrolled oldest-first, in seconds.
type senScratch struct {
	metrics.SenScratch
	xs, ys []float64
}

// newSenScratch returns a scratch sized for windows of up to n samples.
func newSenScratch(n int) *senScratch {
	return &senScratch{SenScratch: *metrics.NewSenScratch(n), xs: make([]float64, n), ys: make([]float64, n)}
}

// NewOnlineTrend creates a detector with the given window size (minimum 4,
// the smallest n for which the normal approximation of S means anything)
// and Mann-Kendall significance level alpha (default 0.05 when out of
// (0,1)).
func NewOnlineTrend(window int, alpha float64) *OnlineTrend {
	o := &OnlineTrend{}
	o.init(window, alpha)
	return o
}

// init sizes an empty detector.
func (o *OnlineTrend) init(window int, alpha float64) {
	if window < 4 {
		window = 4
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	*o = OnlineTrend{
		window: window,
		alpha:  alpha,
		xs:     make([]int64, window),
		ys:     make([]float64, window),
		sorted: make([]float64, 0, window),
		sen:    o.sen,
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
	o.sorted = o.sorted[:0]
}

// tieTerm is one tie group's contribution to the variance correction.
func tieTerm(t int64) int64 { return t * (t - 1) * (2*t + 5) }

// rank returns how many sorted values lie below v and how many equal it;
// v must not be NaN.
func (o *OnlineTrend) rank(v float64) (below, equal int) {
	s := o.sorted
	m := len(s)
	lo, hi := 0, m
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end, hi := lo, m
	for end < hi {
		mid := int(uint(end+hi) >> 1)
		if s[mid] == v {
			end = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, end - lo
}

// maybeIncreasing is a filter in front of test: it is false only where
// test finds no increasing trend. S must be positive and, for a detector
// running at Alpha, its Z at least zAlphaFloor — decided without the
// normal CDF.
func (o *OnlineTrend) maybeIncreasing() bool {
	if o.s <= 0 || o.n < 4 {
		return false
	}
	if o.alpha != Alpha {
		return true
	}
	n := o.n
	varS := float64(int64(n*(n-1)*(2*n+5))-o.tieCorr) / 18
	d := float64(o.s - 1)
	return d*d >= zAlphaFloor*zAlphaFloor*varS
}

// zAlphaFloor sits 1e-6 below the smallest Z test finds significant at
// Alpha: far beyond the rounding of the normal CDF, so any Z below it is
// insignificant whatever the last bits of P.
var zAlphaFloor = func() float64 {
	lo, hi := 0.0, 40.0
	for range 200 {
		mid := (lo + hi) / 2
		if 2*(1-metrics.StdNormalCDF(mid)) < Alpha {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo - 1e-6
}()

// Push absorbs one observation. When the window is full the oldest
// observation is evicted first.
func (o *OnlineTrend) Push(t time.Time, v float64) { o.push(t.UnixNano(), v) }

// push absorbs one observation taken at ns (UnixNano).
func (o *OnlineTrend) push(ns int64, v float64) {
	if o.seen == 0 {
		o.t0 = ns
	}
	o.seen++
	x := ns - o.t0
	if o.n < o.window {
		o.insert(x, v)
		return
	}
	j := o.head
	o.head++
	if o.head == o.window {
		o.head = 0
	}
	o.replace(o.ys[j], v)
	o.xs[j], o.ys[j] = x, v
}

// replace moves S, the tie correction and the sorted view from a full
// window holding old to the same window with old evicted and v appended.
// The oldest is the earlier element of every pair it is in, the newest
// the later one.
func (o *OnlineTrend) replace(old, v float64) {
	s := o.sorted
	m := len(s)
	if old == v {
		// v takes old's place in the sorted view and its tie group: S
		// moves by the pairs v now closes instead of opening.
		below, equal := o.rank(v)
		o.s += 2 * int64(below-(m-below-equal))
		return
	}
	oldIn, vIn := old == old, v == v // NaN is neither
	var po int                       // a position of old in s
	if oldIn {
		below, equal := o.rank(old)
		above := m - below - equal
		equal-- // old itself
		o.s -= int64(above - below)
		o.tieCorr -= tieTerm(int64(equal)+1) - tieTerm(int64(equal))
		po = below
		if vIn && old < v {
			po = below + equal // the last copy: fewest values to shift
		}
	}
	if !vIn {
		if oldIn {
			copy(s[po:], s[po+1:])
			o.sorted = s[:m-1]
		}
		return
	}
	at, ties := o.rank(v)
	below, above, equal := at, m-at-ties, ties
	switch {
	case !oldIn:
	case old < v:
		below--
	case old > v:
		above--
	default:
		equal--
	}
	o.s += int64(below - above)
	o.tieCorr += tieTerm(int64(equal)+1) - tieTerm(int64(equal))
	switch {
	case !oldIn:
		o.sorted = s[:m+1]
		copy(o.sorted[at+1:], s[at:m])
		o.sorted[at] = v
	case old < v:
		// The values in (old, v) shift down over old's slot, and v
		// lands in front of its equals.
		copy(s[po:at-1], s[po+1:at])
		s[at-1] = v
	case old > v:
		// The values in (v, old) shift up over old's slot, and v lands
		// behind its equals.
		q := at + ties
		copy(s[q+1:po+1], s[q:po])
		s[q] = v
	}
}

// insert appends (x, v) to a window that has room; v is the later element
// of every new pair.
func (o *OnlineTrend) insert(x int64, v float64) {
	if v == v {
		below, equal := o.rank(v)
		m := len(o.sorted)
		o.s += int64(below - (m - below - equal))
		o.tieCorr += tieTerm(int64(equal)+1) - tieTerm(int64(equal))
		o.sorted = o.sorted[:m+1]
		copy(o.sorted[below+1:], o.sorted[below:m])
		o.sorted[below] = v
	}
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

// unroll writes the window oldest-first into the slope scratch, instants
// in seconds since the first sample, and returns the two runs.
func (o *OnlineTrend) unroll() (xs, ys []float64) {
	if o.sen == nil {
		o.sen = newSenScratch(o.window)
	}
	sc := o.sen
	if len(sc.xs) < o.n {
		sc.xs, sc.ys = make([]float64, o.window), make([]float64, o.window)
	}
	xs, ys = sc.xs[:o.n], sc.ys[:o.n]
	j := o.head
	for i := range xs {
		xs[i], ys[i] = time.Duration(o.xs[j]).Seconds(), o.ys[j]
		if j++; j == o.window {
			j = 0
		}
	}
	return xs, ys
}

// SenSlope returns Sen's slope over the current window — exactly
// metrics.SenSlope of the buffered samples, whether or not the trend is
// significant. It costs O(Window²); Result calls it only for significant
// trends.
func (o *OnlineTrend) SenSlope() float64 {
	xs, ys := o.unroll()
	return o.sen.Slope(xs, ys)
}

// slope is the slope Result reports for a significant trend: Sen's slope,
// or the endpoint slope on a staircase.
func (o *OnlineTrend) slope() float64 {
	xs, ys := o.unroll()
	slope := o.sen.Slope(xs, ys)
	if slope != 0 {
		return slope
	}
	// Staircase fallback: a resource that grows in sparse jumps (a leak
	// hit once per many sampling rounds — the signature of a lightly
	// loaded cluster replica) yields a significant Mann-Kendall verdict
	// whose *median* pairwise slope is still exactly zero, because most
	// pairs lie on the same tread. The endpoint slope over the window is
	// the average growth rate and is safe here precisely because the test
	// already confirmed a significant monotone trend — but only when the
	// total rise is material relative to the level, so the floating-point
	// jitter of a genuinely constant series (~1e-16 relative) never
	// masquerades as growth.
	x0, y0 := xs[0], ys[0]
	xn, yn := xs[len(xs)-1], ys[len(ys)-1]
	rise := yn - y0
	if xn > x0 && math.Abs(rise) > 1e-9*math.Max(math.Abs(y0), math.Abs(yn)) {
		return rise / (xn - x0)
	}
	return 0
}

// Result computes the Mann-Kendall verdict over the current window.
// SenSlope is filled in only when the trend is significant (Direction is
// not TrendNone) and is 0 otherwise; SenSlope() gives the estimate
// unconditionally.
func (o *OnlineTrend) Result() metrics.TrendResult {
	res := o.test()
	if res.Direction != metrics.TrendNone {
		res.SenSlope = o.slope()
	}
	return res
}
