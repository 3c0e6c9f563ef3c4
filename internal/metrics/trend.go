package metrics

import (
	"math"
	"math/bits"
)

// TrendDirection classifies the outcome of a Mann-Kendall test.
type TrendDirection int

// Trend directions.
const (
	TrendNone TrendDirection = iota
	TrendIncreasing
	TrendDecreasing
)

func (d TrendDirection) String() string {
	switch d {
	case TrendIncreasing:
		return "increasing"
	case TrendDecreasing:
		return "decreasing"
	default:
		return "none"
	}
}

// TrendResult is the outcome of a Mann-Kendall monotone trend test plus
// Sen's slope estimate. The paper's future work calls for "more intelligent
// decision makers"; the trend-based root-cause strategy is built on this.
type TrendResult struct {
	Direction TrendDirection
	S         int64   // Mann-Kendall S statistic
	Z         float64 // normal approximation of S
	P         float64 // two-sided p-value
	SenSlope  float64 // robust slope estimate, units per x-unit
}

// MannKendall runs the Mann-Kendall test on ys observed at xs, with
// significance level alpha (e.g. 0.05). Fewer than 4 observations always
// yield TrendNone: the normal approximation is meaningless below that.
func MannKendall(xs, ys []float64, alpha float64) TrendResult {
	n := len(ys)
	if len(xs) < n {
		n = len(xs)
	}
	res := TrendResult{}
	if n < 4 {
		return res
	}
	var s int64
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case ys[j] > ys[i]:
				s++
			case ys[j] < ys[i]:
				s--
			}
		}
	}
	res.S = s

	// Variance with tie correction: Σ t·(t-1)·(2t+5) over groups of equal
	// values, summed exactly in integers so the map's iteration order
	// cannot move a bit of Z (detect.OnlineTrend keeps the same sum).
	ties := map[float64]int64{}
	for _, y := range ys[:n] {
		ties[y]++
	}
	var tieCorr int64
	for _, t := range ties {
		tieCorr += t * (t - 1) * (2*t + 5)
	}
	varS := float64(int64(n*(n-1)*(2*n+5))-tieCorr) / 18
	if varS <= 0 {
		return res
	}
	switch {
	case s > 0:
		res.Z = float64(s-1) / math.Sqrt(varS)
	case s < 0:
		res.Z = float64(s+1) / math.Sqrt(varS)
	}
	res.P = 2 * (1 - StdNormalCDF(math.Abs(res.Z)))
	if res.P < alpha {
		if s > 0 {
			res.Direction = TrendIncreasing
		} else {
			res.Direction = TrendDecreasing
		}
	}
	res.SenSlope = SenSlope(xs[:n], ys[:n])
	return res
}

// MannKendallSeries applies MannKendall to a series with x in seconds since
// the first point, so SenSlope is units-per-second.
func MannKendallSeries(pts []Point, alpha float64) TrendResult {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	if len(pts) > 0 {
		t0 := pts[0].T
		for i, p := range pts {
			xs[i] = p.T.Sub(t0).Seconds()
			ys[i] = p.V
		}
	}
	return MannKendall(xs, ys, alpha)
}

// SenSlope returns the median of all pairwise slopes — Sen's robust
// slope estimator: the middle slope for an odd pair count, the mean of the
// two middle slopes for an even one, 0 when no pair has a slope. A pair at
// one instant has none, and neither has a pair whose slope is NaN (a NaN
// value, or two equal infinities). The
// online detectors (internal/detect) run this very code through a
// SenScratch they own, so batch and online estimates cannot diverge.
func SenSlope(xs, ys []float64) float64 {
	return new(SenScratch).Slope(xs, ys)
}

// SenScratch is the reusable working buffer of a Sen-slope estimate. The
// estimate needs every pairwise slope at once — n·(n-1)/2 values — and a
// caller that estimates round after round (a detect.Bank, whose
// detectors all share one) keeps that buffer here so the steady state
// allocates nothing. The zero value is ready to use and grows on demand.
// Not safe for concurrent use.
type SenScratch struct {
	// keys holds the slopes as order-preserving integers (see orderKey):
	// the selection below partitions them without data-dependent branches,
	// which floating-point compares cannot do in Go.
	keys []uint64
}

// NewSenScratch returns a scratch pre-sized for series of up to n points.
func NewSenScratch(n int) *SenScratch {
	return &SenScratch{keys: make([]uint64, n*(n-1)/2)}
}

// Slope returns Sen's slope of ys observed at xs; see SenSlope.
func (s *SenScratch) Slope(xs, ys []float64) float64 {
	n := len(ys)
	xs = xs[:n]
	if need := n * (n - 1) / 2; cap(s.keys) < need {
		s.keys = make([]uint64, need)
	}
	keys := s.keys[:cap(s.keys)]
	k := 0
	for j := 1; j < n; j++ {
		xj, yj := xs[j], ys[j]
		for i, xi := range xs[:j] {
			if dx := xj - xi; dx != 0 {
				if s := (yj - ys[i]) / dx; s == s {
					keys[k] = orderKey(s)
					k++
				}
			}
		}
	}
	return medianOfKeys(keys[:k])
}

// orderKey maps a float64 to a uint64 whose unsigned order is the float's
// numeric order (-0 sorts directly below +0, NaNs beyond the infinities).
func orderKey(f float64) uint64 {
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyFloat inverts orderKey.
func keyFloat(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// medianOfKeys returns the median of the floats behind the order keys in
// a — the value a full sort would leave in the middle, or the mean of the
// two middle values for an even count, 0 when empty — by selection in
// expected O(len(a)), reordering a. Slopes over a window are neither
// sorted nor random (a staircase yields mostly equal ones), so the
// partition counts keys equal to the pivot and stops as soon as the
// middle falls among them.
func medianOfKeys(a []uint64) float64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	k := n / 2
	lo, hi := 0, n // the k-th smallest key lies in a[lo:hi]
	for hi-lo > 12 {
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// Move the keys below p to the front of the range. The borrow of
		// an unsigned subtraction is the comparison as an integer, which
		// keeps the loop free of unpredictable branches.
		less, equal := lo, 0
		w := a[lo:hi]
		for i, v := range w {
			w[i] = a[less]
			a[less] = v
			_, lt := bits.Sub64(v, p, 0)
			_, eq := bits.Sub64(v^p, 1, 0)
			less += int(lt)
			equal += int(eq)
		}
		switch {
		case k < less:
			hi = less
		case k < less+equal:
			// The k-th key is p, and so is the one before it unless p's
			// run starts exactly at k.
			if k == less && n%2 == 0 {
				return middle(n, maxKey(a[:k]), p)
			}
			return middle(n, p, p)
		default:
			// Move p's run in front of the greater keys and continue
			// behind it.
			next := less
			w = a[less:hi]
			for i, v := range w {
				w[i] = a[next]
				a[next] = v
				_, gt := bits.Sub64(p, v, 0)
				next += 1 - int(gt)
			}
			lo = next
		}
	}
	for i := lo + 1; i < hi; i++ {
		v := a[i]
		j := i
		for ; j > lo && a[j-1] > v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
	// Everything before a[k] is now no greater than it.
	below := a[k]
	if n%2 == 0 {
		below = maxKey(a[:k])
	}
	return middle(n, below, a[k])
}

// middle forms the median of n values from the k-th key (k = n/2) and
// the one below it.
func middle(n int, below, kth uint64) float64 {
	if n%2 == 1 {
		return keyFloat(kth)
	}
	return (keyFloat(below) + keyFloat(kth)) / 2
}

func median3(x, y, z uint64) uint64 {
	if y < x {
		x, y = y, x
	}
	if z < y {
		y = max(x, z)
	}
	return y
}

func maxKey(a []uint64) uint64 {
	m := a[0]
	for _, v := range a[1:] {
		m = max(m, v)
	}
	return m
}

// StdNormalCDF is Phi(x) via the complementary error function. Exported
// for the same single-implementation reason as SenSlope.
func StdNormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
