package metrics

import (
	"math"
	"sort"
	"testing"
)

// sortedSenSlope is the textbook estimator — collect every pairwise
// slope, sort, take the middle — kept here as the independent reference
// the selecting implementation is checked against.
func sortedSenSlope(xs, ys []float64) float64 {
	var slopes []float64
	for i := 0; i < len(ys)-1; i++ {
		for j := i + 1; j < len(ys); j++ {
			if dx := xs[j] - xs[i]; dx != 0 {
				slopes = append(slopes, (ys[j]-ys[i])/dx)
			}
		}
	}
	if len(slopes) == 0 {
		return 0
	}
	sort.Float64s(slopes)
	n := len(slopes)
	if n%2 == 1 {
		return slopes[n/2]
	}
	return (slopes[n/2-1] + slopes[n/2]) / 2
}

// TestSenSlopeMatchesSortedReference slides a window over ramps, saws,
// mixtures and constants and requires the selected median to equal the
// sorted one exactly at every step, through one reused scratch.
func TestSenSlopeMatchesSortedReference(t *testing.T) {
	gens := map[string]func(i int) float64{
		"trend": func(i int) float64 { return float64(i) * 0.5 },
		"saw":   func(i int) float64 { return float64(i % 5) },
		"mix":   func(i int) float64 { return float64(i)*0.25 + float64((i*7)%11) },
		"flat":  func(i int) float64 { return 3.25 },
		"stair": func(i int) float64 { return float64(i / 7) },
		"noise": func(i int) float64 { return math.Sin(float64(i)*12.9898) * 43758.5453 },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			for _, window := range []int{1, 2, 3, 4, 5, 12, 13, 40, 41} {
				var scratch SenScratch
				var xs, ys []float64
				for i := 0; i < 3*window+5; i++ {
					// Irregular spacing, with a repeated instant every
					// ninth sample so the dx == 0 skip is exercised.
					x := float64(i)*30 + float64(i%4)
					if i%9 == 8 {
						x = xs[len(xs)-1]
					}
					xs, ys = append(xs, x), append(ys, gen(i))
					if len(xs) > window {
						xs, ys = xs[1:], ys[1:]
					}
					want := sortedSenSlope(xs, ys)
					if got := scratch.Slope(xs, ys); got != want {
						t.Fatalf("window %d i=%d: scratch slope %g, sorted reference %g", window, i, got, want)
					}
					if got := SenSlope(xs, ys); got != want {
						t.Fatalf("window %d i=%d: SenSlope %g, sorted reference %g", window, i, got, want)
					}
				}
			}
		})
	}
}

// TestMedianOfKeysMatchesSort checks the selection alone on inputs a
// slope window never produces: every length up to a few partitions deep,
// heavy ties, sorted and reversed runs, signed zeros and infinities.
func TestMedianOfKeysMatchesSort(t *testing.T) {
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // xorshift: a fixed, dependency-free stream
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	shapes := map[string]func(i, n int) float64{
		"random":   func(i, n int) float64 { return float64(int64(next())) / (1 << 40) },
		"few":      func(i, n int) float64 { return float64(next() % 3) },
		"equal":    func(i, n int) float64 { return -2.5 },
		"sorted":   func(i, n int) float64 { return float64(i) },
		"reversed": func(i, n int) float64 { return float64(n - i) },
		"organ":    func(i, n int) float64 { return math.Abs(float64(n/2 - i)) },
		"zeros":    func(i, n int) float64 { return math.Copysign(0, float64(int64(next()))) },
		"inf":      func(i, n int) float64 { return [3]float64{math.Inf(-1), 1, math.Inf(1)}[next()%3] },
	}
	for name, shape := range shapes {
		for n := 0; n <= 200; n++ {
			vs := make([]float64, n)
			keys := make([]uint64, n)
			for i := range vs {
				vs[i] = shape(i, n)
				keys[i] = orderKey(vs[i])
				if back := keyFloat(keys[i]); math.Float64bits(back) != math.Float64bits(vs[i]) {
					t.Fatalf("order key does not round-trip %v (got %v)", vs[i], back)
				}
			}
			sort.Float64s(vs)
			want := 0.0
			switch {
			case n == 0:
			case n%2 == 1:
				want = vs[n/2]
			default:
				want = (vs[n/2-1] + vs[n/2]) / 2
			}
			got := medianOfKeys(keys)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s n=%d: selected median %v, sorted median %v", name, n, got, want)
			}
		}
	}
}

// TestMedianOfKeysSurvivesNaN pins memory safety, not a value: a NaN
// slope is a caller bug, but it must not index out of range or hang.
func TestMedianOfKeysSurvivesNaN(t *testing.T) {
	for n := 1; n <= 64; n++ {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = orderKey(float64(i % 5))
			if i%3 == 0 {
				keys[i] = orderKey(math.NaN())
			}
		}
		medianOfKeys(keys)
	}
}

func TestSenScratchSteadyStateAllocs(t *testing.T) {
	const window = 16
	scratch := NewSenScratch(window)
	xs := make([]float64, window)
	ys := make([]float64, window)
	i := 0
	step := func() {
		for k := range xs {
			xs[k] = float64(i+k) * 30
			ys[k] = float64((i+k)%7) + float64(i+k)*0.1
		}
		i++
		scratch.Slope(xs, ys)
	}
	if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
		t.Fatalf("pre-sized Sen scratch allocates %.1f/op", allocs)
	}
}
