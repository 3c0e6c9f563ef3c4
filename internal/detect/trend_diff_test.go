package detect

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// recount derives Mann-Kendall's S and the tie correction of a window
// from scratch.
func recount(ys []float64) (s, tieCorr int64) {
	groups := map[float64]int64{}
	for i, yi := range ys {
		groups[yi]++
		for _, yj := range ys[i+1:] {
			switch {
			case yj > yi:
				s++
			case yj < yi:
				s--
			}
		}
	}
	for _, t := range groups {
		tieCorr += t * (t - 1) * (2*t + 5)
	}
	return s, tieCorr
}

// TestOnlineTrendDifferential is the proof behind "exact Sen slope on
// demand": after every single push — through window fill, eviction, a
// Reset and a Snapshot→Restore taken mid-stream — the detector's slope is
// bit-for-bit the batch metrics.SenSlope of the same window (which the
// metrics tests hold to the sorted textbook value), S and the tie correction equal a from-scratch
// recount, and Result reports the slope exactly when the trend is
// significant.
func TestOnlineTrendDifferential(t *testing.T) {
	rng := sim.NewStream(19)
	gens := []struct {
		name string
		gen  func(i int) float64
	}{
		{"noise", func(i int) float64 { return rng.Float64() }},
		{"ramp", func(i int) float64 { return 1e6 + 4096*float64(i) + 100*rng.Float64() }},
		{"staircase", func(i int) float64 { return float64(i / 7) }},
		{"ties", func(i int) float64 { return float64(i * i % 3) }},
		{"constant", func(i int) float64 { return 4.2 }},
		{"non-finite", func(i int) float64 {
			switch {
			case i%9 == 8:
				return math.NaN()
			case i%23 == 11:
				return math.Inf(1)
			case i%31 == 20:
				return math.Inf(-1)
			}
			return 1e3*float64(i) + rng.Float64()
		}},
	}
	steps := []struct {
		name string
		step func(i int) time.Duration
	}{
		{"regular", func(i int) time.Duration { return 30 * time.Second }},
		{"irregular", func(i int) time.Duration {
			if i%11 == 10 {
				return 0 // a repeated instant: the pair has no slope
			}
			return time.Duration(1+i*7919%13) * 1700 * time.Millisecond
		}},
	}
	for _, window := range []int{4, 5, 16, 40} {
		for _, g := range gens {
			for _, st := range steps {
				t.Run(fmt.Sprintf("window=%d/%s/%s", window, g.name, st.name), func(t *testing.T) {
					o := NewOnlineTrend(window, 0.05)
					now := sim.Epoch
					t0 := now.Add(st.step(0)) // x counts from the first sample ever pushed
					var xs, ys []float64
					pushes := 4*window + 20
					for i := 0; i < pushes; i++ {
						switch i {
						case 2*window + 3:
							o.Reset()
							xs, ys = xs[:0], ys[:0]
						case 3*window + 7:
							r, err := restoreWindow(o, windowBytes(o))
							if err != nil {
								t.Fatal(err)
							}
							o = r
						}
						now = now.Add(st.step(i))
						v := g.gen(i)
						o.Push(now, v)
						xs, ys = append(xs, now.Sub(t0).Seconds()), append(ys, v)
						if len(ys) > window {
							xs, ys = xs[1:], ys[1:]
						}

						if s, tc := recount(ys); o.s != s || o.tieCorr != tc {
							t.Fatalf("push %d: S=%d tieCorr=%d, recount %d / %d", i, o.s, o.tieCorr, s, tc)
						}
						want := metrics.SenSlope(xs, ys)
						if got := o.SenSlope(); got != want {
							t.Fatalf("push %d: SenSlope() %v (%#x), batch %v (%#x)",
								i, got, math.Float64bits(got), want, math.Float64bits(want))
						}

						res := o.Result()
						if len(ys) < 4 {
							if res.Direction != metrics.TrendNone {
								t.Fatalf("push %d: verdict on %d points", i, len(ys))
							}
							continue
						}
						batch := metrics.MannKendall(xs, ys, 0.05)
						if res.S != batch.S || res.Direction != batch.Direction ||
							math.Abs(res.Z-batch.Z) > 1e-9 || math.Abs(res.P-batch.P) > 1e-9 {
							t.Fatalf("push %d: online %+v, batch %+v", i, res, batch)
						}
						switch {
						case res.Direction == metrics.TrendNone:
							if res.SenSlope != 0 {
								t.Fatalf("push %d: insignificant trend reports slope %v", i, res.SenSlope)
							}
						case want != 0:
							if res.SenSlope != want {
								t.Fatalf("push %d: significant slope %v, want %v", i, res.SenSlope, want)
							}
						default:
							// Staircase fallback: the endpoint slope.
							if end := (ys[len(ys)-1] - ys[0]) / (xs[len(xs)-1] - xs[0]); res.SenSlope != end {
								t.Fatalf("push %d: staircase slope %v, want endpoint %v", i, res.SenSlope, end)
							}
						}
					}
				})
			}
		}
	}
}

// TestShiftGuardDeterministic replays one observation sequence through
// 200 fresh guards, listing the components in a different order each
// time, and requires a single bit-identical distance: the sums must run
// in the guard's own key order, never the caller's or a map's.
func TestShiftGuardDeterministic(t *testing.T) {
	const comps = 14
	rng := sim.NewStream(5)
	rounds := make([][]float64, 12)
	for r := range rounds {
		rounds[r] = make([]float64, comps)
		for c := range rounds[r] {
			rounds[r][c] = 10 + float64(c) + 3*rng.Float64()
		}
	}
	var want uint64
	for rep := 0; rep < 200; rep++ {
		g := NewShiftGuard()
		order := make([]int, comps)
		for i := range order {
			order[i] = i
		}
		for i := comps - 1; i > 0; i-- {
			j := int(rng.Float64() * float64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		ns, ds := make([]string, comps), make([]float64, comps)
		for _, round := range rounds {
			for i, c := range order {
				ns[i], ds[i] = names[c], round[c]
			}
			g.Observe(ns, ds)
		}
		got := math.Float64bits(g.Distance())
		if rep == 0 {
			want = got
			if g.Distance() == 0 {
				t.Fatal("premise broken: the sequence produced no distance to compare")
			}
		} else if got != want {
			t.Fatalf("replay %d: distance %#x, first replay %#x", rep, got, want)
		}
	}
}

// TestMannKendallDeterministic replays windows full of ties through the
// batch metrics.MannKendall and requires one bit-identical Z and P per
// window, however often it is asked, and bit-equality with the online
// detector over the same window: the tie correction is one exact integer
// sum, never a float sum in map order.
func TestMannKendallDeterministic(t *testing.T) {
	rng := sim.NewStream(42)
	for w := 0; w < 2000; w++ {
		n := 8 + int(rng.Float64()*33)
		levels := 2 + int(rng.Float64()*5)
		xs, ys := make([]float64, n), make([]float64, n)
		o := NewOnlineTrend(n, 0.05)
		for i := range ys {
			xs[i] = float64(30 * i)
			ys[i] = float64(int(rng.Float64() * float64(levels)))
			o.Push(sim.Epoch.Add(time.Duration(i)*30*time.Second), ys[i])
		}
		first := metrics.MannKendall(xs, ys, 0.05)
		for rep := 0; rep < 5; rep++ {
			again := metrics.MannKendall(xs, ys, 0.05)
			if math.Float64bits(again.Z) != math.Float64bits(first.Z) || math.Float64bits(again.P) != math.Float64bits(first.P) {
				t.Fatalf("window %d call %d: Z %#x P %#x, first call Z %#x P %#x", w, rep,
					math.Float64bits(again.Z), math.Float64bits(again.P), math.Float64bits(first.Z), math.Float64bits(first.P))
			}
		}
		online := o.Result()
		if online.S != first.S || online.Direction != first.Direction ||
			math.Float64bits(online.Z) != math.Float64bits(first.Z) || math.Float64bits(online.P) != math.Float64bits(first.P) {
			t.Fatalf("window %d: online %+v, batch %+v", w, online, first)
		}
	}
}
