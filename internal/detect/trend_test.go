package detect

import (
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestOnlineTrendMatchesBatch verifies the incremental detector agrees
// with the batch Mann-Kendall over the same window on S, Z, P, direction
// and Sen slope, across noisy, trending and tied inputs.
func TestOnlineTrendMatchesBatch(t *testing.T) {
	rng := sim.NewStream(7)
	cases := []struct {
		name string
		gen  func(i int) float64
	}{
		{"noise", func(i int) float64 { return rng.Float64() }},
		{"trend", func(i int) float64 { return float64(i)*0.5 + rng.Float64() }},
		{"down", func(i int) float64 { return -float64(i) + 2*rng.Float64() }},
		{"ties", func(i int) float64 { return float64(i % 3) }},
		{"flat", func(i int) float64 { return 4.2 }},
	}
	const window = 16
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOnlineTrend(window, 0.05)
			var xs, ys []float64
			t0 := sim.Epoch
			for i := 0; i < 50; i++ {
				now := t0.Add(time.Duration(i) * 30 * time.Second)
				v := tc.gen(i)
				o.Push(now, v)
				xs = append(xs, now.Sub(t0).Seconds())
				ys = append(ys, v)

				lo := 0
				if len(ys) > window {
					lo = len(ys) - window
				}
				if len(ys)-lo < 4 {
					// Below 4 points both sides must refuse a verdict
					// (the batch code returns early and reports S=0).
					if got := o.Result(); got.Direction != metrics.TrendNone {
						t.Fatalf("i=%d verdict on %d points", i, len(ys)-lo)
					}
					continue
				}
				want := metrics.MannKendall(xs[lo:], ys[lo:], 0.05)
				got := o.Result()
				if got.S != want.S {
					t.Fatalf("i=%d S=%d want %d", i, got.S, want.S)
				}
				if math.Abs(got.Z-want.Z) > 1e-9 || math.Abs(got.P-want.P) > 1e-9 {
					t.Fatalf("i=%d Z/P=%g/%g want %g/%g", i, got.Z, got.P, want.Z, want.P)
				}
				if got.Direction != want.Direction {
					t.Fatalf("i=%d direction=%v want %v", i, got.Direction, want.Direction)
				}
				// The online detector only refreshes the slope on
				// significant trends; compare it there.
				if want.Direction != metrics.TrendNone &&
					math.Abs(got.SenSlope-want.SenSlope) > 1e-9 {
					t.Fatalf("i=%d slope=%g want %g", i, got.SenSlope, want.SenSlope)
				}
			}
		})
	}
}

func TestOnlineTrendReset(t *testing.T) {
	o := NewOnlineTrend(8, 0.05)
	for i := 0; i < 20; i++ {
		o.Push(sim.Epoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	if res := o.Result(); res.Direction != metrics.TrendIncreasing {
		t.Fatalf("want increasing before reset, got %v", res.Direction)
	}
	o.Reset()
	if o.Len() != 0 {
		t.Fatalf("Len=%d after reset", o.Len())
	}
	if res := o.Result(); res.Direction != metrics.TrendNone || res.S != 0 {
		t.Fatalf("want empty verdict after reset, got %+v", res)
	}
	// The detector must keep working after a reset.
	for i := 0; i < 20; i++ {
		o.Push(sim.Epoch.Add(time.Duration(100+i)*time.Second), float64(-i))
	}
	if res := o.Result(); res.Direction != metrics.TrendDecreasing {
		t.Fatalf("want decreasing after refill, got %v", res.Direction)
	}
}

func TestEntropyDetectorConcentration(t *testing.T) {
	e := NewEntropyDetector(32, 0.05)
	now := sim.Epoch
	// Concentrating distribution: one component's delta grows every
	// round while three stay flat — entropy must trend down and alarm.
	for i := 0; i < 40; i++ {
		now = now.Add(30 * time.Second)
		e.Observe(now, []float64{1 + float64(i)*0.5, 1, 1, 1})
	}
	if !e.Alarming() {
		t.Fatalf("entropy detector did not alarm on concentration: %+v", e.Result())
	}
	h, ok := e.Last()
	if !ok || h <= 0 || h >= 1 {
		t.Fatalf("normalised entropy out of range: %v %v", h, ok)
	}

	// A stationary distribution must not alarm.
	e2 := NewEntropyDetector(32, 0.05)
	for i := 0; i < 40; i++ {
		e2.Observe(sim.Epoch.Add(time.Duration(i)*30*time.Second), []float64{2, 1, 1, 3})
	}
	if e2.Alarming() {
		t.Fatal("entropy detector alarmed on a stationary distribution")
	}
}

func TestShiftGuard(t *testing.T) {
	g := NewShiftGuard()
	names := []string{"a", "b", "c"}
	steady := []float64{50, 30, 20}
	if g.Observe(names, steady) {
		t.Fatal("seeding round must not suppress")
	}
	for i := 0; i < 5; i++ {
		if g.Observe(names, steady) {
			t.Fatalf("steady round %d suppressed (dist=%v)", i, g.Distance())
		}
	}
	// The mix flips: c takes most of the traffic.
	shifted := []float64{10, 10, 80}
	if !g.Observe(names, shifted) {
		t.Fatalf("shift not detected (dist=%v)", g.Distance())
	}
	if !g.Shifted() {
		t.Fatal("Shifted() false after a shift")
	}
	// The guard must hold for the calm period, then release once the
	// reference has adapted to the new mix.
	released := false
	for i := 0; i < 30; i++ {
		if !g.Observe(names, shifted) {
			released = true
			break
		}
	}
	if !released {
		t.Fatal("guard never released after the mix settled")
	}
}

func TestMonitorLeakAlarmsAndFlatDoesNot(t *testing.T) {
	m := NewMonitor("memory", Config{Window: 20, MinSamples: 6, Consecutive: 3})
	now := sim.Epoch
	var alarmRound int64
	for i := 0; i < 30; i++ {
		now = now.Add(30 * time.Second)
		rep := m.Observe(now, []Observation{
			{Component: "leaky", Value: float64(i) * 1000, Usage: float64(i) * 10},
			{Component: "flat", Value: 5000, Usage: float64(i) * 20},
		})
		if top, ok := rep.Top(); ok && alarmRound == 0 {
			if top.Component != "leaky" {
				t.Fatalf("round %d: wrong suspect %q", rep.Round, top.Component)
			}
			alarmRound = rep.Round
		}
	}
	if alarmRound == 0 {
		t.Fatalf("leak never alarmed:\n%s", latestReport(m))
	}
	// MinSamples(6) + Consecutive(3) bound the earliest possible alarm;
	// a healthy detector fires within a few rounds of that.
	if alarmRound > 15 {
		t.Fatalf("alarm too late: round %d", alarmRound)
	}
	for _, v := range latestReport(m).Components {
		if v.Component == "flat" && v.Alarm {
			t.Fatal("flat component alarmed")
		}
	}
}

// TestEntropySuspectDeterministic gives two components bit-identical
// growing consumption among flat ones, so their shares tie exactly: the
// entropy alarm must name the first of them by name on every fresh
// monitor, never whichever the component map yields first.
func TestEntropySuspectDeterministic(t *testing.T) {
	for rep := 0; rep < 30; rep++ {
		m := NewMonitor("memory", Config{Window: 20, MinSamples: 6, Consecutive: 3})
		now := sim.Epoch
		var leak, flat float64
		var last *Report
		for i := 0; i < 40; i++ {
			now = now.Add(30 * time.Second)
			leak += 1 + float64(i)*0.5
			flat++
			usage := float64(i) * 10
			last = m.Observe(now, []Observation{
				{Component: "leak-b", Value: leak, Usage: usage},
				{Component: "flat-1", Value: flat, Usage: usage},
				{Component: "leak-a", Value: leak, Usage: usage},
				{Component: "flat-2", Value: flat, Usage: usage},
				{Component: "flat-3", Value: flat, Usage: usage},
			})
		}
		if !last.EntropyAlarm {
			t.Fatalf("premise broken: no entropy alarm on concentrating consumption:\n%s", last)
		}
		if last.EntropySuspect != "leak-a" {
			t.Fatalf("monitor %d: entropy suspect %q, want leak-a (the tie goes to the first name)", rep, last.EntropySuspect)
		}
	}
}

// TestMonitorShiftSuppression drives a usage-mix shift with no aging: the
// raw consumption deltas redistribute (which would concentrate the entropy
// signal) but the guard must keep every alarm down.
func TestMonitorShiftSuppression(t *testing.T) {
	m := NewMonitor("cpu", Config{
		Window: 20, MinSamples: 6, Consecutive: 3, PerInvocation: true,
	})
	now := sim.Epoch
	cumA, cumB := 0.0, 0.0
	usageA, usageB := 0.0, 0.0
	const costA, costB = 0.010, 0.020 // seconds per invocation, constant: nothing ages
	for i := 0; i < 60; i++ {
		now = now.Add(30 * time.Second)
		// Rounds 0-29: A-heavy mix; rounds 30+: B-heavy.
		ua, ub := 90.0, 10.0
		if i >= 30 {
			ua, ub = 10.0, 90.0
		}
		usageA += ua
		usageB += ub
		cumA += ua * costA
		cumB += ub * costB
		rep := m.Observe(now, []Observation{
			{Component: "a", Value: cumA, Usage: usageA},
			{Component: "b", Value: cumB, Usage: usageB},
		})
		if len(rep.Alarms()) > 0 || rep.EntropyAlarm {
			t.Fatalf("round %d: alarm under pure workload shift:\n%s", rep.Round, rep)
		}
	}
	if !m.bank.guard.Shifted() {
		t.Fatal("the guard never saw the mix shift")
	}
}

// BenchmarkMonitorObserve prices one 14-component sampling round with the
// windows saturated. all-trending is the worst case this design can show:
// every component ramps, so every trend is significant and pays the
// on-demand Sen slope every round. one-aging is the shape production
// traffic has — thirteen noisy-flat components and one ramp — and
// window=20 is the same shape at the window bench/ runs.
func BenchmarkMonitorObserve(b *testing.B) {
	ramp := func(i, c int, _ *sim.Stream) float64 { return float64(i) * float64(c+1) }
	oneAging := func(i, c int, rng *sim.Stream) float64 {
		if c == 0 {
			return 1e6 + float64(i)*4096
		}
		return 1e6*float64(c) + 1e3*rng.Float64()
	}
	for _, bc := range []struct {
		name  string
		cfg   Config
		value func(i, c int, rng *sim.Stream) float64
	}{
		{"all-trending", Config{}, ramp},
		{"one-aging", Config{}, oneAging},
		{"window=20", Config{Window: 20}, oneAging},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMonitor("memory", bc.cfg)
			rng := sim.NewStream(11)
			obs := make([]Observation, len(names))
			now := sim.Epoch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(30 * time.Second)
				for c := range obs {
					obs[c] = Observation{
						Component: names[c],
						Value:     bc.value(i, c, rng),
						Usage:     float64(i) * 10,
					}
				}
				m.Observe(now, obs)
			}
		})
	}
}

var names = []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11", "c12", "c13"}
