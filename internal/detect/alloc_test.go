package detect

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// latestReport returns the report m's latest Observe returned.
func latestReport(m *Monitor) *Report {
	return &m.ring[(m.ringIdx+len(m.ring)-1)%len(m.ring)]
}

// TestMonitorObserveSteadyStateAllocs is the zero-garbage contract of the
// monitoring plane: once every component has been seen and the windows
// are warm, a Monitor.Observe round must not allocate — the round
// scratch, the detector windows, the shared slope scratch and the
// published report ring are all reused. The long-run soak below keeps
// cycling a window-saturated monitor (with an alarming component present, so the
// significant-trend path is exercised too) and fails on any per-round
// garbage.
func TestMonitorObserveSteadyStateAllocs(t *testing.T) {
	const comps = 14
	m := NewMonitor("memory", Config{})
	obs := make([]Observation, comps)
	now := sim.Epoch
	round := 0
	step := func() {
		round++
		now = now.Add(30 * time.Second)
		for c := range obs {
			obs[c] = Observation{
				Component: names[c],
				Value:     float64(round) * float64(c+1),
				Usage:     float64(round) * 10,
			}
		}
		m.Observe(now, obs)
	}
	// Warm up past the window size so every ring buffer has reached
	// steady state, and alarms are live.
	for round < 3*m.bank.cols[0].cfg.Window {
		step()
	}
	if rep := latestReport(m); len(rep.Alarms()) == 0 {
		t.Fatalf("soak premise broken: no component alarming at round %d\n%s", round, rep)
	}
	if allocs := testing.AllocsPerRun(500, step); allocs > 0 {
		t.Fatalf("steady-state Observe allocates %.2f objects per round", allocs)
	}
}

// TestMonitorObserveFirstAlarmAllocs covers the round a quiet monitor
// first needs a Sen slope. Every component is constant through warm-up, so
// no trend is ever significant and no slope is estimated; then one
// component starts to leak inside the measured run. The slope scratch is
// monitor-owned and sized at construction, so the first significant
// verdict — and the alarm it leads to — must allocate as little as a
// quiet round: nothing.
func TestMonitorObserveFirstAlarmAllocs(t *testing.T) {
	const comps = 14
	m := NewMonitor("memory", Config{})
	obs := make([]Observation, comps)
	now := sim.Epoch
	round, leakFrom := 0, math.MaxInt
	step := func() {
		round++
		now = now.Add(30 * time.Second)
		for c := range obs {
			obs[c] = Observation{Component: names[c], Value: 5000 * float64(c+1), Usage: float64(round) * 10}
		}
		if round > leakFrom {
			obs[0].Value += 4096 * float64(round-leakFrom)
		}
		rep := m.Observe(now, obs)
		if round <= leakFrom {
			for _, v := range rep.Components {
				if v.Trend.Direction != metrics.TrendNone {
					t.Fatalf("premise broken: %s significant at round %d before the leak", v.Component, round)
				}
			}
		}
	}
	for round < 3*m.bank.cols[0].cfg.Window {
		step()
	}
	leakFrom = round
	// Count every malloc over the whole transition: AllocsPerRun's
	// per-round average would round a single first-alarm allocation away.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 2*m.bank.cols[0].cfg.Window; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 0 {
		t.Fatalf("turning significant allocated %d objects", n)
	}
	if top, ok := latestReport(m).Top(); !ok || top.Component != names[0] || top.Score <= 0 {
		t.Fatalf("premise broken: the leak never alarmed\n%s", latestReport(m))
	}
}

// TestMonitorObserveShiftResetAllocs drives the guard through a workload
// shift mid-soak: the entropy window reset and the suppression path must
// reuse state as well (Reset keeps buffers), so even shifting rounds stay
// allocation-free at steady state.
func TestMonitorObserveShiftResetAllocs(t *testing.T) {
	m := NewMonitor("cpu", Config{PerInvocation: true})
	now := sim.Epoch
	round := 0
	var cumA, cumB, usageA, usageB float64
	step := func() {
		round++
		now = now.Add(30 * time.Second)
		ua, ub := 90.0, 10.0
		if round%40 >= 20 { // mix flips every 20 rounds: the guard stays busy
			ua, ub = 10.0, 90.0
		}
		usageA += ua
		usageB += ub
		cumA += ua * 0.010
		cumB += ub * 0.020
		m.Observe(now, []Observation{
			{Component: "a", Value: cumA, Usage: usageA},
			{Component: "b", Value: cumB, Usage: usageB},
		})
	}
	for round < 120 {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs > 0 {
		t.Fatalf("shifting-state Observe allocates %.2f objects per round", allocs)
	}
}

// TestReportRetentionRing pins the recycling contract: a report stays
// intact for ReportRetention-1 rounds after publication and is rewritten
// by the ring afterwards, and a copy taken in time keeps its values.
func TestReportRetentionRing(t *testing.T) {
	m := NewMonitor("memory", Config{})
	now := sim.Epoch
	push := func() *Report {
		now = now.Add(30 * time.Second)
		return m.Observe(now, []Observation{{Component: "c", Value: float64(m.Rounds()) * 100, Usage: 1}})
	}
	first := push()
	firstRound := first.Round
	kept := *first
	kept.Components = slices.Clone(first.Components)
	for i := 1; i < ReportRetention; i++ {
		push()
		if first.Round != firstRound {
			t.Fatalf("report rewritten %d rounds after publication, within its retention window", i)
		}
	}
	push() // the ring has now cycled back over it
	if first.Round == firstRound {
		t.Fatal("ring did not recycle the report buffer after retention expired")
	}
	if kept.Round != firstRound {
		t.Fatal("the kept copy changed with the ring")
	}
}

// TestMonitorObserveLatencyHandleAllocs extends the soak to the two
// streams the chaos catalog added to the bank: a latency-shaped monitor
// (per-invocation with the DefaultLatencyMinSlope-style floor, fed a
// cumulative-seconds series whose per-invocation mean degrades past the
// floor) and a handles-shaped monitor (raw level, fed the integer
// plateau staircase a countdown handle leak produces — the Sen-median
// staircase fallback path). Both must be alarming and both must stay
// zero-alloc at steady state, so growing the bank from three monitors to
// five cannot reopen the per-round garbage the Observe contract closed.
func TestMonitorObserveLatencyHandleAllocs(t *testing.T) {
	lat := NewMonitor("latency", Config{PerInvocation: true, MinSlope: 5e-4})
	hnd := NewMonitor("handles", Config{})
	now := sim.Epoch
	round := 0
	var cumLat, usage float64
	latObs := make([]Observation, 2)
	hndObs := make([]Observation, 2)
	step := func() {
		round++
		now = now.Add(30 * time.Second)
		// Component "slow" degrades by 20ms of mean latency per round
		// (6.7e-4 s/inv per second, above the 5e-4 floor); "ok" is flat.
		usage += 10
		cumLat += 10 * (0.010 + 0.020*float64(round))
		latObs[0] = Observation{Component: "slow", Value: cumLat, Usage: usage}
		latObs[1] = Observation{Component: "ok", Value: 0.015 * usage, Usage: usage}
		lat.Observe(now, latObs)
		// The leaking component's live-handle level is an integer
		// staircase: one more handle every third round.
		hndObs[0] = Observation{Component: "leaky", Value: float64(round / 3), Usage: usage}
		hndObs[1] = Observation{Component: "ok", Value: 4, Usage: usage}
		hnd.Observe(now, hndObs)
	}
	for round < 3*lat.bank.cols[0].cfg.Window {
		step()
	}
	if rep := latestReport(lat); len(rep.Alarms()) != 1 || rep.Alarms()[0].Component != "slow" {
		t.Fatalf("soak premise broken: latency stream not alarming on slow at round %d\n%s", round, rep)
	}
	if rep := latestReport(hnd); len(rep.Alarms()) != 1 || rep.Alarms()[0].Component != "leaky" {
		t.Fatalf("soak premise broken: handle stream not alarming on leaky at round %d\n%s", round, rep)
	}
	if allocs := testing.AllocsPerRun(500, step); allocs > 0 {
		t.Fatalf("latency/handle steady-state Observe allocates %.2f objects per round", allocs)
	}
}
