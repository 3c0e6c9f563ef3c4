package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/sim"
)

// capturedRound is one node round as a detector bank receives it.
type capturedRound struct {
	at      time.Time
	samples []core.ComponentSample
}

// roundCapture records every node's rounds: a single-node stack's as its
// manager delivers them, a cluster node's as its monitoring transport
// hands them to the aggregator.
type roundCapture struct {
	mu     sync.Mutex
	byNode map[string][]capturedRound
}

func (c *roundCapture) record(node string, at time.Time, batch []core.ComponentSample) {
	c.mu.Lock()
	c.byNode[node] = append(c.byNode[node], capturedRound{at: at, samples: slices.Clone(batch)})
	c.mu.Unlock()
}

// ObserveSample records a single-node stack's round.
func (c *roundCapture) ObserveSample(now time.Time, batch []core.ComponentSample) {
	c.record("", now, batch)
}

// captureTransport is the test transport: it records each round and
// passes it on.
type captureTransport struct {
	cluster.Transport
	node string
	c    *roundCapture
}

func (t *captureTransport) Publish(r cluster.Round) error {
	t.c.record(t.node, r.Time, r.Samples)
	return t.Transport.Publish(r)
}

// captureScenario runs one table row the way Scenario.Run does, recording
// the rounds every detector bank of the run receives.
func captureScenario(t *testing.T, sc Scenario) map[string][]capturedRound {
	c := &roundCapture{byNode: make(map[string][]capturedRound)}
	sc.Fleet.Chaos = func(node string, tr cluster.Transport) cluster.Transport {
		return &captureTransport{Transport: tr, node: node, c: c}
	}
	e := &env{cfg: scenarioCfg.withDefaults(), sc: &sc, acc: Accuracy{Truth: sc.Expect.Truth}}
	if len(sc.Phases) == 0 {
		return nil
	}
	if err := e.assemble(); err != nil {
		t.Fatalf("%s: %v", sc.ID, err)
	}
	defer e.close()
	if e.s != nil {
		e.s.Framework.Manager().Subscribe(c)
	}
	if _, _, err := e.play(); err != nil {
		t.Fatalf("%s: %v", sc.ID, err)
	}
	return c.byNode
}

// fleetStream is fleet_rounds' node shape: 14 components with flat levels
// and a constant per-invocation cost, component c called 10+c times a
// round, one leaking 100 KB a round from round 10.
func fleetStream(rounds int) []capturedRound {
	out := make([]capturedRound, rounds)
	for r := range out {
		batch := make([]core.ComponentSample, 14)
		for c := range batch {
			usage := int64((10 + c) * (r + 1))
			size := int64(5000 * (c + 1))
			if c == 0 && r >= 10 {
				size += 100 << 10 * int64(r-9)
			}
			batch[c] = core.ComponentSample{
				Component: fmt.Sprintf("app.comp%02d", c), Size: size, SizeOK: true, Usage: usage,
				CPUSeconds: float64(usage) * 1e-4 * float64(c+1), LatencySeconds: float64(usage) * 3e-4 * float64(c+1),
				Threads: 2, Handles: 3,
			}
		}
		out[r] = capturedRound{at: sim.Epoch.Add(time.Duration(r+1) * 30 * time.Second), samples: batch}
	}
	return out
}

// shopStream is a shop-shaped node: noisy traffic over the TPC-W
// interactions, noisy per-invocation costs, a memory leak and a handle
// leak in two of them, and a shift in the mix halfway through.
func shopStream(rounds int) []capturedRound {
	rng := sim.NewStream(23)
	names := []string{"tpcw.admin_confirm", "tpcw.best_sellers", "tpcw.buy_confirm", "tpcw.buy_request",
		"tpcw.home", "tpcw.new_products", "tpcw.order_display", "tpcw.product_detail",
		"tpcw.search_request", "tpcw.search_results", "tpcw.shopping_cart"}
	usage := make([]int64, len(names))
	cpu := make([]float64, len(names))
	lat := make([]float64, len(names))
	out := make([]capturedRound, rounds)
	for r := range out {
		batch := make([]core.ComponentSample, len(names))
		for c, name := range names {
			weight := float64(c%4 + 1)
			if r >= rounds/2 {
				weight = float64(4 - c%4)
			}
			calls := int64(weight * (20 + 10*rng.Float64()))
			usage[c] += calls
			cpu[c] += float64(calls) * (0.002 + 0.001*rng.Float64()) * float64(c+1)
			lat[c] += float64(calls) * (0.010 + 0.004*rng.Float64())
			size := int64(40000 + 3000*rng.Float64())
			if name == "tpcw.home" && r >= 15 {
				size += 102400 * int64(r-14)
			}
			handles := int64(4)
			if name == "tpcw.buy_confirm" && r >= 20 {
				handles += int64(r-20) / 3
			}
			batch[c] = core.ComponentSample{
				Component: name, Size: size, SizeOK: true, Usage: usage[c],
				CPUSeconds: cpu[c], LatencySeconds: lat[c], Threads: int64(rng.Float64() * 3), Handles: handles,
			}
		}
		out[r] = capturedRound{at: sim.Epoch.Add(time.Duration(r+1) * 30 * time.Second), samples: batch}
	}
	return out
}

// TestBankMatchesReference is the bank's differential test: it feeds
// the rounds of every S1–S22 run (captured through a test transport, or
// a single-node stack's manager), a fleet-shaped and a shop-shaped node
// to detect.Bank and to the per-resource reference monitors, and
// requires every report field — floats as bits — and the alarm list to
// be equal per resource per round.
//
// The one allowed divergence is the memory guard's input: the reference
// fed each resource's shift guard only the components that resource
// measured, where the bank's one guard sees every component of the
// round. A memory sample without a size measurement is where the two
// differ, so on a node that ever sent one the memory column is left out
// of the comparison (and logged); every other column is still compared.
func TestBankMatchesReference(t *testing.T) {
	streams := map[string][]capturedRound{
		"fleet": fleetStream(120),
		"shop":  shopStream(120),
	}
	for _, sc := range Scenarios {
		for node, rounds := range captureScenario(t, sc) {
			streams[sc.ID+"/"+node] = rounds
		}
	}
	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	slices.Sort(names)
	compared := 0
	for _, name := range names {
		compared += diffStream(t, name, streams[name])
	}
	if len(streams) < 2+len(Scenarios) || compared == 0 {
		t.Fatalf("premise broken: %d node streams, %d reports compared", len(streams), compared)
	}
	t.Logf("%d reports compared over %d node streams", compared, len(streams))
}

// diffStream runs one node's rounds through both implementations and
// returns how many (round, resource) reports it compared.
func diffStream(t *testing.T, name string, rounds []capturedRound) int {
	t.Helper()
	bank := core.NewDetectorBank(scenarioDetectConfig())
	cols := bank.Columns()
	refs := make([]*refMonitor, len(cols))
	for c, col := range cols {
		refs[c] = newRefMonitor(col.Resource, col.Config)
	}
	skipMemory := false
	for _, r := range rounds {
		for _, s := range r.samples {
			skipMemory = skipMemory || !s.SizeOK
		}
	}
	if skipMemory {
		t.Logf("%s: a sample without a size measurement: the memory column is not compared", name)
	}
	compared := 0
	var obs []detect.Observation
	for i, r := range rounds {
		got := slices.Clone(bank.Observe(r.at, core.DetectorRows(bank, r.samples)))
		var want []detect.Alarm
		for c, res := range core.DetectorResources {
			obs = core.AppendObservations(obs[:0], res, r.samples)
			ref := refs[c].observe(r.at, obs)
			if c == 0 && skipMemory {
				got = slices.DeleteFunc(got, func(a detect.Alarm) bool { return a.Column == 0 })
				continue
			}
			for _, v := range ref.Components {
				if v.Alarm {
					want = append(want, detect.Alarm{Column: c, Component: v.Component, Score: v.Score})
				}
			}
			if g, w := reportBits(bank.Report(c)), reportBits(ref); g != w {
				t.Fatalf("%s round %d %s: the bank reports\n%s\nthe reference\n%s", name, i+1, res, g, w)
			}
			compared++
		}
		if !slices.EqualFunc(got, want, func(a, b detect.Alarm) bool {
			return a.Column == b.Column && a.Component == b.Component && math.Float64bits(a.Score) == math.Float64bits(b.Score)
		}) {
			t.Fatalf("%s round %d: the bank alarms %v, the reference %v", name, i+1, got, want)
		}
	}
	return compared
}

// reportBits renders every field of a report, floats as their bits.
func reportBits(r *detect.Report) string {
	if r == nil {
		return "<nil>"
	}
	f := math.Float64bits
	var b strings.Builder
	fmt.Fprintf(&b, "%s round=%d time=%d/%s suppressed=%v shift=%x/%d entropy=%x/%v alarm=%v/%q\n",
		r.Resource, r.Round, r.Time.UnixNano(), r.Time.Location(), r.Suppressed, f(r.ShiftDistance), r.ShiftRounds,
		f(r.Entropy), r.EntropyObserved, r.EntropyAlarm, r.EntropySuspect)
	for _, v := range r.Components {
		fmt.Fprintf(&b, "  %s alarm=%v score=%x trend=%v/%d/%x/%x/%x streak=%d n=%d share=%x first=%d\n",
			v.Component, v.Alarm, f(v.Score), v.Trend.Direction, v.Trend.S, f(v.Trend.Z), f(v.Trend.P), f(v.Trend.SenSlope),
			v.Streak, v.Samples, f(v.Share), v.FirstAlarmRound)
	}
	return b.String()
}
