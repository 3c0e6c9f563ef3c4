package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/detect"
	"repro/internal/jmx"
	"repro/internal/jvmheap"
	"repro/internal/sim"
)

// recordingObserver captures the rounds delivered through Subscribe.
type recordingObserver struct {
	rounds  int
	batches [][]ComponentSample
}

func (o *recordingObserver) ObserveSample(_ time.Time, batch []ComponentSample) {
	o.rounds++
	o.batches = append(o.batches, batch)
}

func TestManagerSubscribeDeliversBatches(t *testing.T) {
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w})
	if err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	f.Manager().Subscribe(obs)
	for i := 0; i < 3; i++ {
		f.Manager().Sample(sim.Epoch.Add(time.Duration(i) * time.Minute))
	}
	if obs.rounds != 3 {
		t.Fatalf("observer saw %d rounds, want 3", obs.rounds)
	}
	if len(obs.batches[0]) != 1 || obs.batches[0][0].Component != "svc.A" {
		t.Fatalf("unexpected batch: %+v", obs.batches[0])
	}
}

// TestDetectorBankFlagsLeak drives a growing component through sampling
// rounds and expects the live strategy to flag it, with an aging.alarm
// notification on the transition.
func TestDetectorBankFlagsLeak(t *testing.T) {
	clock := sim.NewVirtualClock()
	w := aspect.NewWeaver(clock)
	f, err := New(Options{Weaver: w, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	grower := &leakyComponent{}
	steady := &leakyComponent{}
	if err := f.InstrumentComponent("svc.grower", grower); err != nil {
		t.Fatal(err)
	}
	if err := f.InstrumentComponent("svc.steady", steady); err != nil {
		t.Fatal(err)
	}
	bank, err := f.AttachDetectors(detect.Config{Window: 20, MinSamples: 6, Consecutive: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AttachDetectors(detect.Config{}); err == nil {
		t.Fatal("second AttachDetectors accepted")
	}

	var alarms atomic.Int64
	f.Server().AddListener(func(n jmx.Notification) {
		if n.Type == NotifAlarm {
			alarms.Add(1)
		}
	})

	growFn := w.Weave("svc.grower", "Service", func(...any) (any, error) { return nil, nil })
	steadyFn := w.Weave("svc.steady", "Service", func(...any) (any, error) { return nil, nil })

	var flaggedAt int64
	for i := 0; i < 30; i++ {
		for j := 0; j < 5; j++ {
			if _, err := growFn(); err != nil {
				t.Fatal(err)
			}
			if _, err := steadyFn(); err != nil {
				t.Fatal(err)
			}
		}
		grower.Retain(10 << 10) // 10KB per round: the aging bug
		clock.Advance(30 * time.Second)
		f.Manager().Sample(clock.Now())
		if rep := bank.Report(ResourceMemory); rep != nil && flaggedAt == 0 {
			if top, ok := rep.Top(); ok {
				if top.Component != "svc.grower" {
					t.Fatalf("round %d: wrong suspect %q", rep.Round, top.Component)
				}
				flaggedAt = rep.Round
			}
		}
	}
	if flaggedAt == 0 {
		t.Fatalf("grower never flagged:\n%s", bank.Report(ResourceMemory))
	}
	if alarms.Load() == 0 {
		t.Fatal("no aging.alarm notification emitted")
	}

	ranking := f.Manager().LiveRank(ResourceMemory)
	top, ok := ranking.Top()
	if !ok || top.Name != "svc.grower" || !top.Alarm {
		t.Fatalf("live ranking wrong: %+v", ranking)
	}
	if ranking.Strategy != "live" {
		t.Fatalf("strategy = %q", ranking.Strategy)
	}

	// The steady component must not be flagged.
	for _, e := range ranking.Entries {
		if e.Name == "svc.steady" && e.Alarm {
			t.Fatal("steady component flagged")
		}
	}

	// The bean ops surface the same state.
	if v, err := f.Server().Invoke(ManagerName(), "Verdicts", ResourceMemory); err != nil || v == nil {
		t.Fatalf("Verdicts op: %v %v", v, err)
	}
	if v, err := f.Server().Invoke(ManagerName(), "LiveMap", ResourceMemory); err != nil || v == nil {
		t.Fatalf("LiveMap op: %v %v", v, err)
	}
}

// TestLiveRankWithoutDetectors must degrade to an empty ranking, not
// panic.
func TestLiveRankWithoutDetectors(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	r := f.Manager().LiveRank(ResourceMemory)
	if len(r.Entries) != 0 || r.Strategy != "live" {
		t.Fatalf("unexpected ranking: %+v", r)
	}
}

// TestDetectorsDoNotContendWithRecording hammers invocation recording,
// sampling (with detectors attached) and the root-cause queries
// concurrently; run under -race it checks that the queries read the
// latest round only under the round lock and that recording takes none.
func TestDetectorsDoNotContendWithRecording(t *testing.T) {
	clock := sim.NewVirtualClock()
	w := aspect.NewWeaver(clock)
	f, err := New(Options{Weaver: w, Clock: clock, Heap: jvmheap.New(1<<28, clock)})
	if err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.hot", comp); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AttachDetectors(detect.Config{Window: 8, MinSamples: 4, Consecutive: 2}); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("svc.hot", "Service", func(...any) (any, error) { return nil, nil })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := fn(); err != nil {
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			clock.Advance(time.Second)
			f.Manager().Sample(clock.Now())
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = f.Manager().LiveRank(ResourceMemory)
			_ = f.Manager().Map(ResourceMemory)
			if _, err := f.Manager().Data(ResourceCPU); err != nil {
				t.Error(err)
				return
			}
			_ = f.Manager().TimeToExhaustion()
			if _, err := f.Server().Invoke(ManagerName(), "Suspects", ResourceMemory); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Let the workers overlap the sampler, then stop them.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestDetectorRowsMatchResourceValue holds DetectorRows, which unrolls
// the sample→resource projection for speed, to ResourceValue, the one
// place that choice is defined: every column of every row must carry
// the value ResourceValue gives, and be missing exactly where it says
// the sample does not measure the resource.
func TestDetectorRowsMatchResourceValue(t *testing.T) {
	batch := []ComponentSample{
		{Component: "a", Size: 4096, SizeOK: true, Usage: 7, CPUSeconds: 0.25, Threads: 3, LatencySeconds: 1.5, Handles: 9, Delta: 11},
		{Component: "b", Size: 123, SizeOK: false, Usage: 2, CPUSeconds: 2e-3, Threads: 1, LatencySeconds: 4e-3, Handles: 2},
	}
	bank := NewDetectorBank(detect.Config{})
	rows := DetectorRows(bank, batch)
	for i, s := range batch {
		r := rows[i]
		if r.Component != s.Component || r.Usage != float64(s.Usage) {
			t.Fatalf("row %d: %q usage %v, want %q usage %d", i, r.Component, r.Usage, s.Component, s.Usage)
		}
		for c, res := range DetectorResources {
			want, ok := s.ResourceValue(res)
			if missing := r.Missing&(1<<c) != 0; missing == ok {
				t.Fatalf("row %d %s: missing=%v, ResourceValue measures=%v", i, res, missing, ok)
			}
			if ok && r.Values[c] != want {
				t.Fatalf("row %d %s: %v, ResourceValue %v", i, res, r.Values[c], want)
			}
		}
	}
}
