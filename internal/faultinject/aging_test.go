package faultinject

import (
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
)

// latReq implements both injection sinks the way the servlet request
// does: AddCost charges CPU, AddWait charges latency-only delay.
type latReq struct {
	cost time.Duration
	wait time.Duration
}

func (r *latReq) AddCost(d time.Duration) { r.cost += d }
func (r *latReq) AddWait(d time.Duration) { r.wait += d }

func invokeNWith(t *testing.T, w *aspect.Weaver, component string, n int, arg any) {
	t.Helper()
	fn := w.Weave(component, "Service", func(args ...any) (any, error) { return nil, nil })
	for i := 0; i < n; i++ {
		if _, err := fn(arg); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolExhaustion(t *testing.T) {
	agent := monitor.NewLiveAgent(monitor.NewTable(), monitor.Handles)
	p := &PoolExhaustion{
		Component: "c", N: 10, PerHandleWait: time.Millisecond, Agent: agent, Seed: 3,
	}
	w := aspect.NewWeaver(nil)
	if err := w.Register(p.Aspect()); err != nil {
		t.Fatal(err)
	}
	req := &latReq{}
	invokeNWith(t, w, "c", 1000, req)
	leaked := p.Leaked()
	expected := 1000.0 / (10.0/2 + 1)
	if leaked < int64(expected*0.7) || leaked > int64(expected*1.3) {
		t.Fatalf("leaked = %d, want ~%.0f", leaked, expected)
	}
	if agent.LiveOf("c") != leaked {
		t.Fatalf("agent live = %d, injector %d", agent.LiveOf("c"), leaked)
	}
	// The wait grows with the leak: the last request alone waits
	// leaked·PerHandleWait (minus the final request's own injection),
	// so the total must exceed a triangular lower bound.
	if req.wait < time.Duration(leaked-1)*p.PerHandleWait {
		t.Fatalf("total wait %v below last request's own wait", req.wait)
	}
	if req.cost != 0 {
		t.Fatalf("pool exhaustion charged CPU cost %v, want none", req.cost)
	}
}

func TestHandleLeak(t *testing.T) {
	agent := monitor.NewLiveAgent(monitor.NewTable(), monitor.Handles)
	heap := jvmheap.New(1<<30, nil)
	h := &HandleLeak{Component: "c", N: 10, Agent: agent, Heap: heap, Seed: 3}
	w := aspect.NewWeaver(nil)
	if err := w.Register(h.Aspect()); err != nil {
		t.Fatal(err)
	}
	invokeN(t, w, "c", 1000)
	leaked := h.Leaked()
	expected := 1000.0 / (10.0/2 + 1)
	if leaked < int64(expected*0.7) || leaked > int64(expected*1.3) {
		t.Fatalf("leaked = %d, want ~%.0f", leaked, expected)
	}
	if agent.LiveOf("c") != leaked {
		t.Fatalf("agent live = %d, injector %d", agent.LiveOf("c"), leaked)
	}
	if heap.RetainedBy("c") != leaked*handleBytes {
		t.Fatalf("heap = %d, want %d", heap.RetainedBy("c"), leaked*handleBytes)
	}
}

func TestLockContentionGrowsWaitOnly(t *testing.T) {
	l := &LockContention{Component: "c", Step: time.Millisecond, Growth: 10, Seed: 1}
	w := aspect.NewWeaver(nil)
	if err := w.Register(l.Aspect()); err != nil {
		t.Fatal(err)
	}
	early := &latReq{}
	invokeNWith(t, w, "c", 100, early)
	late := &latReq{}
	invokeNWith(t, w, "c", 100, late)
	if late.wait <= early.wait {
		t.Fatalf("contention wait not growing: early %v, late %v", early.wait, late.wait)
	}
	if early.cost != 0 || late.cost != 0 {
		t.Fatal("lock contention charged CPU cost")
	}
	if l.Waited() != early.wait+late.wait {
		t.Fatalf("Waited() = %v, requests saw %v", l.Waited(), early.wait+late.wait)
	}
}

func TestFragmentationBloatRetainsJitteredFragments(t *testing.T) {
	comp := &fakeComponent{}
	heap := jvmheap.New(1<<30, nil)
	f := &FragmentationBloat{Component: "c", Target: comp, Base: 1024, N: 10, Heap: heap, Seed: 3}
	w := aspect.NewWeaver(nil)
	if err := w.Register(f.Aspect()); err != nil {
		t.Fatal(err)
	}
	invokeN(t, w, "c", 1000)
	if f.Fragments() == 0 {
		t.Fatal("no fragments injected")
	}
	if int64(comp.LeakedBytes()) != f.BloatedBytes() {
		t.Fatalf("component retained %d, injector says %d", comp.LeakedBytes(), f.BloatedBytes())
	}
	if heap.RetainedBy("c") != f.BloatedBytes() {
		t.Fatalf("heap charged %d, want %d", heap.RetainedBy("c"), f.BloatedBytes())
	}
	// Jittered sizes: mean fragment must sit near Base, not at it.
	mean := f.BloatedBytes() / f.Fragments()
	if mean < int64(f.Base)/2 || mean > 3*int64(f.Base)/2 {
		t.Fatalf("mean fragment %d outside [Base/2, 3·Base/2]", mean)
	}
}

func TestStaleCacheDecayMissRateClimbs(t *testing.T) {
	s := &StaleCacheDecay{Component: "c", MissCost: time.Millisecond, Decay: 1000, Seed: 3}
	w := aspect.NewWeaver(nil)
	if err := w.Register(s.Aspect()); err != nil {
		t.Fatal(err)
	}
	early := &latReq{}
	invokeNWith(t, w, "c", 200, early)
	earlyMisses := s.Misses()
	late := &latReq{}
	invokeNWith(t, w, "c", 200, late)
	lateMisses := s.Misses() - earlyMisses
	if lateMisses <= earlyMisses {
		t.Fatalf("miss rate not climbing: %d early, %d late", earlyMisses, lateMisses)
	}
	if late.cost != time.Duration(lateMisses)*s.MissCost {
		t.Fatalf("late cost %v, want %v", late.cost, time.Duration(lateMisses)*s.MissCost)
	}
	if early.wait != 0 || late.wait != 0 {
		t.Fatal("cache decay charged wait")
	}
	// Past Decay requests every request must miss.
	invokeNWith(t, w, "c", 700, &latReq{})
	before := s.Misses()
	invokeNWith(t, w, "c", 50, &latReq{})
	if s.Misses()-before != 50 {
		t.Fatalf("past full decay, %d/50 requests missed", s.Misses()-before)
	}
}

func TestAgingInjectorValidation(t *testing.T) {
	agent := monitor.NewLiveAgent(monitor.NewTable(), monitor.Handles)
	for name, fn := range map[string]func(){
		"pool no agent":    func() { (&PoolExhaustion{Component: "c", N: 1, PerHandleWait: 1}).Aspect() },
		"pool no wait":     func() { (&PoolExhaustion{Component: "c", N: 1, Agent: agent}).Aspect() },
		"handle no agent":  func() { (&HandleLeak{Component: "c", N: 1}).Aspect() },
		"lock no step":     func() { (&LockContention{Component: "c", Growth: 1}).Aspect() },
		"lock no growth":   func() { (&LockContention{Component: "c", Step: 1}).Aspect() },
		"frag no target":   func() { (&FragmentationBloat{Component: "c", Base: 2, N: 1}).Aspect() },
		"cache no cost":    func() { (&StaleCacheDecay{Component: "c", Decay: 1}).Aspect() },
		"cache no decay":   func() { (&StaleCacheDecay{Component: "c", MissCost: 1}).Aspect() },
		"chaos no inner":   func() { NewChaosTransport[cluster.Round](nil) },
		"nodekill no node": func() { NodeKill{Window: time.Second}.Offset() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// recordingTransport captures published rounds for the chaos tests.
type recordingTransport struct {
	rounds []cluster.Round
	closed bool
}

func (r *recordingTransport) Publish(round cluster.Round) error {
	r.rounds = append(r.rounds, round)
	return nil
}

func (r *recordingTransport) Close() error {
	r.closed = true
	return nil
}

func TestChaosTransportPartitionAndSkew(t *testing.T) {
	inner := &recordingTransport{}
	ch := NewChaosTransport[cluster.Round](inner)
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(seq int64) cluster.Round {
		return cluster.Round{Node: "n1", Seq: seq, Time: t0.Add(time.Duration(seq) * time.Second),
			Samples: []core.ComponentSample{{Component: "c", Usage: seq}}}
	}

	if err := ch.Publish(mk(1)); err != nil {
		t.Fatal(err)
	}
	ch.SetPartitioned(true)
	if err := ch.Publish(mk(2)); err != nil {
		t.Fatal(err)
	}
	if err := ch.Publish(mk(3)); err != nil {
		t.Fatal(err)
	}
	ch.SetPartitioned(false)
	if err := ch.Publish(mk(4)); err != nil {
		t.Fatal(err)
	}
	if len(inner.rounds) != 2 || inner.rounds[0].Seq != 1 || inner.rounds[1].Seq != 4 {
		t.Fatalf("partition did not drop the partitioned rounds: %+v", inner.rounds)
	}
	if ch.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", ch.Dropped())
	}

	ch.SetSkew(5 * time.Minute)
	if err := ch.Publish(mk(5)); err != nil {
		t.Fatal(err)
	}
	got := inner.rounds[len(inner.rounds)-1]
	if want := mk(5).Time.Add(5 * time.Minute); !got.Time.Equal(want) {
		t.Fatalf("skewed time = %v, want %v", got.Time, want)
	}
	if got.Seq != 5 {
		t.Fatalf("skew corrupted the round: %+v", got)
	}

	if err := ch.Close(); err != nil || !inner.closed {
		t.Fatal("Close not forwarded")
	}
}

func TestNodeKillDeterministicWithinWindow(t *testing.T) {
	k := NodeKill{Node: "node2", Window: 10 * time.Minute, Seed: 42}
	off := k.Offset()
	if off != k.Offset() {
		t.Fatal("kill offset not deterministic")
	}
	if off < 0 || off >= k.Window {
		t.Fatalf("kill offset %v outside [0, %v)", off, k.Window)
	}
	other := NodeKill{Node: "node3", Window: 10 * time.Minute, Seed: 42}
	if other.Offset() == off {
		t.Fatal("different nodes drew the same kill instant")
	}
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	if !k.At(t0).Equal(t0.Add(off)) {
		t.Fatal("At does not resolve against start")
	}
}
