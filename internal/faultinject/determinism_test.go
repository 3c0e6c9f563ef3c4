package faultinject

import (
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
)

// The catalog's reproducibility contract: with the same seed an injector
// fires at exactly the same requests with exactly the same magnitudes,
// run after run. These tests capture the full injection schedule — the
// request index of every firing — not just the totals, so a reseeding or
// draw-order bug cannot hide behind an unchanged count.

// schedule invokes component n times through a fresh weaver and records,
// for each request, the injector's counter after that request — the
// complete injection schedule.
func schedule(t *testing.T, w *aspect.Weaver, component string, n int, counter func() int64) []int64 {
	t.Helper()
	fn := w.Weave(component, "Service", func(args ...any) (any, error) { return nil, nil })
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := fn(); err != nil {
			t.Fatal(err)
		}
		out = append(out, counter())
	}
	return out
}

func sameSchedule(t *testing.T, name string, a, b []int64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: schedule lengths diverged: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: schedules diverge at request %d: %d vs %d", name, i, a[i], b[i])
		}
	}
	if len(a) > 0 && a[len(a)-1] == 0 {
		t.Fatalf("%s: injector never fired — schedule comparison is vacuous", name)
	}
}

func TestMemoryLeakScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		leak := &MemoryLeak{Component: "c", Target: &fakeComponent{}, Size: 10, N: 50, Seed: 42}
		w := aspect.NewWeaver(nil)
		if err := w.Register(leak.Aspect()); err != nil {
			t.Fatal(err)
		}
		return schedule(t, w, "c", 3000, leak.Injections)
	}
	sameSchedule(t, "MemoryLeak", run(), run())
}

func TestCPUHogScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		hog := &CPUHog{Component: "c", Extra: time.Millisecond, EveryN: 7}
		w := aspect.NewWeaver(nil)
		if err := w.Register(hog.Aspect()); err != nil {
			t.Fatal(err)
		}
		return schedule(t, w, "c", 3000, hog.Hits)
	}
	sameSchedule(t, "CPUHog", run(), run())
}

func TestThreadLeakScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		tl := &ThreadLeak{Component: "c", N: 50, Agent: monitor.NewLiveAgent(monitor.NewTable(), monitor.Threads), Seed: 42}
		w := aspect.NewWeaver(nil)
		if err := w.Register(tl.Aspect()); err != nil {
			t.Fatal(err)
		}
		return schedule(t, w, "c", 3000, tl.Leaked)
	}
	sameSchedule(t, "ThreadLeak", run(), run())
}

func TestThreadLeakCountersDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		heap := jvmheap.New(1<<30, nil)
		tl := &ThreadLeak{Component: "c", N: 20, Agent: monitor.NewLiveAgent(monitor.NewTable(), monitor.Threads), Heap: heap, Seed: 9}
		w := aspect.NewWeaver(nil)
		if err := w.Register(tl.Aspect()); err != nil {
			t.Fatal(err)
		}
		invokeN(t, w, "c", 2000)
		return tl.Leaked(), heap.RetainedBy("c")
	}
	l1, h1 := run()
	l2, h2 := run()
	if l1 != l2 || h1 != h2 {
		t.Fatalf("counters diverged: leaked %d vs %d, heap %d vs %d", l1, l2, h1, h2)
	}
}

func TestPoolExhaustionScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		p := &PoolExhaustion{
			Component: "c", N: 50, PerHandleWait: time.Millisecond,
			Agent: monitor.NewLiveAgent(monitor.NewTable(), monitor.Handles), Seed: 42,
		}
		w := aspect.NewWeaver(nil)
		if err := w.Register(p.Aspect()); err != nil {
			t.Fatal(err)
		}
		return schedule(t, w, "c", 3000, p.Leaked)
	}
	sameSchedule(t, "PoolExhaustion", run(), run())
}

func TestHandleLeakScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		h := &HandleLeak{Component: "c", N: 50, Agent: monitor.NewLiveAgent(monitor.NewTable(), monitor.Handles), Seed: 42}
		w := aspect.NewWeaver(nil)
		if err := w.Register(h.Aspect()); err != nil {
			t.Fatal(err)
		}
		return schedule(t, w, "c", 3000, h.Leaked)
	}
	sameSchedule(t, "HandleLeak", run(), run())
}

func TestLockContentionScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		l := &LockContention{
			Component: "c", Step: time.Millisecond, Growth: 100,
			Jitter: 100 * time.Microsecond, Seed: 42,
		}
		w := aspect.NewWeaver(nil)
		if err := w.Register(l.Aspect()); err != nil {
			t.Fatal(err)
		}
		return schedule(t, w, "c", 3000, func() int64 { return int64(l.Waited()) })
	}
	sameSchedule(t, "LockContention", run(), run())
}

func TestFragmentationBloatScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		f := &FragmentationBloat{
			Component: "c", Target: &fakeComponent{}, Base: 1024, N: 50, Seed: 42,
		}
		w := aspect.NewWeaver(nil)
		if err := w.Register(f.Aspect()); err != nil {
			t.Fatal(err)
		}
		// Bloated bytes, not fragment count: jittered sizes must replay too.
		return schedule(t, w, "c", 3000, f.BloatedBytes)
	}
	sameSchedule(t, "FragmentationBloat", run(), run())
}

func TestStaleCacheDecayScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		s := &StaleCacheDecay{Component: "c", MissCost: time.Millisecond, Decay: 2000, Seed: 42}
		w := aspect.NewWeaver(nil)
		if err := w.Register(s.Aspect()); err != nil {
			t.Fatal(err)
		}
		return schedule(t, w, "c", 3000, s.Misses)
	}
	sameSchedule(t, "StaleCacheDecay", run(), run())
}

func TestSeedsActuallyChangeSchedules(t *testing.T) {
	run := func(seed uint64) []int64 {
		leak := &MemoryLeak{Component: "c", Target: &fakeComponent{}, Size: 10, N: 50, Seed: seed}
		w := aspect.NewWeaver(nil)
		if err := w.Register(leak.Aspect()); err != nil {
			t.Fatal(err)
		}
		return schedule(t, w, "c", 500, leak.Injections)
	}
	a, b := run(1), run(2)
	for i := range a {
		if a[i] != b[i] {
			return
		}
	}
	t.Fatal("different seeds produced identical schedules")
}
