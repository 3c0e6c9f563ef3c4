package faultinject

import (
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
	"repro/internal/objsize"
)

type fakeComponent struct {
	LeakStore
}

func TestLeakStore(t *testing.T) {
	var s LeakStore
	if s.LeakedBytes() != 0 {
		t.Fatal("fresh store not empty")
	}
	s.Retain(100)
	s.Retain(50)
	if s.LeakedBytes() != 150 {
		t.Fatalf("leaked = %d", s.LeakedBytes())
	}
	if got := s.Release(); got != 150 {
		t.Fatalf("Release = %d", got)
	}
	if s.LeakedBytes() != 0 {
		t.Fatal("Release did not clear")
	}
}

// The object-size agent charges the buffer's capacity, so the detectors'
// input is the capacity staircase: growing without the copy must climb
// exactly the steps a plain append climbs.
func TestLeakStoreCapacityFollowsAppend(t *testing.T) {
	sizer := objsize.New(objsize.OneLevel)
	empty := sizer.Of(&LeakStore{})
	for _, size := range []int{1, 100, 1000, 4097, 10 << 10, 33 << 10, 100 << 10, 1 << 20} {
		steps := min(600, (64<<20)/size)
		var s LeakStore
		var ref []byte
		for i := 0; i < steps; i++ {
			n := size
			if i%7 == 3 {
				n = 3*size + i // off the regular grid
			}
			s.Retain(n)
			ref = append(ref, make([]byte, n)...)
			if len(s.buf) != len(ref) || cap(s.buf) != cap(ref) {
				t.Fatalf("size %d step %d: len/cap = %d/%d, append gives %d/%d",
					size, i, len(s.buf), cap(s.buf), len(ref), cap(ref))
			}
			if got := sizer.Of(&s); got != empty+int64(cap(ref)) {
				t.Fatalf("size %d step %d: measured %d, want %d + cap %d", size, i, got, empty, cap(ref))
			}
		}
		if got := s.Release(); got != len(ref) {
			t.Fatalf("size %d: Release = %d, want %d", size, got, len(ref))
		}
		if got := sizer.Of(&s); got != empty {
			t.Fatalf("size %d: measured %d after Release, want %d", size, got, empty)
		}
	}
}

func TestLeakStoreNegativePanics(t *testing.T) {
	var s LeakStore
	defer func() {
		if recover() == nil {
			t.Fatal("negative Retain did not panic")
		}
	}()
	s.Retain(-1)
}

func invokeN(t *testing.T, w *aspect.Weaver, component string, n int) {
	t.Helper()
	fn := w.Weave(component, "Service", func(args ...any) (any, error) { return nil, nil })
	for i := 0; i < n; i++ {
		if _, err := fn(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemoryLeakInjectionRate(t *testing.T) {
	comp := &fakeComponent{}
	heap := jvmheap.New(1<<30, nil)
	leak := &MemoryLeak{
		Component: "tpcw.home", Target: comp,
		Size: 100 << 10, N: 100, Heap: heap, Seed: 5,
	}
	w := aspect.NewWeaver(nil)
	if err := w.Register(leak.Aspect()); err != nil {
		t.Fatal(err)
	}
	const requests = 20000
	invokeN(t, w, "tpcw.home", requests)

	// Expected injections ≈ requests / (mean gap) with mean gap = N/2+1.
	inj := leak.Injections()
	expected := float64(requests) / (float64(leak.N)/2 + 1)
	if inj < int64(expected*0.8) || inj > int64(expected*1.2) {
		t.Fatalf("injections = %d, want ~%.0f", inj, expected)
	}
	if got := int64(comp.LeakedBytes()); got != leak.LeakedBytes() {
		t.Fatalf("component retained %d, injector says %d", got, leak.LeakedBytes())
	}
	if got := heap.RetainedBy("tpcw.home"); got != leak.LeakedBytes() {
		t.Fatalf("heap charged %d, want %d", got, leak.LeakedBytes())
	}
}

func TestMemoryLeakOnlyTargetComponent(t *testing.T) {
	comp := &fakeComponent{}
	leak := &MemoryLeak{Component: "tpcw.home", Target: comp, Size: 1024, N: 1, Seed: 1}
	w := aspect.NewWeaver(nil)
	if err := w.Register(leak.Aspect()); err != nil {
		t.Fatal(err)
	}
	invokeN(t, w, "tpcw.search", 1000)
	if leak.Injections() != 0 {
		t.Fatal("leak fired on wrong component")
	}
}

func TestMemoryLeakDeterministic(t *testing.T) {
	run := func() int64 {
		comp := &fakeComponent{}
		leak := &MemoryLeak{Component: "c", Target: comp, Size: 10, N: 50, Seed: 42}
		w := aspect.NewWeaver(nil)
		if err := w.Register(leak.Aspect()); err != nil {
			t.Fatal(err)
		}
		invokeN(t, w, "c", 5000)
		return leak.Injections()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("injections diverged: %d vs %d", a, b)
	}
}

func TestMemoryLeakValidation(t *testing.T) {
	for name, l := range map[string]*MemoryLeak{
		"no component": {Target: &fakeComponent{}, Size: 1, N: 1},
		"no target":    {Component: "c", Size: 1, N: 1},
		"no size":      {Component: "c", Target: &fakeComponent{}, N: 1},
		"no N":         {Component: "c", Target: &fakeComponent{}, Size: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			l.Aspect()
		}()
	}
}

type fakeReq struct {
	cost time.Duration
}

func (r *fakeReq) AddCost(d time.Duration) { r.cost += d }

func TestCPUHog(t *testing.T) {
	hog := &CPUHog{Component: "c", Extra: 5 * time.Millisecond, EveryN: 2}
	w := aspect.NewWeaver(nil)
	if err := w.Register(hog.Aspect()); err != nil {
		t.Fatal(err)
	}
	req := &fakeReq{}
	fn := w.Weave("c", "Service", func(args ...any) (any, error) { return nil, nil })
	for i := 0; i < 10; i++ {
		if _, err := fn(req); err != nil {
			t.Fatal(err)
		}
	}
	if hog.Hits() != 5 {
		t.Fatalf("hits = %d, want 5 (every 2nd)", hog.Hits())
	}
	if req.cost != 25*time.Millisecond {
		t.Fatalf("cost = %v", req.cost)
	}
}

func TestCPUHogEveryRequestDefault(t *testing.T) {
	hog := &CPUHog{Component: "c", Extra: time.Millisecond}
	w := aspect.NewWeaver(nil)
	if err := w.Register(hog.Aspect()); err != nil {
		t.Fatal(err)
	}
	req := &fakeReq{}
	fn := w.Weave("c", "Service", func(args ...any) (any, error) { return nil, nil })
	for i := 0; i < 4; i++ {
		fn(req)
	}
	if hog.Hits() != 4 {
		t.Fatalf("hits = %d", hog.Hits())
	}
}

func TestCPUHogNoSinkIsHarmless(t *testing.T) {
	hog := &CPUHog{Component: "c", Extra: time.Millisecond}
	w := aspect.NewWeaver(nil)
	if err := w.Register(hog.Aspect()); err != nil {
		t.Fatal(err)
	}
	invokeN(t, w, "c", 3) // no args at all
	if hog.Hits() != 3 {
		t.Fatalf("hits = %d", hog.Hits())
	}
}

func TestCPUHogValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CPUHog without Extra did not panic")
		}
	}()
	(&CPUHog{Component: "c"}).Aspect()
}

func TestThreadLeak(t *testing.T) {
	agent := monitor.NewLiveAgent(monitor.NewTable(), monitor.Threads)
	heap := jvmheap.New(1<<30, nil)
	tl := &ThreadLeak{Component: "c", N: 10, Agent: agent, Heap: heap, Seed: 3}
	w := aspect.NewWeaver(nil)
	if err := w.Register(tl.Aspect()); err != nil {
		t.Fatal(err)
	}
	invokeN(t, w, "c", 1000)
	leaked := tl.Leaked()
	expected := 1000.0 / (10.0/2 + 1)
	if leaked < int64(expected*0.7) || leaked > int64(expected*1.3) {
		t.Fatalf("leaked = %d, want ~%.0f", leaked, expected)
	}
	if agent.LiveOf("c") != leaked {
		t.Fatalf("agent live = %d, injector %d", agent.LiveOf("c"), leaked)
	}
	if heap.RetainedBy("c") != leaked*threadStackBytes {
		t.Fatalf("heap = %d", heap.RetainedBy("c"))
	}
}

func TestThreadLeakValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ThreadLeak without Agent did not panic")
		}
	}()
	(&ThreadLeak{Component: "c", N: 1}).Aspect()
}
