package aspect

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentDispatchWithRegistration hammers woven handles from many
// goroutines while aspects register and unregister — the real-time
// container mode exercises exactly this. Run with -race.
func TestConcurrentDispatchWithRegistration(t *testing.T) {
	w := NewWeaver(nil)
	var calls atomic.Int64
	handles := make([]Func, 8)
	for i := range handles {
		handles[i] = w.Weave(fmt.Sprintf("svc.c%d", i), "Service",
			func(args ...any) (any, error) { calls.Add(1); return nil, nil })
	}
	var advice atomic.Int64
	var wg sync.WaitGroup
	for _, fn := range handles {
		wg.Add(1)
		go func(fn Func) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}(fn)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 50; round++ {
			name := fmt.Sprintf("probe-%d", round)
			if err := w.Register(&Aspect{
				Name:     name,
				Pointcut: MustPointcut("within(svc.*)"),
				Before:   func(*JoinPoint) { advice.Add(1) },
			}); err != nil {
				t.Error(err)
				return
			}
			w.SetComponentEnabled("svc.c0", round%2 == 0)
			if !w.Unregister(name) {
				t.Error("unregister failed")
				return
			}
		}
	}()
	wg.Wait()
	if calls.Load() != 8*2000 {
		t.Fatalf("calls = %d, want %d", calls.Load(), 8*2000)
	}
}

// TestConcurrentCopyOnWriteCache hammers the copy-on-write chain cache:
// background goroutines dispatch through woven handles while the main
// goroutine churns the aspect set, asserting after every generation bump
// that handles resolve exactly the current chain — a registered probe
// fires on the very next call, an unregistered one never fires again. The
// probe advises a component only the mutator calls, so the assertions are
// deterministic; the background load shares the weaver and its snapshots,
// which is what makes stale-chain bugs surface under -race.
func TestConcurrentCopyOnWriteCache(t *testing.T) {
	w := NewWeaver(nil)
	var advised atomic.Int64
	base := &Aspect{
		Name:     "base",
		Pointcut: MustPointcut("within(svc.*)"),
		Before:   func(*JoinPoint) { advised.Add(1) },
	}
	if err := w.Register(base); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		fn := w.Weave(fmt.Sprintf("svc.c%d", i), "Service",
			func(args ...any) (any, error) { calls.Add(1); return nil, nil })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := fn(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}

	gate := w.Weave("gate.x", "Service", func(args ...any) (any, error) { return nil, nil })
	for round := 0; round < 100; round++ {
		var fired atomic.Int64
		name := fmt.Sprintf("probe-%d", round)
		genBefore := w.Generation()
		if err := w.Register(&Aspect{
			Name:     name,
			Pointcut: MustPointcut("within(gate.*)"),
			Before:   func(*JoinPoint) { fired.Add(1) },
		}); err != nil {
			t.Fatal(err)
		}
		if gen := w.Generation(); gen != genBefore+1 {
			t.Fatalf("round %d: generation %d after register, want %d", round, gen, genBefore+1)
		}
		if _, err := gate(); err != nil {
			t.Fatal(err)
		}
		if got := fired.Load(); got != 1 {
			t.Fatalf("round %d: probe fired %d times after register, want 1", round, got)
		}
		if !w.Unregister(name) {
			t.Fatalf("round %d: unregister failed", round)
		}
		for i := 0; i < 3; i++ {
			if _, err := gate(); err != nil {
				t.Fatal(err)
			}
		}
		if got := fired.Load(); got != 1 {
			t.Fatalf("round %d: stale chain survived generation bump: probe fired %d times after unregister", round, got)
		}
	}

	close(stop)
	wg.Wait()
	// Every background dispatch went through the base aspect's chain.
	if advised.Load() != calls.Load() {
		t.Fatalf("base advised %d of %d calls", advised.Load(), calls.Load())
	}
}

// TestConcurrentComponentToggle flips per-component interception while
// the component dispatches from other goroutines; the copy-on-write
// snapshot must make every toggle a clean generation transition.
func TestConcurrentComponentToggle(t *testing.T) {
	w := NewWeaver(nil)
	if err := w.Register(&Aspect{
		Name:     "obs",
		Pointcut: MustPointcut("within(*)"),
		Before:   func(*JoinPoint) {},
	}); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("svc.t", "Service", func(args ...any) (any, error) { return nil, nil })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if g == 0 {
					w.SetComponentEnabled("svc.t", i%2 == 0)
				} else if _, err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w.SetComponentEnabled("svc.t", true)
	before := w.JoinPoints()
	if _, err := fn(); err != nil {
		t.Fatal(err)
	}
	if w.JoinPoints() != before+1 {
		t.Fatal("re-enabled component not advised")
	}
}

// TestConcurrentEnableDisable toggles an aspect under dispatch load.
func TestConcurrentEnableDisable(t *testing.T) {
	w := NewWeaver(nil)
	a := &Aspect{
		Name:     "toggler",
		Pointcut: MustPointcut("within(*)"),
		Before:   func(*JoinPoint) {},
	}
	if err := w.Register(a); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("svc.x", "Service", func(args ...any) (any, error) { return nil, nil })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if g == 0 {
					a.SetEnabled(i%2 == 0)
				} else {
					fn()
				}
			}
		}(g)
	}
	wg.Wait()
}
