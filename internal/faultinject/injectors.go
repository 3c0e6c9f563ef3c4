package faultinject

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/aspect"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// MemoryLeak injects the paper's aging error: after a component execution,
// a countdown drawn uniformly from [0,N] decides how many further requests
// use the component before Size bytes are leaked into it. The injected
// bytes are retained by the component object itself (via its LeakStore),
// so the object-size agent measures them, and are charged to the simulated
// heap so global exhaustion behaviour is realistic.
type MemoryLeak struct {
	// Component is the target component name.
	Component string
	// Target is the live component object (must embed a LeakStore).
	Target Retainer
	// Size is the bytes leaked per injection (the paper uses 10 KB,
	// 100 KB and 1 MB).
	Size int
	// N parameterises the countdown draw in [0,N] (the paper uses 100).
	N int
	// Heap, when non-nil, is charged Size bytes per injection under the
	// component's name.
	Heap *jvmheap.Heap
	// Seed derives the injector's random stream.
	Seed uint64

	mu         sync.Mutex
	rng        *sim.Stream
	countdown  int
	armed      bool
	injections int64
}

// Aspect returns the advice that performs the injection. Register it with
// the weaver to arm the fault.
func (l *MemoryLeak) Aspect() *aspect.Aspect {
	if l.Component == "" || l.Target == nil {
		panic("faultinject: MemoryLeak needs Component and Target")
	}
	if l.Size <= 0 || l.N <= 0 {
		panic("faultinject: MemoryLeak needs positive Size and N")
	}
	l.rng = sim.DeriveStable(l.Seed, 0x11ea)
	return &aspect.Aspect{
		Name:     "inject.mem." + l.Component,
		Order:    100, // innermost: monitoring aspects observe the leak
		Pointcut: aspect.MustPointcut(fmt.Sprintf("execution(%s.Service)", l.Component)),
		AfterReturning: func(*aspect.JoinPoint) {
			l.onRequest()
		},
	}
}

func (l *MemoryLeak) onRequest() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.armed {
		l.countdown = l.rng.IntN(l.N + 1)
		l.armed = true
	}
	if l.countdown > 0 {
		l.countdown--
		return
	}
	l.Target.Retain(l.Size)
	if l.Heap != nil {
		// A failed allocation is the application crashing from aging,
		// not an injector error; the heap records the OOM.
		_ = l.Heap.Allocate(l.Component, int64(l.Size))
	}
	l.injections++
	l.countdown = l.rng.IntN(l.N + 1)
}

// Injections returns how many leaks have fired.
func (l *MemoryLeak) Injections() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.injections
}

// LeakedBytes returns the total bytes injected so far.
func (l *MemoryLeak) LeakedBytes() int64 {
	return l.Injections() * int64(l.Size)
}

// costSink is how the CPU hog reaches the request without depending on the
// servlet package: the container's request type implements it.
type costSink interface {
	AddCost(d time.Duration)
}

// CPUHog models a computational aging bug (the paper's future work): every
// EveryN-th execution of the component burns Extra additional CPU time,
// inflating its service time and its share on the CPU agent.
type CPUHog struct {
	// Component is the target component name.
	Component string
	// Extra is the additional CPU time per triggered request.
	Extra time.Duration
	// EveryN triggers on every N-th request (1 = every request).
	EveryN int

	mu       sync.Mutex
	requests int64
	hits     int64
}

// Aspect returns the advice implementing the hog.
func (h *CPUHog) Aspect() *aspect.Aspect {
	if h.Component == "" || h.Extra <= 0 {
		panic("faultinject: CPUHog needs Component and positive Extra")
	}
	if h.EveryN <= 0 {
		h.EveryN = 1
	}
	return &aspect.Aspect{
		Name:     "inject.cpu." + h.Component,
		Order:    100,
		Pointcut: aspect.MustPointcut(fmt.Sprintf("execution(%s.Service)", h.Component)),
		Before: func(jp *aspect.JoinPoint) {
			h.mu.Lock()
			h.requests++
			fire := h.requests%int64(h.EveryN) == 0
			if fire {
				h.hits++
			}
			h.mu.Unlock()
			if !fire {
				return
			}
			for _, arg := range jp.Args {
				if sink, ok := arg.(costSink); ok {
					sink.AddCost(h.Extra)
					return
				}
			}
		},
	}
}

// Hits returns how many requests were slowed.
func (h *CPUHog) Hits() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hits
}

// threadStackBytes approximates a JVM thread stack charged per leaked
// thread.
const threadStackBytes int64 = 256 << 10

// ThreadLeak models unterminated threads (another classic aging vector the
// paper lists): with the same [0,N] countdown scheme, an execution spawns
// a thread that never terminates. Leaked threads are visible on the
// thread agent and charge stack memory to the heap.
type ThreadLeak struct {
	// Component is the target component name.
	Component string
	// N parameterises the countdown draw in [0,N].
	N int
	// Agent records the leaked (never-finished) threads.
	Agent *monitor.LiveAgent
	// Heap, when non-nil, is charged one stack per leaked thread.
	Heap *jvmheap.Heap
	// Seed derives the injector's random stream.
	Seed uint64

	mu        sync.Mutex
	rng       *sim.Stream
	countdown int
	armed     bool
	leaked    int64
}

// Aspect returns the advice implementing the leak.
func (t *ThreadLeak) Aspect() *aspect.Aspect {
	if t.Component == "" || t.Agent == nil {
		panic("faultinject: ThreadLeak needs Component and Agent")
	}
	if t.N <= 0 {
		panic("faultinject: ThreadLeak needs positive N")
	}
	t.rng = sim.DeriveStable(t.Seed, 0x7157)
	return &aspect.Aspect{
		Name:     "inject.thread." + t.Component,
		Order:    100,
		Pointcut: aspect.MustPointcut(fmt.Sprintf("execution(%s.Service)", t.Component)),
		AfterReturning: func(*aspect.JoinPoint) {
			t.onRequest()
		},
	}
}

func (t *ThreadLeak) onRequest() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.armed {
		t.countdown = t.rng.IntN(t.N + 1)
		t.armed = true
	}
	if t.countdown > 0 {
		t.countdown--
		return
	}
	t.Agent.Acquire(t.Component)
	if t.Heap != nil {
		_ = t.Heap.Allocate(t.Component, threadStackBytes)
	}
	t.leaked++
	t.countdown = t.rng.IntN(t.N + 1)
}

// Leaked returns how many threads were leaked.
func (t *ThreadLeak) Leaked() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leaked
}
