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

// This file is the non-heap half of the aging-fault catalog: the chaos
// literature's indicators beyond the paper's leak-every-[0,N]-requests
// error — handle leaks, latency-only contention aging, fragmentation-style
// bloat and cache decay. Every injector draws its schedule from a
// sim.Rand64 stream derived from (Seed, injector label), so two runs with
// the same seed inject at exactly the same requests with exactly the same
// magnitudes; the determinism tests pin that contract.

// waitSink is how the latency injectors reach the request without
// depending on the servlet package: the container's request type
// implements it. Added wait stretches the response latency the container
// schedules without charging CPU cost — the signature of contention.
type waitSink interface {
	AddWait(d time.Duration)
}

// addWait finds the request among the join point's arguments and charges
// it wait time.
func addWait(jp *aspect.JoinPoint, d time.Duration) {
	if d <= 0 {
		return
	}
	for _, arg := range jp.Args {
		if sink, ok := arg.(waitSink); ok {
			sink.AddWait(d)
			return
		}
	}
}

// PoolExhaustion models connection-pool exhaustion: with the paper's
// [0,N] countdown scheme the component leaks a pool handle — checked out
// and never returned, visible on the handle agent — and every request
// queues behind the shrunken pool for PerHandleWait per leaked handle.
// The indicator pair is exactly what a real exhaustion shows: a growing
// live-handle level plus degrading per-invocation latency, with flat CPU
// and heap.
type PoolExhaustion struct {
	// Component is the target component name.
	Component string
	// N parameterises the countdown draw in [0,N].
	N int
	// PerHandleWait is the added queueing delay per leaked handle.
	PerHandleWait time.Duration
	// Agent records the leaked handles.
	Agent *monitor.LiveAgent
	// Seed derives the injector's random stream.
	Seed uint64

	mu        sync.Mutex
	rng       sim.Rand64
	countdown int
	armed     bool
	leaked    int64
}

// Aspect returns the advice implementing the exhaustion. Register it with
// the weaver to arm the fault.
func (p *PoolExhaustion) Aspect() *aspect.Aspect {
	if p.Component == "" || p.Agent == nil {
		panic("faultinject: PoolExhaustion needs Component and Agent")
	}
	if p.N <= 0 || p.PerHandleWait <= 0 {
		panic("faultinject: PoolExhaustion needs positive N and PerHandleWait")
	}
	p.rng = sim.DeriveRand64(p.Seed, 0x9001)
	return &aspect.Aspect{
		Name:     "inject.pool." + p.Component,
		Order:    100, // innermost: monitoring aspects observe the effects
		Pointcut: aspect.MustPointcut(fmt.Sprintf("execution(%s.Service)", p.Component)),
		Before: func(jp *aspect.JoinPoint) {
			p.mu.Lock()
			wait := time.Duration(p.leaked) * p.PerHandleWait
			p.mu.Unlock()
			addWait(jp, wait)
		},
		AfterReturning: func(*aspect.JoinPoint) {
			p.onRequest()
		},
	}
}

func (p *PoolExhaustion) onRequest() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.armed {
		p.countdown = p.rng.IntN(p.N + 1)
		p.armed = true
	}
	if p.countdown > 0 {
		p.countdown--
		return
	}
	p.Agent.Acquire(p.Component)
	p.leaked++
	p.countdown = p.rng.IntN(p.N + 1)
}

// Leaked returns how many pool handles were leaked.
func (p *PoolExhaustion) Leaked() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leaked
}

// handleBytes approximates the kernel/session buffer charged per leaked
// handle — enough to be honest about the cost, small enough that the
// memory detectors stay quiet and the handle stream carries the verdict.
const handleBytes int64 = 4 << 10

// HandleLeak models a file-descriptor or session-handle leak: the [0,N]
// countdown scheme opens a handle that is never closed. Leaked handles
// are visible on the handle agent and charge a small per-handle buffer to
// the heap — the resource that actually exhausts is the handle table, not
// memory, which is what separates this fault from MemoryLeak.
type HandleLeak struct {
	// Component is the target component name.
	Component string
	// N parameterises the countdown draw in [0,N].
	N int
	// Agent records the leaked (never-closed) handles.
	Agent *monitor.LiveAgent
	// Heap, when non-nil, is charged handleBytes per leaked handle.
	Heap *jvmheap.Heap
	// Seed derives the injector's random stream.
	Seed uint64

	mu        sync.Mutex
	rng       sim.Rand64
	countdown int
	armed     bool
	leaked    int64
}

// Aspect returns the advice implementing the leak.
func (h *HandleLeak) Aspect() *aspect.Aspect {
	if h.Component == "" || h.Agent == nil {
		panic("faultinject: HandleLeak needs Component and Agent")
	}
	if h.N <= 0 {
		panic("faultinject: HandleLeak needs positive N")
	}
	h.rng = sim.DeriveRand64(h.Seed, 0xfd1e)
	return &aspect.Aspect{
		Name:     "inject.handle." + h.Component,
		Order:    100,
		Pointcut: aspect.MustPointcut(fmt.Sprintf("execution(%s.Service)", h.Component)),
		AfterReturning: func(*aspect.JoinPoint) {
			h.onRequest()
		},
	}
}

func (h *HandleLeak) onRequest() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.armed {
		h.countdown = h.rng.IntN(h.N + 1)
		h.armed = true
	}
	if h.countdown > 0 {
		h.countdown--
		return
	}
	h.Agent.Acquire(h.Component)
	if h.Heap != nil {
		_ = h.Heap.Allocate(h.Component, handleBytes)
	}
	h.leaked++
	h.countdown = h.rng.IntN(h.N + 1)
}

// Leaked returns how many handles were leaked.
func (h *HandleLeak) Leaked() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.leaked
}

// LockContention models contention aging: a lock (or a similar serialised
// section) whose critical section creeps as internal state degrades, so
// every execution waits longer than the last — latency degrades with NO
// resource growth anywhere. Each request is charged
// Step·(requests/Growth) of wait plus a seeded jitter in [0,Jitter), so
// mean latency climbs one Step every Growth requests. This is the
// catalog's pure-latency fault: memory, CPU, threads and handles all stay
// flat, and only the latency-trend detector can name the component.
type LockContention struct {
	// Component is the target component name.
	Component string
	// Step is the wait growth applied per Growth executions.
	Step time.Duration
	// Growth is how many executions raise the wait by one Step.
	Growth int
	// Jitter bounds the per-request uniform wait jitter (0 disables).
	Jitter time.Duration
	// Seed derives the injector's random stream.
	Seed uint64

	mu       sync.Mutex
	rng      sim.Rand64
	requests int64
	waited   time.Duration
}

// Aspect returns the advice implementing the contention.
func (l *LockContention) Aspect() *aspect.Aspect {
	if l.Component == "" || l.Step <= 0 {
		panic("faultinject: LockContention needs Component and positive Step")
	}
	if l.Growth <= 0 {
		panic("faultinject: LockContention needs positive Growth")
	}
	if l.Jitter < 0 {
		panic("faultinject: LockContention needs non-negative Jitter")
	}
	l.rng = sim.DeriveRand64(l.Seed, 0x10c7)
	return &aspect.Aspect{
		Name:     "inject.lock." + l.Component,
		Order:    100,
		Pointcut: aspect.MustPointcut(fmt.Sprintf("execution(%s.Service)", l.Component)),
		Before: func(jp *aspect.JoinPoint) {
			l.mu.Lock()
			wait := l.Step * time.Duration(l.requests/int64(l.Growth))
			if l.Jitter > 0 {
				wait += time.Duration(l.rng.IntN(int(l.Jitter)))
			}
			l.requests++
			l.waited += wait
			l.mu.Unlock()
			addWait(jp, wait)
		},
	}
}

// Waited returns the total wait injected so far.
func (l *LockContention) Waited() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waited
}

// FragmentationBloat models fragmentation-style slow bloat: unlike the
// fixed-size paper leak, each [0,N]-countdown injection retains a small
// fragment of jittered size in [Base/2, 3·Base/2] — the shape of a heap
// that fragments or a buffer pool that ratchets. The slope is shallow by
// construction (paper-leak sizes divided by ~100), exercising the memory
// trend detector near its sensitivity floor instead of far above it.
type FragmentationBloat struct {
	// Component is the target component name.
	Component string
	// Target is the live component object (must embed a LeakStore).
	Target Retainer
	// Base is the mean fragment size in bytes.
	Base int
	// N parameterises the countdown draw in [0,N].
	N int
	// Heap, when non-nil, is charged each fragment.
	Heap *jvmheap.Heap
	// Seed derives the injector's random stream.
	Seed uint64

	mu        sync.Mutex
	rng       sim.Rand64
	countdown int
	armed     bool
	bloated   int64
	fragments int64
}

// Aspect returns the advice implementing the bloat.
func (f *FragmentationBloat) Aspect() *aspect.Aspect {
	if f.Component == "" || f.Target == nil {
		panic("faultinject: FragmentationBloat needs Component and Target")
	}
	if f.Base <= 1 || f.N <= 0 {
		panic("faultinject: FragmentationBloat needs Base > 1 and positive N")
	}
	f.rng = sim.DeriveRand64(f.Seed, 0xf4a6)
	return &aspect.Aspect{
		Name:     "inject.frag." + f.Component,
		Order:    100,
		Pointcut: aspect.MustPointcut(fmt.Sprintf("execution(%s.Service)", f.Component)),
		AfterReturning: func(*aspect.JoinPoint) {
			f.onRequest()
		},
	}
}

func (f *FragmentationBloat) onRequest() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed {
		f.countdown = f.rng.IntN(f.N + 1)
		f.armed = true
	}
	if f.countdown > 0 {
		f.countdown--
		return
	}
	size := f.Base/2 + f.rng.IntN(f.Base+1)
	f.Target.Retain(size)
	if f.Heap != nil {
		_ = f.Heap.Allocate(f.Component, int64(size))
	}
	f.bloated += int64(size)
	f.fragments++
	f.countdown = f.rng.IntN(f.N + 1)
}

// BloatedBytes returns the total bytes retained so far.
func (f *FragmentationBloat) BloatedBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bloated
}

// Fragments returns how many fragments were retained.
func (f *FragmentationBloat) Fragments() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fragments
}

// StaleCacheDecay models a cache whose hit rate decays as its contents go
// stale: the miss probability climbs linearly from 0 to 1 over Decay
// requests, and each miss costs MissCost of extra CPU (the backing lookup
// the cache existed to avoid). The observable is a growing per-invocation
// CPU trend with no resource-level growth — computational aging without a
// hog's level step, which is what separates it from CPUHog.
type StaleCacheDecay struct {
	// Component is the target component name.
	Component string
	// MissCost is the extra CPU charged per cache miss.
	MissCost time.Duration
	// Decay is the request count over which the miss probability reaches 1.
	Decay int
	// Seed derives the injector's random stream.
	Seed uint64

	mu       sync.Mutex
	rng      sim.Rand64
	requests int64
	misses   int64
}

// Aspect returns the advice implementing the decay.
func (s *StaleCacheDecay) Aspect() *aspect.Aspect {
	if s.Component == "" || s.MissCost <= 0 {
		panic("faultinject: StaleCacheDecay needs Component and positive MissCost")
	}
	if s.Decay <= 0 {
		panic("faultinject: StaleCacheDecay needs positive Decay")
	}
	s.rng = sim.DeriveRand64(s.Seed, 0xcace)
	return &aspect.Aspect{
		Name:     "inject.cache." + s.Component,
		Order:    100,
		Pointcut: aspect.MustPointcut(fmt.Sprintf("execution(%s.Service)", s.Component)),
		Before: func(jp *aspect.JoinPoint) {
			s.mu.Lock()
			s.requests++
			p := float64(s.requests) / float64(s.Decay)
			miss := s.rng.Float64() < p
			if miss {
				s.misses++
			}
			s.mu.Unlock()
			if !miss {
				return
			}
			for _, arg := range jp.Args {
				if sink, ok := arg.(costSink); ok {
					sink.AddCost(s.MissCost)
					return
				}
			}
		},
	}
}

// Misses returns how many cache misses have been injected.
func (s *StaleCacheDecay) Misses() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}
