// Package faultinject reproduces the paper's aging-error injection. The
// paper modifies TPC-W servlets so that a random draw in [0,N] decides how
// many requests use the servlet before the next memory leak of a fixed
// size is injected; the average consumption rate then depends on the
// component's usage frequency — which is exactly what the experiments
// exploit. This package implements that scheme (plus the CPU-hog and
// thread-leak injectors of the paper's future work) as aspects, so faults
// are attached to unmodified components at runtime.
package faultinject

import (
	"sync"
)

// LeakStore is the retention point embedded in every injectable component.
// Leaked bytes are appended to one flat buffer so the paper's one-level
// object-size policy measures them (a fresh allocation per leak would hide
// behind a second level of indirection). A LeakStore is safe for
// concurrent use.
//
// The object-size agent charges a slice its capacity, so what the
// detectors see is buf's capacity staircase, and that staircase is
// append's: a quarter more each step, rounded up to whole heap pages.
// append would also copy the whole buffer into a fresh allocation at every
// step and abandon the old one — five times the leak in garbage, every
// page of it touched, refaulted or not as the collector's timing has it,
// which made a leaking run's wall time and resident size differ from one
// run to the next. Nothing reads or writes the retained bytes, so past
// smallBuf the store does neither: buf is a prefix of reserve, cut with a
// three-index slice to the capacity append would have picked, and reserve
// is reallocated only when that capacity outgrows it, at least doubling.
// A block twice the size of the last fits in nothing the collector has
// freed, so it is always fresh memory that nobody touches: a growing leak
// costs the host process neither copies nor page faults, whenever the
// collector runs.
type LeakStore struct {
	mu      sync.Mutex
	buf     []byte // len: bytes retained; cap: what the object-size agent charges
	reserve []byte // the allocation buf is a prefix of (same array: measured once)
}

const (
	// smallBuf is the size up to which the buffer grows by plain append:
	// below it capacities follow the allocator's size classes and a copy
	// costs nothing.
	smallBuf = 32 << 10
	// heapPage is the granule the Go allocator rounds a large block to.
	heapPage = 8 << 10
)

// Retain appends n leaked bytes to the store.
func (s *LeakStore) Retain(n int) {
	if n < 0 {
		panic("faultinject: negative leak size")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	need := len(s.buf) + n
	switch {
	case need <= cap(s.buf):
		s.buf = s.buf[:need]
	case need <= smallBuf:
		s.buf = append(s.buf, make([]byte, n)...)
	default:
		visible := appendCap(need, cap(s.buf))
		if visible > cap(s.reserve) {
			s.reserve = make([]byte, 0, max(visible, 2*cap(s.reserve)))
		}
		s.buf = s.reserve[:need:visible]
	}
}

// appendCap is the capacity append gives a []byte of capacity oldCap that
// has to grow to need bytes, for need above smallBuf (the runtime's
// nextslicecap and roundupsize; TestLeakStoreCapacityFollowsAppend holds
// it to the real thing).
func appendCap(need, oldCap int) int {
	c := need
	if need <= 2*oldCap {
		for c = oldCap; c < need; {
			c += (c + 3*256) >> 2
		}
	}
	return (c + heapPage - 1) &^ (heapPage - 1)
}

// LeakedBytes returns the number of bytes retained so far.
func (s *LeakStore) LeakedBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Release drops every retained byte (micro-reboot of the component) and
// returns how many were held.
func (s *LeakStore) Release() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.buf)
	s.buf, s.reserve = nil, nil
	return n
}

// Retainer is what the memory-leak injector needs from its target: any
// component embedding a LeakStore satisfies it.
type Retainer interface {
	Retain(n int)
}

var _ Retainer = (*LeakStore)(nil)
