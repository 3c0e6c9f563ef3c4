// Package jvmheap models the JVM heap of the paper's testbed (jdk1.5 with a
// 1 GB heap) as an explicit allocation ledger: retained allocations are
// charged to named owners (application components), transient allocations
// model per-request garbage, and a generational-style collector reclaims
// garbage when utilisation crosses a threshold. Exhaustion surfaces as
// ErrOutOfMemory, which is what ultimately crashes an aged application —
// the terminal event the paper's framework exists to prevent.
package jvmheap

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/sim"
)

// ErrOutOfMemory reports that an allocation could not be satisfied even
// after garbage collection.
var ErrOutOfMemory = errors.New("jvmheap: out of memory")

// DefaultCapacity matches the paper's Tomcat JVM: a 1 GB heap.
const DefaultCapacity int64 = 1 << 30

// gcThreshold is the utilisation that triggers a collection.
const gcThreshold = 0.75

// Stats is a point-in-time view of the heap.
type Stats struct {
	Capacity    int64
	Retained    int64 // live, owner-charged bytes (survives GC)
	Transient   int64 // garbage awaiting collection
	Used        int64 // Retained + Transient
	Utilization float64
	GCCount     int64
	GCReclaimed int64 // total bytes reclaimed over all collections
}

// Heap is a simulated JVM heap. It is safe for concurrent use.
type Heap struct {
	clock sim.Clock

	mu          sync.Mutex
	capacity    int64
	owners      map[string]int64
	retained    int64
	transient   int64
	gcCount     int64
	gcReclaimed int64
}

// New creates a heap with the given capacity (DefaultCapacity when
// non-positive) on clock (WallClock when nil).
func New(capacity int64, clock sim.Clock) *Heap {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if clock == nil {
		clock = sim.WallClock{}
	}
	return &Heap{clock: clock, capacity: capacity, owners: make(map[string]int64)}
}

// Allocate charges n retained bytes to owner. Retained bytes survive
// garbage collection — they are what leaks are made of. When the heap
// cannot hold the allocation even after collecting, ErrOutOfMemory is
// returned and the allocation does not happen.
func (h *Heap) Allocate(owner string, n int64) error {
	if n < 0 {
		panic("jvmheap: negative allocation")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.retained+h.transient+n > h.capacity {
		h.collectLocked()
		if h.retained+n > h.capacity {
			return fmt.Errorf("%w: retained %d + %d exceeds capacity %d",
				ErrOutOfMemory, h.retained, n, h.capacity)
		}
	}
	h.owners[owner] += n
	h.retained += n
	h.maybeCollectLocked()
	return nil
}

// Free releases up to n retained bytes charged to owner. Freeing more than
// the owner holds clamps to zero — the rejuvenation path frees "everything
// the component retained" without tracking exact figures.
func (h *Heap) Free(owner string, n int64) {
	if n < 0 {
		panic("jvmheap: negative free")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	held := h.owners[owner]
	if n > held {
		n = held
	}
	h.owners[owner] = held - n
	if h.owners[owner] == 0 {
		delete(h.owners, owner)
	}
	h.retained -= n
}

// FreeAll releases every retained byte of owner and returns how much was
// held. This is the micro-reboot primitive.
func (h *Heap) FreeAll(owner string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	held := h.owners[owner]
	delete(h.owners, owner)
	h.retained -= held
	return held
}

// AllocateTransient models per-request garbage: it occupies the heap until
// the next collection. ErrOutOfMemory is returned when even a collection
// cannot make room.
func (h *Heap) AllocateTransient(n int64) error {
	if n < 0 {
		panic("jvmheap: negative allocation")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.retained+h.transient+n > h.capacity {
		h.collectLocked()
		if h.retained+n > h.capacity {
			return fmt.Errorf("%w: %d transient bytes do not fit", ErrOutOfMemory, n)
		}
	}
	h.transient += n
	h.maybeCollectLocked()
	return nil
}

// GC forces a collection and returns the resulting stats.
func (h *Heap) GC() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.collectLocked()
	return h.statsLocked()
}

func (h *Heap) maybeCollectLocked() {
	if float64(h.retained+h.transient) > gcThreshold*float64(h.capacity) {
		h.collectLocked()
	}
}

func (h *Heap) collectLocked() {
	h.gcCount++
	h.gcReclaimed += h.transient
	h.transient = 0
}

// Stats returns a point-in-time view.
func (h *Heap) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.statsLocked()
}

func (h *Heap) statsLocked() Stats {
	used := h.retained + h.transient
	return Stats{
		Capacity:    h.capacity,
		Retained:    h.retained,
		Transient:   h.transient,
		Used:        used,
		Utilization: float64(used) / float64(h.capacity),
		GCCount:     h.gcCount,
		GCReclaimed: h.gcReclaimed,
	}
}

// RetainedBy returns the retained bytes charged to owner.
func (h *Heap) RetainedBy(owner string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.owners[owner]
}

// HeadroomSeconds extrapolates the time until exhaustion given a retained
// growth rate in bytes/second. It returns +Inf for non-positive rates.
func (h *Heap) HeadroomSeconds(bytesPerSecond float64) float64 {
	if bytesPerSecond <= 0 {
		return inf
	}
	st := h.Stats()
	return float64(st.Capacity-st.Retained) / bytesPerSecond
}

var inf = func() float64 { var z float64; return 1 / z }()
