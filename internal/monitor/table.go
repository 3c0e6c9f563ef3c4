package monitor

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Cell is one component's monitoring state: everything the Aspect
// Component records about it and every per-component agent reports. The
// AC is bound to its component's cell when the weaver resolves the advice
// chain, and the collector holds it from instrumentation on, so neither
// names the component on the recording path. Every mutable field is
// atomic: recorders never serialise, and readers see monotone per-field
// values rather than a cross-field snapshot.
//
// Service time is split into top-level (cpuNs) and nested (nestedNs), and
// latency is kept as its excess over service time (waitNs), so a typical
// execution writes two counters: its count and its service time.
//
// A cell is two 64-byte halves, 128 bytes in all, which the allocator
// places on a 128-byte boundary: the counters every advised execution
// writes fill the first cache line alone, so recorders of different
// components never write the same line.
type Cell struct {
	count      atomic.Int64
	failures   atomic.Int64
	cpuNs      atomic.Int64
	nestedNs   atomic.Int64
	waitNs     atomic.Int64
	deltaTotal atomic.Int64
	deltaCount atomic.Int64
	_          [8]byte

	name    string
	target  atomic.Pointer[any] // object-size target; nil when none is registered
	live    [2]atomic.Int64     // indexed by LiveKind
	reboots atomic.Int64
	_       [16]byte
}

// Name returns the component the cell records.
func (c *Cell) Name() string { return c.name }

// Record notes one execution: the service cost it consumed, the latency
// its caller waited (at least the cost), whether it failed and whether it
// ran at the top level, where its cost is CPU time (a nested one's is
// inside its caller's). The two times differ under contention and
// queueing, the aging signal the latency-trend detector watches. A
// negative top-level cost panics.
func (c *Cell) Record(cost, latency time.Duration, failed, top bool) {
	c.count.Add(1)
	if failed {
		c.failures.Add(1)
	}
	switch {
	case cost == 0:
	case !top:
		c.nestedNs.Add(int64(cost))
	case cost < 0:
		panic("monitor: negative CPU time")
	default:
		c.cpuNs.Add(int64(cost))
	}
	if latency > cost {
		c.waitNs.Add(int64(latency - cost))
	}
}

// AddDelta accumulates one execution's retained-bytes delta.
func (c *Cell) AddDelta(bytes int64) {
	c.deltaTotal.Add(bytes)
	c.deltaCount.Add(1)
}

// CountReboot counts one micro-reboot of the component and returns the
// new total.
func (c *Cell) CountReboot() int64 { return c.reboots.Add(1) }

// Stats returns the component's invocation counters.
func (c *Cell) Stats() InvocationStats {
	return InvocationStats{
		Count:         c.count.Load(),
		Failures:      c.failures.Load(),
		TotalDuration: time.Duration(c.cpuNs.Load() + c.nestedNs.Load()),
	}
}

// Latency returns the cumulative response latency recorded.
func (c *Cell) Latency() time.Duration {
	return time.Duration(c.cpuNs.Load() + c.nestedNs.Load() + c.waitNs.Load())
}

// CPU returns the CPU time charged: the service time of top-level
// executions.
func (c *Cell) CPU() time.Duration { return time.Duration(c.cpuNs.Load()) }

// Live returns the component's live count of kind k.
func (c *Cell) Live(k LiveKind) int64 { return c.live[k].Load() }

// Delta returns the accumulated retained-bytes delta and the number of
// executions it was accumulated over.
func (c *Cell) Delta() (total, observations int64) {
	return c.deltaTotal.Load(), c.deltaCount.Load()
}

// Reboots returns how many times the component was micro-rebooted.
func (c *Cell) Reboots() int64 { return c.reboots.Load() }

// Target returns the registered object-size target (nil when none is).
func (c *Cell) Target() any {
	if p := c.target.Load(); p != nil {
		return *p
	}
	return nil
}

// Table maps component names to cells: the one per-component registry
// behind every agent. A cell is created on first contact and lives as
// long as the table. The map is copy-on-write behind an atomic pointer,
// so a lookup is one atomic load and one map read, and iterating readers
// see a consistent set of cells; inserts (one per component, ever) copy
// the map under mu.
type Table struct {
	mu    sync.Mutex
	cells atomic.Pointer[map[string]*Cell]
}

// NewTable creates an empty table.
func NewTable() *Table {
	t := &Table{}
	t.cells.Store(&map[string]*Cell{})
	return t
}

// Cell returns the cell of component, creating it on first contact.
func (t *Table) Cell(component string) *Cell {
	if c := t.Lookup(component); c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := *t.cells.Load()
	if c, ok := cur[component]; ok {
		return c
	}
	next := make(map[string]*Cell, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	c := &Cell{name: component}
	next[component] = c
	t.cells.Store(&next)
	return c
}

// Lookup returns the cell of component, or nil if the component was never
// recorded. Unlike Cell it creates nothing, so queries for unknown names
// leave the table unchanged.
func (t *Table) Lookup(component string) *Cell {
	return (*t.cells.Load())[component]
}

// Each calls fn for every cell, in no particular order.
func (t *Table) Each(fn func(*Cell)) {
	for _, c := range *t.cells.Load() {
		fn(c)
	}
}

// Names returns the sorted names of the cells keep accepts.
func (t *Table) Names(keep func(*Cell) bool) []string {
	var out []string
	t.Each(func(c *Cell) {
		if keep(c) {
			out = append(out, c.name)
		}
	})
	sort.Strings(out)
	return out
}
