package metrics

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// This file holds the striped (sharded) primitives behind the package's
// hot-path metrics. Writers spread across per-shard cells padded to cache
// lines so concurrent recorders do not bounce one line between cores;
// readers merge the cells. Merged reads are monotone but not atomic
// snapshots — two cells read microseconds apart may straddle a concurrent
// write — which is the usual monitoring trade-off: recording must never
// block, reading tolerates a point-in-time blur.

// cacheLine is the assumed coherence granularity cells are padded to.
const cacheLine = 64

// maxShards bounds the memory a striped metric spends on contention
// avoidance.
const maxShards = 128

// defaultShards returns the stripe width: the smallest power of two
// covering GOMAXPROCS, capped at maxShards.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n {
		s <<= 1
	}
	if s > maxShards {
		s = maxShards
	}
	return s
}

// shardHint returns a cheap quasi-goroutine-local index in [0, n); n must
// be a power of two. It hashes the address of a stack variable: goroutine
// stacks are disjoint, so concurrent goroutines spread across cells while
// one goroutine keeps returning to the same cell from the same call
// depth. The pointer never escapes (it degrades to a uintptr
// immediately), so the hint costs no allocation.
func shardHint(n int) int {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b)))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h & uint64(n-1))
}

// counterCell is one shard of a StripedCounter, padded so neighbouring
// cells never share a cache line.
type counterCell struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// StripedCounter is a monotone event counter whose increments land on
// per-shard cells. Use it instead of Counter when many goroutines
// increment the same counter concurrently; Value merges the cells.
type StripedCounter struct {
	cells []counterCell
}

// NewStripedCounter creates a counter striped across the default shard
// count.
func NewStripedCounter() *StripedCounter {
	return &StripedCounter{cells: make([]counterCell, defaultShards())}
}

// Inc adds one to the counter.
func (c *StripedCounter) Inc() {
	c.cells[shardHint(len(c.cells))].n.Add(1)
}

// Add adds delta (which must be non-negative) to the counter.
func (c *StripedCounter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative Add on StripedCounter")
	}
	c.cells[shardHint(len(c.cells))].n.Add(delta)
}

// Value returns the current count, merged across shards.
func (c *StripedCounter) Value() int64 {
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}
