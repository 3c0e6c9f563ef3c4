package sim

import (
	"fmt"
	"sync"
	"time"
)

// ShardGroup runs N independent engines in bounded-lag lockstep: virtual
// time advances in fixed windows, every shard runs one window concurrently
// on its own goroutine, and a barrier closes the window before the next
// begins. No shard's clock ever leads another's by more than one window —
// the conservative-synchronisation contract of parallel discrete-event
// simulation.
//
// Shards share nothing during a window; cross-shard effects (telemetry
// merges, load rebalancing, coordinated phase changes) belong in the
// onWindow hook, which runs serially on the caller's goroutine with
// exclusive access to every shard. Because each engine is deterministic
// and windows only exchange state at barriers in shard order, a run's
// merged outcome is a pure function of (seed, workload, window) — the
// shard count and goroutine scheduling change wall-clock speed, never
// results. The load tier's golden tests pin exactly that.
type ShardGroup struct {
	shards []*Engine
	window time.Duration
	wg     sync.WaitGroup // the window barrier; a field so RunUntil allocates nothing
}

// NewShardGroup creates n engines, all at Epoch, stepped in windows of the
// given size. Window choice trades barrier overhead against lag bound; the
// load tier uses 100 ms — coarse enough to amortise the barrier, fine
// enough that per-window merges feel continuous at WIPS timescales.
func NewShardGroup(n int, window time.Duration) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: ShardGroup with %d shards", n))
	}
	if window <= 0 {
		panic("sim: ShardGroup with non-positive window")
	}
	g := &ShardGroup{window: window, shards: make([]*Engine, n)}
	for i := range g.shards {
		g.shards[i] = NewEngine()
	}
	return g
}

// Shard returns shard i's engine. Outside RunUntil the caller owns every
// shard; during a window only the shard's own events may touch it.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Now returns the group's committed virtual time — the instant every shard
// has reached. Between windows all shard clocks agree.
func (g *ShardGroup) Now() time.Time { return g.shards[0].Now() }

// RunUntil drives every shard to deadline in window-sized rounds. After
// each barrier, onWindow (if non-nil) observes the group at the window's
// end instant. The final window is truncated to land exactly on deadline.
func (g *ShardGroup) RunUntil(deadline time.Time, onWindow func(now time.Time)) {
	for now := g.Now(); now.Before(deadline); {
		end := now.Add(g.window)
		if end.After(deadline) {
			end = deadline
		}
		if len(g.shards) == 1 {
			// Single shard needs no fan-out; keep the hot path free of
			// goroutine churn so shards=1 matches a plain Engine run.
			g.shards[0].RunUntil(end)
		} else {
			g.wg.Add(len(g.shards))
			for _, sh := range g.shards {
				// end is a parameter, not a capture: a captured loop-local
				// would be heap-moved and cost one allocation per window.
				go func(sh *Engine, end time.Time) {
					defer g.wg.Done()
					sh.RunUntil(end)
				}(sh, end)
			}
			g.wg.Wait()
		}
		if onWindow != nil {
			onWindow(end)
		}
		now = end
	}
}
