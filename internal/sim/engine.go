package sim

import (
	"fmt"
	"time"
)

// Event is a callback scheduled at a virtual instant. Events run on the
// engine goroutine; they may schedule further events.
type Event func(now time.Time)

// Engine is a single-threaded discrete-event executor over a VirtualClock.
// It is intentionally not safe for concurrent scheduling: all experiment
// logic runs inside event callbacks on one goroutine, which is what makes
// runs deterministic.
//
// Timers are kept in a hierarchical timing wheel (see wheel.go), so
// Schedule and Cancel are O(1) and the steady-state event path allocates
// nothing. Execution order is strictly (instant, schedule-sequence): FIFO
// within an instant, which the reproducibility of every experiment depends
// on.
type Engine struct {
	clock    *VirtualClock
	wheel    wheel
	seq      uint64
	live     int
	executed uint64
}

// NewEngine returns an engine driving a fresh VirtualClock set to Epoch.
func NewEngine() *Engine {
	e := &Engine{clock: NewVirtualClock()}
	e.wheel.init()
	return e
}

// Clock returns the engine's virtual clock.
func (e *Engine) Clock() *VirtualClock { return e.clock }

// Now returns the current virtual instant.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// Len reports the number of pending (non-cancelled) events.
func (e *Engine) Len() int { return e.live }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Reserve pre-sizes the event arena for an expected live-event population,
// so bulk scheduling (a million session timers) grows the arena once at
// setup instead of doubling through the run.
func (e *Engine) Reserve(n int) { e.wheel.reserve(n) }

// Schedule runs fn at the given absolute virtual instant and returns a
// handle that can cancel it. Scheduling in the past panics — it would be a
// logic bug in the caller, not a recoverable condition.
func (e *Engine) Schedule(at time.Time, fn Event) uint64 {
	if fn == nil {
		panic("sim: Schedule with nil event")
	}
	idx := e.scheduleEntry(at)
	e.wheel.entries[idx].fn = fn
	id := e.wheel.handle(idx)
	e.wheel.insert(idx)
	return id
}

// ScheduleAfter runs fn after delay d from the current instant. A negative
// delay is clamped to zero.
func (e *Engine) ScheduleAfter(d time.Duration, fn Event) uint64 {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.clock.Now().Add(d), fn)
}

// ScheduleArg runs fn(now, arg) at the given absolute instant. It exists
// for high-fan-out callers (a million sessions each scheduling their next
// fire): the callback is shared and the distinguishing state rides in arg,
// so no per-event closure is ever allocated.
func (e *Engine) ScheduleArg(at time.Time, fn func(now time.Time, arg int64), arg int64) uint64 {
	if fn == nil {
		panic("sim: ScheduleArg with nil event")
	}
	idx := e.scheduleEntry(at)
	en := &e.wheel.entries[idx]
	en.argFn = fn
	en.arg = arg
	id := e.wheel.handle(idx)
	e.wheel.insert(idx)
	return id
}

// ScheduleArgAfter is ScheduleArg with a delay relative to the current
// instant. A negative delay is clamped to zero.
func (e *Engine) ScheduleArgAfter(d time.Duration, fn func(now time.Time, arg int64), arg int64) uint64 {
	if d < 0 {
		d = 0
	}
	return e.ScheduleArg(e.clock.Now().Add(d), fn, arg)
}

// scheduleEntry validates the instant, allocates an arena entry stamped
// with it, and counts it live. The caller sets the callback and inserts.
func (e *Engine) scheduleEntry(at time.Time) int32 {
	if at.Before(e.clock.Now()) {
		panic(fmt.Sprintf("sim: Schedule at %v before now %v", at, e.clock.Now()))
	}
	e.seq++
	idx := e.wheel.alloc()
	en := &e.wheel.entries[idx]
	en.atNs = at.Sub(Epoch).Nanoseconds()
	en.seq = e.seq
	en.state = entryPending
	e.live++
	return idx
}

// Cancel prevents the event with the given handle from running. Cancelling
// an already-run or unknown handle is a no-op and reports false. Cost is
// O(1): a wheel-resident entry is unlinked from its (doubly linked) slot
// chain and reclaimed on the spot; batch- and overflow-resident entries
// are marked dead and skipped on drain.
func (e *Engine) Cancel(id uint64) bool {
	idx, ok := e.wheel.resolve(id)
	if !ok {
		return false
	}
	en := &e.wheel.entries[idx]
	e.live--
	if en.level >= 0 {
		e.wheel.unlink(idx)
		e.wheel.free(idx)
		return true
	}
	en.state = entryCancelled
	en.fn = nil
	en.argFn = nil
	return true
}

// Step executes the single earliest pending event, advancing the clock to
// its instant. It reports whether an event ran.
func (e *Engine) Step() bool {
	idx, ok := e.next()
	if !ok {
		return false
	}
	e.wheel.batchHead++
	en := &e.wheel.entries[idx]
	at := Epoch.Add(time.Duration(en.atNs))
	fn, argFn, arg := en.fn, en.argFn, en.arg
	// Recycle before running: the event may schedule follow-ups (the
	// completion → next-job chain), which can then reuse this entry.
	e.wheel.free(idx)
	e.live--
	e.clock.SetNow(at)
	e.executed++
	if fn != nil {
		fn(at)
	} else {
		argFn(at, arg)
	}
	return true
}

// next exposes the earliest pending entry, advancing the wheel cursor as
// needed. The entry stays at the batch head until Step consumes it.
func (e *Engine) next() (int32, bool) {
	for {
		if idx, ok := e.wheel.batchNext(); ok {
			return idx, true
		}
		if e.live == 0 || !e.wheel.loadNext() {
			return 0, false
		}
	}
}

// RunUntil executes events in order until the queue is empty or the next
// event lies strictly after deadline. The clock is left at deadline when
// the horizon is reached with events still pending, so time-series
// recorded against the clock have a well-defined end.
func (e *Engine) RunUntil(deadline time.Time) {
	deadlineNs := deadline.Sub(Epoch).Nanoseconds()
	for {
		idx, ok := e.next()
		if !ok {
			break
		}
		if e.wheel.entries[idx].atNs > deadlineNs {
			e.clock.SetNow(deadline)
			return
		}
		e.Step()
	}
	if e.clock.Now().Before(deadline) {
		e.clock.SetNow(deadline)
	}
}

// RunFor is RunUntil with a horizon relative to the current instant.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.clock.Now().Add(d))
}

// drain executes every pending event regardless of horizon.
func (e *Engine) drain() {
	for e.Step() {
	}
}

// Every schedules fn to run at the given period until the returned stop
// function is invoked or the engine drains. The first firing happens one
// period from now. It is the virtual-time analogue of time.Ticker and is
// used by sampling monitors. Stopping cancels the pending tick, so a
// stopped ticker holds no queue slot.
func (e *Engine) Every(period time.Duration, fn Event) (stop func()) {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	stopped := false
	var id uint64
	var tick Event
	tick = func(now time.Time) {
		if stopped {
			return
		}
		fn(now)
		if !stopped {
			id = e.ScheduleAfter(period, tick)
		}
	}
	id = e.ScheduleAfter(period, tick)
	return func() {
		if stopped {
			return
		}
		stopped = true
		e.Cancel(id)
	}
}
