package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// refEvent mirrors a scheduled event in a trivially-correct reference
// model: a sorted slice ordered by (at, seq).
type refEvent struct {
	at  time.Time
	seq int
	id  int
}

// TestWheelMatchesReferenceOrder drives the wheel engine and a brute-force
// reference through the same randomized schedule/cancel workload — offsets
// spanning every wheel level and the overflow heap — and requires the
// exact same execution order.
func TestWheelMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 99))
	e := NewEngine()
	var ref []refEvent
	var got, want []int

	// Offsets chosen to exercise level 0 (sub-268ms), level 1 (think
	// times), levels 2-3 (hours/days) and the overflow heap (beyond ~52
	// days), plus same-instant ties.
	spans := []time.Duration{
		100 * time.Millisecond,
		10 * time.Second,
		3 * time.Hour,
		20 * 24 * time.Hour,
		90 * 24 * time.Hour,
	}

	handles := make(map[int]uint64)
	seq := 0
	for i := 0; i < 2000; i++ {
		span := spans[rng.IntN(len(spans))]
		d := time.Duration(rng.Int64N(int64(span)))
		if rng.IntN(10) == 0 {
			d = d / time.Second * time.Second // force same-instant collisions
		}
		at := e.Now().Add(d)
		id := i
		seq++
		handles[id] = e.Schedule(at, func(time.Time) { got = append(got, id) })
		ref = append(ref, refEvent{at: at, seq: seq, id: id})

		// Randomly cancel a prior event through both models.
		if i%7 == 3 && len(ref) > 1 {
			victim := ref[rng.IntN(len(ref))].id
			if h, ok := handles[victim]; ok {
				if e.Cancel(h) {
					delete(handles, victim)
					for j, r := range ref {
						if r.id == victim {
							ref = append(ref[:j], ref[j+1:]...)
							break
						}
					}
				}
			}
		}
	}

	if e.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", e.Len(), len(ref))
	}
	e.drain()

	sort.Slice(ref, func(i, j int) bool {
		if !ref[i].at.Equal(ref[j].at) {
			return ref[i].at.Before(ref[j].at)
		}
		return ref[i].seq < ref[j].seq
	})
	for _, r := range ref {
		want = append(want, r.id)
	}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got id %d, want %d", i, got[i], want[i])
		}
	}
}

// TestWheelFarFutureOverflow pins the overflow-heap path: events beyond
// the wheel horizon still fire, in order, interleaved with near events.
func TestWheelFarFutureOverflow(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleAfter(365*24*time.Hour, func(time.Time) { order = append(order, 3) })
	e.ScheduleAfter(100*24*time.Hour, func(time.Time) { order = append(order, 2) })
	e.ScheduleAfter(time.Second, func(time.Time) { order = append(order, 1) })
	e.drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("far-future order = %v, want [1 2 3]", order)
	}
	if want := Epoch.Add(365 * 24 * time.Hour); !e.Now().Equal(want) {
		t.Fatalf("clock at %v, want %v", e.Now(), want)
	}
}

// TestWheelCancelFarFuture cancels an overflow-heap event and one in a
// high wheel level; neither may fire and Len must account for both.
func TestWheelCancelFarFuture(t *testing.T) {
	e := NewEngine()
	ran := 0
	far := e.ScheduleAfter(400*24*time.Hour, func(time.Time) { ran++ })
	high := e.ScheduleAfter(30*24*time.Hour, func(time.Time) { ran++ })
	e.ScheduleAfter(time.Second, func(time.Time) { ran++ })
	if !e.Cancel(far) || !e.Cancel(high) {
		t.Fatal("Cancel reported false for pending events")
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d after cancels, want 1", e.Len())
	}
	e.drain()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
}

// TestWheelHandleReuseIsSafe verifies generation stamping: a handle for an
// executed event must stay dead even after its arena slot is recycled by
// later scheduling.
func TestWheelHandleReuseIsSafe(t *testing.T) {
	e := NewEngine()
	stale := e.ScheduleAfter(time.Millisecond, func(time.Time) {})
	e.drain()
	// Recycle the slot: the next Schedule reuses the freed entry.
	ran := false
	fresh := e.ScheduleAfter(time.Millisecond, func(time.Time) { ran = true })
	if e.Cancel(stale) {
		t.Fatal("stale handle cancelled a recycled entry")
	}
	e.drain()
	if !ran {
		t.Fatal("recycled entry's event did not run")
	}
	if e.Cancel(fresh) {
		t.Fatal("Cancel after execution reported true")
	}
}

// TestWheelScheduleIntoClockCursorGap pins the batch-insert path: after
// RunUntil leaves the clock behind the wheel cursor (the cursor peeked
// ahead to a future event), scheduling into the gap must still execute in
// correct order.
func TestWheelScheduleIntoClockCursorGap(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleAfter(10*time.Second, func(time.Time) { order = append(order, 3) })
	// RunFor peeks the 10s event (cursor jumps to its tick) but stops the
	// clock at 1s.
	e.RunFor(time.Second)
	// These land between clock (1s) and cursor (10s): the gap.
	e.ScheduleAfter(5*time.Second, func(time.Time) { order = append(order, 2) })
	e.ScheduleAfter(2*time.Second, func(time.Time) { order = append(order, 1) })
	e.drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("gap scheduling order = %v, want [1 2 3]", order)
	}
}

// TestEngineEveryStopDuringTickReleasesSlot is the regression test for
// Every's stop cancelling its pending reschedule: stopping from inside the
// tick callback must leave no pending event behind.
func TestEngineEveryStopDuringTickReleasesSlot(t *testing.T) {
	e := NewEngine()
	count := 0
	var stop func()
	stop = e.Every(time.Second, func(time.Time) {
		count++
		if count == 2 {
			stop()
		}
	})
	e.RunFor(10 * time.Second)
	if count != 2 {
		t.Fatalf("ticks after stop: count = %d, want 2", count)
	}
	if e.Len() != 0 {
		t.Fatalf("stopped ticker left %d pending events", e.Len())
	}
}

// TestEngineEveryStopOutsideTickCancelsPending stops a ticker between
// firings and checks the queued tick is released immediately.
func TestEngineEveryStopOutsideTickCancelsPending(t *testing.T) {
	e := NewEngine()
	count := 0
	stop := e.Every(time.Second, func(time.Time) { count++ })
	e.RunFor(2500 * time.Millisecond)
	if count != 2 {
		t.Fatalf("count = %d before stop, want 2", count)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d with ticker armed, want 1", e.Len())
	}
	stop()
	if e.Len() != 0 {
		t.Fatalf("Len = %d after stop, want 0", e.Len())
	}
	e.RunFor(10 * time.Second)
	if count != 2 {
		t.Fatalf("ticker fired after stop: count = %d", count)
	}
}

// TestScheduleArgSharedCallback exercises the closure-free scheduling path
// used by the load tier: one shared callback, state in arg.
func TestScheduleArgSharedCallback(t *testing.T) {
	e := NewEngine()
	var got []int64
	fn := func(_ time.Time, arg int64) { got = append(got, arg) }
	e.ScheduleArgAfter(2*time.Second, fn, 20)
	e.ScheduleArgAfter(1*time.Second, fn, 10)
	id := e.ScheduleArgAfter(3*time.Second, fn, 30)
	if !e.Cancel(id) {
		t.Fatal("Cancel of ScheduleArg handle reported false")
	}
	e.drain()
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("args = %v, want [10 20]", got)
	}
}

// TestWheelSteadyStateNoAlloc checks the core load-tier invariant: a
// schedule→fire→reschedule churn loop at think-time scale allocates
// nothing once warm.
func TestWheelSteadyStateNoAlloc(t *testing.T) {
	e := NewEngine()
	const sessions = 512
	fired := 0
	var fn func(time.Time, int64)
	fn = func(now time.Time, arg int64) {
		fired++
		e.ScheduleArgAfter(time.Duration(1+arg%13)*time.Second, fn, arg)
	}
	for i := int64(0); i < sessions; i++ {
		e.ScheduleArgAfter(time.Duration(1+i%13)*time.Second, fn, i)
	}
	// Warm up: populate arena, batch and scratch to steady-state size.
	e.RunFor(5 * time.Minute)

	allocs := testing.AllocsPerRun(10, func() {
		e.RunFor(30 * time.Second)
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocated %.1f allocs/run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired")
	}
}

// BenchmarkEngineSchedule measures the hot schedule→fire→reschedule cycle
// (one event per op) with a live population keeping every wheel level
// warm. Gate: zero allocs/op.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	const sessions = 100_000
	var fn func(time.Time, int64)
	fn = func(now time.Time, arg int64) {
		// Deterministic pseudo think time in [1s, 14s): the TPC-W band.
		h := splitmix64(uint64(arg) + e.Executed())
		d := time.Second + time.Duration(h%(13*uint64(time.Second)))
		e.ScheduleArgAfter(d, fn, arg)
	}
	for i := int64(0); i < sessions; i++ {
		e.ScheduleArgAfter(time.Duration(1+i%9973)*time.Millisecond, fn, i)
	}
	// Warm the arena and cursor machinery.
	for i := 0; i < sessions; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineCancel measures schedule+cancel pairs — the path that was
// O(queue) under the heap engine.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	// A large standing population the old linear-scan Cancel would walk.
	for i := int64(0); i < 100_000; i++ {
		e.ScheduleArgAfter(time.Duration(1+i)*time.Millisecond, func(time.Time, int64) {}, i)
	}
	fn := func(time.Time, int64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.ScheduleArgAfter(time.Hour, fn, int64(i))
		e.Cancel(id)
	}
}
