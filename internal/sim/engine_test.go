package sim

import (
	"testing"
	"time"
)

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock()
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("new clock at %v, want %v", got, Epoch)
	}
	c.Advance(3 * time.Second)
	if got := c.Since(Epoch); got != 3*time.Second {
		t.Fatalf("Since = %v, want 3s", got)
	}
}

func TestVirtualClockBackwardsPanics(t *testing.T) {
	c := NewVirtualClock()
	c.Advance(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("SetNow backwards did not panic")
		}
	}()
	c.SetNow(Epoch)
}

func TestVirtualClockNegativeAdvancePanics(t *testing.T) {
	c := NewVirtualClock()
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleAfter(2*time.Second, func(time.Time) { order = append(order, 2) })
	e.ScheduleAfter(1*time.Second, func(time.Time) { order = append(order, 1) })
	e.ScheduleAfter(3*time.Second, func(time.Time) { order = append(order, 3) })
	e.drain()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOWithinInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	at := e.Now().Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(at, func(time.Time) { order = append(order, i) })
	}
	e.drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of order: %v", order)
		}
	}
}

func TestEngineClockTracksEvents(t *testing.T) {
	e := NewEngine()
	var seen time.Time
	e.ScheduleAfter(5*time.Second, func(now time.Time) { seen = now })
	e.drain()
	if want := Epoch.Add(5 * time.Second); !seen.Equal(want) {
		t.Fatalf("event saw now=%v, want %v", seen, want)
	}
	if !e.Now().Equal(Epoch.Add(5 * time.Second)) {
		t.Fatalf("clock at %v after drain", e.Now())
	}
}

func TestEngineRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.ScheduleAfter(1*time.Second, func(time.Time) { ran++ })
	e.ScheduleAfter(10*time.Second, func(time.Time) { ran++ })
	e.RunFor(5 * time.Second)
	if ran != 1 {
		t.Fatalf("ran %d events inside horizon, want 1", ran)
	}
	if got := e.Now(); !got.Equal(Epoch.Add(5 * time.Second)) {
		t.Fatalf("clock left at %v, want horizon", got)
	}
	if e.Len() != 1 {
		t.Fatalf("pending = %d, want 1", e.Len())
	}
}

func TestEngineRunUntilAdvancesEmptyQueueToDeadline(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Minute)
	if got := e.Now(); !got.Equal(Epoch.Add(time.Minute)) {
		t.Fatalf("clock at %v, want deadline even with no events", got)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.ScheduleAfter(time.Second, func(time.Time) { ran = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel reported false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel reported true")
	}
	e.drain()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Executed() != 0 {
		t.Fatalf("executed = %d, want 0", e.Executed())
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	var stop func()
	stop = e.Every(10*time.Second, func(now time.Time) {
		ticks = append(ticks, now.Sub(Epoch))
		if len(ticks) == 3 {
			stop()
		}
	})
	defer stop()
	e.RunFor(time.Hour)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, d := range ticks {
		if want := time.Duration(i+1) * 10 * time.Second; d != want {
			t.Fatalf("tick %d at %v, want %v", i, d, want)
		}
	}
}

func TestEngineEveryStopHaltsTicks(t *testing.T) {
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
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Clock().Advance(time.Hour)
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule in the past did not panic")
		}
	}()
	e.Schedule(Epoch, func(time.Time) {})
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	e.ScheduleAfter(time.Second, nil)
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse Event
	recurse = func(time.Time) {
		depth++
		if depth < 100 {
			e.ScheduleAfter(time.Millisecond, recurse)
		}
	}
	e.ScheduleAfter(time.Millisecond, recurse)
	e.drain()
	if depth != 100 {
		t.Fatalf("nested depth = %d, want 100", depth)
	}
	if want := Epoch.Add(100 * time.Millisecond); !e.Now().Equal(want) {
		t.Fatalf("clock at %v, want %v", e.Now(), want)
	}
}
