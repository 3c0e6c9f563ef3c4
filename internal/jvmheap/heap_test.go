package jvmheap

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocateAndFree(t *testing.T) {
	h := New(1000, nil)
	if err := h.Allocate("A", 300); err != nil {
		t.Fatal(err)
	}
	if err := h.Allocate("B", 200); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Retained != 500 || st.Used != 500 {
		t.Fatalf("stats = %+v", st)
	}
	if h.RetainedBy("A") != 300 {
		t.Fatalf("A holds %d", h.RetainedBy("A"))
	}
	h.Free("A", 100)
	if h.RetainedBy("A") != 200 {
		t.Fatalf("after free A holds %d", h.RetainedBy("A"))
	}
	h.Free("A", 9999) // over-free clamps
	if h.RetainedBy("A") != 0 {
		t.Fatal("over-free did not clamp")
	}
	if h.Stats().Retained != 200 {
		t.Fatalf("retained = %d", h.Stats().Retained)
	}
}

func TestFreeAll(t *testing.T) {
	h := New(1000, nil)
	if err := h.Allocate("A", 400); err != nil {
		t.Fatal(err)
	}
	if got := h.FreeAll("A"); got != 400 {
		t.Fatalf("FreeAll = %d", got)
	}
	if h.Stats().Retained != 0 {
		t.Fatal("retained after FreeAll")
	}
	if got := h.FreeAll("ghost"); got != 0 {
		t.Fatalf("FreeAll(ghost) = %d", got)
	}
}

func TestTransientReclaimedByGC(t *testing.T) {
	h := New(10000, nil)
	if err := h.AllocateTransient(500); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Transient != 500 {
		t.Fatalf("transient = %d", st.Transient)
	}
	st := h.GC()
	if st.Transient != 0 || st.GCCount != 1 || st.GCReclaimed != 500 {
		t.Fatalf("post-GC stats = %+v", st)
	}
}

func TestAutomaticGCAtThreshold(t *testing.T) {
	h := New(1000, nil)
	// 800 transient bytes cross the 75% threshold and trigger GC.
	if err := h.AllocateTransient(800); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.GCCount != 1 || st.Transient != 0 {
		t.Fatalf("no automatic GC: %+v", st)
	}
}

func TestRetainedSurvivesGC(t *testing.T) {
	h := New(1000, nil)
	if err := h.Allocate("leaky", 600); err != nil {
		t.Fatal(err)
	}
	h.GC()
	if h.RetainedBy("leaky") != 600 {
		t.Fatal("GC reclaimed retained bytes")
	}
}

func TestOutOfMemory(t *testing.T) {
	h := New(1000, nil)
	if err := h.Allocate("A", 900); err != nil {
		t.Fatal(err)
	}
	err := h.Allocate("A", 200)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("overcommit error = %v", err)
	}
	// The failed allocation must not be charged.
	if h.RetainedBy("A") != 900 {
		t.Fatalf("failed alloc charged: %d", h.RetainedBy("A"))
	}
	if err := h.AllocateTransient(200); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("transient overcommit = %v", err)
	}
}

func TestGCMakesRoomForAllocation(t *testing.T) {
	h := New(1000, nil)
	if err := h.Allocate("A", 300); err != nil {
		t.Fatal(err)
	}
	// Fill with garbage below the auto-GC threshold... (300+400=700 < 750)
	if err := h.AllocateTransient(400); err != nil {
		t.Fatal(err)
	}
	// ...then a retained allocation that only fits after collection.
	if err := h.Allocate("A", 500); err != nil {
		t.Fatal(err)
	}
	if h.RetainedBy("A") != 800 {
		t.Fatalf("A holds %d", h.RetainedBy("A"))
	}
}

func TestHeadroom(t *testing.T) {
	h := New(1000, nil)
	if err := h.Allocate("A", 400); err != nil {
		t.Fatal(err)
	}
	if got := h.HeadroomSeconds(60); got != 10 {
		t.Fatalf("headroom = %v, want 10s", got)
	}
	if got := h.HeadroomSeconds(0); !math.IsInf(got, 1) {
		t.Fatalf("zero-rate headroom = %v", got)
	}
}

func TestDefaultCapacity(t *testing.T) {
	h := New(0, nil)
	if h.Stats().Capacity != DefaultCapacity {
		t.Fatalf("capacity = %d", h.Stats().Capacity)
	}
}

func TestNegativePanics(t *testing.T) {
	h := New(1000, nil)
	for name, fn := range map[string]func(){
		"alloc":     func() { h.Allocate("A", -1) },
		"transient": func() { h.AllocateTransient(-1) },
		"free":      func() { h.Free("A", -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with negative size did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: retained always equals the sum over owners, and never
	// exceeds capacity.
	f := func(allocs []uint16) bool {
		h := New(1<<20, nil)
		owners := []string{"a", "b", "c"}
		var want int64
		for i, n := range allocs {
			if err := h.Allocate(owners[i%3], int64(n)); err == nil {
				want += int64(n)
			}
		}
		var sum int64
		for _, o := range owners {
			sum += h.RetainedBy(o)
		}
		st := h.Stats()
		return st.Retained == want && sum == want && st.Retained <= st.Capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocation(t *testing.T) {
	h := New(1<<30, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				_ = h.Allocate("x", 16)
				_ = h.AllocateTransient(64)
			}
		}()
	}
	wg.Wait()
	if got := h.RetainedBy("x"); got != 8*1000*16 {
		t.Fatalf("retained = %d, want %d", got, 8*1000*16)
	}
}
