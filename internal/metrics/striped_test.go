package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestStripedCounterConcurrent(t *testing.T) {
	c := NewStripedCounter()
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*(per+5) {
		t.Fatalf("Value = %d, want %d", got, goroutines*(per+5))
	}
}

func TestStripedCounterNegativeAddPanics(t *testing.T) {
	c := NewStripedCounter()
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestRateWindowConcurrentObserve(t *testing.T) {
	r := NewRateWindow(time.Minute)
	now := at(30)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Observe(now)
			}
		}()
	}
	wg.Wait()
	if got := r.Count(at(31)); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}
