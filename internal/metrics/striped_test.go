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

// TestSeriesConcurrentAppendAndRead runs one writer against four lock-free
// readers across several chunks. Every reader must see a length that never
// shrinks, a time-ordered prefix, and at index i the value written at i.
func TestSeriesConcurrentAppendAndRead(t *testing.T) {
	s := NewSeries("x")
	const n = 4*seriesChunkSize + 3
	// Three points share each instant: equal timestamps are legal.
	when := func(i int) time.Time { return at(i / 3) }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				pts := s.Points()
				if len(pts) < seen {
					t.Errorf("length shrank from %d to %d", seen, len(pts))
					return
				}
				seen = len(pts)
				for i, p := range pts {
					if p.V != float64(i) || !p.T.Equal(when(i)) {
						t.Errorf("point %d = %v, want value %d at %v", i, p, i, when(i))
						return
					}
					if i > 0 && p.T.Before(pts[i-1].T) {
						t.Error("snapshot out of time order")
						return
					}
				}
				if p, ok := s.Last(); ok && p.V < float64(seen-1) {
					t.Errorf("Last = %v behind an earlier snapshot of %d points", p.V, seen)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		s.Append(when(i), float64(i))
	}
	close(stop)
	wg.Wait()
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

func TestSeriesCrossesChunks(t *testing.T) {
	s := NewSeries("x")
	n := seriesChunkSize*3 + 17
	for i := 0; i < n; i++ {
		s.Append(at(i), float64(i))
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	pts := s.Points()
	for i, p := range pts {
		if p.V != float64(i) {
			t.Fatalf("point %d = %v", i, p.V)
		}
	}
	if last, ok := s.Last(); !ok || last.V != float64(n-1) || !last.T.Equal(at(n-1)) {
		t.Fatalf("Last across chunks = %v, %v", last, ok)
	}
}
