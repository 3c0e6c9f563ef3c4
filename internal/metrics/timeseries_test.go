package metrics

import (
	"testing"
	"time"
)

var t0 = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func TestSeriesAppendAndAccess(t *testing.T) {
	s := NewSeries("mem")
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty series reported ok")
	}
	for i := 0; i < 5; i++ {
		s.Append(at(i), float64(i*10))
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	last, _ := s.Last()
	if first := s.Points()[0]; first.V != 0 || last.V != 40 || !last.T.Equal(at(4)) {
		t.Fatalf("first=%v last=%v", first, last)
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x")
	s.Append(at(10), 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-order append did not panic")
			}
		}()
		s.Append(at(5), 2)
	}()
	// A rejected append leaves the series unchanged and usable.
	if last, _ := s.Last(); s.Len() != 1 || last.V != 1 || !last.T.Equal(at(10)) {
		t.Fatalf("after rejected append: Len = %d, Last = %v", s.Len(), last)
	}
	s.Append(at(11), 3)
	if last, _ := s.Last(); s.Len() != 2 || last.V != 3 {
		t.Fatalf("in-order append after a rejected one: Len = %d, Last = %v", s.Len(), last)
	}
}

func TestSeriesSameInstantAllowed(t *testing.T) {
	s := NewSeries("x")
	s.Append(at(1), 1)
	s.Append(at(1), 2)
	if s.Len() != 2 {
		t.Fatal("equal-timestamp appends should be allowed")
	}
}

// TestSeriesPointsRoundTrip checks that the 16-byte storage gives back the
// instants it was given: identical values for virtual-clock instants
// (UTC, no monotonic reading) and equal instants for wall-clock ones.
func TestSeriesPointsRoundTrip(t *testing.T) {
	s := NewSeries("x")
	virtual := []time.Time{t0, at(1), t0.Add(1500 * time.Millisecond), at(3).Add(time.Nanosecond)}
	for i, ts := range virtual {
		s.Append(ts, float64(i))
	}
	for i, p := range s.Points() {
		if p.T != virtual[i] || p.V != float64(i) {
			t.Fatalf("point %d = %v, want %v", i, p, Point{T: virtual[i], V: float64(i)})
		}
	}
	w := NewSeries("wall")
	now := time.Now()
	w.Append(now, 1)
	if p, _ := w.Last(); !p.T.Equal(now) {
		t.Fatalf("wall-clock instant %v read back as %v", now, p.T)
	}
}

func TestSeriesDownsample(t *testing.T) {
	pts := make([]Point, 60)
	for i := range pts {
		pts[i] = Point{T: at(i), V: float64(i)}
	}
	ds := Downsample(pts, 10*time.Second)
	if len(ds) != 6 {
		t.Fatalf("downsample buckets = %d, want 6", len(ds))
	}
	if ds[0].V != 9 {
		t.Fatalf("bucket keeps last value; got %v, want 9", ds[0].V)
	}
	if ds[5].V != 59 {
		t.Fatalf("final bucket = %v, want 59", ds[5].V)
	}
	if one := Downsample(pts[:1], time.Minute); len(one) != 1 || one[0].V != 0 {
		t.Fatalf("downsample of one point = %v", one)
	}
}

func TestSeriesDownsampleBadStepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive step did not panic")
		}
	}()
	Downsample([]Point{{T: t0}}, 0)
}

func TestSeriesDownsampleEmpty(t *testing.T) {
	if got := Downsample(nil, time.Second); got != nil {
		t.Fatalf("downsample of empty series = %v", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestRateWindow(t *testing.T) {
	r := NewRateWindow(10 * time.Second)
	for i := 0; i < 20; i++ {
		r.Observe(at(i))
	}
	// At t=19, events in (9,19] are inside the window: t=10..19 -> 10 events.
	if got := r.Count(at(19)); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}
	if got := r.Rate(at(19)); got != 1.0 {
		t.Fatalf("Rate = %v, want 1.0", got)
	}
	// Much later, the window is empty.
	if got := r.Rate(at(100)); got != 0 {
		t.Fatalf("Rate after idle = %v", got)
	}
}

func TestRateWindowBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive window did not panic")
		}
	}()
	NewRateWindow(0)
}
