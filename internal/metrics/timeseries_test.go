package metrics

import (
	"testing"
	"time"
)

var t0 = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

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
