package metrics

import (
	"math"
	"testing"
)

func seq(n int, f func(i int) float64) ([]float64, []float64) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(i)
		ys[i] = f(i)
	}
	return xs, ys
}

func TestMannKendallIncreasing(t *testing.T) {
	xs, ys := seq(30, func(i int) float64 { return float64(i) * 2 })
	res := MannKendall(xs, ys, 0.05)
	if res.Direction != TrendIncreasing {
		t.Fatalf("direction = %v, want increasing (p=%v)", res.Direction, res.P)
	}
	if math.Abs(res.SenSlope-2) > 1e-9 {
		t.Fatalf("Sen slope = %v, want 2", res.SenSlope)
	}
}

func TestMannKendallDecreasing(t *testing.T) {
	xs, ys := seq(30, func(i int) float64 { return -float64(i) })
	res := MannKendall(xs, ys, 0.05)
	if res.Direction != TrendDecreasing {
		t.Fatalf("direction = %v, want decreasing", res.Direction)
	}
	if res.SenSlope >= 0 {
		t.Fatalf("Sen slope = %v, want negative", res.SenSlope)
	}
}

func TestMannKendallConstant(t *testing.T) {
	xs, ys := seq(30, func(int) float64 { return 5 })
	res := MannKendall(xs, ys, 0.05)
	if res.Direction != TrendNone {
		t.Fatalf("constant series classified as %v", res.Direction)
	}
	if res.SenSlope != 0 {
		t.Fatalf("Sen slope = %v, want 0", res.SenSlope)
	}
}

func TestMannKendallNoiseNoTrend(t *testing.T) {
	// Alternating values: no monotone trend.
	xs, ys := seq(40, func(i int) float64 {
		if i%2 == 0 {
			return 1
		}
		return 2
	})
	res := MannKendall(xs, ys, 0.05)
	if res.Direction != TrendNone {
		t.Fatalf("alternating series classified as %v (p=%v)", res.Direction, res.P)
	}
}

func TestMannKendallTooFew(t *testing.T) {
	xs, ys := seq(3, func(i int) float64 { return float64(i) })
	if res := MannKendall(xs, ys, 0.05); res.Direction != TrendNone {
		t.Fatal("short series should never report a trend")
	}
}

func TestMannKendallSeries(t *testing.T) {
	pts := make([]Point, 20)
	for i := range pts {
		pts[i] = Point{T: at(i * 10), V: float64(i) * 100} // +10 per second
	}
	res := MannKendallSeries(pts, 0.05)
	if res.Direction != TrendIncreasing {
		t.Fatalf("direction = %v", res.Direction)
	}
	if math.Abs(res.SenSlope-10) > 1e-9 {
		t.Fatalf("Sen slope = %v, want 10/s", res.SenSlope)
	}
}

func TestMannKendallSeriesEmpty(t *testing.T) {
	if res := MannKendallSeries(nil, 0.05); res.Direction != TrendNone {
		t.Fatal("empty series should have no trend")
	}
}

func TestSenSlopeRobustToOutlier(t *testing.T) {
	xs, ys := seq(21, func(i int) float64 { return float64(i) })
	ys[10] = 1000 // single outlier
	res := MannKendall(xs, ys, 0.05)
	if math.Abs(res.SenSlope-1) > 0.2 {
		t.Fatalf("Sen slope = %v, want ~1 despite outlier", res.SenSlope)
	}
}

func TestTrendDirectionString(t *testing.T) {
	if TrendIncreasing.String() != "increasing" ||
		TrendDecreasing.String() != "decreasing" ||
		TrendNone.String() != "none" {
		t.Fatal("TrendDirection.String mismatch")
	}
}

func TestStdNormalCDF(t *testing.T) {
	if math.Abs(StdNormalCDF(0)-0.5) > 1e-12 {
		t.Fatalf("Phi(0) = %v", StdNormalCDF(0))
	}
	if math.Abs(StdNormalCDF(1.96)-0.975) > 1e-3 {
		t.Fatalf("Phi(1.96) = %v", StdNormalCDF(1.96))
	}
}
