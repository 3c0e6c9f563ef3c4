package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(42), NewStream(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a, b := NewStream(1), NewStream(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincided %d/1000 times", same)
	}
}

func TestDeriveStableDoesNotPerturbParent(t *testing.T) {
	a, b := NewStream(7), NewStream(7)
	_ = DeriveStable(7, 99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("DeriveStable perturbed an unrelated stream")
		}
	}
}

func TestDeriveChildrenDiffer(t *testing.T) {
	c1 := DeriveStable(3, 1)
	c2 := DeriveStable(3, 2)
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("derived children produced identical draws")
	}
}

func TestExpMean(t *testing.T) {
	s := NewRand64(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.exp(7)
	}
	mean := sum / n
	if math.Abs(mean-7) > 0.15 {
		t.Fatalf("exponential mean = %.3f, want ~7", mean)
	}
}

func TestTruncExpCap(t *testing.T) {
	s := NewRand64(5)
	for i := 0; i < 100000; i++ {
		if v := s.TruncExp(7, 70); v > 70 {
			t.Fatalf("truncated draw %v exceeds cap", v)
		}
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	s := NewRand64(1)
	if s.exp(0) != 0 || s.exp(-1) != 0 {
		t.Fatal("exp with non-positive mean should be 0")
	}
}

func TestZipfRange(t *testing.T) {
	s := NewRand64(9)
	z := NewZipfTable(100, 0.8)
	counts := make([]int, 101)
	for i := 0; i < 100000; i++ {
		v := z.Next(s.Float64())
		if v < 1 || v > 100 {
			t.Fatalf("Zipf draw %d out of [1,100]", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[100] {
		t.Fatalf("Zipf not skewed: count(1)=%d count(100)=%d", counts[1], counts[100])
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n     int
		theta float64
	}{{0, 0.5}, {10, 0}, {10, 1}, {10, 1.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipfTable(%d,%v) did not panic", tc.n, tc.theta)
				}
			}()
			NewZipfTable(tc.n, tc.theta)
		}()
	}
}

func TestSplitmixAvalanche(t *testing.T) {
	// Property: flipping one input bit changes many output bits.
	f := func(x uint64) bool {
		a, b := splitmix64(x), splitmix64(x^1)
		diff := a ^ b
		bits := 0
		for diff != 0 {
			bits += int(diff & 1)
			diff >>= 1
		}
		return bits >= 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformHelpers(t *testing.T) {
	s := NewStream(23)
	for i := 0; i < 1000; i++ {
		if v := s.IntN(10); v < 0 || v >= 10 {
			t.Fatalf("IntN out of range: %d", v)
		}
		if v := s.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}
