package sim

import (
	"math"
	"testing"
	"time"
)

func TestShardGroupLockstep(t *testing.T) {
	g := NewShardGroup(4, 100*time.Millisecond)
	fired := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		sh := g.Shard(i)
		sh.Every(time.Duration(i+1)*time.Second, func(time.Time) { fired[i]++ })
	}
	windows := 0
	var lastEnd time.Time
	g.RunUntil(Epoch.Add(10*time.Second), func(now time.Time) {
		windows++
		lastEnd = now
		for i := 0; i < 4; i++ {
			if !g.Shard(i).Now().Equal(now) {
				t.Fatalf("shard %d at %v, window end %v", i, g.Shard(i).Now(), now)
			}
		}
	})
	if windows != 100 {
		t.Fatalf("windows = %d, want 100", windows)
	}
	if !lastEnd.Equal(Epoch.Add(10 * time.Second)) {
		t.Fatalf("last window ended at %v", lastEnd)
	}
	for i, n := range fired {
		if want := 10 / (i + 1); n != want {
			t.Fatalf("shard %d fired %d ticks, want %d", i, n, want)
		}
	}
	if !g.Now().Equal(Epoch.Add(10 * time.Second)) {
		t.Fatalf("group now = %v", g.Now())
	}
}

func TestShardGroupTruncatesFinalWindow(t *testing.T) {
	g := NewShardGroup(2, time.Second)
	g.RunUntil(Epoch.Add(2500*time.Millisecond), nil)
	if want := Epoch.Add(2500 * time.Millisecond); !g.Now().Equal(want) {
		t.Fatalf("group now = %v, want %v", g.Now(), want)
	}
}

func TestShardGroupDeterministicAcrossRuns(t *testing.T) {
	// The same seeded per-shard workload must produce identical per-shard
	// event counts on every run, regardless of goroutine interleaving.
	run := func() [8]uint64 {
		g := NewShardGroup(8, 50*time.Millisecond)
		for i := 0; i < 8; i++ {
			sh := g.Shard(i)
			rng := DeriveRand64(7, uint64(i))
			var loop func(time.Time, int64)
			loop = func(_ time.Time, arg int64) {
				d := time.Duration(1+rng.Uint64()%uint64(400*time.Millisecond)) * 1
				sh.ScheduleArgAfter(d, loop, arg)
			}
			sh.ScheduleArgAfter(time.Millisecond, loop, int64(i))
		}
		g.RunUntil(Epoch.Add(30*time.Second), nil)
		var out [8]uint64
		for i := 0; i < 8; i++ {
			out[i] = g.Shard(i).Executed()
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("shard executions diverged: %v vs %v", a, b)
	}
}

func TestShardGroupPanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { NewShardGroup(0, time.Second) },
		func() { NewShardGroup(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad ShardGroup config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestRand64Deterministic(t *testing.T) {
	a, b := DeriveRand64(9, 4), DeriveRand64(9, 4)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal-seeded Rand64 diverged")
		}
	}
	c := DeriveRand64(9, 5)
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("neighbouring labels correlated: %d/100 equal draws", same)
	}
}

func TestRand64Distributions(t *testing.T) {
	r := NewRand64(31)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean = %v", mean)
	}
	sum = 0
	for i := 0; i < n; i++ {
		v := r.TruncExp(7, 70)
		if v < 0 || v > 70 {
			t.Fatalf("TruncExp out of range: %v", v)
		}
		sum += v
	}
	// Truncation at 10x the mean trims ~0.4%% of mass; mean ≈ 6.7-7.
	if mean := sum / n; mean < 6.4 || mean > 7.3 {
		t.Fatalf("TruncExp mean = %v, want ≈7", mean)
	}
}

func TestZipfTableMatchesZipf(t *testing.T) {
	// The table's draws must follow Zipf's law, P(rank i) ∝ i^-theta: the
	// CDF inversion is exact for ranks 1 and 2 and an approximation past
	// them, so the head is held tightly and the body by decade.
	const n, theta, draws = 1000, 0.8, 400000
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += math.Pow(float64(i), -theta)
	}
	mass := func(from, to int) float64 { // expected P(from <= rank < to)
		var m float64
		for i := from; i < to; i++ {
			m += math.Pow(float64(i), -theta) / zetan
		}
		return m
	}
	table := NewZipfTable(n, theta)
	r := NewRand64(5)
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		counts[table.Next(r.Float64())]++
	}
	for _, c := range []struct {
		from, to int
		tol      float64
	}{{1, 2, 0.03}, {2, 3, 0.03}, {3, 10, 0.12}, {10, 100, 0.05}, {100, n + 1, 0.05}} {
		got := 0
		for _, v := range counts[c.from:c.to] {
			got += v
		}
		want := mass(c.from, c.to)
		if p := float64(got) / draws; math.Abs(p-want) > c.tol*want {
			t.Errorf("ranks [%d,%d): drew %.4f of the mass, Zipf's law gives %.4f", c.from, c.to, p, want)
		}
	}
}

func TestZipfTableSkew(t *testing.T) {
	table := NewZipfTable(1000, 0.8)
	r := NewRand64(77)
	counts := make([]int, 1001)
	for i := 0; i < 100000; i++ {
		counts[table.Next(r.Float64())]++
	}
	if counts[1] < counts[500]*5 {
		t.Fatalf("head not Zipf-heavy: counts[1]=%d counts[500]=%d", counts[1], counts[500])
	}
}
