package sim

import "math"

// Rand64 is a compact value-type random stream for struct-of-arrays hot
// state: 8 bytes, no pointer, no heap. A million sessions embed one each,
// where a *Stream per session would cost two allocations and a cache miss
// per draw. The generator is SplitMix64 — a full-period 64-bit stream with
// output quality far beyond what load modelling needs, and the same mixer
// the package already uses for seed derivation, so derived streams stay
// stable across refactors.
//
// The zero value is a valid stream (seed 0); use NewRand64 to seed.
type Rand64 struct {
	state uint64
}

// NewRand64 returns a stream whose sequence is a pure function of seed.
func NewRand64(seed uint64) Rand64 {
	return Rand64{state: seed}
}

// DeriveRand64 seeds a stream from (seed, label) with the same mixing rule
// as DeriveStable, so a session keyed by id draws an unrelated sequence
// from its neighbours.
func DeriveRand64(seed, label uint64) Rand64 {
	return Rand64{state: splitmix64(seed ^ splitmix64(label))}
}

// Uint64 returns the next 64-bit value.
func (r *Rand64) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *Rand64) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform value in [0,n). n must be positive.
func (r *Rand64) IntN(n int) int {
	if n <= 0 {
		panic("sim: Rand64.IntN with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// exp returns a draw from the exponential distribution with the given
// mean. A non-positive mean returns 0 (think time disabled).
func (r *Rand64) exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	return -math.Log(1-u) * mean
}

// TruncExp is exp truncated to at most limit — TPC-W think time: mean 7 s,
// capped at 70 s.
func (r *Rand64) TruncExp(mean, limit float64) float64 {
	v := r.exp(mean)
	if limit > 0 && v > limit {
		return limit
	}
	return v
}

// ZipfTable holds the precomputed constants of a Zipf-like distribution
// over [1,n] with exponent theta in (0,1) — TPC-W item popularity — drawn
// by the classic CDF-inversion approximation from the TPC benchmarks. It
// carries no stream: Next is a pure function of a uniform draw, so one
// table is shared by any number of sessions, each supplying u from its own
// Rand64. Building the table is O(n) (the zetan sum); sharing it keeps
// that cost out of binding a session, which a million-session population
// does a million times.
type ZipfTable struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
}

// NewZipfTable precomputes the constants for range [1,n] and skew theta in
// (0,1).
func NewZipfTable(n int, theta float64) *ZipfTable {
	if n < 1 {
		panic("sim: ZipfTable over empty range")
	}
	if theta <= 0 || theta >= 1 {
		panic("sim: ZipfTable theta must lie in (0,1)")
	}
	z := &ZipfTable{n: n, alpha: 1 / (1 - theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1.0
	if n >= 2 {
		zeta2 += 1 / math.Pow(2, theta)
	}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// Next maps a uniform u in [0,1) to a Zipf draw in [1,n].
func (z *ZipfTable) Next(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 1
	}
	if uz < 1+math.Pow(0.5, (z.alpha-1)/z.alpha) {
		return 2
	}
	v := 1 + int(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v > z.n {
		v = z.n
	}
	if v < 1 {
		v = 1
	}
	return v
}
