package sim

import "math/rand/v2"

// Stream is a deterministic random number stream. Independent subsystems
// (database population, each fault injector) draw from their own streams
// so that adding one consumer never perturbs the draws seen by another —
// the property that keeps whole experiments reproducible as they grow.
type Stream struct {
	r *rand.Rand
}

// NewStream returns a stream seeded from seed. Equal seeds yield equal
// sequences on every platform (PCG is used underneath).
func NewStream(seed uint64) *Stream {
	return &Stream{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// DeriveStable returns the child stream of (seed, label), mixing with
// SplitMix64 so related labels produce unrelated streams. It consumes no
// state from any other stream.
func DeriveStable(seed, label uint64) *Stream {
	return NewStream(splitmix64(seed ^ splitmix64(label)))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 { return s.r.Uint64() }

// Float64 returns a uniform value in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform value in [0,n). n must be positive.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }
