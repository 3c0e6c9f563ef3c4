package detect

import (
	"math"
	"slices"
)

// ShiftGuard detects changes in the workload mix from the per-component
// usage (invocation-count) distribution, so the detectors above it can
// tell "the traffic changed" apart from "a component is aging" — the
// false-alarm mode Moura et al. show static detectors suffer under
// workload shift.
//
// Each round the guard receives the per-component usage deltas, computes
// the share distribution, and compares it against an exponentially-
// weighted reference distribution by total-variation distance. A distance
// above ShiftThreshold marks the round as shifting; the guard then stays
// in the suppressing state for ShiftHold further calm rounds, because the
// first rounds after a mix change still blend pre- and post-shift
// behaviour. The reference adapts continuously (EWMA), so after a shift
// settles the new mix becomes the baseline and detection resumes — the
// "adaptive" part.
//
// The effective threshold is noise-aware: a round built from n requests
// over k components carries sampling noise of about sqrt(k/(2πn)) in
// total-variation distance even when the true mix is unchanged, so a
// fixed threshold that works for a busy single node misfires on a
// lightly loaded cluster replica seeing a third of the traffic. Each
// round the guard floors ShiftThreshold at ShiftNoiseMargin times
// the expected noise for that round's own n and k.
//
// Every sum runs over the guard's own name-sorted key list, never over a
// map, so the distance — and with it suppression at the threshold — is a
// function of the observed values alone, not of the order the caller
// lists components in or of Go's map seed.
//
// Single-owner, like the other detectors: only the sampling goroutine
// calls Observe.
type ShiftGuard struct {
	// keys is every component that ever had usage on a non-idle round,
	// name-sorted; ref and shares are parallel to it.
	keys      []string
	index     map[string]int // name -> position in keys
	ref       []float64      // reference share distribution
	shares    []float64      // round scratch, reused
	seeded    bool           // ref holds a baseline; until then the next non-idle round seeds it
	lastDist  float64
	lastThr   float64 // effective threshold of the latest non-idle round
	calmLeft  int     // rounds of calm still required before unsuppressing
	shifted   bool    // a shift was observed at least once
	rounds    int64
	lastShift int64 // round of the most recent shifting observation
}

// The tuning every ShiftGuard runs with, the cluster's node-mix guard
// included.
const (
	// ShiftThreshold is the total-variation distance in the usage mix
	// above which a round counts as a workload shift.
	ShiftThreshold = 0.15
	// ShiftHold is how many calm rounds must pass after a shift before
	// alarms are re-enabled.
	ShiftHold = 5
	// ShiftEWMA is the adaptation rate of the guard's reference mix.
	ShiftEWMA = 0.2
	// ShiftNoiseMargin multiplies the expected sampling noise of the
	// share distribution to form the adaptive threshold floor: 1.5 sits
	// far enough above the mean same-mix distance to stay quiet on light
	// per-node traffic while real mix changes (total-variation 0.3+
	// between TPC-W mixes) still clear it.
	ShiftNoiseMargin = 1.5
)

// NewShiftGuard creates a guard.
func NewShiftGuard() *ShiftGuard {
	return &ShiftGuard{index: make(map[string]int)}
}

// slot returns name's position in the key list, inserting it in sorted
// order on first sight.
func (g *ShiftGuard) slot(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	i, _ := slices.BinarySearch(g.keys, name)
	g.keys = slices.Insert(g.keys, i, name)
	g.ref = slices.Insert(g.ref, i, 0)
	g.shares = slices.Insert(g.shares, i, 0)
	for j := i; j < len(g.keys); j++ {
		g.index[g.keys[j]] = j
	}
	return i
}

// Observe absorbs one round of per-component usage deltas — deltas[i] is
// the usage names[i] gained this round; components may come in any order
// and idle ones may be left out — and reports whether detection should be
// suppressed this round. The first round only seeds the reference and
// never suppresses.
func (g *ShiftGuard) Observe(names []string, deltas []float64) bool {
	g.rounds++
	clear(g.shares)
	for i, d := range deltas {
		if d > 0 {
			j := g.slot(names[i]) // may grow g.shares: index it only after
			g.shares[j] = d
		}
	}
	shares := g.shares
	var total float64
	for _, d := range shares {
		total += d
	}
	if total <= 0 {
		// An idle round says nothing about the mix.
		return g.Suppressing()
	}
	for i := range shares {
		shares[i] /= total
	}
	if !g.seeded {
		copy(g.ref, shares)
		g.seeded = true
		return false
	}
	// The distance is half the L1 distance between the two distributions,
	// in [0,1]. k counts the components either of them gives any weight.
	var l1 float64
	k := 0
	for i, s := range shares {
		r := g.ref[i]
		l1 += math.Abs(r - s)
		if s > 0 || r > 0 {
			k++
		}
	}
	g.lastDist = l1 / 2
	// The adaptive floor: the expected total-variation distance between a
	// k-component multinomial sample of size n and its true distribution
	// is about sqrt(k/(2πn)), so anything below ShiftNoiseMargin× that is
	// sampling noise, not a mix change.
	g.lastThr = ShiftThreshold
	if floor := ShiftNoiseMargin * math.Sqrt(float64(k)/(2*math.Pi*total)); floor > g.lastThr {
		g.lastThr = floor
	}
	if g.lastDist > g.lastThr {
		g.shifted = true
		g.lastShift = g.rounds
		g.calmLeft = ShiftHold
	} else if g.calmLeft > 0 {
		g.calmLeft--
	}
	// Adapt the reference toward the observed mix.
	for i, s := range shares {
		g.ref[i] = (1-ShiftEWMA)*g.ref[i] + ShiftEWMA*s
	}
	return g.Suppressing()
}

// Suppressing reports whether the guard currently holds detection down: a
// shift was seen and the calm period has not yet elapsed.
func (g *ShiftGuard) Suppressing() bool { return g.calmLeft > 0 }

// Distance returns the most recent total-variation distance between the
// observed mix and the reference.
func (g *ShiftGuard) Distance() float64 { return g.lastDist }

// Shifted reports whether any workload shift has ever been observed.
func (g *ShiftGuard) Shifted() bool { return g.shifted }

// LastShiftRound returns the 1-based round index of the most recent
// shifting observation (0 when none).
func (g *ShiftGuard) LastShiftRound() int64 { return g.lastShift }
