package detect

import (
	"math"
	"time"

	"repro/internal/metrics"
)

// EntropyDetector implements CHAOS-style aging detection: it watches the
// Shannon entropy of the per-component resource-consumption distribution.
// A healthy system spreads its consumption across components in a roughly
// stationary pattern; an aging component accumulates a steadily growing
// share, so the distribution concentrates and its entropy drifts downward.
// The detector therefore feeds the normalised entropy of every round's
// consumption-delta shares into an OnlineTrend and alarms on a significant
// decreasing trend.
//
// Entropy is normalised by log(k) (k = number of components with any
// consumption) so the signal is comparable as components come and go; a
// single-component round yields entropy 0 and is still well-defined.
//
// Like OnlineTrend, it is single-owner: only the sampling goroutine calls
// Observe.
type EntropyDetector struct {
	trend *OnlineTrend

	last    float64
	haveObs bool
}

// NewEntropyDetector creates a detector whose entropy series is tested
// over the given window at significance alpha.
func NewEntropyDetector(window int, alpha float64) *EntropyDetector {
	return &EntropyDetector{trend: NewOnlineTrend(window, alpha)}
}

// Reset discards the entropy history (used after a workload shift: the
// pre-shift distribution is no longer the baseline the entropy trend
// should be judged against).
func (e *EntropyDetector) Reset() {
	e.trend.Reset()
	e.haveObs = false
}

// Observe absorbs one round of per-component consumption deltas (the
// amount each component consumed since the previous round; negative deltas
// are clamped to zero). Rounds where nothing was consumed carry no
// distributional information and are skipped.
func (e *EntropyDetector) Observe(now time.Time, deltas []float64) { e.observe(now.UnixNano(), deltas) }

// observe is Observe at ns (UnixNano).
func (e *EntropyDetector) observe(ns int64, deltas []float64) {
	var total float64
	k := 0
	for _, d := range deltas {
		if d > 0 {
			total += d
			k++
		}
	}
	if total <= 0 || k == 0 {
		return
	}
	var h float64
	for _, d := range deltas {
		if d <= 0 {
			continue
		}
		p := d / total
		h -= p * math.Log(p)
	}
	if k > 1 {
		h /= math.Log(float64(k))
	}
	e.last = h
	e.haveObs = true
	e.trend.push(ns, h)
}

// Last returns the most recent normalised entropy and whether any round
// has been observed.
func (e *EntropyDetector) Last() (float64, bool) { return e.last, e.haveObs }

// Result returns the Mann-Kendall verdict over the entropy series. Aging
// concentration shows as TrendDecreasing.
func (e *EntropyDetector) Result() metrics.TrendResult { return e.trend.Result() }

// Alarming reports whether the entropy shows a significant decreasing
// trend — the CHAOS aging signal. Only the direction matters, so no slope
// is estimated.
func (e *EntropyDetector) Alarming() bool {
	return e.trend.test().Direction == metrics.TrendDecreasing
}
