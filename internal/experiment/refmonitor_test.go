package experiment

import (
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
)

// This file keeps the per-resource detector the bank replaced — one
// monitor per resource, each with its own component map and shift
// guard, over a trend kernel that makes two compare passes per push and
// keeps instants as float seconds — as the reference
// TestBankMatchesReference holds detect.Bank to.

// refTrend is the reference incremental Mann-Kendall detector.
type refTrend struct {
	window int
	alpha  float64

	xs   []float64 // ring buffer, seconds since the first sample
	ys   []float64 // ring buffer, values
	head int       // index of the oldest element
	n    int       // current fill

	s       int64
	tieCorr int64
	t0      time.Time
	seen    int64

	sen *metrics.SenScratch
}

func newRefTrend(window int, alpha float64) *refTrend {
	return &refTrend{
		window: window,
		alpha:  alpha,
		xs:     make([]float64, window),
		ys:     make([]float64, window),
		sen:    new(metrics.SenScratch),
	}
}

func (o *refTrend) reset() { o.head, o.n, o.s, o.tieCorr = 0, 0, 0, 0 }

func refTieTerm(t int64) int64 { return t * (t - 1) * (2*t + 5) }

// compare counts the buffered values above, below and equal to v.
func (o *refTrend) compare(v float64) (above, below, equal int64) {
	for i := 0; i < o.n; i++ {
		y := o.ys[(o.head+i)%o.window]
		if y > v {
			above++
		}
		if y < v {
			below++
		}
		if y == v {
			equal++
		}
	}
	return above, below, equal
}

func (o *refTrend) push(t time.Time, v float64) {
	if o.seen == 0 {
		o.t0 = t
	}
	o.seen++
	if o.n == o.window {
		oldest := o.ys[o.head]
		o.head = (o.head + 1) % o.window
		o.n--
		above, below, equal := o.compare(oldest)
		o.s -= above - below
		o.tieCorr -= refTieTerm(equal+1) - refTieTerm(equal)
	}
	above, below, equal := o.compare(v)
	o.s += below - above
	o.tieCorr += refTieTerm(equal+1) - refTieTerm(equal)
	j := (o.head + o.n) % o.window
	o.xs[j], o.ys[j] = t.Sub(o.t0).Seconds(), v
	o.n++
}

func (o *refTrend) test() metrics.TrendResult {
	res := metrics.TrendResult{S: o.s}
	n := o.n
	if n < 4 {
		return res
	}
	varS := float64(int64(n*(n-1)*(2*n+5))-o.tieCorr) / 18
	if varS <= 0 {
		return res
	}
	switch {
	case o.s > 0:
		res.Z = float64(o.s-1) / math.Sqrt(varS)
	case o.s < 0:
		res.Z = float64(o.s+1) / math.Sqrt(varS)
	}
	res.P = 2 * (1 - metrics.StdNormalCDF(math.Abs(res.Z)))
	if res.P < o.alpha {
		if o.s > 0 {
			res.Direction = metrics.TrendIncreasing
		} else {
			res.Direction = metrics.TrendDecreasing
		}
	}
	return res
}

func (o *refTrend) result() metrics.TrendResult {
	res := o.test()
	if res.Direction == metrics.TrendNone {
		return res
	}
	xs, ys := make([]float64, o.n), make([]float64, o.n)
	for i := range xs {
		j := (o.head + i) % o.window
		xs[i], ys[i] = o.xs[j], o.ys[j]
	}
	res.SenSlope = o.sen.Slope(xs, ys)
	if res.SenSlope == 0 {
		// The staircase fallback: the endpoint slope of a material rise.
		x0, y0, xn, yn := xs[0], ys[0], xs[o.n-1], ys[o.n-1]
		rise := yn - y0
		if xn > x0 && math.Abs(rise) > 1e-9*math.Max(math.Abs(y0), math.Abs(yn)) {
			res.SenSlope = rise / (xn - x0)
		}
	}
	return res
}

// refEntropy is the reference CHAOS-style entropy detector.
type refEntropy struct {
	trend   *refTrend
	last    float64
	haveObs bool
}

func (e *refEntropy) observe(now time.Time, deltas []float64) {
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
	e.last, e.haveObs = h, true
	e.trend.push(now, h)
}

// refComponent is one component's reference detector state.
type refComponent struct {
	trend      *refTrend
	prevValue  float64
	prevUsage  float64
	havePrev   bool
	streak     int
	firstAlarm int64
	share      float64
}

// refMonitor composes the reference detectors for one resource.
type refMonitor struct {
	resource string
	cfg      detect.Config

	comps         map[string]*refComponent
	entropy       *refEntropy
	entropyStreak int
	guard         *detect.ShiftGuard
	rounds        int64
	shiftRounds   int64
}

// newRefMonitor takes cfg with its defaults applied, as Bank.Columns
// reports it.
func newRefMonitor(resource string, cfg detect.Config) *refMonitor {
	return &refMonitor{
		resource: resource,
		cfg:      cfg,
		comps:    make(map[string]*refComponent),
		entropy:  &refEntropy{trend: newRefTrend(cfg.Window, detect.Alpha)},
		guard:    detect.NewShiftGuard(),
	}
}

// observe absorbs one round and returns its report.
func (m *refMonitor) observe(now time.Time, obs []detect.Observation) *detect.Report {
	m.rounds++
	states := make([]*refComponent, len(obs))
	names := make([]string, len(obs))
	usageDeltas := make([]float64, len(obs))
	valueDeltas := make([]float64, len(obs))
	var totalDelta float64
	for i, o := range obs {
		st := m.comps[o.Component]
		if st == nil {
			st = &refComponent{trend: newRefTrend(m.cfg.Window, detect.Alpha)}
			m.comps[o.Component] = st
		}
		states[i], names[i] = st, o.Component
		if st.havePrev {
			usageDeltas[i] = o.Usage - st.prevUsage
			if d := o.Value - st.prevValue; d > 0 {
				valueDeltas[i] = d
				totalDelta += d
			}
		}
	}

	suppressed := m.guard.Observe(names, usageDeltas)

	for i, o := range obs {
		st := states[i]
		if st.havePrev {
			tracked, haveTracked := o.Value, true
			if m.cfg.PerInvocation {
				if du := o.Usage - st.prevUsage; du > 0 {
					tracked = (o.Value - st.prevValue) / du
				} else {
					haveTracked = false
				}
			}
			if haveTracked {
				st.trend.push(now, tracked)
			}
			if totalDelta > 0 {
				st.share = 0.8*st.share + 0.2*(valueDeltas[i]/totalDelta)
			}
		}
		st.prevValue, st.prevUsage, st.havePrev = o.Value, o.Usage, true
	}

	if suppressed {
		m.entropy.trend.reset()
		m.entropy.haveObs = false
		m.entropyStreak = 0
	} else if totalDelta > 0 {
		m.entropy.observe(now, valueDeltas)
	}
	if suppressed {
		m.shiftRounds++
	}
	rep := &detect.Report{
		Resource:      m.resource,
		Round:         m.rounds,
		Time:          now,
		Suppressed:    suppressed,
		ShiftDistance: m.guard.Distance(),
		ShiftRounds:   m.shiftRounds,
	}
	if m.entropy.haveObs {
		rep.Entropy, rep.EntropyObserved = m.entropy.last, true
	}
	if !suppressed && m.entropy.trend.test().Direction == metrics.TrendDecreasing {
		m.entropyStreak++
	} else {
		m.entropyStreak = 0
	}
	if m.entropyStreak >= m.cfg.Consecutive {
		rep.EntropyAlarm = true
		var best string
		var bestShare float64
		for c, st := range m.comps {
			if st.share > bestShare || st.share == bestShare && st.share > 0 && c < best {
				best, bestShare = c, st.share
			}
		}
		rep.EntropySuspect = best
	}

	for i, o := range obs {
		st := states[i]
		v := detect.Verdict{
			Component: o.Component,
			Trend:     st.trend.result(),
			Samples:   st.trend.n,
			Share:     st.share,
		}
		raw := v.Trend.Direction == metrics.TrendIncreasing &&
			v.Trend.SenSlope > m.cfg.MinSlope &&
			v.Samples >= m.cfg.MinSamples
		if raw && !suppressed {
			st.streak++
		} else {
			st.streak = 0
		}
		v.Streak = st.streak
		if st.streak >= m.cfg.Consecutive {
			v.Alarm = true
			v.Score = v.Trend.SenSlope
			if st.firstAlarm == 0 {
				st.firstAlarm = m.rounds
			}
		}
		v.FirstAlarmRound = st.firstAlarm
		rep.Components = append(rep.Components, v)
	}
	slices.SortStableFunc(rep.Components, func(a, b detect.Verdict) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return strings.Compare(a.Component, b.Component)
	})
	return rep
}
