// Package detect implements online software-aging detection over the
// streaming metrics the monitoring pipeline records: an incremental
// Mann-Kendall/Sen-slope trend detector (OnlineTrend), a CHAOS-style
// sliding-window entropy detector over the per-component consumption
// distribution (EntropyDetector), and a workload-shift guard that watches
// the per-flow usage mix so a traffic change does not masquerade as aging
// (ShiftGuard). A Monitor composes the three per resource and publishes a
// Report after every sampling round.
//
// Concurrency contract: all detector state is owned by the single
// goroutine that calls Observe — in this repo the manager's sampling
// round, which is already serialised by the manager's sampleMu and holds
// no lock the invocation-recording hot path takes. The only cross-
// goroutine surface is the published *Report behind an atomic.Pointer:
// Latest never blocks and never observes a half-built report, so live
// root-cause queries read verdicts concurrently with sampling at zero
// contention. Reports are recycled through a fixed ring so a steady-state
// round produces zero garbage; see Report for the retention contract a
// long-holding consumer must respect.
package detect

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Config tunes a Monitor. The zero value selects the defaults documented
// on every field; the rest of the tuning is fixed (Alpha, ReportRetention
// and the shift guard's ShiftThreshold, ShiftHold, ShiftEWMA and
// ShiftNoiseMargin).
type Config struct {
	// Window is the sliding-window size, in sampling rounds, of the
	// per-component trend detectors and the entropy detector
	// (default 40; at the manager's default 30s sampling interval that
	// is 20 minutes of history).
	Window int
	// MinSlope is the smallest Sen slope (units per second) that counts
	// as aging; significant trends below it are reported but do not
	// alarm (default 0: any significant increase).
	MinSlope float64
	// MinSamples is the minimum number of window samples before a trend
	// may alarm (default 10).
	MinSamples int
	// Consecutive is how many consecutive alarming rounds are required
	// before a verdict is raised (default 3); it debounces borderline
	// significances that flicker at the alpha boundary.
	Consecutive int
	// PerInvocation, when true, tracks each component's consumption per
	// invocation (the round's consumption delta divided by its usage
	// delta) instead of the raw level. This is the workload
	// normalisation for cumulative resources such as CPU time, whose
	// raw series grows with traffic whether or not anything ages.
	PerInvocation bool
}

// Tuning every Monitor runs with.
const (
	// Alpha is the Mann-Kendall significance level of the trend and
	// entropy detectors. The online detectors test every round, so they
	// need a stricter level than an offline one-shot query to keep the
	// family-wise false-alarm rate down.
	Alpha = 0.01
	// ReportRetention is how many sampling rounds a *Report obtained
	// from Latest (or returned by Observe) remains valid after
	// publication. Reports are recycled through a ring of this size so a
	// steady-state round produces zero garbage; a consumer that holds a
	// report for longer than ReportRetention-1 subsequent rounds must
	// Clone it. At the default 30s sampling cadence it gives consumers
	// ~3.5 minutes.
	ReportRetention = 8
)

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 40
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.Consecutive <= 0 {
		c.Consecutive = 3
	}
	return c
}

// Observation is one component's cumulative state at a sampling round.
type Observation struct {
	// Component is the component name.
	Component string
	// Value is the cumulative consumption level of the watched resource
	// (bytes for memory, seconds for CPU, count for threads).
	Value float64
	// Usage is the component's cumulative invocation count, charged per
	// request flow by the join-point taps.
	Usage float64
}

// Verdict is one component's detection state in a Report.
type Verdict struct {
	// Component is the component name.
	Component string
	// Alarm is true when the component is currently flagged as aging.
	Alarm bool
	// Score ranks alarming components (the Sen slope of the watched
	// series, units per second; 0 when not alarming).
	Score float64
	// Trend is the current Mann-Kendall verdict over the window. Its
	// SenSlope is estimated only for a significant trend (Direction other
	// than TrendNone) and is 0 otherwise.
	Trend metrics.TrendResult
	// Streak is how many consecutive rounds the raw alarm condition has
	// held.
	Streak int
	// Samples is the current trend-window fill.
	Samples int
	// Share is the component's EWMA share of the resource's total
	// consumption delta (the entropy detector's attribution signal).
	Share float64
	// FirstAlarmRound is the 1-based round at which the component first
	// alarmed (0 when it never has).
	FirstAlarmRound int64
}

// Report is the Monitor's published state after a sampling round.
//
// Reports are recycled: the Monitor publishes from a ring of
// ReportRetention buffers, so a *Report stays valid for at least
// ReportRetention-1 rounds after it was published and is then rewritten in
// place by a later round. Consumers that read the latest report promptly
// (the detector bank, live queries, the cluster fold) never notice;
// consumers that retain one across many rounds must Clone it.
type Report struct {
	// Resource names the watched resource.
	Resource string
	// Round is the 1-based number of observation rounds so far.
	Round int64
	// Time is the round's sampling instant.
	Time time.Time
	// Suppressed is true while the shift guard holds detection down.
	Suppressed bool
	// ShiftDistance is the latest usage-mix total-variation distance.
	ShiftDistance float64
	// ShiftRounds counts rounds observed in the shifting state.
	ShiftRounds int64
	// Entropy is the latest normalised consumption entropy. It is
	// meaningful only when EntropyObserved is true; before any
	// consuming round (or right after a shift reset) it is zero, which
	// must not be read as full concentration.
	Entropy float64
	// EntropyObserved reports whether Entropy reflects a measured
	// round.
	EntropyObserved bool
	// EntropyAlarm is true when the entropy shows a significant
	// decreasing trend (CHAOS concentration signal).
	EntropyAlarm bool
	// EntropySuspect is the component the entropy alarm attributes (the
	// largest consumption-delta share), "" when not alarming.
	EntropySuspect string
	// Components holds one verdict per component, highest score first.
	Components []Verdict
}

// Clone returns an independent copy of the report, for consumers that
// keep it beyond the recycled ring's retention window.
func (r *Report) Clone() *Report {
	c := *r
	c.Components = append([]Verdict(nil), r.Components...)
	return &c
}

// Alarms returns the verdicts currently alarming, highest score first.
func (r *Report) Alarms() []Verdict {
	var out []Verdict
	for _, v := range r.Components {
		if v.Alarm {
			out = append(out, v)
		}
	}
	return out
}

// Top returns the highest-scoring alarming verdict.
func (r *Report) Top() (Verdict, bool) {
	a := r.Alarms()
	if len(a) == 0 {
		return Verdict{}, false
	}
	return a[0], true
}

// String renders the report as a table.
func (r *Report) String() string {
	var b strings.Builder
	entropy := "-"
	if r.EntropyObserved {
		entropy = fmt.Sprintf("%.3f", r.Entropy)
	}
	fmt.Fprintf(&b, "detect[%s] round=%d suppressed=%v shift=%.3f entropy=%s",
		r.Resource, r.Round, r.Suppressed, r.ShiftDistance, entropy)
	if r.EntropyAlarm {
		fmt.Fprintf(&b, " entropy-alarm(%s)", r.EntropySuspect)
	}
	b.WriteByte('\n')
	for i, v := range r.Components {
		fmt.Fprintf(&b, "%2d. %-28s alarm=%-5v score=%10.4g z=%6.2f streak=%d n=%d share=%.3f\n",
			i+1, v.Component, v.Alarm, v.Score, v.Trend.Z, v.Streak, v.Samples, v.Share)
	}
	return b.String()
}

// componentState is the Monitor's per-component detector state.
type componentState struct {
	trend      *OnlineTrend
	prevValue  float64
	prevUsage  float64
	havePrev   bool
	streak     int
	firstAlarm int64
	share      float64 // EWMA consumption-delta share
}

// Monitor composes the trend, entropy and shift detectors for one
// resource. Observe is single-owner (the sampling round); Latest is safe
// from any goroutine. "Single-owner" is a contract, not a serial-world
// assumption: owners may move between goroutines as long as calls never
// overlap — the cluster aggregator drives each node's monitors from
// whichever goroutine ingests that node's round, under the node's lane
// lock, and is exactly such an owner.
//
// A steady-state Observe round allocates nothing: the round's scratch,
// the guard's distributions, every detector's window state, the one
// Sen-slope scratch the detectors share and the published Report itself
// are all reused (reports cycle through a ring of ReportRetention
// buffers — see Report for the retention contract). The alloc soak tests
// in this package pin that property.
type Monitor struct {
	resource string
	cfg      Config

	comps         map[string]*componentState
	entropy       *EntropyDetector
	entropyStreak int
	guard         *ShiftGuard
	rounds        int64
	shiftRounds   int64

	// sen is the pairwise-slope scratch every trend of this monitor
	// estimates its Sen slope in, sized for a full window up front so the
	// first alarm allocates no more than a quiet round.
	sen *metrics.SenScratch

	// Round scratch, parallel to the round's observations and reused
	// across Observe calls.
	states      []*componentState
	names       []string
	usageDeltas []float64
	valueDeltas []float64

	// ring holds the recycled report buffers Observe publishes from.
	ring    []Report
	ringIdx int

	report atomic.Pointer[Report]
}

// NewMonitor creates a detector bank for one resource.
func NewMonitor(resource string, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		resource: resource,
		cfg:      cfg,
		comps:    make(map[string]*componentState),
		entropy:  NewEntropyDetector(cfg.Window, Alpha),
		guard:    NewShiftGuard(),
		sen:      metrics.NewSenScratch(cfg.Window),
		ring:     make([]Report, ReportRetention),
	}
	m.entropy.trend.sen = m.sen
	return m
}

// newComponent creates the detector state of a component first seen now
// (or being restored), wired to the monitor's shared slope scratch.
func (m *Monitor) newComponent() *componentState {
	st := &componentState{trend: NewOnlineTrend(m.cfg.Window, Alpha)}
	st.trend.sen = m.sen
	return st
}

// Canonical returns the configuration with all defaults applied — the
// form NewMonitor adopts and Config reports. Snapshot restores compare
// configurations in canonical form, since a Config and its defaulted
// twin construct identical monitors.
func (c Config) Canonical() Config { return c.withDefaults() }

// Resource returns the watched resource name.
func (m *Monitor) Resource() string { return m.resource }

// Config returns the effective (defaulted) configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Rounds returns how many observation rounds have been absorbed.
func (m *Monitor) Rounds() int64 { return m.rounds }

// Latest returns the most recently published report (nil before the first
// round). It never blocks; the pointer is published atomically, and the
// report behind it stays valid for ReportRetention-1 further
// rounds (Clone to keep it longer).
func (m *Monitor) Latest() *Report { return m.report.Load() }

// nextReport takes the next recycled report buffer from the ring and
// resets it for this round, keeping the Components backing array.
func (m *Monitor) nextReport() *Report {
	rep := &m.ring[m.ringIdx]
	m.ringIdx = (m.ringIdx + 1) % len(m.ring)
	comps := rep.Components[:0]
	*rep = Report{Components: comps}
	return rep
}

// Observe absorbs one sampling round and publishes a fresh Report. It
// must be called from a single goroutine (the manager's sampling round).
func (m *Monitor) Observe(now time.Time, obs []Observation) *Report {
	m.rounds++

	// Round deltas feed the shift guard (usage) and the entropy
	// detector (consumption). Each component's state is looked up once
	// here; every later pass indexes the scratch.
	if cap(m.states) < len(obs) {
		m.states = make([]*componentState, len(obs))
		m.names = make([]string, len(obs))
		m.usageDeltas = make([]float64, len(obs))
		m.valueDeltas = make([]float64, len(obs))
	}
	states := m.states[:len(obs)]
	names := m.names[:len(obs)]
	usageDeltas := m.usageDeltas[:len(obs)]
	valueDeltas := m.valueDeltas[:len(obs)]
	var totalDelta float64
	for i, o := range obs {
		st := m.comps[o.Component]
		if st == nil {
			st = m.newComponent()
			m.comps[o.Component] = st
		}
		states[i], names[i] = st, o.Component
		usageDeltas[i], valueDeltas[i] = 0, 0
		if st.havePrev {
			usageDeltas[i] = o.Usage - st.prevUsage
			if d := o.Value - st.prevValue; d > 0 {
				valueDeltas[i] = d
				totalDelta += d
			}
		}
	}

	suppressed := m.guard.Observe(names, usageDeltas)

	// Feed the per-component trends. The tracked quantity is chosen to
	// be workload-invariant: the raw level for state resources, the
	// per-invocation mean for cumulative ones — so the window stays
	// valid across a shift and only the alarm decision is held down.
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
				st.trend.Push(now, tracked)
			}
			if totalDelta > 0 {
				st.share = 0.8*st.share + 0.2*(valueDeltas[i]/totalDelta)
			}
		}
		st.prevValue, st.prevUsage, st.havePrev = o.Value, o.Usage, true
	}

	// The entropy series is mix-sensitive by construction, so a shift
	// invalidates its window entirely; the guard resets it rather than
	// letting pre- and post-shift distributions blend into a fake trend.
	if suppressed {
		m.entropy.Reset()
		m.entropyStreak = 0
	} else if totalDelta > 0 {
		m.entropy.Observe(now, valueDeltas)
	}

	if suppressed {
		m.shiftRounds++
	}
	rep := m.nextReport()
	rep.Resource = m.resource
	rep.Round = m.rounds
	rep.Time = now
	rep.Suppressed = suppressed
	rep.ShiftDistance = m.guard.Distance()
	rep.ShiftRounds = m.shiftRounds
	if h, ok := m.entropy.Last(); ok {
		rep.Entropy = h
		rep.EntropyObserved = true
	}

	// Entropy alarm: significant concentration, debounced like the
	// per-component alarms, attributed to the dominant consumer.
	if !suppressed && m.entropy.Alarming() {
		m.entropyStreak++
	} else {
		m.entropyStreak = 0
	}
	if m.entropyStreak >= m.cfg.Consecutive {
		rep.EntropyAlarm = true
		// Equal shares go to the first name, so the suspect does not
		// depend on map-iteration order.
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
		v := Verdict{
			Component: o.Component,
			Trend:     st.trend.Result(),
			Samples:   st.trend.Len(),
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
	sortVerdicts(rep.Components)

	m.report.Store(rep)
	return rep
}

// sortVerdicts orders verdicts highest score first, ties by component
// name. It is a stable insertion sort: the slices are small (one entry
// per component) and mostly ordered round over round, and unlike
// sort.SliceStable it allocates nothing.
func sortVerdicts(vs []Verdict) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && verdictBefore(&vs[j], &vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

func verdictBefore(a, b *Verdict) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Component < b.Component
}
