// Package detect implements online software-aging detection over the
// streaming metrics the monitoring pipeline records: an incremental
// Mann-Kendall/Sen-slope trend detector (OnlineTrend), a CHAOS-style
// sliding-window entropy detector over the per-component consumption
// distribution (EntropyDetector), and a workload-shift guard that watches
// the per-flow usage mix so a traffic change does not masquerade as aging
// (ShiftGuard). A Bank composes them for one node: one component table,
// one shift guard, and per watched resource (a column) a trend per
// component plus an entropy detector. Monitor is its one-column view.
//
// Concurrency contract: all detector state is owned by the single
// goroutine that calls Observe — the manager's sampling round, or the
// cluster aggregator's ingest of the node's round under the node's lane
// lock. A bank publishes nothing lock-free: Observe returns the round's
// alarms, and a reader that wants a full Report asks the bank for one
// under the same lock its owner observes under (the detector bank's
// mutex in core, the lane lock in the aggregator). Reports are assembled
// on read from state that changes only in Observe.
package detect

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Config tunes one column of a Bank (or a Monitor). The zero value
// selects the defaults documented on every field; the rest of the tuning
// is fixed (Alpha, ReportRetention and the shift guard's ShiftThreshold,
// ShiftHold, ShiftEWMA and ShiftNoiseMargin).
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

// Tuning every bank column runs with.
const (
	// Alpha is the Mann-Kendall significance level of the trend and
	// entropy detectors. The online detectors test every round, so they
	// need a stricter level than an offline one-shot query to keep the
	// family-wise false-alarm rate down.
	Alpha = 0.01
	// ReportRetention is how many sampling rounds a *Report returned by
	// Monitor.Observe remains valid. A Monitor recycles its reports
	// through a ring of this size so a steady-state round produces zero
	// garbage; a consumer that holds a report for longer than
	// ReportRetention-1 subsequent rounds must copy it. The cluster
	// aggregator recycles its cluster reports on the same terms.
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

// Report is one column's detection state after a sampling round. Bank.Report
// assembles a fresh one the caller owns; a Monitor recycles the reports
// it returns through a ring of ReportRetention buffers, so one of those
// stays valid for ReportRetention-1 further rounds and must be copied to
// be kept longer.
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

// Monitor is the one-column view of a Bank: the trend, entropy and shift
// detectors of one resource, observed from per-resource observations and
// reporting after every round. It runs the Bank's code. Its shift guard
// sees only the components its resource measured, so it reports what the
// matching column of a multi-resource bank does whenever every round
// measures every component in that column.
//
// A Monitor is single-owner: Observe and everything else must not
// overlap. A steady-state Observe round allocates nothing: the
// bank's state is reused, and reports cycle through a ring of
// ReportRetention buffers (see Report for the retention contract). The
// alloc soak tests in this package pin that property.
type Monitor struct {
	bank    *Bank
	ring    []Report
	ringIdx int
}

// NewMonitor creates the detectors of one resource.
func NewMonitor(resource string, cfg Config) *Monitor {
	return newMonitor(NewBank([]Column{{Resource: resource, Config: cfg}}))
}

func newMonitor(b *Bank) *Monitor {
	return &Monitor{bank: b, ring: make([]Report, ReportRetention)}
}

// Rounds returns how many observation rounds have been absorbed.
func (m *Monitor) Rounds() int64 { return m.bank.rounds }

// Observe absorbs one sampling round and returns its report.
func (m *Monitor) Observe(now time.Time, obs []Observation) *Report {
	rows := m.bank.Rows(len(obs))
	for i := range obs {
		r := &rows[i]
		r.Component, r.Usage, r.Missing = obs[i].Component, obs[i].Usage, 0
		r.Values[0] = obs[i].Value
	}
	m.bank.Observe(now, rows)
	rep := &m.ring[m.ringIdx]
	m.ringIdx = (m.ringIdx + 1) % len(m.ring)
	m.bank.fillReport(0, rep)
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
