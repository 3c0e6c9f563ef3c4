package detect

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/metrics"
)

// maxColumns is how many columns a Bank may watch: Row.Missing has one
// bit per column.
const maxColumns = 64

// Column is one resource a Bank watches, with its detector tuning.
type Column struct {
	Resource string
	Config   Config
}

// Row is one component's state at a sampling round, across every column
// of a Bank. Component names must be unique within a round.
type Row struct {
	// Component is the component name.
	Component string
	// Usage is the component's cumulative invocation count.
	Usage float64
	// Values holds the component's cumulative level per column, parallel
	// to the bank's columns.
	Values []float64
	// Missing has bit c set when column c did not measure the component
	// this round (memory without a size measurement): the row is absent
	// from that column.
	Missing uint64
}

// Alarm is one alarming verdict of a round.
type Alarm struct {
	// Column indexes the bank's columns.
	Column int
	// Component is the alarming component.
	Component string
	// Score is the verdict's score (its Sen slope).
	Score float64
}

// Bank runs the detectors of one node. It interns every component once
// into a slot (kept in name order by an order index) and keeps per slot
// one usage baseline and one cell per column: the component's trend,
// previous level, consumption share, alarm streak, first-alarm round and
// the latest round that measured it. Each round one usage-delta pass
// feeds the bank's one ShiftGuard, whose verdict holds every column
// down; each column keeps its own entropy detector.
//
// Observe updates the state and returns the round's alarms; Report
// assembles a column's full report on demand, a pure function of the
// state, which changes only in Observe. A Bank is single-owner (see the
// package comment). Observe allocates nothing once every component has
// been seen: the round scratch, the detector windows and the one
// Sen-slope scratch all its detectors share are reused.
type Bank struct {
	cols  []column
	guard *ShiftGuard
	sen   *senScratch

	rounds      int64
	shiftRounds int64
	now         time.Time // the latest round's instant
	suppressed  bool      // the guard's verdict on the latest round
	// observed is set by the first round after construction, Reset or
	// a restore: before it there is no round to report.
	observed bool

	slots []slot
	cells []cell           // slot-major: slot si's column c is cells[si*len(cols)+c]
	index map[string]int32 // component -> slot
	order []int32          // slots in name order

	// Round scratch. rowSlot maps the latest round's rows to slots; a
	// round listing the components in the same order as the one before
	// reuses it without a map lookup.
	in          []Row
	inVals      []float64
	rowSlot     []int32
	names       []string
	usageDeltas []float64
	valueDeltas []float64
	alarms      []Alarm
}

// column is one watched resource's bank-wide state.
type column struct {
	resource      string
	cfg           Config
	entropy       *EntropyDetector
	entropyStreak int
}

// slot is one component's row of the table.
type slot struct {
	name      string
	prevUsage float64
	havePrev  bool
}

// cell is one component's detector state in one column.
type cell struct {
	trend      OnlineTrend
	prevValue  float64
	share      float64 // EWMA consumption-delta share
	streak     int
	firstAlarm int64
	measured   int64 // the latest round that measured the component here
	havePrev   bool  // prevValue holds an earlier level
	// slope is the trend's significant-trend slope as Observe last formed
	// it, when the trend had absorbed slopeSeen samples; a report of the
	// same window reuses it.
	slope     float64
	slopeSeen int64
}

// NewBank creates a bank watching cols, in that order (at most 64).
func NewBank(cols []Column) *Bank {
	if len(cols) > maxColumns {
		panic(fmt.Sprintf("detect: a bank watches at most %d columns, not %d", maxColumns, len(cols)))
	}
	b := &Bank{}
	b.init(cols)
	return b
}

// init resets b to a fresh bank over cols.
func (b *Bank) init(cols []Column) {
	*b = Bank{guard: NewShiftGuard(), index: make(map[string]int32)}
	window := 4
	for _, c := range cols {
		cfg := c.Config.withDefaults()
		b.cols = append(b.cols, column{resource: c.Resource, cfg: cfg, entropy: NewEntropyDetector(cfg.Window, Alpha)})
		window = max(window, cfg.Window)
	}
	b.sen = newSenScratch(window)
	for i := range b.cols {
		b.cols[i].entropy.trend.sen = b.sen
	}
}

// Columns returns the watched columns with their effective (defaulted)
// configurations.
func (b *Bank) Columns() []Column {
	out := make([]Column, len(b.cols))
	for i, c := range b.cols {
		out[i] = Column{Resource: c.resource, Config: c.cfg}
	}
	return out
}

// Reset discards every component and all detection history, keeping the
// columns.
func (b *Bank) Reset() { b.init(b.Columns()) }

// Rows returns the bank's reusable input buffer sized for n rows, each
// with one Values entry per column. The caller fills it and passes it to
// Observe; it is valid until the next Rows call.
func (b *Bank) Rows(n int) []Row {
	if cap(b.in) < n {
		nc := len(b.cols)
		b.in = make([]Row, n)
		b.inVals = make([]float64, n*nc)
		for i := range b.in {
			b.in[i].Values = b.inVals[i*nc : (i+1)*nc : (i+1)*nc]
		}
	}
	return b.in[:n]
}

// cell returns slot si's cell in column c.
func (b *Bank) cell(si int32, c int) *cell { return &b.cells[int(si)*len(b.cols)+c] }

// intern adds a component first seen now, returning its slot.
func (b *Bank) intern(name string) int32 {
	si := int32(len(b.slots))
	b.slots = append(b.slots, slot{name: name})
	for _, col := range b.cols {
		b.cells = append(b.cells, cell{})
		cl := &b.cells[len(b.cells)-1]
		cl.trend.init(col.cfg.Window, Alpha)
		cl.trend.sen = b.sen
	}
	b.index[name] = si
	pos, _ := slices.BinarySearchFunc(b.order, name, func(s int32, name string) int {
		return strings.Compare(b.slots[s].name, name)
	})
	b.order = slices.Insert(b.order, pos, si)
	// Size the alarm list for every cell alarming at once, so no later
	// round grows it.
	if need := len(b.cells); cap(b.alarms) < need {
		b.alarms = make([]Alarm, 0, need)
	}
	return si
}

// growScratch sizes the round scratch for n rows, keeping the previous
// round's row-to-slot map.
func (b *Bank) growScratch(n int) {
	if cap(b.rowSlot) >= n {
		return
	}
	rs := make([]int32, len(b.rowSlot), n)
	copy(rs, b.rowSlot)
	b.rowSlot = rs
	b.names = make([]string, n)
	b.usageDeltas = make([]float64, n)
	b.valueDeltas = make([]float64, n)
}

// Observe absorbs one sampling round and returns its alarms: the
// alarming verdicts in column order and, within a column, highest score
// first with ties by component name. The slice is the bank's and is
// valid until the next Observe.
func (b *Bank) Observe(now time.Time, rows []Row) []Alarm {
	b.rounds++
	b.now, b.observed = now, true
	ns := now.UnixNano()
	b.alarms = b.alarms[:0]

	// Map the rows to slots and take the usage deltas the shift guard
	// reads.
	n := len(rows)
	b.growScratch(n)
	prev := len(b.rowSlot)
	rs := b.rowSlot[:n]
	names, usageDeltas := b.names[:n], b.usageDeltas[:n]
	for i := range rows {
		name := rows[i].Component
		var si int32
		ok := i < prev && b.slots[rs[i]].name == name
		if ok {
			si = rs[i]
		} else if si, ok = b.index[name]; !ok {
			si = b.intern(name)
		}
		rs[i], names[i], usageDeltas[i] = si, name, 0
		if sl := &b.slots[si]; sl.havePrev {
			usageDeltas[i] = rows[i].Usage - sl.prevUsage
		}
	}
	b.rowSlot = rs

	suppressed := b.guard.Observe(names, usageDeltas)
	b.suppressed = suppressed
	if suppressed {
		b.shiftRounds++
	}
	for c := range b.cols {
		b.observeColumn(c, ns, rows, suppressed)
	}
	for i := range rows {
		sl := &b.slots[rs[i]]
		sl.prevUsage, sl.havePrev = rows[i].Usage, true
	}
	return b.alarms
}

// observeColumn absorbs column c of a round whose rows are already mapped
// to slots, before the slots' usage baselines move.
func (b *Bank) observeColumn(c int, ns int64, rows []Row, suppressed bool) {
	col := &b.cols[c]
	bit := uint64(1) << c
	rs := b.rowSlot
	// Consumption deltas feed the entropy detector and the shares.
	deltas := b.valueDeltas[:len(rows)]
	var total float64
	for i := range rows {
		deltas[i] = 0
		if rows[i].Missing&bit != 0 {
			continue
		}
		if cl := b.cell(rs[i], c); cl.havePrev {
			if d := rows[i].Values[c] - cl.prevValue; d > 0 {
				deltas[i] = d
				total += d
			}
		}
	}

	// Feed the trends and move the alarm streaks. The tracked quantity
	// is chosen to be workload-invariant: the raw level for state
	// resources, the per-invocation mean for cumulative ones — so the
	// window stays valid across a shift and only the alarm decision is
	// held down. A trend is raw-alarming when it increases significantly
	// over at least MinSamples samples with a slope above MinSlope;
	// maybeIncreasing is the cheap necessary condition checked first.
	first := len(b.alarms)
	for i := range rows {
		r := &rows[i]
		if r.Missing&bit != 0 {
			continue
		}
		cl := b.cell(rs[i], c)
		v := r.Values[c]
		if cl.havePrev {
			if !col.cfg.PerInvocation {
				cl.trend.push(ns, v)
			} else if du := r.Usage - b.slots[rs[i]].prevUsage; du > 0 {
				cl.trend.push(ns, (v-cl.prevValue)/du)
			}
			if total > 0 {
				cl.share = 0.8*cl.share + 0.2*(deltas[i]/total)
			}
		}
		cl.prevValue, cl.havePrev, cl.measured = v, true, b.rounds

		var slope float64
		raw := false
		if !suppressed && cl.trend.n >= col.cfg.MinSamples && cl.trend.maybeIncreasing() &&
			cl.trend.test().Direction == metrics.TrendIncreasing {
			slope = cl.trend.slope()
			cl.slope, cl.slopeSeen = slope, cl.trend.seen
			raw = slope > col.cfg.MinSlope
		}
		if !raw {
			cl.streak = 0
			continue
		}
		cl.streak++
		if cl.streak >= col.cfg.Consecutive {
			if cl.firstAlarm == 0 {
				cl.firstAlarm = b.rounds
			}
			b.alarms = append(b.alarms, Alarm{Column: c, Component: r.Component, Score: slope})
		}
	}
	sortAlarms(b.alarms[first:])

	// The entropy series is mix-sensitive by construction, so a shift
	// invalidates its window entirely; the guard resets it rather than
	// letting pre- and post-shift distributions blend into a fake trend.
	if suppressed {
		col.entropy.Reset()
	} else if total > 0 {
		col.entropy.observe(ns, deltas)
	}
	if !suppressed && col.entropy.Alarming() {
		col.entropyStreak++
	} else {
		col.entropyStreak = 0
	}
}

// sortAlarms orders one column's alarms highest score first, ties by
// component name, by insertion: the lists are short.
func sortAlarms(as []Alarm) {
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && (as[j].Score > as[j-1].Score ||
			as[j].Score == as[j-1].Score && as[j].Component < as[j-1].Component); j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}

// verdict assembles slot si's verdict in column c.
func (b *Bank) verdict(si int32, c int) Verdict {
	cl := b.cell(si, c)
	res := cl.trend.test()
	if res.Direction != metrics.TrendNone {
		if cl.slopeSeen == cl.trend.seen {
			res.SenSlope = cl.slope
		} else {
			res.SenSlope = cl.trend.slope()
		}
	}
	v := Verdict{
		Component:       b.slots[si].name,
		Trend:           res,
		Streak:          cl.streak,
		Samples:         cl.trend.Len(),
		Share:           cl.share,
		FirstAlarmRound: cl.firstAlarm,
	}
	if cl.streak >= b.cols[c].cfg.Consecutive {
		v.Alarm = true
		v.Score = v.Trend.SenSlope
	}
	return v
}

// EntropyAlarm reports whether column c's entropy alarm is raised and,
// when it is, the component it attributes the concentration to: the
// largest consumption share, the first by name among equals.
func (b *Bank) EntropyAlarm(c int) (bool, string) {
	if b.cols[c].entropyStreak < b.cols[c].cfg.Consecutive {
		return false, ""
	}
	var best string
	var bestShare float64
	for _, si := range b.order {
		if share := b.cell(si, c).share; share > bestShare {
			best, bestShare = b.slots[si].name, share
		}
	}
	return true, best
}

// Report assembles column c's report as of the latest round: nil before
// the first round after construction, Reset or a restore. The report is
// the caller's.
func (b *Bank) Report(c int) *Report {
	if !b.observed {
		return nil
	}
	rep := &Report{}
	b.fillReport(c, rep)
	return rep
}

// fillReport assembles column c's report into rep, reusing its
// Components buffer.
func (b *Bank) fillReport(c int, rep *Report) {
	col := &b.cols[c]
	comps := rep.Components[:0]
	*rep = Report{
		Resource:      col.resource,
		Round:         b.rounds,
		Time:          b.now,
		Suppressed:    b.suppressed,
		ShiftDistance: b.guard.Distance(),
		ShiftRounds:   b.shiftRounds,
	}
	if h, ok := col.entropy.Last(); ok {
		rep.Entropy, rep.EntropyObserved = h, true
	}
	rep.EntropyAlarm, rep.EntropySuspect = b.EntropyAlarm(c)
	for _, si := range b.order {
		if b.cell(si, c).measured == b.rounds {
			comps = append(comps, b.verdict(si, c))
		}
	}
	sortVerdicts(comps)
	rep.Components = comps
}
