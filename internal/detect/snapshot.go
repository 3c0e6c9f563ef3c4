package detect

import (
	"fmt"
	"math"

	"repro/internal/binc"
)

// This file gives every detector exact-state binary snapshots, so the
// aggregation plane can persist and restore its per-node detector banks
// across a crash or a warm-standby failover with byte-identical future
// verdicts (the parity tests in snapshot_test.go pin N-rounds +
// snapshot/restore + M-rounds against an uninterrupted N+M run).
//
// Design rules shared by all formats here:
//
//   - Each format carries its own version byte and is fully
//     self-describing (configuration included), so a snapshot restores
//     without out-of-band context and version skew fails loudly. A bank
//     writes its trends without their own version and configuration:
//     the column carries both.
//   - The encoding is canonical: map-backed state is written key-sorted
//     and derived state is never serialised, so Snapshot∘Restore∘Snapshot
//     is byte-identical — the property the round-trip fuzz target leans
//     on.
//   - OnlineTrend serialises only its primary state (the window, oldest
//     first, instants as integer nanoseconds) and recounts the sorted
//     view, S and the tie correction on restore by re-inserting the
//     samples. All are exact and the Sen slope is computed from the
//     window on demand, so the restored detector is bit-identical to the
//     original, not just approximately equal.
//   - Times cross the boundary as UnixNano and come back UTC without a
//     monotonic reading, exactly like the cluster wire codec's times.
//   - Snapshotting is off the hot path (it rides the fold stage or an
//     operator request, never Observe), so it may allocate freely.

// Snapshot format versions, one per detector type. The trend format is
// at v2: v1 wrote instants as float seconds and refused NaN samples. The
// bank format continues the monitor's numbering at v3: a Monitor is a
// one-column bank and snapshots as one, and the v1 and v2 monitor
// formats (one detector set per resource, v1 also with the tuning that
// is now constant) are refused.
const (
	trendSnapVersion   = 2
	entropySnapVersion = 1
	guardSnapVersion   = 2
	bankSnapVersion    = 3
)

// Decode bounds: a corrupt or adversarial snapshot may not drive
// allocations past these.
const (
	maxSnapString = 4096
	// maxSnapWindow bounds the trend window a snapshot may declare.
	// Restore allocates the window ring and sorted view (24 KB at 1024)
	// and recounts S by as many sorted inserts; it builds no
	// pairwise-slope buffer. Real windows are two orders of magnitude
	// smaller.
	maxSnapWindow  = 1 << 10
	maxSnapComps   = 1 << 16
	maxSnapCounter = 1 << 30
	// maxSnapConfig bounds the small config integers (MinSamples,
	// Consecutive).
	maxSnapConfig = 1 << 20
)

// ---- OnlineTrend ----

// AppendSnapshot appends the detector's versioned state: configuration
// and the window (see appendWindow).
func (o *OnlineTrend) AppendSnapshot(dst []byte) []byte {
	dst = append(dst, trendSnapVersion)
	dst = binc.AppendUvarint(dst, uint64(o.window))
	dst = binc.AppendFloat(dst, o.alpha)
	return o.appendWindow(dst)
}

// appendWindow appends the detector's primary state: time origin,
// lifetime counter and the raw window oldest-first. A NaN sample has no
// bits worth keeping (every NaN is above, below and equal to nothing),
// so the window's NaN positions are listed up front and their values are
// not written; every value that is written is a number. Derived state
// (the sorted view, S, the tie correction) is recounted on restore.
func (o *OnlineTrend) appendWindow(dst []byte) []byte {
	var t0 int64
	if o.seen > 0 {
		t0 = o.t0
	}
	dst = binc.AppendVarint(dst, t0)
	dst = binc.AppendVarint(dst, o.seen)
	dst = binc.AppendUvarint(dst, uint64(o.n))
	dst = binc.AppendUvarint(dst, uint64(o.n-len(o.sorted)))
	for i := 0; i < o.n; i++ {
		if y := o.ys[(o.head+i)%o.window]; y != y {
			dst = binc.AppendUvarint(dst, uint64(i))
		}
	}
	for i := 0; i < o.n; i++ {
		j := (o.head + i) % o.window
		dst = binc.AppendVarint(dst, o.xs[j])
		if y := o.ys[j]; y == y {
			dst = binc.AppendFloat(dst, y)
		}
	}
	return dst
}

// Snapshot returns the detector's versioned binary state.
func (o *OnlineTrend) Snapshot() []byte { return o.AppendSnapshot(nil) }

// RestoreSnapshot replaces the receiver's state from a snapshot read off
// p, adopting the snapshot's configuration. S and the tie correction are
// recounted by re-inserting the window, so the restored detector's future
// outputs are bit-identical to an uninterrupted one's.
func (o *OnlineTrend) RestoreSnapshot(p *binc.Parser) error {
	if v := p.Byte(); p.Err() == nil && v != trendSnapVersion {
		return fmt.Errorf("detect: trend snapshot v%d: %w", v, binc.ErrVersion)
	}
	window := p.Count(maxSnapWindow)
	alpha := p.Float()
	if err := p.Err(); err != nil {
		return err
	}
	if window < 4 {
		return fmt.Errorf("detect: trend snapshot window %d < 4", window)
	}
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("detect: trend snapshot alpha %v out of (0,1)", alpha)
	}
	if window != o.window || alpha != o.alpha {
		o.init(window, alpha)
	}
	return o.restoreWindow(p)
}

// restoreWindow reads what appendWindow wrote into a detector whose
// configuration is already in place.
func (o *OnlineTrend) restoreWindow(p *binc.Parser) error {
	t0 := p.Varint()
	seen := p.Varint()
	n := p.Count(maxSnapWindow)
	nans := p.Count(maxSnapWindow)
	if err := p.Err(); err != nil {
		return err
	}
	if n > o.window {
		return fmt.Errorf("detect: trend snapshot fill %d exceeds window %d", n, o.window)
	}
	if seen < int64(n) {
		return fmt.Errorf("detect: trend snapshot seen %d < fill %d", seen, n)
	}
	if seen == 0 && t0 != 0 {
		// The writer emits 0 for an unused time origin; anything else is
		// a non-canonical encoding.
		return fmt.Errorf("detect: trend snapshot time origin %d with no samples", t0)
	}
	if nans > n {
		return fmt.Errorf("detect: trend snapshot lists %d NaN samples in a window of %d", nans, n)
	}
	// The NaN positions, strictly increasing, in the ring slots the
	// window refills from slot 0.
	o.Reset()
	o.t0, o.seen = t0, seen
	for i := range o.ys[:n] {
		o.ys[i] = 0
	}
	next := 0
	for k := 0; k < nans; k++ {
		i := p.Count(maxSnapWindow)
		if err := p.Err(); err != nil {
			return err
		}
		if i < next || i >= n {
			return fmt.Errorf("detect: trend snapshot NaN position %d out of order", i)
		}
		o.ys[i] = math.NaN()
		next = i + 1
	}
	for i := 0; i < n; i++ {
		x := p.Varint()
		y := o.ys[i]
		if y == y {
			y = p.Float()
			if p.Err() == nil && y != y {
				return fmt.Errorf("detect: trend snapshot sample %d: NaN outside the NaN list", i)
			}
		}
		if err := p.Err(); err != nil {
			return err
		}
		o.insert(x, y)
	}
	return nil
}

// Restore replaces the detector's state from a Snapshot buffer.
func (o *OnlineTrend) Restore(data []byte) error {
	p := binc.NewParser(data)
	if err := o.RestoreSnapshot(p); err != nil {
		return err
	}
	return p.Done()
}

// ---- EntropyDetector ----

// AppendSnapshot appends the detector's versioned state: the embedded
// entropy trend plus the latest observation.
func (e *EntropyDetector) AppendSnapshot(dst []byte) []byte {
	dst = append(dst, entropySnapVersion)
	dst = e.trend.AppendSnapshot(dst)
	dst = binc.AppendFloat(dst, e.last)
	dst = binc.AppendBool(dst, e.haveObs)
	return dst
}

// Snapshot returns the detector's versioned binary state.
func (e *EntropyDetector) Snapshot() []byte { return e.AppendSnapshot(nil) }

// RestoreSnapshot replaces the receiver's state from a snapshot read off p.
func (e *EntropyDetector) RestoreSnapshot(p *binc.Parser) error {
	if v := p.Byte(); p.Err() == nil && v != entropySnapVersion {
		return fmt.Errorf("detect: entropy snapshot v%d: %w", v, binc.ErrVersion)
	}
	if err := e.trend.RestoreSnapshot(p); err != nil {
		return err
	}
	e.last = p.Float()
	e.haveObs = p.Bool()
	return p.Err()
}

// Restore replaces the detector's state from a Snapshot buffer.
func (e *EntropyDetector) Restore(data []byte) error {
	p := binc.NewParser(data)
	if err := e.RestoreSnapshot(p); err != nil {
		return err
	}
	return p.Done()
}

// ---- ShiftGuard ----

// AppendSnapshot appends the guard's versioned state: the reference mix
// key-sorted and the suppression bookkeeping.
func (g *ShiftGuard) AppendSnapshot(dst []byte) []byte {
	dst = append(dst, guardSnapVersion)
	dst = binc.AppendBool(dst, g.seeded)
	if g.seeded {
		dst = binc.AppendUvarint(dst, uint64(len(g.keys)))
		for i, k := range g.keys {
			dst = binc.AppendString(dst, k)
			dst = binc.AppendFloat(dst, g.ref[i])
		}
	}
	dst = binc.AppendFloat(dst, g.lastDist)
	dst = binc.AppendFloat(dst, g.lastThr)
	dst = binc.AppendUvarint(dst, uint64(g.calmLeft))
	dst = binc.AppendBool(dst, g.shifted)
	dst = binc.AppendVarint(dst, g.rounds)
	dst = binc.AppendVarint(dst, g.lastShift)
	return dst
}

// Snapshot returns the guard's versioned binary state.
func (g *ShiftGuard) Snapshot() []byte { return g.AppendSnapshot(nil) }

// RestoreSnapshot replaces the receiver's state from a snapshot read off
// p. An absent reference mix stays absent — it means "next non-idle round seeds the baseline", which is
// distinct from an empty reference.
func (g *ShiftGuard) RestoreSnapshot(p *binc.Parser) error {
	if v := p.Byte(); p.Err() == nil && v != guardSnapVersion {
		return fmt.Errorf("detect: shift guard snapshot v%d: %w", v, binc.ErrVersion)
	}
	haveRef := p.Bool()
	var keys []string
	var ref []float64
	if p.Err() == nil && haveRef {
		n := p.Count(maxSnapComps)
		for i := 0; i < n; i++ {
			k := p.String(maxSnapString)
			v := p.Float()
			if p.Err() != nil {
				break
			}
			if i > 0 && k <= keys[i-1] {
				return fmt.Errorf("detect: shift guard snapshot reference not key-sorted (%q after %q)", k, keys[i-1])
			}
			keys, ref = append(keys, k), append(ref, v)
		}
	}
	lastDist := p.Float()
	lastThr := p.Float()
	calmLeft := p.Count(maxSnapCounter)
	shifted := p.Bool()
	rounds := p.Varint()
	lastShift := p.Varint()
	if err := p.Err(); err != nil {
		return err
	}
	if calmLeft > ShiftHold {
		return fmt.Errorf("detect: shift guard snapshot calmLeft %d > hold %d", calmLeft, ShiftHold)
	}
	g.keys, g.ref, g.seeded = keys, ref, haveRef
	g.shares = make([]float64, len(keys))
	clear(g.index)
	for i, k := range keys {
		g.index[k] = i
	}
	g.lastDist, g.lastThr = lastDist, lastThr
	g.calmLeft, g.shifted = calmLeft, shifted
	g.rounds, g.lastShift = rounds, lastShift
	return nil
}

// Restore replaces the guard's state from a Snapshot buffer.
func (g *ShiftGuard) Restore(data []byte) error {
	p := binc.NewParser(data)
	if err := g.RestoreSnapshot(p); err != nil {
		return err
	}
	return p.Done()
}

// ---- Bank ----

func appendConfigSnapshot(dst []byte, cfg Config) []byte {
	dst = binc.AppendUvarint(dst, uint64(cfg.Window))
	dst = binc.AppendFloat(dst, cfg.MinSlope)
	dst = binc.AppendUvarint(dst, uint64(cfg.MinSamples))
	dst = binc.AppendUvarint(dst, uint64(cfg.Consecutive))
	dst = binc.AppendBool(dst, cfg.PerInvocation)
	return dst
}

func parseConfigSnapshot(p *binc.Parser) Config {
	var cfg Config
	cfg.Window = p.Count(maxSnapWindow)
	cfg.MinSlope = p.Float()
	cfg.MinSamples = p.Count(maxSnapConfig)
	cfg.Consecutive = p.Count(maxSnapConfig)
	cfg.PerInvocation = p.Bool()
	return cfg
}

// AppendSnapshot appends the bank's versioned state: the columns with
// their effective configurations, the round counters, the shift guard,
// each column's entropy detector, and every component's slot in name
// order with its cells in column order. Which components the latest
// round measured is not serialised: a restored bank reports nothing
// until its next Observe, like a new one.
func (b *Bank) AppendSnapshot(dst []byte) []byte {
	dst = append(dst, bankSnapVersion)
	dst = binc.AppendUvarint(dst, uint64(len(b.cols)))
	for _, col := range b.cols {
		dst = binc.AppendString(dst, col.resource)
		dst = appendConfigSnapshot(dst, col.cfg)
	}
	dst = binc.AppendVarint(dst, b.rounds)
	dst = binc.AppendVarint(dst, b.shiftRounds)
	dst = b.guard.AppendSnapshot(dst)
	for _, col := range b.cols {
		dst = binc.AppendUvarint(dst, uint64(col.entropyStreak))
		dst = binc.AppendFloat(dst, col.entropy.last)
		dst = binc.AppendBool(dst, col.entropy.haveObs)
		dst = col.entropy.trend.appendWindow(dst)
	}
	dst = binc.AppendUvarint(dst, uint64(len(b.order)))
	for _, si := range b.order {
		sl := &b.slots[si]
		dst = binc.AppendString(dst, sl.name)
		dst = binc.AppendBool(dst, sl.havePrev)
		dst = binc.AppendFloat(dst, sl.prevUsage)
		for c := range b.cols {
			cl := b.cell(si, c)
			dst = binc.AppendBool(dst, cl.havePrev)
			dst = binc.AppendFloat(dst, cl.prevValue)
			dst = binc.AppendUvarint(dst, uint64(cl.streak))
			dst = binc.AppendVarint(dst, cl.firstAlarm)
			dst = binc.AppendFloat(dst, cl.share)
			dst = cl.trend.appendWindow(dst)
		}
	}
	return dst
}

// Snapshot returns the bank's versioned binary state.
func (b *Bank) Snapshot() []byte { return b.AppendSnapshot(nil) }

// RestoreBankSnapshot builds a Bank from a snapshot read off p. Every
// configuration must be in canonical (defaulted) form, as
// Bank.AppendSnapshot writes it, so only corrupt or hand-altered
// snapshots fail that check. The restored bank's round scratch is sized
// for its components, so its first Observe allocates no more than a
// steady-state one.
func RestoreBankSnapshot(p *binc.Parser) (*Bank, error) {
	if v := p.Byte(); p.Err() == nil && v != bankSnapVersion {
		return nil, fmt.Errorf("detect: bank snapshot v%d: %w", v, binc.ErrVersion)
	}
	ncols := p.Count(maxColumns)
	if err := p.Err(); err != nil {
		return nil, err
	}
	if ncols == 0 {
		return nil, fmt.Errorf("detect: bank snapshot watches no column")
	}
	cols := make([]Column, ncols)
	for i := range cols {
		cols[i].Resource = p.String(maxSnapString)
		cols[i].Config = parseConfigSnapshot(p)
		if err := p.Err(); err != nil {
			return nil, err
		}
		if cols[i].Config != cols[i].Config.withDefaults() {
			return nil, fmt.Errorf("detect: bank snapshot config of %q not canonical", cols[i].Resource)
		}
	}
	b := NewBank(cols)
	b.rounds = p.Varint()
	b.shiftRounds = p.Varint()
	if err := p.Err(); err != nil {
		return nil, err
	}
	// A report lists the components the latest round measured, so a
	// round count out of reach of Observe would list stale ones.
	if b.rounds < 0 || b.rounds > maxSnapCounter || b.shiftRounds < 0 || b.shiftRounds > b.rounds {
		return nil, fmt.Errorf("detect: bank snapshot counters out of range (rounds=%d shift=%d)", b.rounds, b.shiftRounds)
	}
	if err := b.guard.RestoreSnapshot(p); err != nil {
		return nil, err
	}
	for i := range b.cols {
		col := &b.cols[i]
		col.entropyStreak = p.Count(maxSnapCounter)
		col.entropy.last = p.Float()
		col.entropy.haveObs = p.Bool()
		if err := p.Err(); err != nil {
			return nil, err
		}
		if err := col.entropy.trend.restoreWindow(p); err != nil {
			return nil, err
		}
	}
	nslots := p.Count(maxSnapComps)
	if err := p.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < nslots; i++ {
		name := p.String(maxSnapString)
		if err := p.Err(); err != nil {
			return nil, err
		}
		if i > 0 && name <= b.slots[i-1].name {
			return nil, fmt.Errorf("detect: bank snapshot components not name-sorted (%q after %q)", name, b.slots[i-1].name)
		}
		si := b.intern(name)
		sl := &b.slots[si]
		sl.havePrev = p.Bool()
		sl.prevUsage = p.Float()
		for c := range b.cols {
			cl := b.cell(si, c)
			cl.havePrev = p.Bool()
			cl.prevValue = p.Float()
			cl.streak = p.Count(maxSnapCounter)
			cl.firstAlarm = p.Varint()
			cl.share = p.Float()
			if err := p.Err(); err != nil {
				return nil, err
			}
			if err := cl.trend.restoreWindow(p); err != nil {
				return nil, fmt.Errorf("detect: bank snapshot %q/%s: %w", name, b.cols[c].resource, err)
			}
		}
	}
	b.growScratch(nslots)
	b.Rows(nslots)
	return b, p.Err()
}

// RestoreBank builds a Bank from a Snapshot buffer.
func RestoreBank(data []byte) (*Bank, error) {
	p := binc.NewParser(data)
	b, err := RestoreBankSnapshot(p)
	if err != nil {
		return nil, err
	}
	if err := p.Done(); err != nil {
		return nil, err
	}
	return b, nil
}

// ---- Monitor ----

// Snapshot returns the monitor's versioned binary state: its one-column
// bank's snapshot. The report ring is not serialised; a restored monitor
// reports nothing until its next Observe.
func (m *Monitor) Snapshot() []byte { return m.bank.Snapshot() }

// RestoreMonitor builds a Monitor from a Snapshot buffer: a bank
// snapshot of exactly one column.
func RestoreMonitor(data []byte) (*Monitor, error) {
	b, err := RestoreBank(data)
	if err != nil {
		return nil, err
	}
	if len(b.cols) != 1 {
		return nil, fmt.Errorf("detect: monitor snapshot watches %d columns, want 1", len(b.cols))
	}
	return newMonitor(b), nil
}
