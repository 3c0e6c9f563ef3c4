package detect

import (
	"fmt"
	"math"
	"sort"
	"time"

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
//     without out-of-band context and version skew fails loudly.
//   - The encoding is canonical: map-backed state is written key-sorted
//     and derived state is never serialised, so Snapshot∘Restore∘Snapshot
//     is byte-identical — the property the round-trip fuzz target leans
//     on.
//   - OnlineTrend serialises only its primary state (the (x, y) window,
//     oldest first) and recounts S and the tie correction on restore by
//     re-inserting the samples. Both are integers and the Sen slope is
//     computed from the window on demand, so the restored detector is
//     bit-identical to the original, not just approximately equal.
//   - Times cross the boundary as UnixNano and come back UTC without a
//     monotonic reading, exactly like the cluster wire codec's times.
//   - Snapshotting is off the hot path (it rides the fold stage or an
//     operator request, never Observe), so it may allocate freely.
//
// Not serialised on the Monitor: the recycled report ring and the
// published report pointer. A restored Monitor reports Latest() == nil
// until its first post-restore Observe — the same contract as a freshly
// constructed one.

// Snapshot format versions, one per detector type. The guard and
// monitor formats are at v2: v1 also carried the tuning that is now
// constant and a per-component change-point detector.
const (
	trendSnapVersion   = 1
	entropySnapVersion = 1
	guardSnapVersion   = 2
	monSnapVersion     = 2
)

// Decode bounds: a corrupt or adversarial snapshot may not drive
// allocations past these.
const (
	maxSnapString = 4096
	// maxSnapWindow bounds the trend window a snapshot may declare.
	// Restore allocates the two window rings and recounts S in O(window²)
	// compares (1024 → ~0.5M); it builds no pairwise-slope buffer, so a
	// hostile snapshot can cost at most 16 KB and those compares per
	// trend. Real windows are two orders of magnitude smaller.
	maxSnapWindow  = 1 << 10
	maxSnapComps   = 1 << 16
	maxSnapCounter = 1 << 30
	// maxSnapConfig bounds the small config integers (MinSamples,
	// Consecutive).
	maxSnapConfig = 1 << 20
)

func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// ---- OnlineTrend ----

// AppendSnapshot appends the detector's versioned state: configuration,
// time origin, lifetime counter and the raw (x, y) window oldest-first.
// Derived state (S, the tie correction) is recounted on restore.
func (o *OnlineTrend) AppendSnapshot(dst []byte) []byte {
	dst = append(dst, trendSnapVersion)
	dst = binc.AppendUvarint(dst, uint64(o.window))
	dst = binc.AppendFloat(dst, o.alpha)
	var t0 int64
	if o.seen > 0 {
		t0 = o.t0.UnixNano()
	}
	dst = binc.AppendVarint(dst, t0)
	dst = binc.AppendVarint(dst, o.seen)
	dst = binc.AppendUvarint(dst, uint64(o.n))
	for i := 0; i < o.n; i++ {
		j := (o.head + i) % o.window
		dst = binc.AppendFloat(dst, o.xs[j])
		dst = binc.AppendFloat(dst, o.ys[j])
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
	t0 := p.Varint()
	seen := p.Varint()
	n := p.Count(maxSnapWindow)
	if err := p.Err(); err != nil {
		return err
	}
	if window < 4 {
		return fmt.Errorf("detect: trend snapshot window %d < 4", window)
	}
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("detect: trend snapshot alpha %v out of (0,1)", alpha)
	}
	if n > window {
		return fmt.Errorf("detect: trend snapshot fill %d exceeds window %d", n, window)
	}
	if seen < int64(n) {
		return fmt.Errorf("detect: trend snapshot seen %d < fill %d", seen, n)
	}
	if seen == 0 && t0 != 0 {
		// The writer emits 0 for an unused time origin; anything else is
		// a non-canonical encoding.
		return fmt.Errorf("detect: trend snapshot time origin %d with no samples", t0)
	}
	if window != o.window {
		o.window = window
		o.xs = make([]float64, window)
		o.ys = make([]float64, window)
	}
	o.alpha = alpha
	o.seen = seen
	o.t0 = time.Time{}
	if seen > 0 {
		o.t0 = time.Unix(0, t0).UTC()
	}
	o.Reset()
	for i := 0; i < n; i++ {
		x, y := p.Float(), p.Float()
		if err := p.Err(); err != nil {
			return err
		}
		if !isFinite(x) || !isFinite(y) {
			return fmt.Errorf("detect: non-finite trend sample (%v, %v)", x, y)
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

// ---- Monitor ----

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

// AppendSnapshot appends the monitor's versioned state: resource,
// effective configuration, round counters, the shift guard, the entropy
// detector and every component's detector state, key-sorted. The report
// ring is not serialised; a restored monitor publishes its first report
// on its next Observe.
func (m *Monitor) AppendSnapshot(dst []byte) []byte {
	dst = append(dst, monSnapVersion)
	dst = binc.AppendString(dst, m.resource)
	dst = appendConfigSnapshot(dst, m.cfg)
	dst = binc.AppendVarint(dst, m.rounds)
	dst = binc.AppendVarint(dst, m.shiftRounds)
	dst = binc.AppendUvarint(dst, uint64(m.entropyStreak))
	dst = m.guard.AppendSnapshot(dst)
	dst = m.entropy.AppendSnapshot(dst)
	names := make([]string, 0, len(m.comps))
	for name := range m.comps {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = binc.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		st := m.comps[name]
		dst = binc.AppendString(dst, name)
		dst = st.trend.AppendSnapshot(dst)
		dst = binc.AppendFloat(dst, st.prevValue)
		dst = binc.AppendFloat(dst, st.prevUsage)
		dst = binc.AppendBool(dst, st.havePrev)
		dst = binc.AppendUvarint(dst, uint64(st.streak))
		dst = binc.AppendVarint(dst, st.firstAlarm)
		dst = binc.AppendFloat(dst, st.share)
	}
	return dst
}

// Snapshot returns the monitor's versioned binary state.
func (m *Monitor) Snapshot() []byte { return m.AppendSnapshot(nil) }

// RestoreMonitorSnapshot builds a Monitor from a snapshot read off p. The
// snapshot's configuration must already be in canonical (defaulted) form
// and every embedded detector must carry the configuration the monitor
// would construct it with — both are what Monitor.AppendSnapshot writes,
// so only corrupt or hand-altered snapshots fail these checks.
func RestoreMonitorSnapshot(p *binc.Parser) (*Monitor, error) {
	if v := p.Byte(); p.Err() == nil && v != monSnapVersion {
		return nil, fmt.Errorf("detect: monitor snapshot v%d: %w", v, binc.ErrVersion)
	}
	resource := p.String(maxSnapString)
	cfg := parseConfigSnapshot(p)
	if err := p.Err(); err != nil {
		return nil, err
	}
	if cfg != cfg.withDefaults() {
		return nil, fmt.Errorf("detect: monitor snapshot config not canonical")
	}
	m := NewMonitor(resource, cfg)
	// The probe carries the exact constructor-normalised configuration
	// the monitor's own trends run with, for validating embedded blobs.
	probeTrend := NewOnlineTrend(cfg.Window, Alpha)
	m.rounds = p.Varint()
	m.shiftRounds = p.Varint()
	m.entropyStreak = p.Count(maxSnapCounter)
	if err := m.guard.RestoreSnapshot(p); err != nil {
		return nil, err
	}
	if err := m.entropy.RestoreSnapshot(p); err != nil {
		return nil, err
	}
	if m.entropy.trend.window != probeTrend.window || m.entropy.trend.alpha != probeTrend.alpha {
		return nil, fmt.Errorf("detect: monitor snapshot entropy window config mismatch")
	}
	nComps := p.Count(maxSnapComps)
	if err := p.Err(); err != nil {
		return nil, err
	}
	prev := ""
	for i := 0; i < nComps; i++ {
		name := p.String(maxSnapString)
		if p.Err() != nil {
			return nil, p.Err()
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("detect: monitor snapshot components not key-sorted (%q after %q)", name, prev)
		}
		prev = name
		st := m.newComponent()
		if err := st.trend.RestoreSnapshot(p); err != nil {
			return nil, err
		}
		if st.trend.window != probeTrend.window || st.trend.alpha != probeTrend.alpha {
			return nil, fmt.Errorf("detect: monitor snapshot trend config mismatch for %q", name)
		}
		st.prevValue = p.Float()
		st.prevUsage = p.Float()
		st.havePrev = p.Bool()
		st.streak = p.Count(maxSnapCounter)
		st.firstAlarm = p.Varint()
		st.share = p.Float()
		if p.Err() != nil {
			return nil, p.Err()
		}
		m.comps[name] = st
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// RestoreMonitor builds a Monitor from a Snapshot buffer.
func RestoreMonitor(data []byte) (*Monitor, error) {
	p := binc.NewParser(data)
	m, err := RestoreMonitorSnapshot(p)
	if err != nil {
		return nil, err
	}
	if err := p.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
