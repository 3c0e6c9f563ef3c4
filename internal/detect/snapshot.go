package detect

import (
	"fmt"
	"math"

	"repro/internal/binc"
)

// This file gives the detector bank an exact-state binary snapshot, so
// the aggregation plane can persist and restore its per-node banks
// across a crash or a warm-standby failover with byte-identical future
// verdicts (the parity tests in snapshot_test.go pin N-rounds +
// snapshot/restore + M-rounds against an uninterrupted N+M run).
//
// Each format is one function over a binc.Codec, which both writes and
// reads it, so its field order is stated once. Design rules:
//
//   - The bank and the shift guard each carry a version byte, and the
//     bank carries its columns' configurations, so a snapshot restores
//     without out-of-band context and version skew fails loudly. A trend
//     window carries neither: its column does.
//   - The encoding is canonical: map-backed state is written key-sorted
//     and derived state is never serialised, so Snapshot∘Restore∘Snapshot
//     is byte-identical — the property the round-trip fuzz target leans
//     on.
//   - A trend window is coded as its primary state only (the window,
//     oldest first, instants as integer nanoseconds); restore recounts
//     the sorted view, S and the tie correction by re-inserting the
//     samples. All are exact and the Sen slope is computed from the
//     window on demand, so the restored detector is bit-identical to the
//     original, not just approximately equal.
//   - Times cross the boundary as UnixNano and come back UTC without a
//     monotonic reading, exactly like the cluster wire codec's times.
//   - Snapshotting is off the hot path (it rides the fold stage or an
//     operator request, never Observe), so it may allocate freely.

// Snapshot format versions. The bank format continues the monitor's
// numbering at v3: a Monitor is a one-column bank, and the v1 and v2
// monitor formats (one detector set per resource, v1 also with the
// tuning that is now constant) are refused.
const (
	guardSnapVersion = 2
	bankSnapVersion  = 3
)

// Decode bounds: a corrupt or adversarial snapshot may not drive
// allocations past these.
const (
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

// codecWindow codes a trend's primary state into or out of a detector
// whose configuration is already in place: time origin, lifetime counter
// and the raw window oldest-first. A NaN sample has no bits worth keeping
// (every NaN is above, below and equal to nothing), so the window's NaN
// positions are listed up front and their values are not written; every
// value that is written is a number. Decoding refills the window from
// ring slot 0 and recounts the derived state (the sorted view, S, the tie
// correction) by re-inserting the samples, so the restored detector's
// future outputs are bit-identical to an uninterrupted one's.
func (o *OnlineTrend) codecWindow(c *binc.Codec) error {
	var t0 int64
	if o.seen > 0 {
		t0 = o.t0
	}
	seen, n, nans := o.seen, o.n, o.n-len(o.sorted)
	c.Varint(&t0)
	c.Varint(&seen)
	c.Count(&n, maxSnapWindow)
	c.Count(&nans, maxSnapWindow)
	c.Check(n <= o.window, "detect: trend snapshot fill %d exceeds window %d", n, o.window)
	c.Check(seen >= int64(n), "detect: trend snapshot seen %d < fill %d", seen, n)
	// The writer emits 0 for an unused time origin; anything else is a
	// non-canonical encoding.
	c.Check(seen != 0 || t0 == 0, "detect: trend snapshot time origin %d with no samples", t0)
	c.Check(nans <= n, "detect: trend snapshot lists %d NaN samples in a window of %d", nans, n)
	if err := c.Err(); err != nil {
		return err
	}
	if c.Decoding() {
		o.Reset()
		o.t0, o.seen = t0, seen
		clear(o.ys[:n])
	}
	at := func(i int) int { return (o.head + i) % o.window }

	// The NaN positions, strictly increasing; decoding marks them in the
	// slots the window refills.
	next := 0
	for k := 0; k < nans; k++ {
		i := next
		for !c.Decoding() && o.ys[at(i)] == o.ys[at(i)] {
			i++
		}
		c.Count(&i, maxSnapWindow)
		c.Check(i >= next && i < n, "detect: trend snapshot NaN position %d out of order", i)
		if err := c.Err(); err != nil {
			return err
		}
		if c.Decoding() {
			o.ys[i] = math.NaN()
		}
		next = i + 1
	}
	for i := 0; i < n; i++ {
		x, y := o.xs[at(i)], o.ys[at(i)]
		c.Varint(&x)
		if y == y {
			c.Float(&y)
			c.Check(y == y, "detect: trend snapshot sample %d: NaN outside the NaN list", i)
		}
		if err := c.Err(); err != nil {
			return err
		}
		if c.Decoding() {
			o.insert(x, y)
		}
	}
	return nil
}

// Codec codes the guard's versioned state: the reference mix key-sorted,
// then the suppression bookkeeping. Decoding replaces the guard's state.
// An absent reference mix stays absent — it means "next non-idle round
// seeds the baseline", which is distinct from an empty reference.
func (g *ShiftGuard) Codec(c *binc.Codec) error {
	v := byte(guardSnapVersion)
	c.Byte(&v)
	c.Check(v == guardSnapVersion, "detect: shift guard snapshot v%d: %w", v, binc.ErrVersion)
	if c.Decoding() {
		g.keys, g.ref = nil, nil
	}
	c.Bool(&g.seeded)
	if g.seeded {
		for ks := c.Sorted(g.keys, maxSnapComps); ks.Next(); {
			if c.Decoding() {
				g.keys, g.ref = append(g.keys, ks.Key()), append(g.ref, 0)
			}
			c.Float(&g.ref[ks.Index()])
			c.Check(ks.InOrder(), "detect: shift guard snapshot reference not key-sorted (%q after %q)", ks.Key(), ks.Prev())
		}
	}
	c.Float(&g.lastDist)
	c.Float(&g.lastThr)
	c.Count(&g.calmLeft, maxSnapCounter)
	c.Bool(&g.shifted)
	c.Varint(&g.rounds)
	c.Varint(&g.lastShift)
	c.Check(g.calmLeft <= ShiftHold, "detect: shift guard snapshot calmLeft %d > hold %d", g.calmLeft, ShiftHold)
	if c.Decoding() {
		g.shares = make([]float64, len(g.keys))
		clear(g.index)
		for i, k := range g.keys {
			g.index[k] = i
		}
	}
	return c.Err()
}

func codecConfig(c *binc.Codec, cfg *Config) {
	c.Count(&cfg.Window, maxSnapWindow)
	c.Float(&cfg.MinSlope)
	c.Count(&cfg.MinSamples, maxSnapConfig)
	c.Count(&cfg.Consecutive, maxSnapConfig)
	c.Bool(&cfg.PerInvocation)
}

// Codec codes the bank's versioned state: the columns with their
// effective configurations, the round counters, the shift guard, each
// column's entropy detector, and every component's slot in name order
// with its cells in column order. Which components the latest round
// measured is not coded: a restored bank reports nothing until its next
// Observe, like a new one.
//
// Decoding rebuilds the bank over the coded columns, whose
// configurations must be in canonical (defaulted) form, as an encoder
// writes them, so only corrupt or hand-altered snapshots fail that
// check. The rebuilt bank's round scratch is sized for its components,
// so its first Observe allocates no more than a steady-state one.
func (b *Bank) Codec(c *binc.Codec) error {
	v := byte(bankSnapVersion)
	c.Byte(&v)
	c.Check(v == bankSnapVersion, "detect: bank snapshot v%d: %w", v, binc.ErrVersion)
	cols := b.Columns()
	n := len(cols)
	c.Count(&n, maxColumns)
	c.Check(n > 0, "detect: bank snapshot watches no column")
	if err := c.Err(); err != nil {
		return err
	}
	if c.Decoding() {
		cols = make([]Column, n)
	}
	for i := range cols {
		c.String(&cols[i].Resource)
		codecConfig(c, &cols[i].Config)
		c.Check(cols[i].Config == cols[i].Config.withDefaults(), "detect: bank snapshot config of %q not canonical", cols[i].Resource)
	}
	if err := c.Err(); err != nil {
		return err
	}
	if c.Decoding() {
		b.init(cols)
	}

	c.Varint(&b.rounds)
	c.Varint(&b.shiftRounds)
	// A report lists the components the latest round measured, so a
	// round count out of reach of Observe would list stale ones.
	c.Check(b.rounds >= 0 && b.rounds <= maxSnapCounter && b.shiftRounds >= 0 && b.shiftRounds <= b.rounds,
		"detect: bank snapshot counters out of range (rounds=%d shift=%d)", b.rounds, b.shiftRounds)
	if err := b.guard.Codec(c); err != nil {
		return err
	}
	for i := range b.cols {
		col := &b.cols[i]
		c.Count(&col.entropyStreak, maxSnapCounter)
		c.Float(&col.entropy.last)
		c.Bool(&col.entropy.haveObs)
		if err := col.entropy.trend.codecWindow(c); err != nil {
			return err
		}
	}

	var names []string
	if !c.Decoding() {
		names = make([]string, len(b.order))
		for i, si := range b.order {
			names[i] = b.slots[si].name
		}
	}
	for ks := c.Sorted(names, maxSnapComps); ks.Next(); {
		name := ks.Key()
		c.Check(ks.InOrder(), "detect: bank snapshot components not name-sorted (%q after %q)", name, ks.Prev())
		if err := c.Err(); err != nil {
			return err
		}
		si, ok := b.index[name]
		if !ok {
			si = b.intern(name)
		}
		sl := &b.slots[si]
		c.Bool(&sl.havePrev)
		c.Float(&sl.prevUsage)
		for col := range b.cols {
			cl := b.cell(si, col)
			c.Bool(&cl.havePrev)
			c.Float(&cl.prevValue)
			c.Count(&cl.streak, maxSnapCounter)
			c.Varint(&cl.firstAlarm)
			c.Float(&cl.share)
			if err := c.Err(); err != nil {
				return err
			}
			if err := cl.trend.codecWindow(c); err != nil {
				return fmt.Errorf("detect: bank snapshot %q/%s: %w", name, b.cols[col].resource, err)
			}
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	if c.Decoding() {
		b.growScratch(len(b.slots))
		b.Rows(len(b.slots))
	}
	return nil
}

// Snapshot returns the bank's versioned binary state (see Codec).
func (b *Bank) Snapshot() []byte {
	c := binc.NewEncoder(nil)
	b.Codec(c)
	return c.Buffer()
}

// RestoreBank builds a Bank from a Snapshot buffer.
func RestoreBank(data []byte) (*Bank, error) {
	c := binc.NewDecoder(data)
	b := &Bank{}
	if err := b.Codec(c); err != nil {
		return nil, err
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return b, nil
}
