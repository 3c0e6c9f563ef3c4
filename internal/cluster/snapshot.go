// Aggregator snapshot/restore: the durable-state surface that lets the
// monitoring plane survive its own death. Snapshot captures the exact
// verdict-bearing state — per-node detector banks, the rounds each node
// has delivered but no epoch has folded yet, epoch watermarks,
// clock-normalisation state, churn/stale bookkeeping, alarm latches —
// as one versioned binary blob; Restore rebuilds a fresh aggregator
// from it so the restored plane folds the next epoch exactly as the
// dead one would have. The format is one function over a binc.Codec
// (codec and the node, pending and sample functions it calls), which
// both writes and reads it. The encoding is canonical (key-sorted maps,
// node-sorted order): Snapshot∘Restore∘Snapshot is byte-identical.
//
// What is deliberately NOT captured: the published report map
// (operator-facing history, rebuilt by the first
// post-restore fold), pending notifications and epoch events (transient
// deliveries), wire routes and in-flight control commands (connection
// state that dies with the process), and the lane seed (lane striping
// is verdict-invariant, so a restored aggregator re-stripes freely).
//
// Locking: Snapshot holds foldMu and visits each node under its lane
// lock, so it rides the fold stage's locks and never the ingest fast
// path — call it from an epoch subscriber (after the fold lock is
// released), never from inside a fold. Restore requires a fresh
// aggregator (no rounds ingested, no nodes registered) built with the
// same resource set and detector config; on error the aggregator is
// partially populated and must be discarded.
package cluster

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/binc"
	"repro/internal/core"
)

// aggSnapMagic distinguishes an aggregator snapshot from the wire
// codec's frames and from the detect-layer snapshots it embeds.
var aggSnapMagic = [4]byte{'A', 'G', 'S', 'N'}

// aggSnapVersion versions the aggregator snapshot format. v2 records a
// node's pending rounds as their usage totals and alarms, not as whole
// detector reports. v3 drops the change-point flag from those alarms and
// embeds the v2 node-mix guard and monitor formats, which no longer
// carry the fixed detector tuning. v4 embeds one detector bank per node
// (detect's v3 bank format) where v3 embedded one monitor per resource.
const aggSnapVersion = 4

// Decode bounds: a corrupt or hostile snapshot may not declare counts
// that drive allocation beyond these.
const (
	maxAggSnapResources = 256
	maxAggSnapNodes     = 1 << 16
	maxAggSnapComps     = 1 << 16
	maxAggSnapSamples   = 1 << 16
	maxAggSnapPending   = 1 << 12
	maxAggSnapChurn     = 1 << 20
	// maxAggSnapCounter bounds epochs, sequences and round totals. Far
	// above any reachable state (2^40 rounds at one per 30s is 10^6
	// years) while keeping epoch arithmetic on untrusted values safely
	// inside int64.
	maxAggSnapCounter = int64(1) << 40
)

func aggFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// AppendSnapshot appends the aggregator's durable state to dst and
// returns the extended buffer. It takes the fold lock, so it must not
// be called from inside a fold (an epoch subscriber is safe: events
// deliver after the fold lock is released).
func (a *Aggregator) AppendSnapshot(dst []byte) []byte {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	c := binc.NewEncoder(dst)
	a.codec(c)
	return c.Buffer()
}

// Snapshot returns the aggregator's versioned binary state.
func (a *Aggregator) Snapshot() []byte { return a.AppendSnapshot(nil) }

// Restore rebuilds the aggregator's durable state from a Snapshot
// buffer. The receiver must be fresh — same construction Config family
// (resource set and detector config) as the snapshotted aggregator, no
// rounds ingested, no nodes registered — because Restore builds node
// state through the normal registration path and then overwrites it.
// On error the aggregator may be partially populated and must be
// discarded; the error never aliases the input buffer.
//
// Not restored (rebuilt by normal operation): the published
// reports (Report returns nil until the first post-restore fold),
// pending notifications and epoch events, and wire/control routes.
func (a *Aggregator) Restore(data []byte) error {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()

	if a.total.Load() != 0 || a.epochFolded != 0 || len(a.all) != 0 {
		return fmt.Errorf("cluster: Restore requires a fresh aggregator (rounds=%d nodes=%d)",
			a.total.Load(), len(a.all))
	}
	c := binc.NewDecoder(data)
	if err := a.codec(c); err != nil {
		return err
	}
	return c.Done()
}

// codec codes the aggregator's durable state. Caller holds a.foldMu.
// Decoding applies each field as it is read, so on error the aggregator
// is left partially populated.
func (a *Aggregator) codec(c *binc.Codec) error {
	magic := aggSnapMagic
	for i := range magic {
		c.Byte(&magic[i])
	}
	c.Check(magic == aggSnapMagic, "cluster: not an aggregator snapshot (magic %x)", magic)
	v := byte(aggSnapVersion)
	c.Byte(&v)
	c.Check(v == aggSnapVersion, "cluster: aggregator snapshot v%d: %w", v, binc.ErrVersion)

	nres := len(a.resources)
	c.Count(&nres, maxAggSnapResources)
	c.Check(nres == len(a.resources), "cluster: snapshot has %d resources, aggregator watches %d", nres, len(a.resources))
	if err := c.Err(); err != nil {
		return err
	}
	for _, res := range a.resources {
		got := res
		c.String(&got)
		c.Check(got == res, "cluster: snapshot resource %q, aggregator watches %q", got, res)
	}

	total := a.total.Load()
	c.Varint(&a.epochFolded)
	c.Varint(&total)
	c.Count(&a.churnLeft, maxAggSnapChurn)
	c.Varint(&a.shiftEp)
	c.Check(a.epochFolded >= 0 && a.epochFolded <= maxAggSnapCounter &&
		total >= 0 && total <= maxAggSnapCounter &&
		a.shiftEp >= 0 && a.shiftEp <= maxAggSnapCounter,
		"cluster: snapshot counter out of range (epoch=%d rounds=%d shift=%d)", a.epochFolded, total, a.shiftEp)
	if c.Decoding() {
		a.epoch.Store(a.epochFolded)
		a.total.Store(total)
	}
	if err := a.guard.Codec(c); err != nil {
		return err
	}

	a.tlMu.Lock()
	c.Bool(&a.haveBase)
	if a.haveBase {
		c.Time(&a.base)
		c.Time(&a.lastMerged)
		c.Check(!a.lastMerged.Before(a.base), "cluster: merged timeline runs backwards in snapshot")
	}
	a.tlMu.Unlock()

	// Alarm latches, per resource in resource order.
	for _, res := range a.resources {
		latched := a.alarmed[res]
		for ks := c.Sorted(slices.Collect(maps.Keys(latched)), maxAggSnapComps); ks.Next(); {
			l := latched[ks.Key()]
			if l == nil {
				l = &latchedAlarm{}
				latched[ks.Key()] = l
			}
			c.Bool(&l.clusterWide)
			c.Check(ks.InOrder(), "cluster: alarm latches not sorted (%q after %q)", ks.Key(), ks.Prev())
		}
		if err := c.Err(); err != nil {
			return err
		}
	}

	a.ctlMu.Lock()
	c.Uvarint(&a.ctlSeq)
	a.ctlMu.Unlock()
	// The aggregator's own fields read, its hold counters must be ones a
	// fold reaches: the fold sets the churn hold to churnHold and counts
	// it down, and counts at most one shift epoch per epoch it folds.
	c.Check(a.churnLeft <= churnHold && a.shiftEp <= a.epochFolded,
		"cluster: snapshot hold counters out of the fold's reach (churn=%d shift=%d epoch=%d)", a.churnLeft, a.shiftEp, a.epochFolded)

	// Nodes in name order (a.all is the fold's sorted mirror). Each
	// node's lane-owned state is coded under its lane lock, so a
	// concurrently ingesting node contributes either all or none of its
	// in-flight round — both valid states to restore into. Decoding
	// builds each node through the normal registration path and then
	// overwrites its state.
	names := make([]string, len(a.all))
	for i, st := range a.all {
		names[i] = st.name
	}
	for ks := c.Sorted(names, maxAggSnapNodes); ks.Next(); {
		name := ks.Key()
		c.Check(name != "" && ks.InOrder(), "cluster: snapshot nodes not name-sorted (%q after %q)", name, ks.Prev())
		if err := c.Err(); err != nil {
			return err
		}
		var st *nodeState
		if c.Decoding() {
			st = a.newNodeState(name)
		} else {
			st = a.all[ks.Index()]
		}
		st.lane.mu.Lock()
		err := a.codecNode(c, st)
		st.lane.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return c.Err()
}

// codecNode codes one node. Caller holds a.foldMu (for the fold-owned
// fields) and st.lane.mu (for the lane-owned fields).
func (a *Aggregator) codecNode(c *binc.Codec, st *nodeState) error {
	active := st.active.Load()
	c.Bool(&active)
	c.Varint(&st.seq)
	c.Check(st.seq >= 0 && st.seq <= maxAggSnapCounter, "cluster: node %s: round sequence %d out of range", st.name, st.seq)
	c.Bool(&st.haveOffset)
	c.Check(st.haveOffset == (st.seq > 0), "cluster: node %s: clock offset state inconsistent with %d rounds", st.name, st.seq)
	if st.haveOffset {
		c.Varint((*int64)(&st.offset))
		c.Time(&st.lastNorm)
	}
	c.Varint(&st.epochBase)
	// Bound the node's cluster epoch: non-negative, and for an active
	// node never far enough past the fold watermark that the restored
	// plane would spin folding a fabricated epoch gap. Real snapshots sit
	// well inside both bounds (an active node can only run ahead of the
	// watermark while another lags, and laggards are evicted after
	// StaleEpochs).
	epoch := st.epochBase + st.seq
	c.Check(st.epochBase >= -maxAggSnapCounter && st.epochBase <= maxAggSnapCounter && epoch >= 0,
		"cluster: node %s: epoch base %d out of range", st.name, st.epochBase)
	c.Check(!active || epoch <= a.epochFolded+maxAggSnapPending,
		"cluster: node %s: epoch %d implausibly far past watermark %d", st.name, epoch, a.epochFolded)
	c.Float(&st.prevUsage)
	c.Check(aggFinite(st.prevUsage), "cluster: node %s: non-finite usage baseline", st.name)

	// Per-component size baselines.
	for ks := c.Sorted(slices.Collect(maps.Keys(st.firstSize)), maxAggSnapComps); ks.Next(); {
		v := st.firstSize[ks.Key()]
		c.Varint(&v)
		c.Check(ks.InOrder(), "cluster: node %s: size baselines not sorted", st.name)
		if c.Decoding() {
			st.firstSize[ks.Key()] = v
		}
	}
	if err := c.Err(); err != nil {
		return err
	}

	// The node's latest round snapshot, in round order.
	n := len(st.lastSamples)
	c.Count(&n, maxAggSnapSamples)
	if c.Decoding() && n > 0 {
		st.lastSamples = make([]core.ComponentSample, n)
	}
	for i := range st.lastSamples {
		if err := codecSample(c, &st.lastSamples[i]); err != nil {
			return fmt.Errorf("cluster: node %s: %w", st.name, err)
		}
	}

	// First-alarm latches, per resource in resource order.
	for ri := range a.resources {
		m := st.firstAlarm[ri]
		for ks := c.Sorted(slices.Collect(maps.Keys(m)), maxAggSnapComps); ks.Next(); {
			ep := m[ks.Key()]
			c.Varint(&ep)
			c.Check(ks.InOrder(), "cluster: node %s: first-alarm latches not sorted", st.name)
			if c.Decoding() {
				if m == nil {
					m = make(map[string]int64)
					st.firstAlarm[ri] = m
				}
				m[ks.Key()] = ep
			}
		}
		if err := c.Err(); err != nil {
			return err
		}
	}

	// The detector bank, which decoding rebuilds in place over the
	// snapshot's columns.
	cols := st.bank.Columns()
	if err := st.bank.Codec(c); err != nil {
		return fmt.Errorf("cluster: node %s bank: %w", st.name, err)
	}
	c.Check(slices.Equal(st.bank.Columns(), cols),
		"cluster: node %s: snapshot detector columns or config differ from the aggregator's", st.name)

	if err := a.codecPending(c, st, active); err != nil {
		return err
	}
	if c.Decoding() {
		st.active.Store(active)
		st.seqA.Store(st.seq)
		st.epochA.Store(st.epochBase + st.seq)
	}
	return nil
}

// codecPending codes one node's pending rounds — the ones the next folds
// will read — in sequence order, each with its alarms in record order.
// They must be canonical — strictly increasing sequences past the last
// folded epoch and at most the node's head, alarms in resource order
// and, within a resource, highest score first with ties by component —
// and only an active node may hold any. Caller holds a.foldMu and
// st.lane.mu.
func (a *Aggregator) codecPending(c *binc.Codec, st *nodeState, active bool) error {
	n := len(st.pending)
	c.Count(&n, maxAggSnapPending)
	c.Check(n == 0 || active, "cluster: node %s: inactive node holds %d pending rounds", st.name, n)
	if err := c.Err(); err != nil {
		return err
	}
	prevSeq := a.epochFolded - st.epochBase
	for i := 0; i < n; i++ {
		var rec *pendingRound
		if c.Decoding() {
			rec = st.nextPending(0)
		} else {
			rec = &st.pending[i]
		}
		c.Varint(&rec.seq)
		c.Float(&rec.usage)
		nal := len(rec.alarms)
		c.Count(&nal, maxAggSnapComps)
		c.Check(rec.seq > prevSeq && rec.seq <= st.seq, "cluster: node %s: pending round %d out of order (prev %d, head %d)",
			st.name, rec.seq, prevSeq, st.seq)
		prevSeq = rec.seq
		c.Check(aggFinite(rec.usage), "cluster: node %s round %d: non-finite usage total", st.name, rec.seq)
		if err := c.Err(); err != nil {
			return err
		}
		for j := 0; j < nal; j++ {
			var al nodeAlarm
			if !c.Decoding() {
				al = rec.alarms[j]
			}
			res := uint64(al.res)
			c.Uvarint(&res)
			c.String(&al.component)
			c.Float(&al.score)
			al.res = int(res)
			c.Check(res < uint64(len(a.resources)), "cluster: node %s round %d: alarm resource index %d out of range", st.name, rec.seq, res)
			c.Check(aggFinite(al.score), "cluster: node %s round %d: non-finite score for %q", st.name, rec.seq, al.component)
			if j > 0 {
				prev := &rec.alarms[j-1]
				unordered := al.res < prev.res || al.res == prev.res && (al.score > prev.score ||
					al.score == prev.score && al.component <= prev.component)
				c.Check(!unordered, "cluster: node %s round %d: alarms not in canonical order (%q after %q)",
					st.name, rec.seq, al.component, prev.component)
			}
			if err := c.Err(); err != nil {
				return err
			}
			if c.Decoding() {
				rec.alarms = append(rec.alarms, al)
			}
		}
	}
	return nil
}

func codecSample(c *binc.Codec, s *core.ComponentSample) error {
	c.String(&s.Component)
	c.Varint(&s.Size)
	c.Bool(&s.SizeOK)
	c.Varint(&s.Usage)
	c.Float(&s.CPUSeconds)
	c.Varint(&s.Threads)
	c.Varint(&s.Handles)
	c.Float(&s.LatencySeconds)
	c.Varint(&s.Delta)
	c.Check(aggFinite(s.CPUSeconds) && aggFinite(s.LatencySeconds), "cluster: non-finite sample measurement for %q", s.Component)
	return c.Err()
}
