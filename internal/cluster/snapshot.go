// Aggregator snapshot/restore: the durable-state surface that lets the
// monitoring plane survive its own death. Snapshot captures the exact
// verdict-bearing state — per-node detector banks, the rounds each node
// has delivered but no epoch has folded yet, epoch watermarks,
// clock-normalisation state, churn/stale bookkeeping, alarm latches —
// as one versioned binary blob; Restore rebuilds a fresh aggregator
// from it so the restored plane folds the next epoch exactly as the
// dead one would have. The encoding is canonical (key-sorted maps,
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
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/binc"
	"repro/internal/core"
	"repro/internal/detect"
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
	maxAggSnapStr       = 4096
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

	dst = append(dst, aggSnapMagic[:]...)
	dst = append(dst, aggSnapVersion)

	dst = binc.AppendUvarint(dst, uint64(len(a.resources)))
	for _, res := range a.resources {
		dst = binc.AppendString(dst, res)
	}

	dst = binc.AppendVarint(dst, a.epochFolded)
	dst = binc.AppendVarint(dst, a.total.Load())
	dst = binc.AppendUvarint(dst, uint64(a.churnLeft))
	dst = binc.AppendVarint(dst, a.shiftEp)
	dst = a.guard.AppendSnapshot(dst)

	a.tlMu.Lock()
	haveBase, base, lastMerged := a.haveBase, a.base, a.lastMerged
	a.tlMu.Unlock()
	dst = binc.AppendBool(dst, haveBase)
	if haveBase {
		dst = binc.AppendVarint(dst, base.UnixNano())
		dst = binc.AppendVarint(dst, lastMerged.UnixNano())
	}

	// Alarm latches, per resource in resource order, component-sorted.
	var comps []string
	for _, res := range a.resources {
		latched := a.alarmed[res]
		comps = comps[:0]
		for c := range latched {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		dst = binc.AppendUvarint(dst, uint64(len(comps)))
		for _, c := range comps {
			dst = binc.AppendString(dst, c)
			dst = binc.AppendBool(dst, latched[c].clusterWide)
		}
	}

	a.ctlMu.Lock()
	ctlSeq := a.ctlSeq
	a.ctlMu.Unlock()
	dst = binc.AppendUvarint(dst, ctlSeq)

	// Nodes in name order (a.all is the fold's sorted mirror). Each
	// node's lane-owned state is captured under its lane lock, so a
	// concurrently ingesting node contributes either all or none of its
	// in-flight round — both valid states to restore into.
	dst = binc.AppendUvarint(dst, uint64(len(a.all)))
	for _, st := range a.all {
		st.lane.mu.Lock()
		dst = a.appendNodeSnapshot(dst, st)
		st.lane.mu.Unlock()
	}
	return dst
}

// Snapshot returns the aggregator's versioned binary state.
func (a *Aggregator) Snapshot() []byte { return a.AppendSnapshot(nil) }

// appendNodeSnapshot serialises one node. Caller holds a.foldMu (for
// the fold-owned fields) and st.lane.mu (for the lane-owned fields).
func (a *Aggregator) appendNodeSnapshot(dst []byte, st *nodeState) []byte {
	dst = binc.AppendString(dst, st.name)
	dst = binc.AppendBool(dst, st.active.Load())
	dst = binc.AppendVarint(dst, st.seq)
	dst = binc.AppendBool(dst, st.haveOffset)
	if st.haveOffset {
		dst = binc.AppendVarint(dst, int64(st.offset))
		dst = binc.AppendVarint(dst, st.lastNorm.UnixNano())
	}
	dst = binc.AppendVarint(dst, st.epochBase)
	dst = binc.AppendFloat(dst, st.prevUsage)

	// Per-component size baselines, key-sorted.
	comps := make([]string, 0, len(st.firstSize))
	for c := range st.firstSize {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	dst = binc.AppendUvarint(dst, uint64(len(comps)))
	for _, c := range comps {
		dst = binc.AppendString(dst, c)
		dst = binc.AppendVarint(dst, st.firstSize[c])
	}

	// The node's latest round snapshot, in round order.
	dst = binc.AppendUvarint(dst, uint64(len(st.lastSamples)))
	for i := range st.lastSamples {
		dst = appendSampleSnapshot(dst, &st.lastSamples[i])
	}

	// First-alarm latches, per resource in resource order, key-sorted.
	for ri := range a.resources {
		m := st.firstAlarm[ri]
		comps = comps[:0]
		for c := range m {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		dst = binc.AppendUvarint(dst, uint64(len(comps)))
		for _, c := range comps {
			dst = binc.AppendString(dst, c)
			dst = binc.AppendVarint(dst, m[c])
		}
	}

	// The detector bank.
	dst = st.bank.AppendSnapshot(dst)

	// Pending rounds — the ones the next folds will read — in sequence
	// order, each with its alarms in record order.
	dst = binc.AppendUvarint(dst, uint64(len(st.pending)))
	for i := range st.pending {
		rec := &st.pending[i]
		dst = binc.AppendVarint(dst, rec.seq)
		dst = binc.AppendFloat(dst, rec.usage)
		dst = binc.AppendUvarint(dst, uint64(len(rec.alarms)))
		for _, al := range rec.alarms {
			dst = binc.AppendUvarint(dst, uint64(al.res))
			dst = binc.AppendString(dst, al.component)
			dst = binc.AppendFloat(dst, al.score)
		}
	}
	return dst
}

func appendSampleSnapshot(dst []byte, s *core.ComponentSample) []byte {
	dst = binc.AppendString(dst, s.Component)
	dst = binc.AppendVarint(dst, s.Size)
	dst = binc.AppendBool(dst, s.SizeOK)
	dst = binc.AppendVarint(dst, s.Usage)
	dst = binc.AppendFloat(dst, s.CPUSeconds)
	dst = binc.AppendVarint(dst, s.Threads)
	dst = binc.AppendVarint(dst, s.Handles)
	dst = binc.AppendFloat(dst, s.LatencySeconds)
	dst = binc.AppendVarint(dst, s.Delta)
	return dst
}

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

	p := binc.NewParser(data)
	var magic [4]byte
	for i := range magic {
		magic[i] = p.Byte()
	}
	if p.Err() == nil && magic != aggSnapMagic {
		return fmt.Errorf("cluster: not an aggregator snapshot (magic %x)", magic)
	}
	if v := p.Byte(); p.Err() == nil && v != aggSnapVersion {
		return fmt.Errorf("cluster: aggregator snapshot v%d: %w", v, binc.ErrVersion)
	}

	nres := p.Count(maxAggSnapResources)
	if err := p.Err(); err != nil {
		return err
	}
	if nres != len(a.resources) {
		return fmt.Errorf("cluster: snapshot has %d resources, aggregator watches %d", nres, len(a.resources))
	}
	for _, res := range a.resources {
		if got := p.String(maxAggSnapStr); p.Err() == nil && got != res {
			return fmt.Errorf("cluster: snapshot resource %q, aggregator watches %q", got, res)
		}
	}

	epochFolded := p.Varint()
	total := p.Varint()
	churnLeft := p.Count(maxAggSnapChurn)
	shiftEp := p.Varint()
	if err := p.Err(); err != nil {
		return err
	}
	if epochFolded < 0 || epochFolded > maxAggSnapCounter ||
		total < 0 || total > maxAggSnapCounter ||
		shiftEp < 0 || shiftEp > maxAggSnapCounter {
		return fmt.Errorf("cluster: snapshot counter out of range (epoch=%d rounds=%d shift=%d)",
			epochFolded, total, shiftEp)
	}
	if err := a.guard.RestoreSnapshot(p); err != nil {
		return err
	}

	haveBase := p.Bool()
	var base, lastMerged time.Time
	if haveBase {
		base = time.Unix(0, p.Varint()).UTC()
		lastMerged = time.Unix(0, p.Varint()).UTC()
		if p.Err() == nil && lastMerged.Before(base) {
			return fmt.Errorf("cluster: merged timeline runs backwards in snapshot")
		}
	}

	type latchKey struct{ res, comp string }
	latches := make(map[latchKey]bool)
	for _, res := range a.resources {
		n := p.Count(maxAggSnapComps)
		prev := ""
		for i := 0; i < n; i++ {
			c := p.String(maxAggSnapStr)
			cw := p.Bool()
			if p.Err() != nil {
				return p.Err()
			}
			if i > 0 && c <= prev {
				return fmt.Errorf("cluster: alarm latches not sorted (%q after %q)", c, prev)
			}
			prev = c
			latches[latchKey{res, c}] = cw
		}
	}

	ctlSeq := p.Uvarint()
	nnodes := p.Count(maxAggSnapNodes)
	if err := p.Err(); err != nil {
		return err
	}

	// Header validated: apply, then build nodes through the normal
	// registration path and overwrite their state.
	a.epochFolded = epochFolded
	a.epoch.Store(epochFolded)
	a.total.Store(total)
	a.churnLeft = churnLeft
	a.shiftEp = shiftEp
	a.tlMu.Lock()
	a.haveBase, a.base, a.lastMerged = haveBase, base, lastMerged
	a.tlMu.Unlock()
	for k, cw := range latches {
		a.alarmed[k.res][k.comp] = &latchedAlarm{clusterWide: cw}
	}
	a.ctlMu.Lock()
	a.ctlSeq = ctlSeq
	a.ctlMu.Unlock()

	prev := ""
	for i := 0; i < nnodes; i++ {
		name := p.String(maxAggSnapStr)
		if err := p.Err(); err != nil {
			return err
		}
		if name == "" || (i > 0 && name <= prev) {
			return fmt.Errorf("cluster: snapshot nodes not name-sorted (%q after %q)", name, prev)
		}
		prev = name
		st := a.newNodeState(name)
		st.lane.mu.Lock()
		err := a.restoreNodeLocked(p, st)
		st.lane.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return p.Done()
}

// restoreNodeLocked rebuilds one freshly registered node from the
// parser. Caller holds a.foldMu and st.lane.mu.
func (a *Aggregator) restoreNodeLocked(p *binc.Parser, st *nodeState) error {
	active := p.Bool()
	seq := p.Varint()
	if p.Err() == nil && (seq < 0 || seq > maxAggSnapCounter) {
		return fmt.Errorf("cluster: node %s: round sequence %d out of range", st.name, seq)
	}
	haveOffset := p.Bool()
	if p.Err() == nil && haveOffset != (seq > 0) {
		return fmt.Errorf("cluster: node %s: clock offset state inconsistent with %d rounds", st.name, seq)
	}
	var offset time.Duration
	var lastNorm time.Time
	if haveOffset {
		offset = time.Duration(p.Varint())
		lastNorm = time.Unix(0, p.Varint()).UTC()
	}
	epochBase := p.Varint()
	if p.Err() == nil {
		// Bound the node's cluster epoch: non-negative, and for an
		// active node never far enough past the fold watermark that the
		// restored plane would spin folding a fabricated epoch gap. Real
		// snapshots sit well inside both bounds (an active node can only
		// run ahead of the watermark while another lags, and laggards
		// are evicted after StaleEpochs).
		epoch := epochBase + seq
		if epochBase < -maxAggSnapCounter || epochBase > maxAggSnapCounter || epoch < 0 {
			return fmt.Errorf("cluster: node %s: epoch base %d out of range", st.name, epochBase)
		}
		if active && epoch > a.epochFolded+maxAggSnapPending {
			return fmt.Errorf("cluster: node %s: epoch %d implausibly far past watermark %d",
				st.name, epoch, a.epochFolded)
		}
	}
	prevUsage := p.Float()
	if p.Err() == nil && !aggFinite(prevUsage) {
		return fmt.Errorf("cluster: node %s: non-finite usage baseline", st.name)
	}

	nsz := p.Count(maxAggSnapComps)
	prevComp := ""
	for i := 0; i < nsz; i++ {
		c := p.String(maxAggSnapStr)
		v := p.Varint()
		if p.Err() != nil {
			return p.Err()
		}
		if i > 0 && c <= prevComp {
			return fmt.Errorf("cluster: node %s: size baselines not sorted", st.name)
		}
		prevComp = c
		st.firstSize[c] = v
	}

	nsam := p.Count(maxAggSnapSamples)
	if p.Err() == nil && nsam > 0 {
		st.lastSamples = make([]core.ComponentSample, nsam)
		for i := range st.lastSamples {
			if err := restoreSampleSnapshot(p, &st.lastSamples[i]); err != nil {
				return fmt.Errorf("cluster: node %s: %w", st.name, err)
			}
		}
	}

	for ri := range a.resources {
		n := p.Count(maxAggSnapComps)
		prevComp = ""
		var m map[string]int64
		if p.Err() == nil && n > 0 {
			m = make(map[string]int64, n)
		}
		for i := 0; i < n; i++ {
			c := p.String(maxAggSnapStr)
			ep := p.Varint()
			if p.Err() != nil {
				return p.Err()
			}
			if i > 0 && c <= prevComp {
				return fmt.Errorf("cluster: node %s: first-alarm latches not sorted", st.name)
			}
			prevComp = c
			m[c] = ep
		}
		st.firstAlarm[ri] = m
	}

	bank, err := detect.RestoreBankSnapshot(p)
	if err != nil {
		return fmt.Errorf("cluster: node %s bank: %w", st.name, err)
	}
	if !slices.Equal(bank.Columns(), st.bank.Columns()) {
		return fmt.Errorf("cluster: node %s: snapshot detector columns or config differ from the aggregator's", st.name)
	}
	st.bank = bank

	if err := a.restorePendingLocked(p, st, active, seq, epochBase); err != nil {
		return err
	}

	st.seq = seq
	st.offset = offset
	st.haveOffset = haveOffset
	st.lastNorm = lastNorm
	st.epochBase = epochBase
	st.prevUsage = prevUsage
	st.active.Store(active)
	st.seqA.Store(seq)
	st.epochA.Store(epochBase + seq)
	return nil
}

// restorePendingLocked reads one node's pending rounds. They must be
// canonical — strictly increasing sequences past the last folded epoch
// and at most the node's head, alarms in resource order and, within a
// resource, highest score first with ties by component — and only an
// active node may hold any. Caller holds a.foldMu and st.lane.mu.
func (a *Aggregator) restorePendingLocked(p *binc.Parser, st *nodeState, active bool, head, epochBase int64) error {
	n := p.Count(maxAggSnapPending)
	if p.Err() == nil && n > 0 && !active {
		return fmt.Errorf("cluster: node %s: inactive node holds %d pending rounds", st.name, n)
	}
	prevSeq := a.epochFolded - epochBase
	for i := 0; i < n; i++ {
		rec := st.nextPending(p.Varint())
		rec.usage = p.Float()
		nal := p.Count(maxAggSnapComps)
		if p.Err() != nil {
			return p.Err()
		}
		if rec.seq <= prevSeq || rec.seq > head {
			return fmt.Errorf("cluster: node %s: pending round %d out of order (prev %d, head %d)",
				st.name, rec.seq, prevSeq, head)
		}
		prevSeq = rec.seq
		if !aggFinite(rec.usage) {
			return fmt.Errorf("cluster: node %s round %d: non-finite usage total", st.name, rec.seq)
		}
		for j := 0; j < nal; j++ {
			res := p.Uvarint()
			al := nodeAlarm{res: int(res), component: p.String(maxAggSnapStr)}
			al.score = p.Float()
			if p.Err() != nil {
				return p.Err()
			}
			if res >= uint64(len(a.resources)) {
				return fmt.Errorf("cluster: node %s round %d: alarm resource index %d out of range", st.name, rec.seq, res)
			}
			if !aggFinite(al.score) {
				return fmt.Errorf("cluster: node %s round %d: non-finite score for %q", st.name, rec.seq, al.component)
			}
			if j > 0 {
				prev := &rec.alarms[j-1]
				if al.res < prev.res || al.res == prev.res && (al.score > prev.score ||
					al.score == prev.score && al.component <= prev.component) {
					return fmt.Errorf("cluster: node %s round %d: alarms not in canonical order (%q after %q)",
						st.name, rec.seq, al.component, prev.component)
				}
			}
			rec.alarms = append(rec.alarms, al)
		}
	}
	return p.Err()
}

func restoreSampleSnapshot(p *binc.Parser, s *core.ComponentSample) error {
	s.Component = p.String(maxAggSnapStr)
	s.Size = p.Varint()
	s.SizeOK = p.Bool()
	s.Usage = p.Varint()
	s.CPUSeconds = p.Float()
	s.Threads = p.Varint()
	s.Handles = p.Varint()
	s.LatencySeconds = p.Float()
	s.Delta = p.Varint()
	if err := p.Err(); err != nil {
		return err
	}
	if !aggFinite(s.CPUSeconds) || !aggFinite(s.LatencySeconds) {
		return fmt.Errorf("cluster: non-finite sample measurement for %q", s.Component)
	}
	return nil
}
