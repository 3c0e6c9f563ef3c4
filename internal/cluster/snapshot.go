// Aggregator snapshot/restore: the durable-state surface that lets the
// monitoring plane survive its own death. Snapshot captures the exact
// verdict-bearing state — per-node detector banks, epoch watermarks,
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
	"sort"
	"time"

	"repro/internal/binc"
	"repro/internal/core"
	"repro/internal/detect"
)

// aggSnapMagic distinguishes an aggregator snapshot from the wire
// codec's frames and from the detect-layer snapshots it embeds.
var aggSnapMagic = [4]byte{'A', 'G', 'S', 'N'}

// aggSnapVersion versions the aggregator snapshot format.
const aggSnapVersion = 1

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

	// The detector bank, in resource order.
	for _, res := range a.resources {
		dst = st.monitors[res].AppendSnapshot(dst)
	}

	// Unconsumed per-round report snapshots and usage totals — the
	// rounds the next fold will read — in sequence order.
	seqs := make([]int64, 0, len(st.reportsAtSeq))
	for s := range st.reportsAtSeq {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	dst = binc.AppendUvarint(dst, uint64(len(seqs)))
	for _, s := range seqs {
		dst = binc.AppendVarint(dst, s)
		reps := st.reportsAtSeq[s]
		dst = binc.AppendUvarint(dst, uint64(len(reps)))
		for _, rep := range reps {
			dst = rep.AppendSnapshot(dst)
		}
	}

	seqs = seqs[:0]
	for s := range st.usageAtSeq {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	dst = binc.AppendUvarint(dst, uint64(len(seqs)))
	for _, s := range seqs {
		dst = binc.AppendVarint(dst, s)
		dst = binc.AppendFloat(dst, st.usageAtSeq[s])
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

	for _, res := range a.resources {
		mon, err := detect.RestoreMonitorSnapshot(p)
		if err != nil {
			return fmt.Errorf("cluster: node %s monitor %s: %w", st.name, res, err)
		}
		if mon.Resource() != res {
			return fmt.Errorf("cluster: node %s: snapshot monitor watches %q, want %q", st.name, mon.Resource(), res)
		}
		if mon.Config() != a.monitorConfig(res).Canonical() {
			return fmt.Errorf("cluster: node %s monitor %s: snapshot detector config differs from the aggregator's", st.name, res)
		}
		st.monitors[res] = mon
	}

	nrep := p.Count(maxAggSnapPending)
	prevSeq := int64(0)
	for i := 0; i < nrep; i++ {
		s := p.Varint()
		if p.Err() != nil {
			return p.Err()
		}
		if s <= prevSeq || s > seq {
			return fmt.Errorf("cluster: node %s: pending report seq %d out of order (prev %d, head %d)",
				st.name, s, prevSeq, seq)
		}
		prevSeq = s
		nr := p.Count(len(a.resources))
		if p.Err() == nil && nr != len(a.resources) {
			return fmt.Errorf("cluster: node %s seq %d: %d reports for %d resources", st.name, s, nr, len(a.resources))
		}
		reps := make([]*detect.Report, 0, len(a.resources))
		for _, res := range a.resources {
			rep, err := detect.RestoreReportSnapshot(p)
			if err != nil {
				return fmt.Errorf("cluster: node %s seq %d: %w", st.name, s, err)
			}
			if rep.Resource != res {
				return fmt.Errorf("cluster: node %s seq %d: report for %q, want %q", st.name, s, rep.Resource, res)
			}
			reps = append(reps, rep)
		}
		st.reportsAtSeq[s] = reps
	}

	nuse := p.Count(maxAggSnapPending)
	prevSeq = 0
	for i := 0; i < nuse; i++ {
		s := p.Varint()
		u := p.Float()
		if p.Err() != nil {
			return p.Err()
		}
		if s <= prevSeq || s > seq {
			return fmt.Errorf("cluster: node %s: pending usage seq %d out of order", st.name, s)
		}
		if !aggFinite(u) {
			return fmt.Errorf("cluster: node %s seq %d: non-finite usage total", st.name, s)
		}
		prevSeq = s
		st.usageAtSeq[s] = u
	}
	if err := p.Err(); err != nil {
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
