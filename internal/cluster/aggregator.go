package cluster

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/jmx"
	"repro/internal/rootcause"
)

// NotifClusterAlarm is the notification type the aggregator emits when a
// (node, component) pair starts or stops alarming, or when a verdict is
// promoted to cluster-wide.
const NotifClusterAlarm = "aging.cluster.alarm"

// Config tunes an Aggregator. The zero value selects the documented
// defaults.
type Config struct {
	// Detect tunes the per-node detector banks (same semantics as the
	// single-node manager: see core.ResourceDetectorConfigs). Its
	// Shift* fields also tune the cluster-level node-mix guard.
	Detect detect.Config
	// Quorum is the fraction of active nodes that must alarm on the same
	// component before the verdict is cluster-wide rather than
	// node-local (default 0.5: strictly more than half). Cluster-wide
	// promotion needs at least two active nodes.
	Quorum float64
	// StaleEpochs is how many epochs a node may lag behind the most
	// advanced node before it is considered gone and marked inactive
	// (default 3). Epoch completion never stalls on a dead node.
	StaleEpochs int
	// ChurnHold is how many completed epochs cluster verdict promotion
	// stays suppressed after a membership change — a join or leave
	// redistributes traffic, which must not read as aging (default 5).
	ChurnHold int
	// IngestLanes is how many hash-striped ingest lanes node state is
	// spread over (default 32). Concurrent publishers contend only when
	// their nodes share a lane; 1 degenerates to a single ingest lock,
	// the serial reference configuration for parity tests. Verdicts do
	// not depend on the lane count.
	IngestLanes int
	// FoldWorkers bounds the worker pool the epoch fold spreads its
	// per-resource verdict assembly over (default GOMAXPROCS, capped at
	// the resource count). 1 folds inline on the completing publisher's
	// goroutine. Verdicts do not depend on the worker count.
	FoldWorkers int
	// LaneQueueDepth bounds how many publishers may occupy one ingest
	// lane at once — admitted and executing, or parked on the lane lock
	// (default 1024). A round arriving at a full lane is shed and
	// counted (ShedRounds) instead of parking another goroutine: under
	// a round storm the monitoring plane's memory stays bounded, and a
	// shed round looks to the rest of the plane exactly like a lost
	// frame — the node's sequence gaps and the epoch folds without it.
	LaneQueueDepth int
	// NotifCap bounds the pending cluster-alarm notification queue
	// (the DrainNotifications backlog, default 4096). When the owner
	// stops draining, transitions beyond the cap are dropped newest
	// and counted (DroppedNotifications) — the queue must never become
	// the unbounded buffer that takes the monitor down with its
	// consumer.
	NotifCap int
}

func (c Config) withDefaults() Config {
	if c.Quorum <= 0 || c.Quorum >= 1 {
		c.Quorum = 0.5
	}
	if c.StaleEpochs <= 0 {
		c.StaleEpochs = 3
	}
	if c.ChurnHold <= 0 {
		c.ChurnHold = 5
	}
	if c.IngestLanes <= 0 {
		c.IngestLanes = 32
	}
	if c.FoldWorkers <= 0 {
		c.FoldWorkers = runtime.GOMAXPROCS(0)
	}
	if n := len(core.DetectorResources); c.FoldWorkers > n {
		c.FoldWorkers = n
	}
	if c.LaneQueueDepth <= 0 {
		c.LaneQueueDepth = 1024
	}
	if c.NotifCap <= 0 {
		c.NotifCap = 4096
	}
	return c
}

// ingestLane is one stripe of the sharded ingest plane: the node states
// whose names hash onto it, behind the lane lock their rounds are folded
// in under. Publishes for nodes on different lanes never contend.
type ingestLane struct {
	mu    sync.Mutex
	nodes map[string]*nodeState
	// queued is the lane's admission counter: publishers currently
	// admitted (executing or parked on mu). Ingest increments it before
	// taking the lock and sheds the round when it would exceed
	// Config.LaneQueueDepth, bounding how many goroutines a storm can
	// pile onto one lane.
	queued atomic.Int64
}

// nodeState is the aggregator's view of one node.
//
// Ownership: fields in the first block are written only during the
// node's own Ingest under the owning lane's lock (the fold stage takes
// the lane lock too when it reads or releases per-seq snapshots); fields
// in the second block are written only under the aggregator's fold lock;
// the atomics publish the node's externally visible counters to lock-free
// readers.
type nodeState struct {
	name string
	lane *ingestLane

	// Lane-owned (written by the node's Ingest under lane.mu).
	seq int64 // highest node-local round ingested
	// offset normalises the node's local clock onto the aggregator's
	// merged timeline; it is fixed at the node's first round.
	offset     time.Duration
	haveOffset bool
	lastNorm   time.Time

	monitors map[string]*detect.Monitor
	// reportsAtSeq snapshots each round's per-resource reports (indexed
	// in the aggregator's resource order) until the epoch that consumes
	// them completes, so verdict assembly reads every node at the same
	// epoch no matter how transports interleave. The monitors' report
	// retention is sized to cover the longest an epoch can lag
	// (StaleEpochs), so the snapshots stay valid without cloning; the
	// slices themselves recycle through repsFree.
	reportsAtSeq map[int64][]*detect.Report
	repsFree     [][]*detect.Report
	// usageAtSeq records the round's total cumulative usage, the input
	// to the cluster-level node-mix guard.
	usageAtSeq map[int64]float64

	// lastSamples is the node's reusable copy of its latest round;
	// obsScratch is the per-round observation projection buffer.
	lastSamples []core.ComponentSample
	obsScratch  []detect.Observation
	firstSize   map[string]int64 // per-component size baseline

	// Fold-owned (written only under the aggregator's foldMu).
	//
	// epochBase aligns the node's local sequence with the cluster epoch
	// counter: node round s carries cluster epoch epochBase + s. It is
	// written under foldMu AND the lane lock (join/rejoin happen on the
	// slow ingest path, which holds both), so either lock alone makes it
	// safe to read.
	epochBase int64
	prevUsage float64 // usage total at the last completed epoch
	// firstAlarm latches, per resource (aggregator resource order) and
	// component, the cluster epoch at which the node's verdict first
	// alarmed — recorded at fold time, because deriving it from the
	// detector's round counter breaks whenever the epoch base moves
	// (rejoin) or the sequence gaps (publish failures). Indexed by
	// resource so parallel fold workers touch disjoint maps.
	firstAlarm []map[string]int64

	// Lock-free views for read paths and the epoch watermark check.
	// active flips only under foldMu (join/rejoin on the slow ingest
	// path, Leave, staleness eviction); seqA/epochA publish at the end
	// of each ingested round, after the round's snapshots are recorded.
	active atomic.Bool
	seqA   atomic.Int64
	epochA atomic.Int64
}

// NodeStatus is one node's externally visible state.
type NodeStatus struct {
	// Node is the node identity.
	Node string
	// Active reports whether the node is currently part of the cluster
	// (publishing rounds and counted in quorums).
	Active bool
	// Rounds is how many rounds the node has contributed.
	Rounds int64
	// Epoch is the cluster epoch of the node's latest round.
	Epoch int64
}

// ClusterVerdict is one alarming component across the cluster.
type ClusterVerdict struct {
	// Resource names the watched resource.
	Resource string
	// Component is the alarming component.
	Component string
	// Nodes lists the alarming nodes, sorted.
	Nodes []string
	// ActiveNodes is the cluster size the quorum was taken over.
	ActiveNodes int
	// ClusterWide is true when more than the quorum fraction of active
	// nodes alarm on the component — uniform aging, not a sick replica.
	ClusterWide bool
	// Score is the highest per-node detector score.
	Score float64
	// FirstEpoch is the earliest cluster epoch at which any node first
	// alarmed on the component.
	FirstEpoch int64
	// ChangePoint is true when any alarming node attributes the alarm to
	// a level shift rather than a trend.
	ChangePoint bool
}

// Pair renders the verdict's (node, component) attribution: the single
// sick node for a node-local verdict, "cluster" when cluster-wide.
func (v ClusterVerdict) Pair() string {
	if v.ClusterWide {
		return "cluster/" + v.Component
	}
	return strings.Join(v.Nodes, "+") + "/" + v.Component
}

// ClusterReport is the aggregator's published state for one resource
// after a completed epoch.
type ClusterReport struct {
	// Resource names the watched resource.
	Resource string
	// Epoch is the completed cluster epoch the report reflects.
	Epoch int64
	// Time is the epoch's instant on the merged (normalised) timeline.
	Time time.Time
	// Active and Total count cluster membership.
	Active, Total int
	// Suppressed is true while cluster verdict promotion is held down by
	// the node-mix guard or a recent membership change.
	Suppressed bool
	// ShiftDistance is the node-mix guard's latest total-variation
	// distance (how much the balancer's traffic split moved).
	ShiftDistance float64
	// ShiftEpochs counts epochs spent suppressed by the node-mix guard.
	ShiftEpochs int64
	// Churning is true while a recent join/leave holds promotion down.
	Churning bool
	// Verdicts lists alarming components, highest score first.
	Verdicts []ClusterVerdict
}

// Alarming reports whether any verdict is present.
func (r *ClusterReport) Alarming() bool { return len(r.Verdicts) > 0 }

// Top returns the highest-scoring verdict.
func (r *ClusterReport) Top() (ClusterVerdict, bool) {
	if len(r.Verdicts) == 0 {
		return ClusterVerdict{}, false
	}
	return r.Verdicts[0], true
}

// String renders the report.
func (r *ClusterReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster[%s] epoch=%d nodes=%d/%d suppressed=%v shift=%.3f\n",
		r.Resource, r.Epoch, r.Active, r.Total, r.Suppressed, r.ShiftDistance)
	for i, v := range r.Verdicts {
		scope := "node-local"
		if v.ClusterWide {
			scope = "cluster-wide"
		}
		cp := ""
		if v.ChangePoint {
			cp = " level-shift"
		}
		fmt.Fprintf(&b, "%2d. %-34s %-12s score=%10.4g since-epoch=%d%s\n",
			i+1, v.Pair(), scope, v.Score, v.FirstEpoch, cp)
	}
	return b.String()
}

// Aggregator merges sampling rounds from N node collectors into per-node
// and cluster-level aging verdicts. See the package comment for the
// concurrency contract.
//
// Lock hierarchy (acquire strictly downward, release before acquiring a
// peer):
//
//	epochDeliverMu > foldMu (epoch events deliver after the fold lock is
//	                         released, so a subscriber may re-enter the
//	                         aggregator — ResetNode, SendControl)
//	foldMu > lane.mu > tlMu
//	foldMu > regMu(W)
//	regMu(R) > lane.mu (read paths only; nothing holding a lane lock
//	                    ever waits on regMu)
//	ctlMu and epochSubMu are leaves: nothing is acquired under them
//
// The steady-state ingest path touches only its node's lane lock and the
// short tlMu high-water compare; foldMu is taken only by the round
// that completes an epoch (the watermark gate), by joins/leaves, and by
// staleness eviction.
type Aggregator struct {
	cfg       Config
	resources []string
	configs   map[string]detect.Config

	lanes    []ingestLane
	laneSeed maphash.Seed

	// regMu guards the read-side membership registry (sorted order and
	// name lookup). Written only at node creation (under foldMu).
	regMu  sync.RWMutex
	byName map[string]*nodeState
	order  []string

	// foldMu serialises epoch-watermark advancement: completing epochs,
	// folding them into cluster reports, and every membership
	// transition (join, rejoin, leave, eviction). all is the fold's
	// sorted mirror of the registry — foldMu-owned, so the fold loop
	// iterates it without touching regMu.
	foldMu      sync.Mutex
	all         []*nodeState
	epochFolded int64
	guard       *detect.ShiftGuard
	churnLeft   int
	shiftEp     int64
	foldNodes   []foldNode     // per-epoch scratch: active nodes' snapshots
	foldNames   []string       // per-epoch scratch: nodes with a usage total this epoch...
	foldDeltas  []float64      // ...and the usage each gained, parallel
	foldScratch []resourceFold // per-resource reusable verdict-assembly state

	// Lock-free counters for the read paths and the watermark gate.
	epoch atomic.Int64 // latest folded epoch (mirrors epochFolded)
	total atomic.Int64 // rounds ingested

	// Overload-protection counters: rounds shed at a full ingest lane
	// and notifications dropped at a full pending queue. Transient
	// operational stats, deliberately outside the snapshot format — a
	// restored plane starts its overload history fresh.
	shed         atomic.Int64
	notifDropped atomic.Int64

	// Verdict-publication latency: wall nanoseconds from an epoch's
	// completion to its reports being published (one foldEpoch call).
	// Written only under foldMu; read lock-free by FoldLatency.
	foldLastNanos atomic.Int64
	foldMaxNanos  atomic.Int64

	// tlMu guards the merged timeline: the normalisation base and the
	// high-water merged instant the fold stamps its reports with.
	tlMu       sync.Mutex
	base       time.Time // merged-timeline origin (first round's instant)
	haveBase   bool
	lastMerged time.Time

	// repMu guards the published per-resource report map. The rings the
	// reports recycle through are foldMu-owned.
	repMu   sync.RWMutex
	reports map[string]*ClusterReport

	// reportRing recycles the published per-resource ClusterReports the
	// way detect.Monitor recycles its Reports: foldEpoch rotates each
	// resource's reports through a fixed ring instead of allocating one
	// per epoch. A *ClusterReport from Report stays valid for
	// retention-1 further epochs; a consumer keeping one longer must
	// copy it. Indexed by resource index so parallel fold workers touch
	// disjoint slots. Owned by foldMu.
	reportRing [][]*ClusterReport
	ringIdx    []int
	retention  int

	// alarm bookkeeping for notification transitions: resource ->
	// component -> latched scope. Latched by component, not by the
	// alarming node set — the set of flagged nodes may churn while the
	// component keeps aging, and that must not read as clear/raise.
	// Owned by foldMu (the outer map is pre-populated per resource so
	// parallel fold workers touch disjoint inner maps); the pending
	// queue has its own mutex so DrainNotifications never blocks on a
	// fold in progress.
	alarmed map[string]map[string]*latchedAlarm

	notifMu sync.Mutex
	pending []jmx.Notification

	// Epoch-event subscription: the actuation controller's verdict feed.
	// Events queue under foldMu — only when subscribers exist, so plain
	// deployments' folds stay allocation-free — and deliver after foldMu
	// is released, in epoch order under the delivery mutex.
	epochSubMu     sync.Mutex
	epochSubs      []func(EpochEvent)
	epochPending   []EpochEvent
	epochDeliverMu sync.Mutex

	// Control plane (control.go): command sequencing, local handler
	// bindings, learned wire routes and in-flight wire commands.
	ctlMu      sync.Mutex
	ctlSeq     uint64
	ctlLocal   map[string]ControlHandler
	ctlConns   map[string]*controlConn
	ctlPending map[uint64]*pendingControl
}

// foldNode is one active node's snapshot for the epoch being folded.
type foldNode struct {
	st   *nodeState
	seq  int64
	reps []*detect.Report
}

// verdictAgg accumulates one component's per-node alarms during verdict
// assembly. Recycled per resource via resourceFold.
type verdictAgg struct {
	nodes       []string
	score       float64
	firstEpoch  int64
	changePoint bool
}

// resourceFold is one resource's reusable verdict-assembly scratch, so
// the steady-state fold allocates nothing beyond the verdicts it
// publishes.
type resourceFold struct {
	byComponent map[string]*verdictAgg
	aggFree     []*verdictAgg
	compOrder   []string
	seen        map[string]bool
	cleared     []string
	notifs      []jmx.Notification
	rep         *ClusterReport // the report this epoch's fold assembled
}

// latchedAlarm is the notification latch for one alarming component.
type latchedAlarm struct {
	clusterWide bool
}

// New creates an aggregator.
func New(cfg Config) *Aggregator {
	cfg = cfg.withDefaults()
	d := cfg.Detect
	// Cluster reports recycle on the same retention terms as the node
	// monitors' rings (see newNodeState).
	retention := d.ReportRetention
	if retention <= 0 {
		retention = detect.DefaultReportRetention
	}
	if min := cfg.StaleEpochs + 3; retention < min {
		retention = min
	}
	a := &Aggregator{
		cfg:       cfg,
		resources: append([]string(nil), core.DetectorResources...),
		configs:   core.ResourceDetectorConfigs(d),
		lanes:     make([]ingestLane, cfg.IngestLanes),
		laneSeed:  maphash.MakeSeed(),
		byName:    make(map[string]*nodeState),
		guard:     detect.NewShiftGuardMargin(d.ShiftThreshold, d.ShiftHold, d.ShiftEWMA, d.ShiftNoiseMargin),
		reports:   make(map[string]*ClusterReport),
		retention: retention,
		alarmed:   make(map[string]map[string]*latchedAlarm),

		ctlLocal:   make(map[string]ControlHandler),
		ctlConns:   make(map[string]*controlConn),
		ctlPending: make(map[uint64]*pendingControl),
	}
	for i := range a.lanes {
		a.lanes[i].nodes = make(map[string]*nodeState)
	}
	a.reportRing = make([][]*ClusterReport, len(a.resources))
	a.ringIdx = make([]int, len(a.resources))
	a.foldScratch = make([]resourceFold, len(a.resources))
	for ri, res := range a.resources {
		ring := make([]*ClusterReport, retention)
		for i := range ring {
			ring[i] = &ClusterReport{}
		}
		a.reportRing[ri] = ring
		a.alarmed[res] = make(map[string]*latchedAlarm)
		a.foldScratch[ri] = resourceFold{
			byComponent: make(map[string]*verdictAgg),
			seen:        make(map[string]bool),
		}
	}
	return a
}

// laneFor maps a node name onto its ingest lane.
func (a *Aggregator) laneFor(node string) *ingestLane {
	h := maphash.String(a.laneSeed, node)
	return &a.lanes[h%uint64(len(a.lanes))]
}

// nextReport rotates a resource's report ring and returns the next slot
// reset for the coming epoch (the Verdicts buffer is kept). Caller holds
// a.foldMu; parallel fold workers call it for disjoint resource indices.
func (a *Aggregator) nextReport(ri int) *ClusterReport {
	ring := a.reportRing[ri]
	i := a.ringIdx[ri]
	a.ringIdx[ri] = (i + 1) % len(ring)
	rep := ring[i]
	*rep = ClusterReport{Resource: a.resources[ri], Verdicts: rep.Verdicts[:0]}
	return rep
}

// monitorConfig returns one resource's detector config with the report
// retention floored so the epoch fold can still read snapshots up to
// StaleEpochs rounds old when they are consumed.
func (a *Aggregator) monitorConfig(res string) detect.Config {
	cfg := a.configs[res]
	if cfg.ReportRetention <= 0 {
		cfg.ReportRetention = detect.DefaultReportRetention
	}
	if min := a.cfg.StaleEpochs + 3; cfg.ReportRetention < min {
		cfg.ReportRetention = min
	}
	return cfg
}

// newNodeState creates and registers the aggregator's state for one
// node. Caller holds a.foldMu (and not the node's lane lock — the
// registry and lane insertions take their own locks here).
func (a *Aggregator) newNodeState(name string) *nodeState {
	lane := a.laneFor(name)
	st := &nodeState{
		name:         name,
		lane:         lane,
		monitors:     make(map[string]*detect.Monitor, len(a.resources)),
		reportsAtSeq: make(map[int64][]*detect.Report),
		usageAtSeq:   make(map[int64]float64),
		firstSize:    make(map[string]int64),
		firstAlarm:   make([]map[string]int64, len(a.resources)),
	}
	for _, res := range a.resources {
		st.monitors[res] = detect.NewMonitor(res, a.monitorConfig(res))
	}
	i := sort.SearchStrings(a.order, name)
	a.all = append(a.all, nil)
	copy(a.all[i+1:], a.all[i:])
	a.all[i] = st

	a.regMu.Lock()
	a.byName[name] = st
	a.order = append(a.order, "")
	copy(a.order[i+1:], a.order[i:])
	a.order[i] = name
	a.regMu.Unlock()

	lane.mu.Lock()
	lane.nodes[name] = st
	lane.mu.Unlock()
	return st
}

// Expect pre-registers the cluster's initial membership as active nodes.
// Without it a node joins on its first round and is aligned to whatever
// epoch the cluster has already reached — correct, but dependent on
// arrival order, so two transports could align the same nodes one epoch
// apart. Pre-registering pins every expected node to epoch base zero,
// making epoch alignment (and therefore every cluster verdict) a pure
// function of the rounds, not of transport timing. Call it before the
// first round arrives; expecting an already-known node is a no-op.
func (a *Aggregator) Expect(nodes ...string) {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	for _, name := range nodes {
		if name == "" {
			continue
		}
		a.regMu.RLock()
		known := a.byName[name] != nil
		a.regMu.RUnlock()
		if known {
			continue
		}
		st := a.newNodeState(name)
		st.active.Store(true)
	}
}

// Ingest absorbs one node round: it normalises the node's clock onto the
// merged timeline, feeds the node's detector bank, and completes any
// cluster epochs the round finishes. Safe for concurrent use across
// nodes; per-node rounds must arrive in order (stale sequence numbers
// are dropped). The steady-state path runs entirely on the node's
// ingest lane; only the round that completes an epoch takes the fold
// lock.
func (a *Aggregator) Ingest(r Round) {
	if r.Node == "" || r.Seq <= 0 {
		return
	}
	lane := a.laneFor(r.Node)
	// Admission gate: bound the publishers one lane can absorb. The
	// slot is held until this call returns — through a fold, if this
	// round completes an epoch — so the counter reflects true
	// occupancy, and a storm sheds instead of parking goroutines
	// without bound.
	if lane.queued.Add(1) > int64(a.cfg.LaneQueueDepth) {
		lane.queued.Add(-1)
		a.shed.Add(1)
		return
	}
	defer lane.queued.Add(-1)
	lane.mu.Lock()
	st := lane.nodes[r.Node]
	if st != nil && r.Seq <= st.seq {
		// Duplicate or reordered round; per-node order is the contract.
		// Checked before the rejoin branch so a stale frame can never
		// undo a Leave.
		lane.mu.Unlock()
		return
	}
	if st == nil || !st.active.Load() {
		lane.mu.Unlock()
		a.ingestSlow(lane, r)
		return
	}
	epoch := a.ingestLocked(st, r)
	lane.mu.Unlock()
	a.maybeFold(epoch)
}

// ingestSlow handles the rare ingest cases that change membership — a
// node's first-ever round, or a round that rejoins a left/evicted node —
// under the fold lock, since epoch alignment and the churn hold are fold
// state.
func (a *Aggregator) ingestSlow(lane *ingestLane, r Round) {
	a.foldMu.Lock()
	a.ingestSlowLocked(lane, r)
	a.foldMu.Unlock()
	a.deliverEpochEvents()
}

func (a *Aggregator) ingestSlowLocked(lane *ingestLane, r Round) {
	lane.mu.Lock()
	st := lane.nodes[r.Node]
	lane.mu.Unlock()
	if st == nil {
		st = a.newNodeState(r.Node)
	}

	lane.mu.Lock()
	if r.Seq <= st.seq {
		lane.mu.Unlock()
		return
	}
	if !st.active.Load() {
		// Join (or rejoin): align the node's sequence with the current
		// epoch and hold cluster promotion down while traffic resettles.
		st.active.Store(true)
		st.epochBase = a.epochFolded - st.seq
		a.churnLeft = a.cfg.ChurnHold
	}
	a.ingestLocked(st, r)
	lane.mu.Unlock()
	a.completeEpochs()
}

// ingestLocked folds one in-order round into the node's lane state and
// returns the cluster epoch the round carries. Caller holds the node's
// lane lock; the foldMu-owned epochBase is stable here because
// join/rejoin (its only writers) hold this lane lock too.
func (a *Aggregator) ingestLocked(st *nodeState, r Round) int64 {
	st.seq = r.Seq

	// Clock normalisation: the node's first round pins its offset to the
	// merged timeline (the cluster "present" for late joiners), after
	// which its own monotone clock carries it. A defensive clamp keeps
	// both the per-node and the merged sequences ordered even if a node
	// clock misbehaves.
	if !st.haveOffset {
		a.tlMu.Lock()
		if !a.haveBase {
			a.base = r.Time
			a.lastMerged = r.Time
			a.haveBase = true
		}
		st.offset = r.Time.Sub(a.lastMerged)
		st.haveOffset = true
		st.lastNorm = a.lastMerged
		a.tlMu.Unlock()
	}
	norm := r.Time.Add(-st.offset)
	if !norm.After(st.lastNorm) {
		norm = st.lastNorm.Add(time.Millisecond)
	}
	st.lastNorm = norm

	// Feed the node's detectors and snapshot the reports for the epoch
	// that will consume this round. The report-slice snapshots and the
	// observation projection recycle through node-owned buffers; the
	// monitors themselves are allocation-free per round.
	var reps []*detect.Report
	if k := len(st.repsFree); k > 0 {
		reps = st.repsFree[k-1][:0]
		st.repsFree = st.repsFree[:k-1]
	} else {
		reps = make([]*detect.Report, 0, len(a.resources))
	}
	for _, res := range a.resources {
		st.obsScratch = core.AppendObservations(st.obsScratch[:0], res, r.Samples)
		reps = append(reps, st.monitors[res].Observe(norm, st.obsScratch))
	}
	st.reportsAtSeq[r.Seq] = reps

	var usageTotal float64
	for _, s := range r.Samples {
		usageTotal += float64(s.Usage)
		if s.SizeOK {
			if _, ok := st.firstSize[s.Component]; !ok {
				st.firstSize[s.Component] = s.Size
			}
		}
	}
	st.usageAtSeq[r.Seq] = usageTotal

	// The round's samples are borrowed (a collector round buffer or a
	// wire decoder's reuse buffer): copy them into the node's reusable
	// last-round snapshot.
	st.lastSamples = append(st.lastSamples[:0], r.Samples...)

	a.tlMu.Lock()
	if !norm.Before(a.lastMerged) {
		a.lastMerged = norm
	}
	a.tlMu.Unlock()

	// Publish the node's epoch watermark after the round's snapshots are
	// recorded: a fold that sees the new epoch will also find the
	// snapshots it implies (it re-synchronises on this lane's lock before
	// reading them).
	epoch := st.epochBase + r.Seq
	st.seqA.Store(r.Seq)
	st.epochA.Store(epoch)
	// Count the round last: Quiesce reads the count without the lane
	// lock, and its SyncFolds must find the watermark of every round it
	// has seen counted.
	a.total.Add(1)
	return epoch
}

// maybeFold takes the fold lock and completes epochs only when the round
// that just ingested can have made an epoch completable: it carries the
// epoch right after the watermark, or it has run far enough ahead to
// trigger staleness eviction. Everything else returns without touching
// shared fold state — the gate is what shrinks the old global mutex to
// epoch-watermark advancement.
//
// The gate is race-free without the lock: the publisher stores its
// node's epochA before loading the watermark, and the folder stores the
// watermark before re-scanning the nodes' epochA values, so for any
// interleaving at least one side observes the other (both are
// sequentially consistent atomics) and no completable epoch is ever
// left unfolded.
func (a *Aggregator) maybeFold(epoch int64) {
	next := a.epoch.Load() + 1
	if epoch != next && epoch-next < int64(a.cfg.StaleEpochs) {
		return
	}
	a.foldMu.Lock()
	a.completeEpochs()
	a.foldMu.Unlock()
	a.deliverEpochEvents()
}

// completeEpochs folds finished epochs, under a.foldMu. Epoch k is
// complete when every active node has delivered its round for k; nodes
// lagging more than StaleEpochs behind the most advanced node are marked
// inactive so a dead node never stalls the cluster.
func (a *Aggregator) completeEpochs() {
	for {
		next := a.epochFolded + 1
		var maxEpoch int64
		ready := true
		for _, st := range a.all {
			if !st.active.Load() {
				continue
			}
			e := st.epochA.Load()
			if e > maxEpoch {
				maxEpoch = e
			}
			if e < next {
				ready = false
			}
		}
		if !ready && maxEpoch-next >= int64(a.cfg.StaleEpochs) {
			// Evict laggards and re-check: the cluster has moved on.
			for _, st := range a.all {
				if st.active.Load() && st.epochA.Load() < next {
					a.deactivate(st)
				}
			}
			continue
		}
		if !ready || maxEpoch == 0 {
			return
		}
		a.foldEpoch(next)
	}
}

// deactivate marks a node inactive (leave or staleness eviction) and
// starts the churn hold-down. Caller holds a.foldMu.
func (a *Aggregator) deactivate(st *nodeState) {
	if !st.active.Load() {
		return
	}
	st.active.Store(false)
	a.churnLeft = a.cfg.ChurnHold
}

// foldEpoch completes cluster epoch k: feeds the node-mix guard with the
// per-node usage deltas, advances the churn hold, and publishes fresh
// cluster reports, assembling the per-resource verdicts on the bounded
// worker pool. Caller holds a.foldMu. The fold reads each node's per-seq
// snapshots under that node's lane lock, so it never races the node's
// next ingest; everything else it touches is fold-owned.
func (a *Aggregator) foldEpoch(k int64) {
	foldStart := time.Now()
	defer func() {
		d := time.Since(foldStart).Nanoseconds()
		a.foldLastNanos.Store(d)
		if d > a.foldMaxNanos.Load() { // single writer under foldMu
			a.foldMaxNanos.Store(d)
		}
	}()
	a.epochFolded = k
	a.epoch.Store(k)

	// Snapshot the epoch's inputs from the lanes: each active node's
	// report bank for k and its usage total (consumed here, so the
	// guard's delta baseline advances exactly once per epoch).
	nodes := a.foldNodes[:0]
	names, deltas := a.foldNames[:0], a.foldDeltas[:0]
	for _, st := range a.all {
		if !st.active.Load() {
			continue
		}
		seq := k - st.epochBase
		st.lane.mu.Lock()
		if usage, ok := st.usageAtSeq[seq]; ok {
			names, deltas = append(names, st.name), append(deltas, usage-st.prevUsage)
			st.prevUsage = usage
			delete(st.usageAtSeq, seq)
		}
		reps := st.reportsAtSeq[seq]
		st.lane.mu.Unlock()
		// The report snapshots stay readable without the lane lock: their
		// ring slots cannot recycle until the node runs retention rounds
		// ahead, and the watermark gate blocks any node from outrunning
		// the fold by more than StaleEpochs (< retention) epochs.
		nodes = append(nodes, foldNode{st: st, seq: seq, reps: reps})
	}
	a.foldNodes, a.foldNames, a.foldDeltas = nodes, names, deltas

	guardSuppressed := a.guard.Observe(names, deltas)
	churning := a.churnLeft > 0
	if churning {
		a.churnLeft--
	}
	suppressed := guardSuppressed || churning
	if guardSuppressed {
		a.shiftEp++
	}

	active := len(nodes)
	total := len(a.all)

	a.tlMu.Lock()
	at := a.lastMerged
	a.tlMu.Unlock()

	shared := foldEpochState{
		k: k, at: at, active: active, total: total,
		suppressed: suppressed, churning: churning,
		shiftDistance: a.guard.Distance(), shiftEpochs: a.shiftEp,
	}
	if w := a.cfg.FoldWorkers; w > 1 {
		var wg sync.WaitGroup
		var cursor atomic.Int64
		wg.Add(w)
		for i := 0; i < w; i++ {
			go func() {
				defer wg.Done()
				for {
					ri := int(cursor.Add(1)) - 1
					if ri >= len(a.resources) {
						return
					}
					a.foldResource(ri, shared)
				}
			}()
		}
		wg.Wait()
	} else {
		for ri := range a.resources {
			a.foldResource(ri, shared)
		}
	}

	// Publish the fresh reports and queued notification transitions in
	// resource order — identical to the serial fold's output order.
	a.repMu.Lock()
	for ri, res := range a.resources {
		a.reports[res] = a.foldScratch[ri].rep
	}
	a.repMu.Unlock()
	a.notifMu.Lock()
	for ri := range a.resources {
		sc := &a.foldScratch[ri]
		for i := range sc.notifs {
			if len(a.pending) >= a.cfg.NotifCap {
				// Undrained backlog at the cap: drop newest, keep the
				// oldest transitions (the raise that started the story).
				a.notifDropped.Add(int64(len(sc.notifs) - i))
				break
			}
			a.pending = append(a.pending, sc.notifs[i])
		}
		sc.notifs = sc.notifs[:0]
	}
	a.notifMu.Unlock()

	// Queue the epoch for verdict subscribers (the rejuvenation
	// controller). Skipped entirely with no subscribers, keeping plain
	// deployments' folds allocation-free; delivery happens once foldMu is
	// released (deliverEpochEvents), so a subscriber can call back into
	// the aggregator.
	a.epochSubMu.Lock()
	if len(a.epochSubs) > 0 {
		ev := EpochEvent{Epoch: k, Suppressed: suppressed, Active: active}
		for ri := range a.resources {
			ev.Verdicts = append(ev.Verdicts, a.foldScratch[ri].rep.Verdicts...)
		}
		a.epochPending = append(a.epochPending, ev)
	}
	a.epochSubMu.Unlock()

	// Release the per-seq snapshots this epoch consumed (≤ guards
	// against stale keys surviving an epoch-base change across a
	// rejoin). The report slices go back on the node's freelist.
	for _, st := range a.all {
		seq := k - st.epochBase
		st.lane.mu.Lock()
		for s, reps := range st.reportsAtSeq {
			if s <= seq {
				st.repsFree = append(st.repsFree, reps[:0])
				delete(st.reportsAtSeq, s)
			}
		}
		for s := range st.usageAtSeq {
			if s <= seq {
				delete(st.usageAtSeq, s)
			}
		}
		st.lane.mu.Unlock()
	}
}

// foldEpochState is the epoch-constant context shared by the
// per-resource fold workers.
type foldEpochState struct {
	k             int64
	at            time.Time
	active, total int
	suppressed    bool
	churning      bool
	shiftDistance float64
	shiftEpochs   int64
}

// foldResource assembles one resource's cluster report and verdicts for
// the epoch. Callers (the fold's worker pool) pass disjoint resource
// indices, and everything touched is either indexed by ri or owned by
// this node+resource pair, so workers never share mutable state.
func (a *Aggregator) foldResource(ri int, ep foldEpochState) {
	res := a.resources[ri]
	rep := a.nextReport(ri)
	rep.Epoch = ep.k
	rep.Time = ep.at
	rep.Active = ep.active
	rep.Total = ep.total
	rep.Suppressed = ep.suppressed
	rep.ShiftDistance = ep.shiftDistance
	rep.ShiftEpochs = ep.shiftEpochs
	rep.Churning = ep.churning

	sc := &a.foldScratch[ri]
	for comp, agg := range sc.byComponent {
		agg.nodes = agg.nodes[:0]
		*agg = verdictAgg{nodes: agg.nodes}
		sc.aggFree = append(sc.aggFree, agg)
		delete(sc.byComponent, comp)
	}
	sc.compOrder = sc.compOrder[:0]

	for _, fn := range a.foldNodes {
		if ri >= len(fn.reps) {
			continue
		}
		nodeRep := fn.reps[ri]
		if nodeRep == nil {
			continue
		}
		st := fn.st
		for _, v := range nodeRep.Components {
			if !v.Alarm {
				continue
			}
			c := sc.byComponent[v.Component]
			if c == nil {
				if k := len(sc.aggFree); k > 0 {
					c = sc.aggFree[k-1]
					sc.aggFree = sc.aggFree[:k-1]
				} else {
					c = &verdictAgg{}
				}
				sc.byComponent[v.Component] = c
				sc.compOrder = append(sc.compOrder, v.Component)
			}
			c.nodes = append(c.nodes, st.name)
			if v.Score > c.score {
				c.score = v.Score
			}
			firstByComp := st.firstAlarm[ri]
			if firstByComp == nil {
				firstByComp = make(map[string]int64)
				st.firstAlarm[ri] = firstByComp
			}
			first, seen := firstByComp[v.Component]
			if !seen {
				first = ep.k
				firstByComp[v.Component] = ep.k
			}
			if c.firstEpoch == 0 || first < c.firstEpoch {
				c.firstEpoch = first
			}
			c.changePoint = c.changePoint || v.ChangePoint
		}
	}
	for _, comp := range sc.compOrder {
		c := sc.byComponent[comp]
		v := ClusterVerdict{
			Resource:    res,
			Component:   comp,
			Nodes:       append([]string(nil), c.nodes...),
			ActiveNodes: ep.active,
			Score:       c.score,
			FirstEpoch:  c.firstEpoch,
			ChangePoint: c.changePoint,
		}
		if !ep.suppressed && ep.active >= 2 &&
			float64(len(c.nodes)) > a.cfg.Quorum*float64(ep.active) {
			v.ClusterWide = true
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	sort.SliceStable(rep.Verdicts, func(i, j int) bool {
		if rep.Verdicts[i].Score != rep.Verdicts[j].Score {
			return rep.Verdicts[i].Score > rep.Verdicts[j].Score
		}
		return rep.Verdicts[i].Component < rep.Verdicts[j].Component
	})
	sc.rep = rep
	a.queueTransitions(sc, rep, ep.suppressed)
}

// queueTransitions diffs a fresh report against the latched alarm set and
// queues one notification per transition: a raise when a component first
// alarms, a promotion when its verdict turns cluster-wide, a clear when
// no node flags it any more. The alarming-node set may otherwise churn
// without spamming the stream. New alarms and promotions are not
// announced while suppressed (churn or node-mix shift); clears always
// are. Caller is a fold worker: the latch map and scratch are owned by
// this resource, and the notifications queue into the resource's scratch
// so the fold can publish them in deterministic resource order.
func (a *Aggregator) queueTransitions(sc *resourceFold, rep *ClusterReport, suppressed bool) {
	was := a.alarmed[rep.Resource]
	clear(sc.seen)
	for _, v := range rep.Verdicts {
		sc.seen[v.Component] = true
		latch := was[v.Component]
		if latch == nil {
			if suppressed {
				continue
			}
			was[v.Component] = &latchedAlarm{clusterWide: v.ClusterWide}
			scope := "node-local"
			if v.ClusterWide {
				scope = "cluster-wide"
			}
			sc.notifs = append(sc.notifs, jmx.Notification{
				Type:   NotifClusterAlarm,
				Source: AggregatorName(),
				Message: fmt.Sprintf("%s aging: %s on %s (%d/%d nodes, score %.4g, epoch %d)",
					scope, v.Component, strings.Join(v.Nodes, "+"), len(v.Nodes), v.ActiveNodes, v.Score, rep.Epoch),
				Data: v,
			})
			continue
		}
		if v.ClusterWide && !latch.clusterWide && !suppressed {
			latch.clusterWide = true
			sc.notifs = append(sc.notifs, jmx.Notification{
				Type:   NotifClusterAlarm,
				Source: AggregatorName(),
				Message: fmt.Sprintf("aging on %s promoted to cluster-wide (%s on %d/%d nodes, epoch %d)",
					v.Component, rep.Resource, len(v.Nodes), v.ActiveNodes, rep.Epoch),
				Data: v,
			})
		}
	}
	sc.cleared = sc.cleared[:0]
	for comp := range was {
		if !sc.seen[comp] {
			sc.cleared = append(sc.cleared, comp)
		}
	}
	sort.Strings(sc.cleared)
	for _, comp := range sc.cleared {
		delete(was, comp)
		sc.notifs = append(sc.notifs, jmx.Notification{
			Type:    NotifClusterAlarm,
			Source:  AggregatorName(),
			Message: fmt.Sprintf("cluster alarm cleared: %s (%s, epoch %d)", comp, rep.Resource, rep.Epoch),
		})
	}
}

// SyncFolds folds every epoch completable from the rounds already
// ingested and blocks until any in-flight fold has published its reports
// and its epoch events are delivered. The ingest path never needs it —
// maybeFold's gate guarantees no completable epoch is left unfolded
// *eventually* — but a reader needs a synchronous point: the fold a
// round completes may be executed by another publisher's in-flight
// completeEpochs loop, so "all rounds counted" does not mean "all epochs
// published" until this returns. Most callers want Quiesce, which waits
// for the count first.
func (a *Aggregator) SyncFolds() {
	a.foldMu.Lock()
	a.completeEpochs()
	a.foldMu.Unlock()
	a.deliverEpochEvents()
}

// Quiesce is the read barrier for asynchronous transports: it blocks
// until want rounds have been counted or shed (wire frames decode on
// serving goroutines, so a publisher can finish before the aggregator
// does), then until every epoch those rounds complete is folded and
// published and its epoch events are delivered. After it returns nil,
// Epoch, Report and NodeReport are a function of the rounds alone. want
// is the caller's count of rounds handed to transports that deliver;
// past the deadline it gives up with the counts it saw. It polls: the
// barrier runs once per experiment phase and must add nothing to the
// Ingest path.
func (a *Aggregator) Quiesce(want int64, deadline time.Time) error {
	for a.TotalRounds()+a.ShedRounds() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: aggregator absorbed %d of %d rounds before the deadline (%d ingested, %d shed)",
				a.TotalRounds()+a.ShedRounds(), want, a.TotalRounds(), a.ShedRounds())
		}
		time.Sleep(time.Millisecond)
	}
	a.SyncFolds()
	return nil
}

// ShedRounds reports how many rounds the admission gate shed at a full
// ingest lane (Config.LaneQueueDepth).
func (a *Aggregator) ShedRounds() int64 { return a.shed.Load() }

// DroppedNotifications reports how many cluster-alarm notifications
// were dropped at a full pending queue (Config.NotifCap).
func (a *Aggregator) DroppedNotifications() int64 { return a.notifDropped.Load() }

// DrainNotifications returns and clears the queued cluster alarm
// transitions; the owner (a cluster stack's notification pump, a serving
// binary) emits them on its MBeanServer. It takes only the queue's own
// mutex, so polling never contends with ingest or a fold in progress.
func (a *Aggregator) DrainNotifications() []jmx.Notification {
	a.notifMu.Lock()
	defer a.notifMu.Unlock()
	out := a.pending
	a.pending = nil
	return out
}

// Leave marks a node as having left the cluster: it stops counting
// toward quorums and epoch completion, and the churn hold keeps cluster
// promotion quiet while the balancer redistributes its traffic. A node
// that publishes again after Leave rejoins automatically.
func (a *Aggregator) Leave(node string) {
	a.foldMu.Lock()
	a.regMu.RLock()
	st := a.byName[node]
	a.regMu.RUnlock()
	if st != nil {
		a.deactivate(st)
		a.completeEpochs()
	}
	a.foldMu.Unlock()
	a.deliverEpochEvents()
}

// EpochEvent is one completed cluster epoch as delivered to verdict
// subscribers: every resource's verdicts for the epoch, flattened in
// resource order. The event is the subscriber's to keep — the verdict
// values are copies and their Nodes slices are freshly allocated per
// fold, never recycled.
type EpochEvent struct {
	Epoch      int64
	Suppressed bool // churn hold or workload-shift guard active
	Active     int  // nodes contributing to the epoch
	Verdicts   []ClusterVerdict
}

// SubscribeEpochs registers fn on the epoch-event feed: it is called
// once per completed epoch, in epoch order, on the goroutine whose
// ingest completed the epoch — after the fold lock is released, so fn
// may call back into the aggregator (ResetNode, SendControl, reports).
// fn must not block: it runs on the ingest path of whichever node's
// round completed the epoch. Subscribe before rounds flow; there is no
// unsubscribe.
func (a *Aggregator) SubscribeEpochs(fn func(EpochEvent)) {
	a.epochSubMu.Lock()
	a.epochSubs = append(a.epochSubs, fn)
	a.epochSubMu.Unlock()
}

// deliverEpochEvents drains queued epoch events to the subscribers. It
// runs with foldMu released; the delivery mutex keeps events in epoch
// order when two ingests complete epochs back to back.
func (a *Aggregator) deliverEpochEvents() {
	a.epochDeliverMu.Lock()
	defer a.epochDeliverMu.Unlock()
	for {
		a.epochSubMu.Lock()
		events := a.epochPending
		a.epochPending = nil
		subs := a.epochSubs
		a.epochSubMu.Unlock()
		if len(events) == 0 {
			return
		}
		for _, ev := range events {
			for _, fn := range subs {
				fn(ev)
			}
		}
	}
}

// ResetNode clears a node's detection history — monitors, first-alarm
// latches and pending per-seq snapshots — while keeping its sequence
// numbering and epoch alignment. The rejuvenation controller calls it
// right after a micro-reboot: the component restarts from a fresh
// baseline, and trend state accumulated before the reboot would misread
// the recovery cliff as signal (or keep the old alarm latched through
// probation). Reports false for unknown nodes.
func (a *Aggregator) ResetNode(node string) bool {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	a.regMu.RLock()
	st := a.byName[node]
	a.regMu.RUnlock()
	if st == nil {
		return false
	}
	for ri := range st.firstAlarm {
		st.firstAlarm[ri] = nil
	}
	st.lane.mu.Lock()
	for res := range st.monitors {
		st.monitors[res] = detect.NewMonitor(res, a.monitorConfig(res))
	}
	for s, reps := range st.reportsAtSeq {
		st.repsFree = append(st.repsFree, reps[:0])
		delete(st.reportsAtSeq, s)
	}
	for s := range st.usageAtSeq {
		delete(st.usageAtSeq, s)
	}
	clear(st.firstSize)
	st.lane.mu.Unlock()
	return true
}

// Epoch returns the latest completed cluster epoch (lock-free).
func (a *Aggregator) Epoch() int64 { return a.epoch.Load() }

// TotalRounds returns how many rounds have been ingested (lock-free).
func (a *Aggregator) TotalRounds() int64 { return a.total.Load() }

// FoldLatency reports the verdict-publication latency — wall time from
// an epoch's completion (its watermark-advancing round ingested) to its
// reports and verdicts being published — for the most recent epoch and
// the worst epoch so far. Zero until the first epoch folds. Lock-free.
func (a *Aggregator) FoldLatency() (last, max time.Duration) {
	return time.Duration(a.foldLastNanos.Load()), time.Duration(a.foldMaxNanos.Load())
}

// Nodes returns the cluster membership, sorted by name. It reads the
// registry and the nodes' published counters without touching any ingest
// lane or the fold lock, so monitoring the membership never stalls
// ingest.
func (a *Aggregator) Nodes() []NodeStatus {
	a.regMu.RLock()
	defer a.regMu.RUnlock()
	out := make([]NodeStatus, 0, len(a.order))
	for _, name := range a.order {
		st := a.byName[name]
		out = append(out, NodeStatus{
			Node:   name,
			Active: st.active.Load(),
			Rounds: st.seqA.Load(),
			Epoch:  st.epochA.Load(),
		})
	}
	return out
}

// Report returns the latest cluster report for a resource (nil before the
// first completed epoch). Reports publish from a recycled ring sized like
// the node monitors' (Config.Detect.ReportRetention, floored at
// StaleEpochs+3): the returned pointer stays valid for retention-1
// further epochs, and a consumer that keeps one longer must copy it.
func (a *Aggregator) Report(resource string) *ClusterReport {
	a.repMu.RLock()
	defer a.repMu.RUnlock()
	return a.reports[resource]
}

// NodeReport returns a node's latest per-node detection report for a
// resource (nil for unknown nodes or before the node's first round).
// Unlike cluster verdicts it reflects every round ingested so far, not
// just completed epochs. The returned report is a copy the caller owns:
// the monitor's own reports recycle through a ring as rounds flow, and a
// cluster's rounds keep flowing while monitoring reads — the copy is
// taken under the node's lane lock, so it is a consistent snapshot.
func (a *Aggregator) NodeReport(node, resource string) *detect.Report {
	a.regMu.RLock()
	st := a.byName[node]
	a.regMu.RUnlock()
	if st == nil {
		return nil
	}
	mon, ok := st.monitors[resource]
	if !ok {
		return nil
	}
	st.lane.mu.Lock()
	defer st.lane.mu.Unlock()
	rep := mon.Latest()
	if rep == nil {
		return nil
	}
	return rep.Clone()
}

// Verdicts adapts the latest per-node reports to the live root-cause
// strategy's verdict type: one entry per (node, component) pair. Each
// node's report is read under its lane lock, so the projection never
// races the node's next round.
func (a *Aggregator) Verdicts(resource string) []rootcause.LiveVerdict {
	a.regMu.RLock()
	defer a.regMu.RUnlock()
	var out []rootcause.LiveVerdict
	for _, name := range a.order {
		st := a.byName[name]
		if !st.active.Load() {
			continue
		}
		mon, ok := st.monitors[resource]
		if !ok {
			continue
		}
		st.lane.mu.Lock()
		if rep := mon.Latest(); rep != nil {
			for _, v := range rep.Components {
				out = append(out, rootcause.LiveVerdict{
					Component: v.Component,
					Node:      name,
					Alarm:     v.Alarm,
					Score:     v.Score,
				})
			}
		}
		st.lane.mu.Unlock()
	}
	return out
}

// LiveRank ranks (node, component) pairs with the live strategy: detector
// verdicts give scores and alarms, the latest round's measurements give
// the map coordinates — so the Live strategy can say "component X on
// node 2". It briefly takes each node's lane lock to snapshot the
// latest samples, never the fold lock.
func (a *Aggregator) LiveRank(resource string) rootcause.Ranking {
	a.regMu.RLock()
	var data []rootcause.ComponentData
	for _, name := range a.order {
		st := a.byName[name]
		if !st.active.Load() {
			continue
		}
		st.lane.mu.Lock()
		for _, s := range st.lastSamples {
			d := rootcause.ComponentData{Name: s.Component, Node: name, Usage: s.Usage}
			switch resource {
			case core.ResourceMemory:
				if s.SizeOK {
					if c := float64(s.Size - st.firstSize[s.Component]); c > 0 {
						d.Consumption = c
					}
				}
			case core.ResourceCPU:
				d.Consumption = s.CPUSeconds
			case core.ResourceThreads:
				d.Consumption = float64(s.Threads)
			case core.ResourceLatency:
				d.Consumption = s.LatencySeconds
			case core.ResourceHandles:
				d.Consumption = float64(s.Handles)
			}
			data = append(data, d)
		}
		st.lane.mu.Unlock()
	}
	a.regMu.RUnlock()
	return rootcause.Live{Source: a.Verdicts}.Rank(resource, data)
}
