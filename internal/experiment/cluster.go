package experiment

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/jmx"
	"repro/internal/rejuv"
	"repro/internal/sim"
	"repro/internal/tpcw"
)

// ClusterConfig sizes a simulated cluster: N full application-server
// nodes (servlet container + TPC-W + monitoring framework) behind a
// balancer, reporting to one aggregator.
type ClusterConfig struct {
	// Nodes is the initial cluster size (minimum 1).
	Nodes int
	// Spares is how many extra nodes to build but keep out of the
	// cluster (no balancer membership, no sampling) so a scenario can
	// Join them mid-run.
	Spares int
	// Seed drives every random stream.
	Seed uint64
	// Scale sizes each node's TPC-W database (identical replicas).
	Scale tpcw.Scale
	// Mix is the EB workload mix.
	Mix eb.Mix
	// Detect tunes the aggregator's per-node detector banks.
	Detect detect.Config
	// Link picks how each node's rounds reach the aggregator; Sync
	// flushes a batched link's partial frames before its round barrier.
	Link MonitorLink
	// StaleEpochs overrides the aggregator's laggard-eviction window
	// (0 = its default; a batched Link widens it to twice the batch).
	StaleEpochs int
	// IngestLanes sizes the aggregator's sharded ingest plane (0 = its
	// default; 1 = the serial reference configuration). Verdicts must
	// not depend on it.
	IngestLanes int
	// Rejuv, when non-nil, closes the loop: a rejuvenation controller
	// subscribes to the aggregator's epoch verdicts and drives the
	// drain / micro-reboot / probation / re-admit cycle against the
	// balancer and the nodes' frameworks (control frames on a wire Link,
	// synchronous local handlers on the in-process one).
	Rejuv *rejuv.Config
	// RejuvControl, when set with Rejuv, wraps the controller's command
	// channel — the hook chaos scenarios use to lose or delay actuation
	// commands without touching the verdict path.
	RejuvControl func(rejuv.CommandSender) rejuv.CommandSender
	// Chaos, when non-nil, may wrap each node's monitoring transport
	// (e.g. in a faultinject.ChaosTransport for partition or clock-skew
	// faults). It is applied above the framing codec, per the chaos
	// transport's loss-discipline contract. Returning the transport
	// unchanged leaves the node untouched.
	Chaos func(node string, tr cluster.Transport) cluster.Transport
	// Standby arms warm-standby failover: the aggregator's durable
	// state — and the rejuvenation controller's, when Rejuv is set —
	// ships over a v6 SNAPSHOT stream (a real net.Pipe wire) to a
	// standby receiver after every epoch, and FailOver kills the active
	// plane and promotes the standby mid-run. Requires the in-process
	// round transport (the per-node wire rebind is a deployment concern
	// the simulation does not model).
	Standby bool
	// LaneQueueDepth passes through to the aggregator's overload
	// protection (0 = default): the per-lane ingest admission bound.
	LaneQueueDepth int
}

// retargetTransport lets FailOver repoint a node's publish stream at the
// promoted aggregator without touching the forwarder above it — the
// simulation's stand-in for a node reconnecting to the standby's
// address.
type retargetTransport struct {
	mu    sync.Mutex
	inner cluster.Transport
}

func (t *retargetTransport) Publish(r cluster.Round) error {
	t.mu.Lock()
	tr := t.inner
	t.mu.Unlock()
	return tr.Publish(r)
}

func (t *retargetTransport) Close() error {
	t.mu.Lock()
	tr := t.inner
	t.mu.Unlock()
	return tr.Close()
}

func (t *retargetTransport) set(tr cluster.Transport) {
	t.mu.Lock()
	t.inner = tr
	t.mu.Unlock()
}

// sampleInterval is every cluster node's manager sampling period (the
// manager's default), which is also the cluster epoch cadence.
const sampleInterval = 30 * time.Second

// ClusterStack is a fully assembled simulated cluster: the nodes, the
// balancer fronting their containers, the aggregator merging their
// sampling rounds, a cluster-plane MBeanServer carrying the aggregator
// bean and its notifications, and an EB driver aimed at the balancer.
type ClusterStack struct {
	browsers
	Engine     *sim.Engine
	Nodes      []*Node
	Balancer   *cluster.Balancer
	Aggregator *cluster.Aggregator
	Server     *jmx.Server       // cluster management plane
	Rejuv      *rejuv.Controller // nil unless ClusterConfig.Rejuv was set

	stopPump func()

	// Failover state (Standby stacks only). aggCfg/rejuvCfg/rejuvWrap
	// are retained so a promotion builds the standby plane with the
	// exact configuration the snapshots' Restore validates against.
	aggCfg     cluster.Config
	rejuvCfg   *rejuv.Config
	rejuvWrap  func(rejuv.CommandSender) rejuv.CommandSender
	retargets  []*retargetTransport // one per node, in Nodes order
	shipper    *cluster.StandbyShipper
	standby    *cluster.StandbyReceiver
	standbyErr chan error
	// lostRounds counts rounds the dead active ingested after its last
	// shipped generation — lost with it, excluded from Sync's barrier.
	lostRounds int64
}

// NewClusterStack builds and starts a cluster.
func NewClusterStack(cfg ClusterConfig) (*ClusterStack, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("experiment: ClusterConfig.Nodes must be >= 1")
	}
	if cfg.Scale.Seed == 0 {
		cfg.Scale.Seed = cfg.Seed + 1
	}
	if cfg.Standby && cfg.Link.Wire {
		return nil, fmt.Errorf("experiment: Standby failover requires the in-process transport")
	}
	cs := &ClusterStack{
		rejuvCfg:  cfg.Rejuv,
		rejuvWrap: cfg.RejuvControl,
	}
	var err error
	cs.Driver, err = newDriver(eb.ShardedConfig{Seed: cfg.Seed, Mix: cfg.Mix, Items: cfg.Scale.Items, Customers: cfg.Scale.Customers}, func(_ int, engine *sim.Engine) (eb.Target, error) {
		cs.Engine = engine
		err := cs.assemble(cfg)
		return cs.Balancer, err
	})
	if err != nil {
		cs.Close()
		return nil, err
	}
	return cs, nil
}

// assemble builds the monitoring plane, the nodes and the balancer on the
// stack's engine.
func (cs *ClusterStack) assemble(cfg ClusterConfig) error {
	engine := cs.Engine
	aggCfg := cfg.Link.aggregatorConfig(cluster.Config{
		Detect:         cfg.Detect,
		StaleEpochs:    cfg.StaleEpochs,
		IngestLanes:    cfg.IngestLanes,
		LaneQueueDepth: cfg.LaneQueueDepth,
	})
	agg := cluster.New(aggCfg)
	clusterServer := jmx.NewServer(engine.Clock())
	if err := clusterServer.Register(cluster.AggregatorName(), agg.Bean()); err != nil {
		return err
	}
	balancer := cluster.NewBalancer()
	cs.Balancer, cs.Aggregator, cs.Server, cs.aggCfg = balancer, agg, clusterServer, aggCfg

	total := cfg.Nodes + cfg.Spares
	var initial []string
	for i := 1; i <= total; i++ {
		name := fmt.Sprintf("node%d", i)
		node, err := cs.buildNode(name, cfg)
		if err != nil {
			return err
		}
		cs.Nodes = append(cs.Nodes, node)
		if i <= cfg.Nodes {
			initial = append(initial, name)
		}
	}
	// Pre-register the initial membership so epoch alignment is a pure
	// function of the rounds, independent of transport timing.
	cs.Aggregator.Expect(initial...)
	for _, node := range cs.Nodes[:cfg.Nodes] {
		cs.activate(node)
	}

	if cfg.Rejuv != nil {
		var sender rejuv.CommandSender = agg
		if cfg.RejuvControl != nil {
			sender = cfg.RejuvControl(sender)
		}
		ctrl := rejuv.New(*cfg.Rejuv, balancer, sender)
		ctrl.SetDetectorReset(agg)
		ctrl.Track(initial...)
		agg.SubscribeEpochs(ctrl.ObserveEpoch)
		if err := clusterServer.Register(rejuv.Name(), ctrl.Bean()); err != nil {
			return err
		}
		cs.Rejuv = ctrl
	}

	if cfg.Standby {
		// Ship after the controller's subscription, so a generation
		// reflects the controller's post-epoch state — the pairing the
		// SNAPSHOT frame makes atomic.
		cs.armStandby()
	}

	// The notification pump turns queued aggregator transitions into
	// cluster-plane JMX notifications once per sampling period.
	cs.stopPump = engine.Every(sampleInterval, func(time.Time) {
		cs.FlushNotifications()
	})
	return nil
}

// buildNode assembles one monitored application-server node and links
// it to the aggregator.
func (cs *ClusterStack) buildNode(name string, cfg ClusterConfig) (*Node, error) {
	node, err := buildNode(cs.Engine, nodeConfig{
		Name:           name,
		Scale:          cfg.Scale,
		Monitored:      true,
		SampleInterval: sampleInterval,
	})
	if err != nil {
		return nil, err
	}
	err = attach(cs.Aggregator, node, cfg.Link, func(tr cluster.Transport) cluster.Transport {
		if cfg.Chaos != nil {
			tr = cfg.Chaos(name, tr)
		}
		if cfg.Standby {
			rt := &retargetTransport{inner: tr}
			cs.retargets = append(cs.retargets, rt)
			tr = rt
		}
		return tr
	})
	if err != nil {
		return nil, err
	}
	if err := cs.Server.Register(cluster.ForwarderName(name), node.forwarder.Bean()); err != nil {
		return nil, err
	}
	return node, nil
}

// activate puts a node into service: balancer membership plus periodic
// sampling (whose rounds flow to the aggregator via the forwarder).
func (cs *ClusterStack) activate(node *Node) {
	if node.stopSampling != nil {
		return
	}
	cs.Balancer.AddNode(node.Name, node.Container, 1)
	node.startSampling()
}

// Node returns a node by name (nil when unknown).
func (cs *ClusterStack) Node(name string) *Node {
	for _, n := range cs.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Join puts a spare node into service mid-run: it starts receiving new
// sessions from the balancer and reporting sampling rounds, and the
// aggregator folds it in with the churn hold-down.
func (cs *ClusterStack) Join(name string) error {
	node := cs.Node(name)
	if node == nil {
		return fmt.Errorf("experiment: no node %q", name)
	}
	cs.activate(node)
	if cs.Rejuv != nil {
		cs.Rejuv.Track(name)
	}
	return nil
}

// Leave takes a node out of service mid-run: the balancer unpins its
// sessions, sampling stops, and the aggregator marks it inactive.
func (cs *ClusterStack) Leave(name string) error {
	node := cs.Node(name)
	if node == nil {
		return fmt.Errorf("experiment: no node %q", name)
	}
	if node.stopSampling == nil {
		return fmt.Errorf("experiment: node %q is not in the cluster", name)
	}
	cs.Balancer.RemoveNode(name)
	node.haltSampling()
	// Drain rounds already in flight on a wire transport before marking
	// the node gone, so a frame decoded after Leave cannot rejoin it.
	if err := cs.Sync(); err != nil {
		return err
	}
	cs.Aggregator.Leave(name)
	return nil
}

// Sync blocks until every published round has been ingested and folded
// — a no-op for the in-process link, and the wire links' drain barrier
// (frames decode on serving goroutines, so the engine can finish a
// schedule a few rounds before the aggregator does). Batched wires flush
// their partial frames first, so a buffered round cannot stall the
// barrier.
func (cs *ClusterStack) Sync() error {
	var want int64
	for _, n := range cs.Nodes {
		delivered, err := n.flushLink()
		if err != nil {
			return err
		}
		want += delivered
	}
	// Rounds that died with a failed-over aggregator can never arrive.
	want -= cs.lostRounds
	if err := cs.Aggregator.Quiesce(want, time.Now().Add(10*time.Second)); err != nil {
		return err
	}
	cs.FlushNotifications()
	return nil
}

// FlushNotifications emits any queued aggregator notifications without
// Sync's round barrier — the barrier counts every round the forwarders
// handed to their transports, which a deliberately lossy chaos transport
// (partition faults) would stall forever.
func (cs *ClusterStack) FlushNotifications() {
	for _, n := range cs.Aggregator.DrainNotifications() {
		cs.Server.Emit(n)
	}
	if cs.Rejuv != nil {
		for _, n := range cs.Rejuv.DrainNotifications() {
			cs.Server.Emit(n)
		}
	}
}

// armStandby wires a fresh standby receiver to the current aggregator
// over a v6 SNAPSHOT pipe, shipping every epoch.
func (cs *ClusterStack) armStandby() {
	shipConn, recvConn := net.Pipe()
	cs.standby = cluster.NewStandbyReceiver()
	cs.standbyErr = make(chan error, 1)
	recv, errs := cs.standby, cs.standbyErr
	go func() { errs <- recv.Serve(recvConn) }()
	var ctl cluster.Snapshotter
	if cs.Rejuv != nil {
		ctl = cs.Rejuv
	}
	cs.shipper = cluster.NewStandbyShipper(shipConn, cs.Aggregator, ctl, 1)
	cs.Aggregator.SubscribeEpochs(cs.shipper.ObserveEpoch)
}

// FailOver kills the active monitoring plane mid-run — the aggregator
// and, when armed, its rejuvenation controller die together — and
// promotes the warm standby from the last shipped SNAPSHOT generation.
// Every node's publish stream and control binding is repointed at the
// promoted aggregator; the promoted controller reconciles any actuation
// the dead plane left in flight; a fresh standby is armed so a later
// failover remains possible. Rounds the dead active absorbed after its
// last ship are lost with it (the failover window), and Sync's barrier
// accounts for them.
func (cs *ClusterStack) FailOver() error {
	if cs.shipper == nil {
		return fmt.Errorf("experiment: stack built without Standby")
	}
	_ = cs.shipper.Close()
	if err := <-cs.standbyErr; err != nil {
		return fmt.Errorf("experiment: standby stream: %w", err)
	}
	latest, ok := cs.standby.Latest()
	if !ok {
		return fmt.Errorf("experiment: no snapshot generation shipped before failover")
	}

	promoted := cluster.New(cs.aggCfg)
	if err := promoted.Restore(latest.Aggregator); err != nil {
		return fmt.Errorf("experiment: promote aggregator: %w", err)
	}

	// Account for the failover window before any new round arrives.
	var published int64
	for _, n := range cs.Nodes {
		published += n.forwarder.Rounds() - n.forwarder.Errors()
	}
	cs.lostRounds += published - promoted.TotalRounds()

	// Repoint every node at the promoted plane (Standby stacks are
	// in-process: the publish stream and the local control binding).
	for i, n := range cs.Nodes {
		cs.retargets[i].set(cluster.NewInProc(promoted))
		promoted.BindLocalControl(n.Name, cluster.FrameworkControlHandler(n.Framework))
	}
	// The dead active keeps no wires; its epoch subscribers (the old
	// controller, the old shipper) die with it.
	cs.Aggregator = promoted
	_ = cs.Server.Unregister(cluster.AggregatorName())
	if err := cs.Server.Register(cluster.AggregatorName(), promoted.Bean()); err != nil {
		return err
	}

	// The controller's twin restores from the same generation, then
	// reconciles whatever actuation the dead plane left orphaned.
	if cs.Rejuv != nil {
		var sender rejuv.CommandSender = promoted
		if cs.rejuvWrap != nil {
			sender = cs.rejuvWrap(sender)
		}
		ctrl := rejuv.New(*cs.rejuvCfg, cs.Balancer, sender)
		if err := ctrl.Restore(latest.Controller); err != nil {
			return fmt.Errorf("experiment: promote controller: %w", err)
		}
		ctrl.SetDetectorReset(promoted)
		promoted.SubscribeEpochs(ctrl.ObserveEpoch)
		cs.Rejuv = ctrl
		_ = cs.Server.Unregister(rejuv.Name())
		if err := cs.Server.Register(rejuv.Name(), ctrl.Bean()); err != nil {
			return err
		}
		ctrl.ReconcileOrphans()
	}

	cs.armStandby()
	return nil
}

// Close stops sampling, the notification pump, the transports and the
// containers.
func (cs *ClusterStack) Close() {
	if cs.stopPump != nil {
		cs.stopPump()
	}
	if cs.shipper != nil {
		_ = cs.shipper.Close()
	}
	for _, n := range cs.Nodes {
		n.Close()
	}
}
