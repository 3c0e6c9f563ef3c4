package experiment

import (
	"fmt"
	"net"
	"time"

	"repro/internal/aspect"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jvmheap"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

// Node is one application server as the paper deploys it: TPC-W over the
// servlet container with its own weaver, database, and heap, the
// monitoring framework woven over the 14 servlets when monitored, and —
// once attached — the link carrying its sampling rounds to a cluster
// aggregator. Stack is one Node under the browser driver; ClusterStack is N of
// them behind a balancer; LoadStack is one per engine shard.
type Node struct {
	Name      string // "" for the single-node Stack
	Weaver    *aspect.Weaver
	DB        *sqldb.DB
	App       *tpcw.App
	Heap      *jvmheap.Heap
	Container *servlet.Container
	Framework *core.Framework // nil when unmonitored

	engine       *sim.Engine
	stopSampling func() // non-nil while the manager samples

	// The monitor link, set by attach: the transport rounds leave on, the
	// forwarder feeding it, and the partial-BATCH flush of a batched wire
	// (nil otherwise).
	transport cluster.Transport
	forwarder *cluster.Forwarder
	flush     func() error
}

// nodeConfig sizes one Node.
type nodeConfig struct {
	Name      string
	Scale     tpcw.Scale
	HeapBytes int64 // 0 = jvmheap.DefaultCapacity
	Container servlet.Config
	// Monitored attaches the framework (AC + agents + manager) over the
	// TPC-W servlets, sampling every SampleInterval once started.
	Monitored      bool
	SampleInterval time.Duration
}

// buildNode assembles and starts one application server on engine. The
// manager does not sample until startSampling.
func buildNode(engine *sim.Engine, cfg nodeConfig) (*Node, error) {
	if cfg.HeapBytes <= 0 {
		cfg.HeapBytes = jvmheap.DefaultCapacity
	}
	weaver := aspect.NewWeaver(engine.Clock())
	db := sqldb.NewDB()
	app, err := tpcw.NewApp(db, weaver, engine.Clock(), cfg.Scale)
	if err != nil {
		return nil, err
	}
	heap := jvmheap.New(cfg.HeapBytes, engine.Clock())
	container := servlet.NewContainer(engine, weaver, db, heap, cfg.Container)
	if err := app.DeployAll(container); err != nil {
		return nil, err
	}
	if err := container.Start(); err != nil {
		return nil, err
	}
	n := &Node{
		Name:      cfg.Name,
		Weaver:    weaver,
		DB:        db,
		App:       app,
		Heap:      heap,
		Container: container,
		engine:    engine,
	}
	if !cfg.Monitored {
		return n, nil
	}
	f, err := core.New(core.Options{
		Weaver:         weaver,
		Clock:          engine.Clock(),
		Heap:           heap,
		SampleInterval: cfg.SampleInterval,
		Node:           cfg.Name,
	})
	if err != nil {
		return nil, err
	}
	for _, name := range tpcw.Interactions {
		servletObj, _ := app.Servlet(name)
		if err := f.InstrumentComponent(name, servletObj); err != nil {
			return nil, err
		}
	}
	n.Framework = f
	return n, nil
}

// MonitorLink picks how a node's sampling rounds reach its aggregator.
// Verdicts must not depend on it (TestClusterTransportParity).
type MonitorLink struct {
	// Wire ships rounds as binary-codec frames over a per-node net.Pipe
	// instead of in-process calls, exercising the real serialisation and
	// control-frame paths.
	Wire bool
	// BatchRounds > 1 buffers that many rounds per BATCH frame on the
	// wire (the fleet fan-in flush policy). Only the count and the stack's
	// sync barrier flush: a real-time flush deadline has no meaning on a
	// virtual-time engine that runs hours in seconds.
	BatchRounds int
}

// aggregatorConfig widens c's staleness window for the link: a node
// flushing a full BATCH frame runs BatchRounds epochs ahead of peers
// still buffering, which must never read as a dead node, so the window
// is at least twice the batch. The derivation sits here, not in attach,
// because an aggregator's config is fixed at New (Restore validates a
// promoted standby against it).
func (l MonitorLink) aggregatorConfig(c cluster.Config) cluster.Config {
	if l.Wire && l.BatchRounds > 1 && c.StaleEpochs < 2*l.BatchRounds {
		c.StaleEpochs = 2 * l.BatchRounds
	}
	return c
}

// attach links a monitored node to agg: a transport per the link (wrap,
// when non-nil, decorates it above the framing codec — chaos faults,
// failover retargeting), a forwarder shipping the manager's sampling
// rounds into it, and the actuation route back — control frames on the
// node's own connection for a wire link, a synchronous local binding for
// the in-process one, which has no stream to carry them.
func attach(agg *cluster.Aggregator, n *Node, link MonitorLink, wrap func(cluster.Transport) cluster.Transport) error {
	control := cluster.FrameworkControlHandler(n.Framework)
	var tr cluster.Transport
	if link.Wire {
		client, server := net.Pipe()
		go func() { _ = agg.ServeBinaryConn(server) }()
		bw := cluster.NewBinaryWire(client)
		if link.BatchRounds > 1 {
			if err := bw.SetBatch(link.BatchRounds, 0); err != nil {
				return err
			}
			// Keep the raw wire's flush in hand: wrap may hide the wire,
			// but the sync barrier still needs to ship partial batches.
			n.flush = bw.Flush
		}
		go func() { _ = bw.ServeControl(control) }()
		tr = bw
	} else {
		agg.BindLocalControl(n.Name, control)
		tr = cluster.NewInProc(agg)
	}
	if wrap != nil {
		tr = wrap(tr)
	}
	n.transport = tr
	n.forwarder = cluster.Attach(n.Framework, tr)
	return nil
}

// Forwarder exposes the node's round forwarder, whose publish/error/drop
// counters are the node-side half of the wire accounting (the aggregator
// holds the ingest/shed half). Nil until the node is attached.
func (n *Node) Forwarder() *cluster.Forwarder { return n.forwarder }

// startSampling starts the manager's periodic sampling (idempotent).
func (n *Node) startSampling() {
	if n.stopSampling == nil {
		n.stopSampling = n.Framework.StartSampling(n.engine)
	}
}

// haltSampling stops it again (idempotent).
func (n *Node) haltSampling() {
	if n.stopSampling != nil {
		n.stopSampling()
		n.stopSampling = nil
	}
}

// flushLink ships the link's partial BATCH frame, if any, and returns how
// many rounds the node has handed to a transport that accepted them — its
// share of the count a sync barrier waits for. A flush error means the
// wire is broken and its buffered rounds can never arrive.
func (n *Node) flushLink() (int64, error) {
	if n.flush != nil {
		if err := n.flush(); err != nil {
			return 0, fmt.Errorf("experiment: flush %s monitor link: %w", n.Name, err)
		}
	}
	if n.forwarder == nil {
		return 0, nil
	}
	return n.forwarder.Rounds() - n.forwarder.Errors(), nil
}

// aspectSource is any fault injector: it arms by registering its aspect.
type aspectSource interface{ Aspect() *aspect.Aspect }

// Inject arms a fault injector on the node's weaver.
func (n *Node) Inject(fault aspectSource) error {
	return n.Weaver.Register(fault.Aspect())
}

// retainer resolves a component's servlet as a retention target for the
// heap-growing injectors.
func (n *Node) retainer(component string) (faultinject.Retainer, error) {
	target, ok := n.App.Servlet(component)
	if !ok {
		return nil, fmt.Errorf("experiment: no servlet %q", component)
	}
	retainer, ok := target.(faultinject.Retainer)
	if !ok {
		return nil, fmt.Errorf("experiment: servlet %q is not injectable", component)
	}
	return retainer, nil
}

// InjectLeak arms the paper's memory-leak error in one of the node's
// components and returns the injector for inspection. On one node of a
// cluster or one shard of a load tier this is the "sick replica" topology
// a single-process deployment cannot express. A nil node — the result of
// looking up an unknown name or shard — is an error, so lookups chain:
// cs.Node(name).InjectLeak(...).
func (n *Node) InjectLeak(component string, size, count int, seed uint64) (*faultinject.MemoryLeak, error) {
	if n == nil {
		return nil, fmt.Errorf("experiment: no such node")
	}
	retainer, err := n.retainer(component)
	if err != nil {
		return nil, err
	}
	leak := &faultinject.MemoryLeak{
		Component: component,
		Target:    retainer,
		Size:      size,
		N:         count,
		Heap:      n.Heap,
		Seed:      seed,
	}
	return leak, n.Inject(leak)
}

// Close stops sampling, the monitor link and the container.
func (n *Node) Close() {
	n.haltSampling()
	if n.transport != nil {
		_ = n.transport.Close()
	}
	n.Container.Stop()
}
