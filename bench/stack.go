package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/aspect"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/jvmheap"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

// The harness assembles its stacks from the leaf packages directly — it
// does not import internal/experiment, so the planned collapse of the
// experiment stacks never touches the benchmark.

// detectConfig is the detector tuning every monitored workload shares.
var detectConfig = detect.Config{Window: 20, MinSamples: 6, Consecutive: 3}

// containerConfig sizes the servlet container so a 50 000-session
// population never queues: with 1000 workers Submit executes the servlet
// inline.
var containerConfig = servlet.Config{Workers: 1000, QueueCapacity: 10000}

// wireBatchRounds is the BATCH flush policy of every benchmark wire.
const wireBatchRounds = 8

// The paper's leak: 100 KB per injection, countdown drawn from [0, N=100].
const (
	leakSize = 100 << 10
	leakN    = 100
)

// interIndex maps an interaction name to its index in tpcw.Interactions.
var interIndex = func() map[string]uint8 {
	m := make(map[string]uint8, len(tpcw.Interactions))
	for i, name := range tpcw.Interactions {
		m[name] = uint8(i)
	}
	return m
}()

// appStack is one TPC-W application server: database, woven DAOs and
// servlets, simulated heap and servlet container, plus the monitoring
// framework when monitored.
type appStack struct {
	engine    *sim.Engine
	weaver    *aspect.Weaver
	db        *sqldb.DB
	app       *tpcw.App
	heap      *jvmheap.Heap
	container *servlet.Container
	fw        *core.Framework // nil when unmonitored
}

// newAppStack populates a database from seed and deploys the fourteen
// servlets into a started container on engine's clock.
func newAppStack(engine *sim.Engine, seed uint64) (*appStack, error) {
	weaver := aspect.NewWeaver(engine.Clock())
	db := sqldb.NewDB()
	app, err := tpcw.NewApp(db, weaver, engine.Clock(), tpcw.Scale{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("app stack: %w", err)
	}
	heap := jvmheap.New(jvmheap.DefaultCapacity, engine.Clock())
	container := servlet.NewContainer(engine, weaver, db, heap, containerConfig)
	if err := app.DeployAll(container); err != nil {
		return nil, fmt.Errorf("app stack: %w", err)
	}
	if err := container.Start(); err != nil {
		return nil, fmt.Errorf("app stack: %w", err)
	}
	return &appStack{engine: engine, weaver: weaver, db: db, app: app, heap: heap, container: container}, nil
}

// monitor attaches one core.Framework over the fourteen servlets.
func (s *appStack) monitor(node string) error {
	fw, err := core.New(core.Options{Weaver: s.weaver, Clock: s.engine.Clock(), Heap: s.heap, Node: node})
	if err != nil {
		return fmt.Errorf("monitor %s: %w", node, err)
	}
	for _, comp := range tpcw.Interactions {
		target, _ := s.app.Servlet(comp)
		if err := fw.InstrumentComponent(comp, target); err != nil {
			return fmt.Errorf("monitor %s: %w", node, err)
		}
	}
	s.fw = fw
	return nil
}

// armLeak injects the paper's memory leak into one servlet. n is the
// countdown bound (leakN at normative size).
func (s *appStack) armLeak(component string, n int, seed uint64) error {
	target, ok := s.app.Servlet(component)
	if !ok {
		return fmt.Errorf("arm leak: no servlet %q", component)
	}
	retainer, ok := target.(faultinject.Retainer)
	if !ok {
		return fmt.Errorf("arm leak: servlet %q is not injectable", component)
	}
	leak := &faultinject.MemoryLeak{Component: component, Target: retainer, Size: leakSize, N: n, Heap: s.heap, Seed: seed}
	if err := s.weaver.Register(leak.Aspect()); err != nil {
		return fmt.Errorf("arm leak: %w", err)
	}
	return nil
}

// tableLen returns a table's row count.
func (s *appStack) tableLen(name string) (int, error) {
	t, err := s.db.Table(name)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// countingConn counts what a publisher writes to its pipe: bytes for
// wire_bytes_per_round, Write calls (one per frame) for frames_per_round.
type countingConn struct {
	net.Conn
	bytes  atomic.Int64
	frames atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	c.frames.Add(1)
	return n, err
}

// wireLink is one publisher connection into an aggregator: a BinaryWire
// over a net.Pipe served by ServeBinaryConn on its own goroutine.
type wireLink struct {
	conn   *countingConn
	wire   *cluster.BinaryWire
	served chan error
}

func newWireLink(agg *cluster.Aggregator) (*wireLink, error) {
	client, server := net.Pipe()
	l := &wireLink{conn: &countingConn{Conn: client}, served: make(chan error, 1)}
	go func() { l.served <- agg.ServeBinaryConn(server) }()
	l.wire = cluster.NewBinaryWire(l.conn)
	// Count-triggered flushes only: a wall-clock flush deadline would make
	// the frame count depend on scheduling.
	if err := l.wire.SetBatch(wireBatchRounds, 0); err != nil {
		return nil, fmt.Errorf("wire link: %w", err)
	}
	return l, nil
}

// close flushes and closes the publishing end and waits for the serving
// goroutine to drain and exit.
func (l *wireLink) close() error {
	err := l.wire.Close()
	if serr := <-l.served; err == nil {
		err = serr
	}
	return err
}

// newAggregator builds the aggregator every monitored workload feeds. A
// publisher flushing a full BATCH frame runs wireBatchRounds epochs ahead
// of peers still buffering; the staleness window is widened past that so
// batching never reads as a dead node.
func newAggregator(nodes ...string) *cluster.Aggregator {
	agg := cluster.New(cluster.Config{Detect: detectConfig, StaleEpochs: 2 * wireBatchRounds})
	agg.Expect(nodes...)
	return agg
}

// epochWatch follows the aggregator's epoch events: the first alarm (for
// ttd_epochs and the verdict check) and every (resource, pair) ever
// flagged. Events are delivered one at a time in epoch order, and readers
// wait for Aggregator.SyncFolds first, so it needs no lock of its own.
type epochWatch struct {
	firstEpoch int64    // epoch of the first event carrying a verdict; 0 = none yet
	firstPairs []string // that event's "resource node/component" pairs
	flagged    map[string]bool

	// Traced runs also keep the events (for the rejuv probe) and stamp
	// each epoch's delivery time (the end of its cluster.epoch span).
	keep    bool
	events  []cluster.EpochEvent
	eventNs []int64 // by epoch
}

func watchEpochs(agg *cluster.Aggregator, keep bool, epochs int) *epochWatch {
	w := &epochWatch{flagged: make(map[string]bool), keep: keep}
	if keep {
		w.eventNs = make([]int64, epochs+1)
	}
	agg.SubscribeEpochs(w.observe)
	return w
}

func (w *epochWatch) observe(ev cluster.EpochEvent) {
	if w.keep {
		if ev.Epoch >= 0 && int(ev.Epoch) < len(w.eventNs) {
			w.eventNs[ev.Epoch] = int64(time.Since(processStart))
		}
		w.events = append(w.events, ev)
	}
	for _, v := range ev.Verdicts {
		pair := v.Resource + " " + v.Pair()
		w.flagged[pair] = true
		if w.firstEpoch == 0 || w.firstEpoch == ev.Epoch {
			w.firstEpoch = ev.Epoch
			w.firstPairs = append(w.firstPairs, pair)
		}
	}
}

// syncAggregator is the read barrier: wait until the aggregator has
// counted want rounds, then SyncFolds so every epoch those rounds complete
// has published its reports (a round is counted before the fold it
// completes runs).
func syncAggregator(agg *cluster.Aggregator, want int64) error {
	deadline := time.Now().Add(20 * time.Second)
	for agg.TotalRounds()+agg.ShedRounds() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("aggregator ingested %d of %d rounds", agg.TotalRounds(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	agg.SyncFolds()
	return nil
}
