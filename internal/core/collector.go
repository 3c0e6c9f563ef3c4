package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor"
)

// componentRecord is one instrumented component: its cell, resolved once
// at instrumentation, and what the latest round measured of it. The
// record keeps no history — the detectors keep their own windows and the
// wire ships rounds — so a node's memory does not grow with its uptime.
// last and baseline have one writer, the sampling round, and are read by
// queries; both hold sampleMu.
type componentRecord struct {
	name string
	cell *monitor.Cell
	// last is the latest round's sample, except that Size and SizeOK
	// hold the last measured size: a round that cannot measure the
	// component keeps the previous measurement.
	last     ComponentSample
	baseline int64 // first measured size
}

// heapWindow is how many rounds of heap retained bytes TimeToExhaustion
// extrapolates over. The window is a fixed ring, so the estimate costs
// the same after a week of rounds as after an hour.
const heapWindow = 240

// Collector is the node-local half of the split manager: the component
// registry, each component's latest round and the sampling round that
// reads the components' monitoring cells. It is everything a node needs
// to measure itself; the query/ranking/notification surface lives in
// Manager, and cluster-scale merging lives in the aggregator
// (internal/cluster), which consumes the rounds a Collector emits through
// its SampleObservers. A caller that wants a run's history subscribes an
// observer and records it.
//
// Locking: recsMu guards only the component registry (instrument /
// uninstrument, both rare); sampleMu serialises sampling rounds with each
// other and guards what the rounds write — the records' latest samples,
// the heap ring and the round scratch. Root-cause queries read under
// sampleMu too: they are cold paths, a round takes microseconds, and
// invocation recording takes neither lock.
type Collector struct {
	f    *Framework
	node string

	recsMu     sync.RWMutex
	components map[string]*componentRecord
	order      []string
	recsGen    atomic.Int64 // bumped on every registry change

	sampleMu sync.Mutex
	samples  atomic.Int64
	lastNs   int64 // the latest round's instant, UnixNano

	// heapRing holds the heap's retained bytes of the last heapWindow
	// rounds; heapN counts every round that wrote to it.
	heapRing [heapWindow]metrics.Point
	heapN    int

	// Round scratch. The record snapshot is cached against the registry
	// generation (instrument/uninstrument are rare) and the sample buffer
	// is reused, so a steady-state round allocates nothing.
	roundRecs    []*componentRecord
	roundRecsGen int64
	roundSamples []ComponentSample

	// observers receive each round's batch; the slice is copy-on-write
	// behind an atomic pointer so Sample reads it without locking, and
	// obsMu serialises the rare Subscribe calls.
	obsMu     sync.Mutex
	observers atomic.Pointer[[]SampleObserver]
}

// ComponentSample is one component's measurements in a sampling round, as
// delivered to subscribed SampleObservers and shipped to cluster
// aggregators. All fields are exported: the cluster wire codec, one
// package up, carries each of them across process boundaries.
type ComponentSample struct {
	// Component is the component name.
	Component string
	// Size is the measured retained size in bytes (valid when SizeOK).
	Size   int64
	SizeOK bool
	// Usage is the cumulative invocation count.
	Usage int64
	// CPUSeconds is the cumulative attributed CPU time.
	CPUSeconds float64
	// Threads is the live thread count.
	Threads int64
	// Handles is the live resource-handle count.
	Handles int64
	// LatencySeconds is the cumulative attributed response latency.
	LatencySeconds float64
	// Delta is the accumulated per-invocation heap delta.
	Delta int64
}

// SampleObserver consumes sampling rounds as they are ingested. Observers
// run on the sampling goroutine, serialised by the round lock (which the
// invocation-recording hot path never takes), so an observer may keep
// unsynchronised per-round state; it must not call Sample re-entrantly and
// should stay cheap — it adds latency to the round, though never to
// recording.
//
// Ownership: the batch is borrowed, not given. It is valid only for the
// duration of the ObserveSample call — the collector reclaims and rewrites
// the backing array on the next round — so an observer that retains
// samples beyond the call must copy them. Both in-tree observers comply:
// the detector bank projects the batch into its own window state
// synchronously, and the cluster forwarder's transports either ingest
// synchronously (in-proc) or finish encoding the frame before Publish
// returns (wire codecs).
type SampleObserver interface {
	ObserveSample(now time.Time, batch []ComponentSample)
}

func newCollector(f *Framework, node string) *Collector {
	return &Collector{
		f:          f,
		node:       node,
		components: make(map[string]*componentRecord),
	}
}

// Node returns the collector's node identity ("" for a standalone,
// single-node deployment).
func (c *Collector) Node() string { return c.node }

// Subscribe registers an observer for future sampling rounds.
func (c *Collector) Subscribe(o SampleObserver) {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	var cur []SampleObserver
	if p := c.observers.Load(); p != nil {
		cur = *p
	}
	next := make([]SampleObserver, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = o
	c.observers.Store(&next)
}

// addComponent registers name and its live object, resolving its cell. A
// duplicate is rejected before anything is touched.
func (c *Collector) addComponent(name string, target any) (*monitor.Cell, error) {
	c.recsMu.Lock()
	defer c.recsMu.Unlock()
	if _, dup := c.components[name]; dup {
		return nil, fmt.Errorf("core: component %q already instrumented", name)
	}
	c.f.objSize.RegisterTarget(name, target)
	cell := c.f.table.Cell(name)
	c.components[name] = &componentRecord{name: name, cell: cell}
	c.order = append(c.order, name)
	sort.Strings(c.order)
	c.recsGen.Add(1)
	return cell, nil
}

func (c *Collector) removeComponent(name string) {
	c.recsMu.Lock()
	defer c.recsMu.Unlock()
	c.f.objSize.UnregisterTarget(name)
	delete(c.components, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.recsGen.Add(1)
}

// Components lists the instrumented component names.
func (c *Collector) Components() []string {
	c.recsMu.RLock()
	defer c.recsMu.RUnlock()
	return append([]string(nil), c.order...)
}

// Samples returns how many sampling rounds have run.
func (c *Collector) Samples() int64 { return c.samples.Load() }

// roundRecords returns the record snapshot, in name order. Caller holds
// sampleMu. The snapshot is cached against the registry generation:
// instrument/uninstrument are rare cold-path events, so the common round
// reuses the previous snapshot without touching the registry lock or
// allocating.
func (c *Collector) roundRecords() []*componentRecord {
	gen := c.recsGen.Load()
	if gen == c.roundRecsGen && c.roundRecs != nil {
		return c.roundRecs
	}
	c.recsMu.RLock()
	recs := c.roundRecs[:0]
	for _, name := range c.order {
		recs = append(recs, c.components[name])
	}
	c.recsMu.RUnlock()
	c.roundRecs, c.roundRecsGen = recs, gen
	return recs
}

// Sample performs one collection round at the given instant: for every
// instrumented component it reads the cell its record holds — the
// counters the AC recorded and, through the object-size agent, the
// retained size of its live object — into the round's sample batch, and
// keeps the batch as each record's latest round. The round names no
// component: one sampling round per interval, forever, must not pay
// per-component lookups, and the agents' JMX beans read the same cells.
// Rounds are serialised against each other but hold no lock that
// invocation recording takes. At steady state the round allocates
// nothing: the record snapshot and the sample batch are collector-owned
// and reused (see SampleObserver for the borrow contract).
//
// Rounds must be sampled at non-decreasing instants of the collector's own
// clock — an older instant panics, because it means the caller mixed
// clocks — and cross-node clock disagreement is normalised downstream by
// the aggregator, never here.
func (c *Collector) Sample(now time.Time) {
	c.sampleMu.Lock()
	defer c.sampleMu.Unlock()
	c.round(now)
}

// sampleNow runs one round stamped with the framework clock. The instant
// is read under the round lock, so a caller racing the periodic rounds can
// never stamp an instant older than a round that took the lock first.
func (c *Collector) sampleNow() {
	c.sampleMu.Lock()
	defer c.sampleMu.Unlock()
	c.round(c.f.clock.Now())
}

// round is the body of Sample. Caller holds sampleMu. The clock check
// runs before anything is written, so a rejected round changes nothing.
func (c *Collector) round(now time.Time) {
	ns := now.UnixNano()
	if c.samples.Load() > 0 && ns < c.lastNs {
		panic(fmt.Sprintf("core: out-of-order sampling round: %v before %v",
			now, time.Unix(0, c.lastNs).UTC()))
	}
	c.lastNs = ns
	recs := c.roundRecords()
	if cap(c.roundSamples) < len(recs) {
		c.roundSamples = make([]ComponentSample, len(recs))
	}
	samples := c.roundSamples[:len(recs)]
	for i, rec := range recs {
		cell := rec.cell
		s := &samples[i]
		*s = ComponentSample{
			Component:      rec.name,
			Usage:          cell.Stats().Count,
			CPUSeconds:     cell.CPU().Seconds(),
			Threads:        cell.Live(monitor.Threads),
			Handles:        cell.Live(monitor.Handles),
			LatencySeconds: cell.Latency().Seconds(),
		}
		s.Size, s.SizeOK = c.f.objSize.SizeOf(cell)
		s.Delta, _ = cell.Delta()

		prev := rec.last
		rec.last = *s
		switch {
		case !s.SizeOK:
			rec.last.Size, rec.last.SizeOK = prev.Size, prev.SizeOK
		case !prev.SizeOK:
			rec.baseline = s.Size
		}
	}
	if c.f.heap != nil {
		c.heapRing[c.heapN%heapWindow] = metrics.Point{
			T: time.Unix(0, ns).UTC(),
			V: float64(c.f.heap.Stats().Retained),
		}
		c.heapN++
	}
	c.samples.Add(1)

	// Deliver the round to subscribed observers (the detector bank and any
	// cluster-transport forwarder live here). Still under sampleMu: rounds
	// are totally ordered for observers, which lets them keep single-owner
	// state — and sampleMu is not on the recording path, so nothing
	// contends. Observers borrow the batch for the duration of the call;
	// the collector reclaims and rewrites it next round.
	if p := c.observers.Load(); p != nil {
		for _, o := range *p {
			o.ObserveSample(now, samples)
		}
	}
}

// heapWindowPoints returns the heap ring's points in time order. Caller
// holds sampleMu.
func (c *Collector) heapWindowPoints() []metrics.Point {
	if c.heapN <= heapWindow {
		return append([]metrics.Point(nil), c.heapRing[:c.heapN]...)
	}
	i := c.heapN % heapWindow
	out := append(make([]metrics.Point, 0, heapWindow), c.heapRing[i:]...)
	return append(out, c.heapRing[:i]...)
}
