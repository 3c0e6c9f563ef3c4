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

// componentRecord holds the collector's per-component series and the
// component's cell, resolved once at instrumentation. Each series has one
// writer, the sampling round under sampleMu, and lock-free readers; the
// baseline is atomic. So records need no lock of their own: readers and
// the sampler touch them directly.
type componentRecord struct {
	name     string
	cell     *monitor.Cell
	size     *metrics.Series // measured object size, bytes
	usage    *metrics.Series // cumulative invocations
	cpu      *metrics.Series // cumulative CPU seconds
	threads  *metrics.Series // live threads
	handles  *metrics.Series // live resource handles
	latency  *metrics.Series // cumulative response-latency seconds
	delta    *metrics.Series // accumulated per-invocation heap deltas
	baseline atomic.Int64    // first measured size
	hasBase  atomic.Bool
}

// Collector is the node-local half of the split manager: the component
// registry, the per-component time series and the sampling round that
// reads the components' monitoring cells. It is everything a node needs
// to measure itself; the query/ranking/notification surface lives in
// Manager, and cluster-scale merging lives in the aggregator
// (internal/cluster), which consumes the rounds a Collector emits through
// its SampleObservers.
//
// Locking is split so the paths that used to serialise on one mutex no
// longer meet: recsMu guards only the component registry (instrument /
// uninstrument, both rare); sampleMu serialises sampling rounds with each
// other (keeping every series time-ordered) but is never held while
// root-cause queries read; Data/Rank/Map take a registry read-lock just
// long enough to snapshot the record pointers and then read the series
// lock-free, concurrently with invocation recording and sampling.
type Collector struct {
	f    *Framework
	node string

	recsMu     sync.RWMutex
	components map[string]*componentRecord
	order      []string
	recsGen    atomic.Int64 // bumped on every registry change

	sampleMu     sync.Mutex
	heapRetained *metrics.Series
	samples      atomic.Int64

	// Round scratch, owned by sampleMu. The record snapshot is cached
	// against the registry generation (instrument/uninstrument are rare)
	// and the sample buffer is reused, so a steady-state round allocates
	// nothing.
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
		f:            f,
		node:         node,
		components:   make(map[string]*componentRecord),
		heapRetained: metrics.NewSeries("heap.retained"),
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
	c.components[name] = &componentRecord{
		name:    name,
		cell:    cell,
		size:    metrics.NewSeries(name + ".size"),
		usage:   metrics.NewSeries(name + ".usage"),
		cpu:     metrics.NewSeries(name + ".cpu"),
		threads: metrics.NewSeries(name + ".threads"),
		handles: metrics.NewSeries(name + ".handles"),
		latency: metrics.NewSeries(name + ".latency"),
		delta:   metrics.NewSeries(name + ".delta"),
	}
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

// records snapshots the instrumented records in name order.
func (c *Collector) records() []*componentRecord {
	c.recsMu.RLock()
	defer c.recsMu.RUnlock()
	out := make([]*componentRecord, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.components[name])
	}
	return out
}

// snapshotRecords rebuilds dst into the name-ordered record snapshot and
// returns it alongside the registry generation it reflects. It is the
// one registry-iteration helper behind every generation-cached snapshot
// (the sampling round's, the manager's suspect check's): per-round
// callers keep their own (slice, generation) cache under their own lock
// and call this only when the generation moved.
func (c *Collector) snapshotRecords(dst []*componentRecord) ([]*componentRecord, int64) {
	gen := c.recsGen.Load()
	c.recsMu.RLock()
	dst = dst[:0]
	for _, name := range c.order {
		dst = append(dst, c.components[name])
	}
	c.recsMu.RUnlock()
	return dst, gen
}

// roundRecords returns the sampling round's record snapshot, in name
// order. Caller holds sampleMu. The snapshot is cached against the
// registry generation: instrument/uninstrument are rare cold-path events,
// so the common round reuses the previous snapshot without touching the
// registry lock or allocating.
func (c *Collector) roundRecords() []*componentRecord {
	if gen := c.recsGen.Load(); gen == c.roundRecsGen && c.roundRecs != nil {
		return c.roundRecs
	}
	c.roundRecs, c.roundRecsGen = c.snapshotRecords(c.roundRecs)
	return c.roundRecs
}

// Sample performs one collection round at the given instant: for every
// instrumented component it reads the cell its record holds — the
// counters the AC recorded and, through the object-size agent, the
// retained size of its live object — into the round's sample batch, and
// appends the batch to the series. The round names no component: one
// sampling round per interval, forever, must not pay per-component
// lookups, and the agents' JMX beans read the same cells. Rounds are
// serialised against each other (so the series stay time-ordered and
// each has one writer) but the round holds no lock that invocation
// recording or root-cause queries take: queries read the series
// lock-free while the round appends. At steady state the round allocates
// nothing: the record snapshot and the sample batch are collector-owned
// and reused (see SampleObserver for the borrow contract).
//
// Rounds must be sampled at non-decreasing instants of the collector's own
// clock; cross-node clock disagreement is normalised downstream by the
// aggregator, never here.
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

// round is the body of Sample. Caller holds sampleMu.
func (c *Collector) round(now time.Time) {
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

		if s.SizeOK {
			if !rec.hasBase.Load() {
				rec.baseline.Store(s.Size)
				rec.hasBase.Store(true)
			}
			rec.size.Append(now, float64(s.Size))
		}
		rec.usage.Append(now, float64(s.Usage))
		rec.cpu.Append(now, s.CPUSeconds)
		rec.threads.Append(now, float64(s.Threads))
		rec.handles.Append(now, float64(s.Handles))
		rec.latency.Append(now, s.LatencySeconds)
		rec.delta.Append(now, float64(s.Delta))
	}
	if c.f.heap != nil {
		c.heapRetained.Append(now, float64(c.f.heap.Stats().Retained))
	}
	c.samples.Add(1)

	// Deliver the round to subscribed observers (the detector bank and any
	// cluster-transport forwarder live here). Still under sampleMu: rounds
	// are totally ordered for observers, which lets them keep single-owner
	// state — and sampleMu is not on the recording or query paths, so
	// nothing contends. Observers borrow the batch for the duration of the
	// call; the collector reclaims and rewrites it next round.
	if p := c.observers.Load(); p != nil {
		for _, o := range *p {
			o.ObserveSample(now, samples)
		}
	}
}

// SizeSeries returns a copy of the measured size series of a component.
func (c *Collector) SizeSeries(name string) []metrics.Point {
	c.recsMu.RLock()
	rec, ok := c.components[name]
	c.recsMu.RUnlock()
	if ok {
		return rec.size.Points()
	}
	return nil
}

// HeapRetainedSeries returns the sampled heap retained-bytes series.
func (c *Collector) HeapRetainedSeries() []metrics.Point {
	return c.heapRetained.Points()
}
