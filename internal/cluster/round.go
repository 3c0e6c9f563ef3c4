// Package cluster scales the monitoring pipeline from one process to a
// cluster of application-server nodes: each node runs the usual framework
// (weaver, agents, a core.Collector sampling its own components) and
// ships every sampling round through a Transport to an Aggregator, which
// merges the per-node streams, runs the online detectors per node, and
// derives cluster-level (quorum/outlier) verdicts — "component X is aging
// on node 2" or "component X is aging cluster-wide". A Balancer fronts
// the nodes' servlet containers so the existing emulated-browser load
// generator drives the whole cluster unchanged.
//
// Concurrency contract: the Aggregator shards ingestion across
// hash-striped per-node lanes — concurrent Publish calls from N
// forwarder connections contend only when their nodes share a lane, and
// the former global mutex survives only as the fold lock, taken by the
// one round per epoch that advances the watermark (plus joins, leaves
// and staleness eviction). Detection runs at ingest, on the node's lane:
// each round leaves a small pending record (its alarms and usage total),
// and the epoch fold reads only those records, inline on the goroutine
// that completed the epoch. The read paths (Epoch, TotalRounds, Nodes,
// Report, DrainNotifications) ride atomics and snapshots so monitoring
// the monitor never stalls ingest; see the lock hierarchy on Aggregator. Wire transports deliver each node's rounds in
// order on a dedicated goroutine; cross-node interleaving is absorbed by
// the epoch logic, which folds rounds by per-node sequence number and
// therefore produces transport-independent verdicts — byte-identical
// whatever the lane count or transport. The Balancer takes
// its own small mutex per request; requests are emulated-browser
// interactions (think-time scale), not join points.
//
// The wire also carries the actuation direction (control.go):
// the aggregator pushes drain/rejuvenate/re-admit CONTROL frames down
// the connection a node publishes rounds on, and the node's BinaryWire
// answers with ACK frames interleaved between its BATCH frames. Control
// traffic is command-rate (epochs, not rounds), stateless on the wire,
// and never touches the ingest lanes — SendControl and the ack dispatch
// ride their own leaf mutex.
package cluster

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jmx"
)

// Round is one node's sampling round as shipped to the aggregator: the
// node identity, the node-local 1-based sequence number, the node-local
// sampling instant, and the per-component measurements — everything the
// wire codec carries across a process boundary.
//
// Samples is borrowed along the whole shipping path: the forwarder passes
// the collector's round buffer through Publish, and the wire decoders
// hand the aggregator a reused decode buffer — a Round's samples are only
// valid for the duration of the call that delivers them, and every
// retainer (the aggregator, a custom Transport that buffers) copies.
type Round struct {
	// Node is the reporting node's identity.
	Node string
	// Seq is the node-local 1-based round number. Transports must
	// preserve per-node order; the aggregator drops stale or duplicate
	// sequence numbers.
	Seq int64
	// Time is the node's local sampling instant. Node clocks may
	// disagree (different virtual-clock offsets, unsynchronised hosts);
	// the aggregator normalises per node so merged rounds stay
	// time-ordered.
	Time time.Time
	// Samples holds the round's per-component measurements.
	Samples []core.ComponentSample
}

// Shifted returns the round with its timestamp displaced by d (the
// Samples are shared, not copied). Chaos harnesses use it to model a
// skewed node clock without reaching into the struct.
func (r Round) Shifted(d time.Duration) Round {
	r.Time = r.Time.Add(d)
	return r
}

// Forwarder ships a collector's sampling rounds to a transport. It
// implements core.SampleObserver, so wiring a node into a cluster is one
// Subscribe call (see Attach); it runs under the collector's round lock
// and therefore needs no synchronisation of its own beyond the error
// counter, which other goroutines may read.
type Forwarder struct {
	node string
	tr   Transport
	seq  int64
	errs atomic.Int64
}

// NewForwarder creates a forwarder publishing rounds for node over tr.
func NewForwarder(node string, tr Transport) *Forwarder {
	return &Forwarder{node: node, tr: tr}
}

// Attach subscribes a forwarder to the framework's collector, so every
// future sampling round is shipped to the transport stamped with the
// framework's node identity.
func Attach(f *core.Framework, tr Transport) *Forwarder {
	fw := NewForwarder(f.Node(), tr)
	f.Collector().Subscribe(fw)
	return fw
}

// ObserveSample implements core.SampleObserver: it wraps the batch into a
// Round and publishes it. Publish errors are counted, not propagated —
// a node must keep sampling locally even when its aggregator link is
// down.
//
// The batch is the collector's borrowed round buffer and is handed to the
// transport as-is, without a copy: every Transport consumes the round
// before Publish returns (the in-proc transport ingests synchronously and
// the aggregator copies what it retains; the wire transports finish
// encoding the frame inside Publish), so the forwarder ships a round with
// zero per-round garbage. An out-of-tree Transport that buffers rounds
// for later must copy Samples itself — see Transport's contract.
func (f *Forwarder) ObserveSample(now time.Time, batch []core.ComponentSample) {
	f.seq++
	r := Round{
		Node:    f.node,
		Seq:     f.seq,
		Time:    now,
		Samples: batch,
	}
	if err := f.tr.Publish(r); err != nil {
		f.errs.Add(1)
	}
}

// Errors returns how many rounds failed to publish.
func (f *Forwarder) Errors() int64 { return f.errs.Load() }

// Rounds returns how many rounds the forwarder has published (attempted).
func (f *Forwarder) Rounds() int64 { return f.seq }

// roundDropper is the optional transport facet reporting rounds the
// transport accepted but never delivered (BinaryWire implements it).
type roundDropper interface {
	DroppedRounds() int64
}

// Dropped returns how many rounds the underlying transport dropped after
// a failed write (0 for transports without the counter).
func (f *Forwarder) Dropped() int64 {
	if d, ok := f.tr.(roundDropper); ok {
		return d.DroppedRounds()
	}
	return 0
}

// ForwarderName returns the JMX object name of a node's forwarder bean.
func ForwarderName(node string) jmx.ObjectName {
	return jmx.MustObjectName("aging:type=Forwarder,node=" + node)
}

// Bean exposes the forwarder's publish counters — rounds attempted,
// publish errors, and rounds dropped by the transport after a failed write.
func (f *Forwarder) Bean() *jmx.Bean {
	return jmx.NewBean("cluster round forwarder: publish and drop counters").
		Attr("Rounds", "rounds published (attempted)", func() any { return f.Rounds() }).
		Attr("Errors", "rounds that failed to publish", func() any { return f.Errors() }).
		Attr("DroppedRounds", "rounds dropped after a failed transport write", func() any { return f.Dropped() })
}
