package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/aspect"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// Normative size of fleet_rounds: 128 framework nodes of 14 synthetic
// components, 32 warm-up epochs (part of set-up) and 800 timed epochs.
const (
	fleetNodes        = 128
	fleetComponents   = 14
	fleetWarmupEpochs = 32
	fleetTimedEpochs  = 800
	fleetInterval     = 30 * time.Second // virtual time between epochs
	fleetLeakNode     = 1                // node002
	fleetLeakComp     = 0                // app.comp00
	// fleetCaptureEpochs is how many leading epochs a traced run keeps
	// copies of, as input for the replay probes.
	fleetCaptureEpochs = 16
	// The two exact counts of this workload repeat on every seed and size
	// (the ramp is noiseless): the first alarm comes at epoch 9 and a round
	// costs 130.5 B on the wire. The acceptance driver cannot bound them
	// (they do not exist on the request workloads), so a correctness check
	// holds them to "any increase": a later verdict, or one more byte per
	// round, fails the run.
	fleetTTDCeiling       = 9
	fleetWireBytesCeiling = 131.0
)

func fleetNodeName(i int) string { return fmt.Sprintf("node%03d", i+1) }
func fleetCompName(c int) string { return fmt.Sprintf("app.comp%02d", c) }

// fleetComp is a synthetic component: a leak store plus a small map, so
// the object-size walk has something to walk.
type fleetComp struct {
	faultinject.LeakStore
	cache map[string]int
}

// fleetCall is the argument of every synthetic invocation. It reports a
// fixed per-component cost to the AC, so the CPU and latency series are
// noiseless ramps; the weaver's virtual clock never advances.
type fleetCall struct{ cost time.Duration }

func (c *fleetCall) ReportedCost() time.Duration { return c.cost }

// fleetNode is one real core.Framework over its synthetic components.
type fleetNode struct {
	fw      *core.Framework
	comps   []*fleetComp
	handles []aspect.Func
	// args holds each component's prebuilt argument list, so the synthetic
	// traffic itself allocates nothing (the container does the same with
	// its per-request argument scratch).
	args [][]any
	fwd  *cluster.Forwarder
}

// invoke runs one epoch's traffic: component c is called 10+c times.
func (n *fleetNode) invoke() {
	for c, h := range n.handles {
		for k := 0; k < 10+c; k++ {
			_, _ = h(n.args[c]...) // the synthetic body returns nothing and cannot fail
		}
	}
}

// barrier is a reusable rendezvous for the publisher goroutines. The
// publishers run in lock step per epoch: free-running, one descheduled
// publisher could fall more than the staleness window behind and have its
// nodes evicted, which would be a benchmark artefact, not a capacity
// limit.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     int
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// fleetStack is an assembled fleet: the nodes, the aggregator, and one
// wire per publisher goroutine multiplexing that publisher's share of the
// nodes.
type fleetStack struct {
	nodes []*fleetNode
	agg   *cluster.Aggregator
	links []*wireLink
	watch *epochWatch
	epoch int // epochs published so far

	// Traced runs only.
	spans     []*spanBuf // per publisher
	captured  []*roundCapture
	publishNs [][]int64 // [publisher][epoch] start of its last Publish of that epoch
	runFromNs int64     // when the latest run() began
	lagMax    int64
}

func fleetSizes(scale float64) (timedEpochs, publishers int) {
	return scaled(fleetTimedEpochs, scale, 16), min(runtime.GOMAXPROCS(0), 2)
}

func buildFleetStack(cfg runConfig) (*fleetStack, error) {
	timed, publishers := fleetSizes(cfg.Scale)
	epochs := fleetWarmupEpochs + timed
	names := make([]string, fleetNodes)
	for i := range names {
		names[i] = fleetNodeName(i)
	}
	fs := &fleetStack{agg: newAggregator(names...)}
	fs.watch = watchEpochs(fs.agg, cfg.Traced, epochs)
	for p := 0; p < publishers; p++ {
		link, err := newWireLink(fs.agg)
		if err != nil {
			return nil, err
		}
		fs.links = append(fs.links, link)
		if cfg.Traced {
			perPublisher := (fleetNodes/publishers + 1) * epochs
			fs.spans = append(fs.spans, newSpanBuf(uint64(p)+1, 2*perPublisher))
			fs.captured = append(fs.captured, &roundCapture{maxSeq: fleetCaptureEpochs})
			fs.publishNs = append(fs.publishNs, make([]int64, epochs+1))
		}
	}
	clock := sim.NewVirtualClock()
	for i := 0; i < fleetNodes; i++ {
		node, err := newFleetNode(cfg.Seed, i, clock)
		if err != nil {
			return nil, err
		}
		p := i % publishers
		var tr cluster.Transport = fs.links[p].wire
		if cfg.Traced {
			tr = &tracedTransport{inner: tr, buf: fs.spans[p], capture: fs.captured[p]}
		}
		node.fwd = cluster.Attach(node.fw, tr)
		fs.nodes = append(fs.nodes, node)
	}
	if err := fs.run(fleetWarmupEpochs); err != nil {
		return nil, err
	}
	return fs, nil
}

// newFleetNode builds one node. Per-component cost and map size derive
// from (seed, node, component) and stay constant over the run.
func newFleetNode(seed uint64, i int, clock sim.Clock) (*fleetNode, error) {
	weaver := aspect.NewWeaver(clock)
	fw, err := core.New(core.Options{Weaver: weaver, Clock: clock, Node: fleetNodeName(i)})
	if err != nil {
		return nil, fmt.Errorf("fleet node %d: %w", i, err)
	}
	n := &fleetNode{fw: fw}
	for c := 0; c < fleetComponents; c++ {
		rng := sim.DeriveRand64(seed, uint64(i)<<8|uint64(c))
		comp := &fleetComp{cache: make(map[string]int)}
		for k := 0; k < 4+rng.IntN(8); k++ {
			comp.cache[fmt.Sprintf("key%02d", k)] = k
		}
		n.args = append(n.args, []any{&fleetCall{cost: time.Duration(200+rng.IntN(800)) * time.Microsecond}})
		name := fleetCompName(c)
		n.comps = append(n.comps, comp)
		n.handles = append(n.handles, weaver.Weave(name, "Service", func(...any) (any, error) { return nil, nil }))
		if err := fw.InstrumentComponent(name, comp); err != nil {
			return nil, fmt.Errorf("fleet node %d: %w", i, err)
		}
	}
	return n, nil
}

// run publishes the next count epochs from the publisher goroutines, then
// flushes the wires and waits for the aggregator to fold them all.
func (fs *fleetStack) run(count int) error {
	publishers := len(fs.links)
	first, last := fs.epoch+1, fs.epoch+count
	fs.runFromNs = int64(time.Since(processStart))
	bar := newBarrier(publishers)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fs.publish(p, first, last, bar)
		}(p)
	}
	wg.Wait()
	fs.epoch = last
	for _, l := range fs.links {
		if err := l.wire.Flush(); err != nil {
			return fmt.Errorf("fleet: flush: %w", err)
		}
	}
	return syncAggregator(fs.agg, int64(fleetNodes)*int64(last))
}

// publish is one publisher goroutine: for each epoch, drive and sample
// every node it owns, then meet the other publishers.
func (fs *fleetStack) publish(p, first, last int, bar *barrier) {
	publishers := len(fs.links)
	var buf *spanBuf
	if fs.spans != nil {
		buf = fs.spans[p]
	}
	for epoch := first; epoch <= last; epoch++ {
		now := sim.Epoch.Add(time.Duration(epoch) * fleetInterval)
		for i := p; i < fleetNodes; i += publishers {
			node := fs.nodes[i]
			if i == fleetLeakNode {
				node.comps[fleetLeakComp].Retain(leakSize)
			}
			node.invoke()
			if buf == nil {
				node.fw.Manager().Sample(now)
				continue
			}
			si := buf.begin(spanSample, noTag, uint64(epoch)<<16|uint64(i))
			node.fw.Manager().Sample(now)
			buf.end(si)
		}
		if buf != nil {
			// The newest span is the cluster.publish of this publisher's
			// last node: where its share of the epoch was handed over.
			fs.publishNs[p][epoch] = buf.spans[len(buf.spans)-1].Start
			if lag := int64(epoch) - fs.agg.Epoch(); p == 0 && lag > fs.lagMax {
				fs.lagMax = lag
			}
		}
		bar.wait()
	}
}

func (fs *fleetStack) close() {
	for _, l := range fs.links {
		_ = l.close() // teardown of an assembly that is done; a close error changes nothing
	}
}

// published sums what the forwarders attempted, failed and dropped.
func (fs *fleetStack) published() (rounds, lost int64) {
	for _, n := range fs.nodes {
		rounds += n.fwd.Rounds()
		lost += n.fwd.Errors() + n.fwd.Dropped()
	}
	return rounds, lost
}

func (fs *fleetStack) wireCounts() (bytes, frames int64) {
	for _, l := range fs.links {
		bytes += l.conn.bytes.Load()
		frames += l.conn.frames.Load()
	}
	return bytes, frames
}

func runFleetRounds(cfg runConfig) (*result, error) {
	timed, publishers := fleetSizes(cfg.Scale)
	res := &result{Workload: cfg.Workload, Traced: cfg.Traced,
		Size: fmt.Sprintf("nodes=%d components=%d warmup_epochs=%d timed_epochs=%d publishers=%d leak=%dB/epoch",
			fleetNodes, fleetComponents, fleetWarmupEpochs, timed, publishers, leakSize)}

	fs, err := buildFleetStack(cfg)
	if err != nil {
		return nil, err
	}
	defer fs.close()

	bytesBefore, framesBefore := fs.wireCounts()
	before := readUsage()
	if cfg.SetupOnly {
		res.addSetup(before)
		return res, nil
	}
	if err := fs.run(timed); err != nil {
		return nil, err
	}
	after := readUsage()
	res.WallS = after.at.Sub(before.at).Seconds()
	bytesAfter, framesAfter := fs.wireCounts()

	ops := int64(fleetNodes) * int64(timed)
	epochs := int64(fleetWarmupEpochs + timed)
	published, lost := fs.published()
	res.Attempted = ops
	res.Failed = fs.agg.ShedRounds() + lost

	res.check(published == fleetNodes*epochs, "forwarders published %d rounds, want %d", published, fleetNodes*epochs)
	res.check(fs.agg.TotalRounds() == fleetNodes*epochs, "aggregator ingested %d rounds, want %d", fs.agg.TotalRounds(), fleetNodes*epochs)
	res.check(fs.agg.Epoch() == epochs, "aggregator at epoch %d, want %d", fs.agg.Epoch(), epochs)
	res.check(fs.agg.ShedRounds() == 0, "aggregator shed %d rounds", fs.agg.ShedRounds())
	res.check(lost == 0, "%d rounds failed to publish or were dropped", lost)
	res.check(fs.agg.DroppedNotifications() == 0, "aggregator dropped %d notifications", fs.agg.DroppedNotifications())
	// The first alarm, not a standing one: on this noiseless ramp the
	// verdict can lapse and return later, which is detector behaviour and
	// not a benchmark failure.
	want := core.ResourceMemory + " " + fleetNodeName(fleetLeakNode) + "/" + fleetCompName(fleetLeakComp)
	res.check(len(fs.watch.firstPairs) == 1 && fs.watch.firstPairs[0] == want,
		"first alarm (epoch %d) names %v, want only %q", fs.watch.firstEpoch, fs.watch.firstPairs, want)
	res.infof("first alarm %v at epoch %d", fs.watch.firstPairs, fs.watch.firstEpoch)

	wireBytes := float64(bytesAfter-bytesBefore) / float64(ops)
	res.check(fs.watch.firstEpoch <= fleetTTDCeiling, "first alarm at epoch %d, later than the ceiling of %d", fs.watch.firstEpoch, fleetTTDCeiling)
	res.check(wireBytes <= fleetWireBytesCeiling, "%.3f wire bytes per round, above the ceiling of %g", wireBytes, fleetWireBytesCeiling)
	res.add(mTTD, float64(fs.watch.firstEpoch), "count")
	res.add(mWireBytes, wireBytes, "B")
	if !cfg.Traced {
		return res, res.addEndToEnd(mRounds, before, after, ops)
	}

	res.add("cluster.frames_per_round", float64(framesAfter-framesBefore)/float64(ops), "count")
	res.add("cluster.epoch_lag_max", float64(fs.lagMax), "count")
	res.add("cluster.shed_rounds", float64(fs.agg.ShedRounds()), "count")
	res.add("cluster.dropped_notifications", float64(fs.agg.DroppedNotifications()), "count")

	spans := fs.timedSpans(fleetWarmupEpochs + 1)
	sampleLayerMetrics(res, spans)
	folds := durationsUs(spans, spanEpoch)
	res.addN("cluster.fold_us_p50", percentile(folds, 50), "us", len(folds))
	res.addN("cluster.fold_us_p95", percentile(folds, 95), "us", len(folds))
	res.infoHighestPercentile("cluster.fold_us", folds)

	names := make([]string, fleetComponents)
	for c := range names {
		names[c] = fleetCompName(c)
	}
	objsizeProbe(res, fs.nodes[0].fw, names)
	var rounds []cluster.Round
	for _, c := range fs.captured {
		rounds = append(rounds, c.rounds...)
	}
	if err := roundProbes(res, rounds, fleetNodes); err != nil {
		return nil, err
	}
	rejuvProbe(res, fs.watch.events)
	if cfg.TraceOut != "" {
		if err := writeSpans(cfg.TraceOut, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timedSpans merges the publishers' spans of the latest run() and adds one
// cluster.epoch span per epoch of it: from the start of the publish that
// completed the epoch to the delivery of its epoch event.
func (fs *fleetStack) timedSpans(firstEpoch int) []span {
	var out []span
	for _, buf := range fs.spans {
		for _, s := range buf.spans {
			if s.Start >= fs.runFromNs {
				out = append(out, s)
			}
		}
	}
	for epoch := firstEpoch; epoch <= fs.epoch; epoch++ {
		var start int64
		for _, ns := range fs.publishNs {
			start = max(start, ns[epoch])
		}
		out = append(out, span{
			Name: spanEpoch, Tag: noTag, ID: uint64(len(fs.spans)+1)<<40 | uint64(epoch),
			Trace: uint64(epoch) << 16, Start: start, End: fs.watch.eventNs[epoch],
		})
	}
	return out
}
