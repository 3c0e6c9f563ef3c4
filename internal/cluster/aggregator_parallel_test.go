package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jmx"
)

// shardedParityScenario drives one eventful cluster history — skewed
// clocks, a sick replica, a mid-run join and a mid-run leave — into an
// aggregator and returns everything externally observable: the drained
// notification stream, the final per-resource reports (times stripped:
// the merged timeline's high-water mark depends on arrival interleaving
// by design, verdicts must not), and the final membership.
func shardedParityScenario(a *Aggregator) ([]jmx.Notification, map[string][]ClusterVerdict, []NodeStatus) {
	nodes := []string{"node1", "node2", "node3"}
	a.Expect(nodes...)
	offsets := map[string]time.Duration{"node2": 90 * time.Minute, "node3": -45 * time.Second}
	leaks := map[string]int64{"node2": 4096}
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	var notifs []jmx.Notification
	for seq := int64(1); seq <= 40; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range nodes {
			a.Ingest(syntheticRound(n, seq, at.Add(offsets[n]), leaks[n]))
		}
		if seq == 12 {
			// node4 joins with a fresh local sequence.
			nodes = append(nodes, "node4")
		}
		if seq >= 12 {
			a.Ingest(syntheticRound("node4", seq-11, at, 0))
		}
		if seq == 25 {
			a.Leave("node3")
			nodes = []string{"node1", "node2", "node4"}
		}
		notifs = append(notifs, a.DrainNotifications()...)
	}
	verdicts := make(map[string][]ClusterVerdict)
	for _, res := range core.DetectorResources {
		if rep := a.Report(res); rep != nil {
			verdicts[res] = append([]ClusterVerdict(nil), rep.Verdicts...)
		}
	}
	return notifs, verdicts, a.Nodes()
}

// TestAggregatorShardedFoldMatchesSerial pins the tentpole contract: the
// lane-sharded aggregator with a parallel fold pool produces the same
// notification stream, verdicts and membership as the serial reference
// configuration (one lane, inline fold), byte for byte.
func TestAggregatorShardedFoldMatchesSerial(t *testing.T) {
	serial := New(Config{Detect: testDetect(), IngestLanes: 1, FoldWorkers: 1})
	sharded := New(Config{Detect: testDetect(), IngestLanes: 8, FoldWorkers: 4})

	wantNotifs, wantVerdicts, wantNodes := shardedParityScenario(serial)
	gotNotifs, gotVerdicts, gotNodes := shardedParityScenario(sharded)

	if !reflect.DeepEqual(gotNotifs, wantNotifs) {
		t.Errorf("notification streams diverge:\nserial:  %+v\nsharded: %+v", wantNotifs, gotNotifs)
	}
	if !reflect.DeepEqual(gotVerdicts, wantVerdicts) {
		t.Errorf("verdicts diverge:\nserial:  %+v\nsharded: %+v", wantVerdicts, gotVerdicts)
	}
	if !reflect.DeepEqual(gotNodes, wantNodes) {
		t.Errorf("membership diverges:\nserial:  %+v\nsharded: %+v", wantNodes, gotNodes)
	}
	if len(wantNotifs) == 0 || len(wantVerdicts[core.ResourceMemory]) == 0 {
		t.Fatalf("scenario produced no alarms to compare (notifs=%d)", len(wantNotifs))
	}
}

// TestAggregatorConcurrentPublishersSoak is the -race soak: N forwarders
// publish into one aggregator from their own goroutines (the wire
// deployment's shape) while monitoring goroutines hammer every read path.
// Verdict correctness is asserted at the end; the race detector asserts
// the rest.
func TestAggregatorConcurrentPublishersSoak(t *testing.T) {
	const nodes, rounds = 8, 60
	a := New(Config{Detect: testDetect()})
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i+1)
	}
	a.Expect(names...)

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var drained []jmx.Notification
		for {
			select {
			case <-done:
				// A final drain below picks up anything still queued.
				_ = drained
				return
			default:
			}
			a.Epoch()
			a.TotalRounds()
			a.Nodes()
			a.Report(core.ResourceMemory)
			a.NodeReport("node3", core.ResourceMemory)
			a.LiveRank(core.ResourceMemory)
			drained = append(drained, a.DrainNotifications()...)
		}
	}()

	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	var barrier sync.WaitGroup
	feeds := make([]chan int64, nodes)
	var pubs sync.WaitGroup
	for i, n := range names {
		feeds[i] = make(chan int64, 1)
		leak := int64(0)
		if n == "node3" {
			leak = 4096
		}
		fw := NewForwarder(n, NewInProc(a))
		pubs.Add(1)
		go func(feed <-chan int64, node string, leak int64) {
			defer pubs.Done()
			for seq := range feed {
				r := syntheticRound(node, seq, t0.Add(time.Duration(seq)*30*time.Second), leak)
				fw.ObserveSample(r.Time, r.Samples)
				barrier.Done()
			}
		}(feeds[i], n, leak)
	}
	for seq := int64(1); seq <= rounds; seq++ {
		// The per-round barrier models the shared sampling cadence and
		// keeps node drift inside the staleness window.
		barrier.Add(nodes)
		for _, feed := range feeds {
			feed <- seq
		}
		barrier.Wait()
	}
	for _, feed := range feeds {
		close(feed)
	}
	pubs.Wait()
	close(done)
	readers.Wait()

	if got := a.TotalRounds(); got != nodes*rounds {
		t.Fatalf("TotalRounds = %d, want %d", got, nodes*rounds)
	}
	if got := a.Epoch(); got != rounds {
		t.Fatalf("epoch = %d, want %d", got, rounds)
	}
	rep := a.Report(core.ResourceMemory)
	if rep == nil || !rep.Alarming() {
		t.Fatalf("no memory verdict after soak: %v", rep)
	}
	top, _ := rep.Top()
	if top.Pair() != "node3/leaky" {
		t.Fatalf("top verdict = %q, want node3/leaky", top.Pair())
	}
}

// TestLeaveResetRaceParallelFold hammers the administrative membership
// surface — Leave and ResetNode, the operations a rejuvenation
// controller or an operator issues — against in-flight parallel folds
// and concurrent publishers. The race detector asserts the locking; the
// test asserts the plane comes out coherent: nodes that kept publishing
// rejoin, epochs advance, and every admission slot is released.
func TestLeaveResetRaceParallelFold(t *testing.T) {
	const nodes, rounds = 6, 80
	a := New(Config{Detect: testDetect(), IngestLanes: 4, FoldWorkers: 4})
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i+1)
	}
	a.Expect(names...)

	done := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			a.Leave(names[i%nodes])
			a.ResetNode(names[(i+1)%nodes])
			a.Nodes()
			a.Report(core.ResourceMemory)
		}
	}()

	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	var barrier sync.WaitGroup
	feeds := make([]chan int64, nodes)
	var pubs sync.WaitGroup
	for i, n := range names {
		feeds[i] = make(chan int64, 1)
		pubs.Add(1)
		go func(feed <-chan int64, node string) {
			defer pubs.Done()
			for seq := range feed {
				// Publishing straight through Leave exercises the rejoin
				// path against the fold in flight.
				a.Ingest(syntheticRound(node, seq, t0.Add(time.Duration(seq)*30*time.Second), 0))
				barrier.Done()
			}
		}(feeds[i], n)
	}
	for seq := int64(1); seq <= rounds; seq++ {
		barrier.Add(nodes)
		for _, feed := range feeds {
			feed <- seq
		}
		barrier.Wait()
	}
	for _, feed := range feeds {
		close(feed)
	}
	pubs.Wait()
	close(done)
	churn.Wait()

	// Quiesce: everyone publishes a few more lockstep rounds with the
	// churn stopped, after which the whole membership must be active
	// and the epoch line moving again.
	before := a.Epoch()
	for seq := int64(rounds + 1); seq <= rounds+10; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range names {
			a.Ingest(syntheticRound(n, seq, at, 0))
		}
	}
	if got := a.Epoch(); got <= before {
		t.Fatalf("epoch stuck at %d after churn stopped", got)
	}
	for _, st := range a.Nodes() {
		if !st.Active {
			t.Fatalf("node %s never rejoined after churn: %+v", st.Node, st)
		}
	}
	for i := range a.lanes {
		if got := a.lanes[i].queued.Load(); got != 0 {
			t.Fatalf("lane %d admission counter = %d after quiesce, want 0", i, got)
		}
	}
	if a.ShedRounds() != 0 {
		// Publishers were barriered, never more than one in flight per
		// node against the default 1024-deep lanes: nothing may shed.
		t.Fatalf("ShedRounds = %d under a paced load", a.ShedRounds())
	}
}
