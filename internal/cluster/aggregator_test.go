package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
)

// testDetect is a fast-reacting detector tuning for synthetic rounds.
func testDetect() detect.Config {
	return detect.Config{Window: 20, MinSamples: 4, Consecutive: 2}
}

// syntheticRound builds one round for a node: component "leaky" grows by
// leak bytes per round, component "ok" stays flat, both accrue usage.
func syntheticRound(node string, seq int64, at time.Time, leak int64) Round {
	return Round{
		Node: node,
		Seq:  seq,
		Time: at,
		Samples: []core.ComponentSample{
			{Component: "leaky", Size: 1000 + leak*seq, SizeOK: true, Usage: 100 * seq, CPUSeconds: 0.1 * float64(seq), Threads: 2},
			{Component: "ok", Size: 1000, SizeOK: true, Usage: 100 * seq, CPUSeconds: 0.1 * float64(seq), Threads: 2},
		},
	}
}

// driveCluster feeds `rounds` synchronized rounds for the given nodes,
// with per-node clock offsets and per-node leak rates.
func driveCluster(a *Aggregator, nodes []string, offsets map[string]time.Duration, leaks map[string]int64, rounds int64) {
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for seq := int64(1); seq <= rounds; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range nodes {
			a.Ingest(syntheticRound(n, seq, at.Add(offsets[n]), leaks[n]))
		}
	}
}

func TestAggregatorSingleNodeLeakIsNodeLocal(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2", "node3"}
	a.Expect(nodes...)
	driveCluster(a, nodes, nil, map[string]int64{"node2": 4096}, 20)

	if got := a.Epoch(); got != 20 {
		t.Fatalf("epoch = %d, want 20", got)
	}
	rep := a.Report(core.ResourceMemory)
	if rep == nil || !rep.Alarming() {
		t.Fatalf("no memory verdict: %v", rep)
	}
	top, _ := rep.Top()
	if top.Component != "leaky" || top.ClusterWide {
		t.Fatalf("want node-local leaky verdict, got %+v", top)
	}
	if len(top.Nodes) != 1 || top.Nodes[0] != "node2" {
		t.Fatalf("verdict names nodes %v, want [node2]", top.Nodes)
	}
	if top.Pair() != "node2/leaky" {
		t.Fatalf("Pair() = %q", top.Pair())
	}
	if top.FirstEpoch <= 0 || top.FirstEpoch > 20 {
		t.Fatalf("FirstEpoch = %d", top.FirstEpoch)
	}
	// The healthy nodes must not be flagged.
	for _, n := range []string{"node1", "node3"} {
		nr := a.NodeReport(n, core.ResourceMemory)
		if nr == nil {
			t.Fatalf("no node report for %s", n)
		}
		if len(nr.Alarms()) != 0 {
			t.Fatalf("healthy node %s alarms: %s", n, nr)
		}
	}
}

func TestAggregatorUniformLeakIsClusterWide(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2", "node3"}
	a.Expect(nodes...)
	leaks := map[string]int64{"node1": 4096, "node2": 4096, "node3": 4096}
	driveCluster(a, nodes, nil, leaks, 20)

	rep := a.Report(core.ResourceMemory)
	top, ok := rep.Top()
	if !ok || top.Component != "leaky" {
		t.Fatalf("no leaky verdict: %v", rep)
	}
	if !top.ClusterWide {
		t.Fatalf("3/3 alarming nodes should be cluster-wide: %+v", top)
	}
	if len(top.Nodes) != 3 {
		t.Fatalf("want all nodes alarming, got %v", top.Nodes)
	}
	if !strings.Contains(rep.String(), "cluster-wide") {
		t.Fatalf("report does not render scope:\n%s", rep)
	}
}

// TestAggregatorSkewedClocksStayOrdered is the regression test for the
// sampling-round timestamp contract: three nodes whose sim clocks
// disagree by minutes (one in the future, one in the past) must still
// publish reports whose merged-timeline times never run backwards, with
// verdicts identical to the unskewed run.
func TestAggregatorSkewedClocksStayOrdered(t *testing.T) {
	nodes := []string{"node1", "node2", "node3"}
	leaks := map[string]int64{"node2": 4096}
	offsets := map[string]time.Duration{
		"node1": 0,
		"node2": 17 * time.Minute,  // clock running ahead
		"node3": -11 * time.Minute, // clock running behind
	}

	skewed := New(Config{Detect: testDetect()})
	skewed.Expect(nodes...)
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	var last time.Time
	published := 0
	for seq := int64(1); seq <= 20; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range nodes {
			skewed.Ingest(syntheticRound(n, seq, at.Add(offsets[n]), leaks[n]))
		}
		rep := skewed.Report(core.ResourceMemory)
		if rep == nil {
			continue
		}
		published++
		if rep.Time.Before(last) {
			t.Fatalf("epoch %d report time %v runs backwards from %v", rep.Epoch, rep.Time, last)
		}
		last = rep.Time
	}
	if published != 20 {
		t.Fatalf("%d epochs published a report, want 20", published)
	}

	flat := New(Config{Detect: testDetect()})
	flat.Expect(nodes...)
	driveCluster(flat, nodes, nil, leaks, 20)

	sk, fl := skewed.Report(core.ResourceMemory), flat.Report(core.ResourceMemory)
	skTop, ok1 := sk.Top()
	flTop, ok2 := fl.Top()
	if !ok1 || !ok2 {
		t.Fatalf("missing verdicts: skewed=%v flat=%v", sk, fl)
	}
	if skTop.Component != flTop.Component || skTop.Pair() != flTop.Pair() ||
		skTop.FirstEpoch != flTop.FirstEpoch {
		t.Fatalf("skew changed the verdict: skewed=%+v flat=%+v", skTop, flTop)
	}
}

func TestAggregatorStaleNodeIsEvictedWithoutStallingOrAlarming(t *testing.T) {
	a := New(Config{Detect: testDetect(), StaleEpochs: 3})
	nodes := []string{"node1", "node2", "node3"}
	a.Expect(nodes...)
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	// All three report for 8 epochs, then node3 goes silent.
	for seq := int64(1); seq <= 20; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range nodes {
			if n == "node3" && seq > 8 {
				continue
			}
			a.Ingest(syntheticRound(n, seq, at, 0))
		}
	}
	if got := a.Epoch(); got != 20 {
		t.Fatalf("cluster stalled on the dead node: epoch=%d, want 20", got)
	}
	var st NodeStatus
	for _, s := range a.Nodes() {
		if s.Node == "node3" {
			st = s
		}
	}
	if st.Active {
		t.Fatalf("dead node still active: %+v", st)
	}
	rep := a.Report(core.ResourceMemory)
	if rep.Active != 2 || rep.Total != 3 {
		t.Fatalf("membership wrong: %+v", rep)
	}
	if rep.Alarming() {
		t.Fatalf("node death raised aging verdicts:\n%s", rep)
	}
	// No alarm notifications either — only membership math changed.
	for _, n := range a.DrainNotifications() {
		t.Fatalf("unexpected notification: %s", n.Message)
	}
}

func TestAggregatorJoinHoldsPromotionDown(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2"}
	a.Expect(nodes...)
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for seq := int64(1); seq <= 10; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range nodes {
			a.Ingest(syntheticRound(n, seq, at, 0))
		}
	}
	// node3 joins at epoch 10 and the cluster runs on.
	for seq := int64(1); seq <= 6; seq++ {
		at := t0.Add(time.Duration(10+seq) * 30 * time.Second)
		a.Ingest(syntheticRound("node1", 10+seq, at, 0))
		a.Ingest(syntheticRound("node2", 10+seq, at, 0))
		a.Ingest(syntheticRound("node3", seq, at, 0))
	}
	if got := a.Epoch(); got != 16 {
		t.Fatalf("epoch=%d, want 16", got)
	}
	var joined NodeStatus
	for _, s := range a.Nodes() {
		if s.Node == "node3" {
			joined = s
		}
	}
	// The joiner's first round counts toward the epoch after the join
	// point, so after 6 rounds it sits one epoch ahead of the fold line.
	if !joined.Active || joined.Epoch != 17 {
		t.Fatalf("joined node misaligned: %+v", joined)
	}
	rep := a.Report(core.ResourceMemory)
	if rep.Active != 3 {
		t.Fatalf("active=%d, want 3", rep.Active)
	}
	if rep.Alarming() {
		t.Fatalf("join raised verdicts:\n%s", rep)
	}
}

func TestAggregatorNotificationTransitions(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2"}
	a.Expect(nodes...)
	driveCluster(a, nodes, nil, map[string]int64{"node1": 8192}, 20)

	var alarmMsgs []string
	for _, n := range a.DrainNotifications() {
		if n.Type != NotifClusterAlarm {
			t.Fatalf("unexpected type %q", n.Type)
		}
		alarmMsgs = append(alarmMsgs, n.Message)
	}
	if len(alarmMsgs) == 0 {
		t.Fatal("no cluster alarm notifications")
	}
	found := false
	for _, m := range alarmMsgs {
		if strings.Contains(m, "leaky") && strings.Contains(m, "node1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no (node1, leaky) alarm in %v", alarmMsgs)
	}
	// Draining again yields nothing.
	if rest := a.DrainNotifications(); len(rest) != 0 {
		t.Fatalf("queue not drained: %v", rest)
	}
}

func TestAggregatorLiveRankNamesNodeComponentPairs(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2", "node3"}
	a.Expect(nodes...)
	driveCluster(a, nodes, nil, map[string]int64{"node2": 4096}, 20)

	ranking := a.LiveRank(core.ResourceMemory)
	if len(ranking.Entries) != 6 {
		t.Fatalf("want 6 (node, component) entries, got %d", len(ranking.Entries))
	}
	top, _ := ranking.Top()
	if top.Name != "leaky" || top.Node != "node2" || !top.Alarm {
		t.Fatalf("live rank top = %+v, want alarming (node2, leaky)", top)
	}
	if !strings.Contains(ranking.String(), "node2/leaky") {
		t.Fatalf("rendered ranking lacks the pair:\n%s", ranking.String())
	}
}

func TestAggregatorUnknownResourceQueriesAreSafe(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2"}
	a.Expect(nodes...)
	driveCluster(a, nodes, nil, nil, 5)
	if got := a.Verdicts("bogus"); got != nil {
		t.Fatalf("verdicts for unknown resource: %v", got)
	}
	ranking := a.LiveRank("bogus")
	for _, e := range ranking.Entries {
		if e.Alarm {
			t.Fatalf("unknown resource produced an alarm: %+v", e)
		}
	}
	if rep := a.Report("bogus"); rep != nil {
		t.Fatalf("report for unknown resource: %v", rep)
	}
	if rep := a.NodeReport("node1", "bogus"); rep != nil {
		t.Fatalf("node report for unknown resource: %v", rep)
	}
}

func TestAggregatorDuplicateRoundCannotUndoLeave(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2"}
	a.Expect(nodes...)
	driveCluster(a, nodes, nil, nil, 5)
	a.Leave("node2")
	// A stale in-flight frame (seq already seen) must not rejoin the
	// node it would have been dropped for anyway.
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	a.Ingest(syntheticRound("node2", 5, t0.Add(5*30*time.Second), 0))
	for _, s := range a.Nodes() {
		if s.Node == "node2" && s.Active {
			t.Fatal("duplicate round reactivated a departed node")
		}
	}
	// A genuinely new round is the documented rejoin path.
	a.Ingest(syntheticRound("node2", 6, t0.Add(6*30*time.Second), 0))
	for _, s := range a.Nodes() {
		if s.Node == "node2" && !s.Active {
			t.Fatal("new round did not rejoin the node")
		}
	}
}

func TestAggregatorDuplicateAndStaleRoundsDropped(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	a.Expect("node1")
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	r := syntheticRound("node1", 1, t0, 0)
	a.Ingest(r)
	a.Ingest(r)                                 // duplicate
	a.Ingest(syntheticRound("node1", 0, t0, 0)) // invalid seq
	if a.TotalRounds() != 1 {
		t.Fatalf("total=%d, want 1", a.TotalRounds())
	}
}
