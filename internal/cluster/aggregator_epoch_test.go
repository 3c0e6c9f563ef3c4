package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSubscribeEpochsDeliversVerdicts pins the epoch-event subscription:
// each completed fold delivers exactly one event, in epoch order, with
// the fold's verdicts, after the fold lock is released.
func TestSubscribeEpochsDeliversVerdicts(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2", "node3"}
	a.Expect(nodes...)
	var events []EpochEvent
	a.SubscribeEpochs(func(ev EpochEvent) {
		events = append(events, ev)
		// Re-entering the aggregator from a subscriber must not deadlock:
		// this is the controller's ResetNode path.
		_ = a.Epoch()
	})
	driveCluster(a, nodes, nil, map[string]int64{"node2": 4096}, 20)

	if len(events) != 20 {
		t.Fatalf("%d epoch events, want 20", len(events))
	}
	for i, ev := range events {
		if ev.Epoch != int64(i+1) {
			t.Fatalf("event %d has epoch %d: out of order", i, ev.Epoch)
		}
		if ev.Active != 3 {
			t.Fatalf("event %d active=%d, want 3", i, ev.Active)
		}
	}
	// The detector's verdicts surface on the late events.
	last := events[len(events)-1]
	var found bool
	for _, v := range last.Verdicts {
		if v.Component == "leaky" && len(v.Nodes) == 1 && v.Nodes[0] == "node2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("final epoch event carries no node2/leaky verdict: %+v", last.Verdicts)
	}
}

// TestResetNodeClearsDetectionHistory pins the post-reboot reset: a node
// whose leak alarmed, once reset, needs a fresh MinSamples+Consecutive
// run of leaking rounds before it alarms again — its old trend is gone.
func TestResetNodeClearsDetectionHistory(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2", "node3"}
	a.Expect(nodes...)
	leaks := map[string]int64{"node2": 4096}
	driveCluster(a, nodes, nil, leaks, 20)
	rep := a.NodeReport("node2", core.ResourceMemory)
	if rep == nil || len(rep.Alarms()) == 0 {
		t.Fatal("node2 not alarming before the reset; test setup broken")
	}
	if !a.ResetNode("node2") {
		t.Fatal("ResetNode refused a known node")
	}
	if a.ResetNode("ghost") {
		t.Fatal("ResetNode accepted an unknown node")
	}
	// The node keeps publishing, now healthy (leak fixed by the reboot).
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for seq := int64(21); seq <= 24; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range nodes {
			a.Ingest(syntheticRound(n, seq, at, 0))
		}
	}
	rep = a.NodeReport("node2", core.ResourceMemory)
	if rep != nil && len(rep.Alarms()) > 0 {
		t.Fatalf("node2 still alarming after reset + healthy rounds: %+v", rep.Components)
	}
	if got := a.Epoch(); got != 24 {
		t.Fatalf("epoch stalled at %d after reset, want 24", got)
	}
	// A fresh leak must still be detectable after the reset.
	for seq := int64(25); seq <= 44; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range nodes {
			a.Ingest(syntheticRound(n, seq, at, leaks[n]))
		}
	}
	rep = a.NodeReport("node2", core.ResourceMemory)
	if rep == nil || len(rep.Alarms()) == 0 {
		t.Fatal("reset killed future detection on node2")
	}
}

// TestDrainNotificationsUnderConcurrentIngest hammers DrainNotifications
// while many publishers ingest — the satellite's -race pin: the
// notification queue and the ingest lanes must never race, and every
// published notification must be drained exactly once.
func TestDrainNotificationsUnderConcurrentIngest(t *testing.T) {
	// The publishers below run free, so one can get a whole run ahead of
	// another. At the default StaleEpochs that evicts the laggards, and
	// the churn hold-down that follows every eviction and rejoin can keep
	// promotion suppressed for the whole run — no notification at all,
	// depending on scheduling. Nothing is stale here, only unscheduled:
	// let a node lag by the full run.
	const nodes, rounds = 8, 40
	a := New(Config{Detect: testDetect(), StaleEpochs: rounds})
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	a.Expect(names...)

	var wg sync.WaitGroup
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, n := range names {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			for seq := int64(1); seq <= rounds; seq++ {
				a.Ingest(syntheticRound(node, seq, t0.Add(time.Duration(seq)*30*time.Second), 4096))
			}
		}(n)
	}
	publishersDone := make(chan struct{})
	go func() { wg.Wait(); close(publishersDone) }()
	total := 0
	for draining := true; draining; {
		select {
		case <-time.After(time.Millisecond):
		case <-publishersDone:
			draining = false
		}
		total += len(a.DrainNotifications())
	}
	// Quiesce is the barrier for "everything ingested is folded and
	// published"; only after it is a drain final.
	if err := a.Quiesce(nodes*rounds, time.Now().Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	total += len(a.DrainNotifications())
	if total == 0 {
		t.Fatal("cluster-wide leak produced no notifications")
	}
	if rest := a.DrainNotifications(); len(rest) != 0 {
		t.Fatalf("%d notifications left after the final drain", len(rest))
	}
}
