package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jmx"
	"repro/internal/sim"
)

// TestIngestShedsAtFullLane pins the admission gate: a round arriving at
// a saturated lane is shed and counted, never parked; a drained lane
// admits again, and an admitted round releases its slot.
func TestIngestShedsAtFullLane(t *testing.T) {
	a := New(Config{Detect: testDetect(), IngestLanes: 1, LaneQueueDepth: 2})
	a.Expect("node1")
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

	lane := a.laneFor("node1")
	lane.queued.Add(2) // saturate the lane as two parked publishers would
	a.Ingest(syntheticRound("node1", 1, t0, 0))
	if got := a.ShedRounds(); got != 1 {
		t.Fatalf("ShedRounds = %d after ingest at a full lane, want 1", got)
	}
	if got := a.TotalRounds(); got != 0 {
		t.Fatalf("shed round was ingested anyway (total = %d)", got)
	}

	lane.queued.Add(-2) // the parked publishers drain
	a.Ingest(syntheticRound("node1", 1, t0, 0))
	if got := a.TotalRounds(); got != 1 {
		t.Fatalf("total = %d after the lane drained, want 1", got)
	}
	if got := lane.queued.Load(); got != 0 {
		t.Fatalf("admission slot leaked: queued = %d after Ingest returned", got)
	}
	if got := a.ShedRounds(); got != 1 {
		t.Fatalf("ShedRounds = %d, want still 1", got)
	}
}

// TestIngestStormAccounting floods one tiny lane from concurrent
// publishers and pins the storm invariant: every offered round is either
// ingested or shed — none lost to unaccounted paths — and the lane's
// admission counter returns to zero.
func TestIngestStormAccounting(t *testing.T) {
	a := New(Config{Detect: testDetect(), IngestLanes: 1, LaneQueueDepth: 1})
	const publishers, rounds = 8, 50
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

	var wg sync.WaitGroup
	wg.Add(publishers)
	for p := 0; p < publishers; p++ {
		go func(p int) {
			defer wg.Done()
			node := fmt.Sprintf("node%d", p)
			for seq := int64(1); seq <= rounds; seq++ {
				a.Ingest(syntheticRound(node, seq, t0.Add(time.Duration(seq)*30*time.Second), 0))
			}
		}(p)
	}
	wg.Wait()

	if got := a.TotalRounds() + a.ShedRounds(); got != publishers*rounds {
		t.Fatalf("ingested %d + shed %d = %d, want %d offered",
			a.TotalRounds(), a.ShedRounds(), got, publishers*rounds)
	}
	if got := a.laneFor("node0").queued.Load(); got != 0 {
		t.Fatalf("admission counter = %d after the storm, want 0", got)
	}
}

// TestRoundStormShedsAndVerdictsSurvive is the overload tentpole at the
// aggregator surface: a faultinject.RoundStorm of phantom publishers
// against a tiny lane sheds (counted, accounted), and the plane still
// attributes a real leak correctly afterwards — overload degrades
// coverage, never correctness.
func TestRoundStormShedsAndVerdictsSurvive(t *testing.T) {
	a := New(Config{Detect: testDetect(), IngestLanes: 1, LaneQueueDepth: 1, StaleEpochs: 2})
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

	storm := &faultinject.RoundStorm[Round]{
		Publishers: 16,
		Rounds:     20,
		Seed:       42,
		Make: func(_, p, i int, _ *sim.Stream) Round {
			seq := int64(i + 1)
			return syntheticRound(fmt.Sprintf("phantom%02d", p), seq,
				t0.Add(time.Duration(seq)*30*time.Second), 0)
		},
	}
	// Stall the lane while the storm rages, as a slow fold would: the
	// first publisher through the gate parks on the lane lock holding
	// the only admission slot, and every other offer sheds.
	lane := &a.lanes[0]
	lane.mu.Lock()
	done := make(chan int64, 1)
	go func() { done <- storm.Fire(a) }()
	waitFor(t, func() bool { return a.ShedRounds() >= 1 })
	lane.mu.Unlock()
	offered := <-done
	if offered != 16*20 || storm.Offered() != offered || storm.Storms() != 1 {
		t.Fatalf("storm bookkeeping: offered=%d Offered()=%d Storms()=%d",
			offered, storm.Offered(), storm.Storms())
	}
	if got := a.TotalRounds() + a.ShedRounds(); got != offered {
		t.Fatalf("ingested %d + shed %d = %d, want %d offered",
			a.TotalRounds(), a.ShedRounds(), got, offered)
	}
	if a.ShedRounds() == 0 {
		t.Fatal("16 concurrent publishers against a depth-1 lane shed nothing")
	}

	// The storm passes; real nodes publish on and the leak attribution
	// must come through (the stale phantoms evict, epochs resume).
	nodes := []string{"real1", "real2", "real3"}
	leaks := map[string]int64{"real2": 8192}
	for seq := int64(1); seq <= 40; seq++ {
		at := t0.Add(time.Duration(30+seq) * 30 * time.Second)
		for _, n := range nodes {
			a.Ingest(syntheticRound(n, seq, at, leaks[n]))
		}
	}
	rep := a.Report(core.ResourceMemory)
	if rep == nil || !rep.Alarming() {
		t.Fatalf("no memory verdict after the storm: %v", rep)
	}
	top, _ := rep.Top()
	if top.Component != "leaky" || len(top.Nodes) != 1 || top.Nodes[0] != "real2" {
		t.Fatalf("post-storm attribution wrong: %+v", top)
	}
}

// TestNotificationQueueBounded pins satellite 1: an undrained
// notification backlog stops growing at NotifCap, the overflow is
// counted, and draining reopens the queue for later transitions.
func TestNotificationQueueBounded(t *testing.T) {
	a := New(Config{Detect: testDetect(), NotifCap: 2})
	nodes := []string{"node1", "node2"}
	a.Expect(nodes...)

	// Saturate the queue as an owner that stopped draining would.
	a.notifMu.Lock()
	a.pending = append(a.pending, jmx.Notification{}, jmx.Notification{})
	a.notifMu.Unlock()

	driveCluster(a, nodes, nil, map[string]int64{"node1": 8192}, 20)
	if got := a.DroppedNotifications(); got == 0 {
		t.Fatal("alarm transitions at a full queue were not counted as dropped")
	}
	a.notifMu.Lock()
	n := len(a.pending)
	a.notifMu.Unlock()
	if n != 2 {
		t.Fatalf("pending queue grew past NotifCap: %d", n)
	}

	// Draining reopens the queue: the leak stops, and the clear
	// transition must land.
	a.DrainNotifications()
	feedSnap(a, nodes, nil, 21, 50)
	var cleared bool
	for _, nf := range a.DrainNotifications() {
		if nf.Type == NotifClusterAlarm {
			cleared = true
		}
	}
	if !cleared {
		t.Fatal("no transition landed after the queue was drained")
	}
}

// TestOverloadCountersOnBean pins the operator surface for the new
// counters.
func TestOverloadCountersOnBean(t *testing.T) {
	a := New(Config{Detect: testDetect(), IngestLanes: 1, LaneQueueDepth: 1})
	a.Expect("node1")
	lane := a.laneFor("node1")
	lane.queued.Add(1)
	a.Ingest(syntheticRound("node1", 1, time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC), 0))
	lane.queued.Add(-1)

	b := a.Bean()
	shed, err := b.GetAttribute("ShedRounds")
	if err != nil || shed.(int64) != 1 {
		t.Fatalf("ShedRounds attr = %v, %v", shed, err)
	}
	dropped, err := b.GetAttribute("DroppedNotifications")
	if err != nil || dropped.(int64) != 0 {
		t.Fatalf("DroppedNotifications attr = %v, %v", dropped, err)
	}
}
