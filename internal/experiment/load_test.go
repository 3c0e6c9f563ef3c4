package experiment

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/tpcw"
)

func TestLoadStackModelBackend(t *testing.T) {
	ls, err := NewLoadStack(LoadConfig{
		Seed:     5,
		Sessions: 300,
		Shards:   2,
		Mix:      eb.Shopping,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	ls.Run(2 * time.Minute)
	if ls.Driver.Completed() == 0 {
		t.Fatal("model-backed load tier completed nothing")
	}
	if ls.PeakWIPS() == 0 {
		t.Fatal("no WIPS recorded")
	}
	if len(ls.Shards) != 0 {
		t.Fatalf("model backend built %d containers", len(ls.Shards))
	}
}

// TestLoadStackContainerBackend drives the session table against full
// per-shard application stacks: the load tier exercising the real TPC-W
// serve path, one container per core.
func TestLoadStackContainerBackend(t *testing.T) {
	ls, err := NewLoadStack(LoadConfig{
		Seed:     5,
		Sessions: 120,
		Shards:   2,
		Mix:      eb.Shopping,
		Backend:  BackendContainer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if len(ls.Shards) != 2 {
		t.Fatalf("built %d containers, want one per shard", len(ls.Shards))
	}
	ls.Run(2 * time.Minute)
	if ls.Driver.Completed() == 0 {
		t.Fatal("container-backed load tier completed nothing")
	}
	if ls.Driver.Failed() != 0 {
		t.Fatalf("%d of %d interactions failed against the real stack",
			ls.Driver.Failed(), ls.Driver.Completed())
	}
}

// TestLoadStackMonitoredCluster closes the ROADMAP gap at test scale:
// the sharded driver's sessions hammer per-shard container stacks while
// each shard's monitoring framework forwards real sampling rounds —
// over batched binary wires or in-process — into one sharded-ingest
// aggregator, which must name the one sick shard. The million-session
// run in docs uses the same wiring with the population turned up.
//
// Shards publish from their own goroutines, so this is also the test
// that SyncMonitor is a real barrier: once it returns, the epoch count
// and every resource's report must already be at the final epoch, not
// one fold short (run with -cpu 2 or more to give the hazard a chance).
func TestLoadStackMonitoredCluster(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		link   MonitorLink
	}{
		{"wire-batched-4-shards", 4, MonitorLink{Wire: true, BatchRounds: 4}},
		{"wire-batched-2-shards", 2, MonitorLink{Wire: true, BatchRounds: 4}},
		{"inproc-2-shards", 2, MonitorLink{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ls, err := NewLoadStack(LoadConfig{
				Seed:     5,
				Sessions: 240,
				Shards:   tc.shards,
				Mix:      eb.Shopping,
				Backend:  BackendContainer,
				Scale:    tpcw.Scale{Items: 500, Customers: 300},

				Monitor:         true,
				MonitorInterval: 30 * time.Second,
				Detect:          detect.Config{Window: 20, MinSamples: 6, Consecutive: 3},
				Link:            tc.link,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()
			if len(ls.Shards) != tc.shards || ls.Aggregator == nil {
				t.Fatalf("monitored stack incomplete: %d shards, aggregator=%v", len(ls.Shards), ls.Aggregator != nil)
			}
			if _, err := ls.Shard(1).InjectLeak(ComponentA, 100*KB, 100, 5); err != nil {
				t.Fatal(err)
			}
			const duration = 30 * time.Minute // 60 epochs at the 30s cadence
			ls.Run(duration)
			if err := ls.SyncMonitor(); err != nil {
				t.Fatal(err)
			}
			if ls.Driver.Completed() == 0 || ls.Driver.Failed() != 0 {
				t.Fatalf("load tier: %d completed, %d failed", ls.Driver.Completed(), ls.Driver.Failed())
			}
			epochs := int64(duration / (30 * time.Second))
			if got := ls.Aggregator.Epoch(); got != epochs {
				t.Fatalf("aggregator folded %d epochs, want %d", got, epochs)
			}
			for _, res := range core.DetectorResources {
				if rep := ls.Aggregator.Report(res); rep == nil || rep.Epoch != epochs {
					t.Fatalf("%s report after the barrier = %+v, want epoch %d", res, rep, epochs)
				}
			}
			if got := ls.Aggregator.TotalRounds(); got != epochs*int64(len(ls.Shards)) {
				t.Fatalf("aggregator ingested %d rounds, want %d", got, epochs*int64(len(ls.Shards)))
			}
			rep := ls.Aggregator.Report(core.ResourceMemory)
			if !rep.Alarming() {
				t.Fatalf("no memory verdict from the monitored load tier: %+v", rep)
			}
			top, _ := rep.Top()
			if top.Pair() != "shard02/"+ComponentA {
				t.Fatalf("top verdict = %q, want shard02/%s", top.Pair(), ComponentA)
			}
			if last, max := ls.Aggregator.FoldLatency(); last <= 0 || max < last {
				t.Fatalf("fold latency not recorded: last=%v max=%v", last, max)
			}
		})
	}
}
