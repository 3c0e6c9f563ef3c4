package experiment

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eb"
)

// parityOutcome is everything a parity run compares: final cluster
// reports (times stripped — the merged timeline's stamp may differ by
// clamp millis) and per-node verdict components.
type parityOutcome struct {
	clusterReports map[string]cluster.ClusterReport
	nodeVerdicts   map[string]any
}

// runParityScenario drives the three-node sick-replica scenario on a
// cluster assembled from cc (scenario scale/detect tuning applied on
// top) and returns the outcome.
func runParityScenario(t *testing.T, cfg Config, cc ClusterConfig) parityOutcome {
	t.Helper()
	cc.Nodes = 3
	cc.Seed = cfg.Seed
	cc.Scale = scenarioScale(cfg)
	cc.Mix = eb.Shopping
	cc.Detect = scenarioDetectConfig()
	cs, err := NewClusterStack(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Node("node2").InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	cs.Run(scaleDuration(time.Hour, cfg.TimeScale), cfg.EBs)
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	out := parityOutcome{
		clusterReports: make(map[string]cluster.ClusterReport),
		nodeVerdicts:   make(map[string]any),
	}
	for _, res := range core.DetectorResources {
		if rep := cs.Aggregator.Report(res); rep != nil {
			c := *rep
			c.Time = time.Time{} // merged-timeline stamps may differ by clamp millis
			out.clusterReports[res] = c
		}
		for _, n := range []string{"node1", "node2", "node3"} {
			if nr := cs.Aggregator.NodeReport(n, res); nr != nil {
				out.nodeVerdicts[n+"/"+res] = nr.Components
			}
		}
	}
	return out
}

// parityVariants is the link × aggregator-plane matrix every parity run
// must agree across: the serial reference aggregator in-process, then the
// sharded/parallel-fold aggregator over every link — in-process, the
// binary wire on net pipes, and the binary wire with the BATCH flush
// policy (4 rounds per frame; the staleness window widens with the batch,
// and eviction never fires in any parity run, so that changes no
// verdict).
var parityVariants = []struct {
	name string
	cc   ClusterConfig
}{
	{"inproc-sharded", ClusterConfig{IngestLanes: 8}},
	{"binary-sharded", ClusterConfig{Link: MonitorLink{Wire: true}, IngestLanes: 8}},
	{"binary-batched-sharded", ClusterConfig{Link: MonitorLink{Wire: true, BatchRounds: 4}, IngestLanes: 8}},
}

// TestClusterTransportParity is the transport- and plane-independence
// contract: the same three-node leak scenario must produce identical
// cluster and per-node verdicts whatever carries the rounds (in-process
// calls, binary frames, batched binary frames) and whatever folds them
// (the serial reference aggregator or the sharded ingest plane).
func TestClusterTransportParity(t *testing.T) {
	serial := runParityScenario(t, scenarioCfg, ClusterConfig{IngestLanes: 1})
	for _, v := range parityVariants {
		got := runParityScenario(t, scenarioCfg, v.cc)
		if !reflect.DeepEqual(serial.clusterReports, got.clusterReports) {
			t.Fatalf("cluster reports differ between serial in-proc and %s:\nserial: %+v\ngot:    %+v",
				v.name, serial.clusterReports, got.clusterReports)
		}
		if !reflect.DeepEqual(serial.nodeVerdicts, got.nodeVerdicts) {
			t.Fatalf("per-node verdicts differ between serial in-proc and %s", v.name)
		}
	}
	// And the scenario's point holds everywhere: the sick pair is named.
	memRep := serial.clusterReports[core.ResourceMemory]
	top, ok := (&memRep).Top()
	if !ok || top.Pair() != "node2/"+ComponentA {
		t.Fatalf("parity run lost the verdict: %+v", top)
	}
}

// TestClusterTransportParityFullScale re-runs the parity contract at the
// paper's full one-hour TimeScale against the deployment-shaped variant
// (sharded aggregator, batched binary wire). Skipped under -short.
func TestClusterTransportParityFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale parity skipped with -short")
	}
	cfg := scenarioCfg
	cfg.TimeScale = 1.0
	serial := runParityScenario(t, cfg, ClusterConfig{IngestLanes: 1})
	batched := runParityScenario(t, cfg, parityVariants[len(parityVariants)-1].cc)
	if !reflect.DeepEqual(serial.clusterReports, batched.clusterReports) {
		t.Fatalf("full-scale cluster reports differ:\nserial:  %+v\nbatched: %+v",
			serial.clusterReports, batched.clusterReports)
	}
	if !reflect.DeepEqual(serial.nodeVerdicts, batched.nodeVerdicts) {
		t.Fatal("full-scale per-node verdicts differ")
	}
}
