package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eb"
	"repro/internal/jmx"
)

// The cluster scenarios (S5-S8) exercise the two-tier agent/aggregator
// architecture against the deployment topologies a single-process
// monitor cannot express: a sick replica among healthy ones, uniform
// cluster-wide aging, node churn, and a balancer that concentrates
// traffic. Their contract extends S1-S4's: real per-node aging must be
// named as the correct (node, component) pair within bounded epochs,
// uniform aging must be promoted to a cluster-wide verdict, and
// topology-only events (join, leave, traffic skew) must end with zero
// alarms.

// clusterScenarioStack assembles an N-node in-process cluster with the
// scenario detector tuning and a cluster-alarm log.
func clusterScenarioStack(cfg Config, nodes, spares int, policy cluster.Policy) (*ClusterStack, *alarmLog, error) {
	cs, err := NewClusterStack(ClusterConfig{
		Nodes:  nodes,
		Spares: spares,
		Seed:   cfg.Seed,
		Scale:  scenarioScale(cfg),
		Mix:    eb.Shopping,
		Detect: scenarioDetectConfig(),
		Policy: policy,
	})
	if err != nil {
		return nil, nil, err
	}
	log := &alarmLog{}
	cs.Server.AddListener(func(n jmx.Notification) {
		if n.Type == cluster.NotifClusterAlarm {
			log.events = append(log.events, n.Message)
		}
	})
	return cs, log, nil
}

// clusterEpochBound is the S5 detection-latency bound, in cluster
// epochs: like S2's round bound, the earliest possible verdict is
// MinSamples+Consecutive epochs in; allow twice that plus slack for the
// trend significance to build at one third of the single-node request
// rate.
func clusterEpochBound() int64 {
	d := scenarioDetectConfig()
	return int64(2*(d.MinSamples+d.Consecutive) + 8)
}

// S5SingleNodeLeak is the sick-replica scenario: three balanced nodes,
// the paper's 100KB/N=100 leak armed in component A on node2 only. The
// cluster verdict must name exactly (node2, A) — the node-local outlier —
// within the epoch bound, with the healthy replicas staying clean.
func S5SingleNodeLeak(cfg Config) Result {
	cfg = cfg.withDefaults()
	cs, log, err := clusterScenarioStack(cfg, 3, 0, cluster.RoundRobin)
	if err != nil {
		return errorResult("S5", err)
	}
	defer cs.Close()
	if _, err := cs.Node("node2").InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		return errorResult("S5", err)
	}

	total := scaleDuration(time.Hour, cfg.TimeScale)
	cs.Run(total, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S5", err)
	}

	rep := cs.Aggregator.Report(core.ResourceMemory)
	var top cluster.ClusterVerdict
	var ok bool
	if rep != nil {
		top, ok = rep.Top()
	}
	bound := clusterEpochBound()
	pairOK := ok && top.Pair() == "node2/"+ComponentA && !top.ClusterWide
	inTime := ok && top.FirstEpoch > 0 && top.FirstEpoch <= bound
	healthyClean := true
	for _, n := range []string{"node1", "node3"} {
		if nr := cs.Aggregator.NodeReport(n, core.ResourceMemory); nr == nil || len(nr.Alarms()) > 0 {
			healthyClean = false
		}
	}
	pass := pairOK && inTime && healthyClean
	observed := fmt.Sprintf("top verdict %s at epoch %d/%d (bound %d), healthy replicas clean: %v, %d notifications",
		pairLabel(top, ok), top.FirstEpoch, reportEpoch(rep), bound, healthyClean, len(log.raised()))
	return Result{
		ID:       "S5",
		Title:    "Cluster — single-node leak among healthy replicas (100KB in A on node2)",
		Expected: fmt.Sprintf("the cluster verdict names (node2, %s) within %d epochs; node1/node3 stay clean", ComponentA, bound),
		Observed: observed,
		Pass:     pass,
		Text:     clusterReportText(rep),
		Accuracy: &Accuracy{
			Truth:     []string{"node2/" + ComponentA},
			Flagged:   flaggedPairs(cs),
			TTDRounds: top.FirstEpoch, // injected at epoch 0
		},
	}
}

// S6UniformLeak arms the same leak in the same component on every node:
// the per-node verdicts must agree and the aggregator must promote the
// component to a cluster-wide verdict (quorum), not blame one replica.
func S6UniformLeak(cfg Config) Result {
	cfg = cfg.withDefaults()
	cs, log, err := clusterScenarioStack(cfg, 3, 0, cluster.RoundRobin)
	if err != nil {
		return errorResult("S6", err)
	}
	defer cs.Close()
	for _, node := range []string{"node1", "node2", "node3"} {
		if _, err := cs.Node(node).InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
			return errorResult("S6", err)
		}
	}

	total := scaleDuration(time.Hour, cfg.TimeScale)
	cs.Run(total, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S6", err)
	}

	rep := cs.Aggregator.Report(core.ResourceMemory)
	var top cluster.ClusterVerdict
	var ok bool
	if rep != nil {
		top, ok = rep.Top()
	}
	pass := ok && top.Component == ComponentA && top.ClusterWide && len(top.Nodes) == 3
	observed := fmt.Sprintf("top verdict %s cluster-wide=%v across %d/%d nodes, %d notifications",
		pairLabel(top, ok), ok && top.ClusterWide, len(top.Nodes), reportActive(rep), len(log.raised()))
	return Result{
		ID:       "S6",
		Title:    "Cluster — uniform leak on all nodes (100KB in A everywhere)",
		Expected: "the verdict for A is promoted to cluster-wide by quorum, with all three nodes named",
		Observed: observed,
		Pass:     pass,
		Text:     clusterReportText(rep),
		Accuracy: &Accuracy{
			Truth:     []string{"cluster/" + ComponentA},
			Flagged:   flaggedPairs(cs),
			TTDRounds: top.FirstEpoch, // injected at epoch 0
		},
	}
}

// S7NodeChurn runs a healthy cluster through membership changes: node4
// joins at one third of the run (with a rebalance, as an operator would
// drain traffic onto it), node1 leaves at two thirds. Traffic moves both
// times; nothing ages; the run must end with zero aging alarms and the
// correct final membership.
func S7NodeChurn(cfg Config) Result {
	cfg = cfg.withDefaults()
	cs, log, err := clusterScenarioStack(cfg, 3, 1, cluster.RoundRobin)
	if err != nil {
		return errorResult("S7", err)
	}
	defer cs.Close()

	total := scaleDuration(time.Hour, cfg.TimeScale)
	cs.Engine.Schedule(cs.Engine.Now().Add(total/3), func(time.Time) {
		if err := cs.Join("node4"); err == nil {
			cs.Balancer.Rebalance()
		}
	})
	cs.Engine.Schedule(cs.Engine.Now().Add(2*total/3), func(time.Time) {
		_ = cs.Leave("node1")
	})
	cs.Run(total, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S7", err)
	}

	alarms := log.raised()
	active := map[string]bool{}
	for _, s := range cs.Aggregator.Nodes() {
		if s.Active {
			active[s.Node] = true
		}
	}
	membershipOK := !active["node1"] && active["node2"] && active["node3"] && active["node4"]
	rep := cs.Aggregator.Report(core.ResourceMemory)
	quiet := rep != nil && !rep.Alarming()
	pass := len(alarms) == 0 && membershipOK && quiet
	return Result{
		ID:       "S7",
		Title:    "Cluster — node join and leave mid-run (no aging)",
		Expected: "zero aging alarms through both membership changes; final membership node2+node3+node4",
		Observed: fmt.Sprintf("%d alarms; active set %v; %d interactions",
			len(alarms), activeNames(cs), cs.Driver.Completed()),
		Pass: pass,
		Text: clusterReportText(rep) + strings.Join(alarms, "\n"),
		Accuracy: &Accuracy{
			Flagged:            flaggedPairs(cs),
			PreInjectionAlarms: len(alarms),
		},
	}
}

// S8SkewedBalancer starts balanced and then re-weights the balancer to
// concentrate 80% of the traffic on node1 — per-node workloads shift
// hard while nothing ages. The cluster-level node-mix guard must absorb
// the skew (it engages, and no verdict or alarm survives to the end).
func S8SkewedBalancer(cfg Config) Result {
	cfg = cfg.withDefaults()
	cs, log, err := clusterScenarioStack(cfg, 3, 0, cluster.Weighted)
	if err != nil {
		return errorResult("S8", err)
	}
	defer cs.Close()

	total := scaleDuration(time.Hour, cfg.TimeScale)
	cs.Engine.Schedule(cs.Engine.Now().Add(total/2), func(time.Time) {
		cs.Balancer.SetWeights(map[string]int{"node1": 8, "node2": 1, "node3": 1})
		cs.Balancer.Rebalance()
	})
	cs.Run(total, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S8", err)
	}

	alarms := log.raised()
	rep := cs.Aggregator.Report(core.ResourceMemory)
	guardEngaged := rep != nil && rep.ShiftEpochs > 0
	quiet := rep != nil && !rep.Alarming()
	pass := len(alarms) == 0 && guardEngaged && quiet
	observed := fmt.Sprintf("%d alarms; node-mix guard engaged: %v (%d suppressed epochs, last distance %.3f); spread %v",
		len(alarms), guardEngaged, reportShiftEpochs(rep), reportShift(rep), cs.Balancer.Spread())
	return Result{
		ID:       "S8",
		Title:    "Cluster — skewed balancer concentrates traffic (no aging)",
		Expected: "the cluster-level shift guard engages on the traffic skew and zero alarms are raised",
		Observed: observed,
		Pass:     pass,
		Text:     clusterReportText(rep) + strings.Join(alarms, "\n"),
		Accuracy: &Accuracy{
			Flagged:            flaggedPairs(cs),
			PreInjectionAlarms: len(alarms),
		},
	}
}

func pairLabel(v cluster.ClusterVerdict, ok bool) string {
	if !ok {
		return "(none)"
	}
	return v.Pair()
}

func reportEpoch(rep *cluster.ClusterReport) int64 {
	if rep == nil {
		return 0
	}
	return rep.Epoch
}

func reportActive(rep *cluster.ClusterReport) int {
	if rep == nil {
		return 0
	}
	return rep.Active
}

func reportShift(rep *cluster.ClusterReport) float64 {
	if rep == nil {
		return 0
	}
	return rep.ShiftDistance
}

func reportShiftEpochs(rep *cluster.ClusterReport) int64 {
	if rep == nil {
		return 0
	}
	return rep.ShiftEpochs
}

func clusterReportText(rep *cluster.ClusterReport) string {
	if rep == nil {
		return ""
	}
	return rep.String()
}

func activeNames(cs *ClusterStack) []string {
	var out []string
	for _, s := range cs.Aggregator.Nodes() {
		if s.Active {
			out = append(out, s.Node)
		}
	}
	return out
}
