package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eb"
	"repro/internal/faultinject"
	"repro/internal/jmx"
	"repro/internal/rejuv"
	"repro/internal/sim"
)

// The robustness scenarios (S20-S22) turn the monitor on itself: the
// aging-RCA plane must survive its own failures. S20 kills the
// aggregator mid-leak and promotes the warm standby from the last
// shipped snapshot generation — the verdict must carry through the
// restore with bounded extra latency. S21 kills it at the worst moment,
// while a node is mid-drain, and the promoted controller must reconcile
// the orphaned actuation without ever double-rebooting. S22 floods the
// ingest surface with a phantom-publisher round storm — the admission
// gate must shed and count, and overload must degrade coverage, never
// correctness.

// standbyScenarioStack assembles an N-node cluster with the warm
// standby armed (and the rejuvenation controller, when rejuvCfg is
// non-nil), plus cluster-alarm and actuation logs.
func standbyScenarioStack(cfg Config, nodes int, rejuvCfg *rejuv.Config) (*ClusterStack, *alarmLog, *alarmLog, error) {
	cs, err := NewClusterStack(ClusterConfig{
		Nodes:   nodes,
		Seed:    cfg.Seed,
		Scale:   scenarioScale(cfg),
		Mix:     eb.Shopping,
		Detect:  scenarioDetectConfig(),
		Policy:  cluster.RoundRobin,
		Rejuv:   rejuvCfg,
		Standby: true,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	alarms, actions := &alarmLog{}, &alarmLog{}
	cs.Server.AddListener(func(n jmx.Notification) {
		switch n.Type {
		case cluster.NotifClusterAlarm:
			alarms.events = append(alarms.events, n.Message)
		case rejuv.NotifRejuvAction:
			actions.events = append(actions.events, n.Message)
		}
	})
	return cs, alarms, actions, nil
}

// S20KillAggregatorMidLeak is the monitor-death litmus: the S5 topology
// (three balanced nodes, the paper's 100KB/N=100 leak in A on node2),
// but the aggregator is killed mid-detection — before any verdict — and
// the warm standby is promoted from the last shipped generation. The
// restored detector banks must carry their trend history through the
// failover: the verdict still names (node2, A), raised by the promoted
// plane, within the normal epoch bound plus a small failover allowance,
// with the healthy replicas clean and zero dropped requests.
func S20KillAggregatorMidLeak(cfg Config) Result {
	cfg = cfg.withDefaults()
	cs, log, _, err := standbyScenarioStack(cfg, 3, nil)
	if err != nil {
		return errorResult("S20", err)
	}
	defer cs.Close()
	if _, err := cs.Node("node2").InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		return errorResult("S20", err)
	}

	// Kill the active mid-epoch-7, after the leak's trend is in the
	// shipped detector state but before the earliest possible verdict
	// (MinSamples+Consecutive epochs in).
	var failErr error
	var failEpoch, shippedGens int64
	failedOver := false
	cs.Engine.Schedule(cs.Engine.Now().Add(13*cs.sampleInterval/2), func(time.Time) {
		failedOver = true
		failEpoch = cs.Aggregator.Epoch()
		shippedGens = cs.shipper.Shipped()
		failErr = cs.FailOver()
	})

	total := scaleDuration(time.Hour, cfg.TimeScale)
	cs.Run(total, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S20", err)
	}
	if failErr != nil {
		return errorResult("S20", failErr)
	}

	rep := cs.Aggregator.Report(core.ResourceMemory)
	var top cluster.ClusterVerdict
	var ok bool
	if rep != nil {
		top, ok = rep.Top()
	}
	// The failover window loses at most the partial epoch in flight;
	// allow a small allowance on top of the normal detection bound.
	bound := clusterEpochBound() + 4
	pairOK := ok && top.Pair() == "node2/"+ComponentA && !top.ClusterWide
	continuity := ok && top.FirstEpoch > failEpoch // raised by the promoted plane
	inTime := ok && top.FirstEpoch > 0 && top.FirstEpoch <= bound
	healthyClean := true
	for _, n := range []string{"node1", "node3"} {
		if nr := cs.Aggregator.NodeReport(n, core.ResourceMemory); nr == nil || len(nr.Alarms()) > 0 {
			healthyClean = false
		}
	}
	failed := cs.Driver.Failed()
	pass := failedOver && shippedGens >= 1 && pairOK && continuity && inTime &&
		healthyClean && failed == 0
	observed := fmt.Sprintf("failover at epoch %d after %d shipped generations (%d rounds lost in the window); top verdict %s at epoch %d (bound %d), healthy replicas clean: %v, %d failed requests, %d notifications",
		failEpoch, shippedGens, cs.lostRounds, pairLabel(top, ok), top.FirstEpoch, bound, healthyClean, failed, len(log.raised()))
	return Result{
		ID:       "S20",
		Title:    "Robustness — aggregator killed mid-leak, standby promoted from snapshot",
		Expected: fmt.Sprintf("the promoted plane's verdict names (node2, %s) within %d epochs despite the mid-detection failover; zero dropped requests", ComponentA, bound),
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

// S21FailoverMidDrain kills the monitoring plane at its most dangerous
// instant: node2 is draining when the aggregator and controller die.
// The promoted controller restores mid-cycle, reconciles the orphaned
// drain (re-asserted, never restarted) and completes the cycle: exactly
// one micro-reboot, a full drain/reboot/probation/re-admit chain across
// the failover, untouched bystanders and zero dropped requests.
func S21FailoverMidDrain(cfg Config) Result {
	cfg = cfg.withDefaults()
	rc := scenarioRejuvConfig()
	cs, _, actions, err := standbyScenarioStack(cfg, 3, rc)
	if err != nil {
		return errorResult("S21", err)
	}
	defer cs.Close()
	if _, err := cs.Node("node2").InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		return errorResult("S21", err)
	}

	// Poll at half the epoch cadence: the drain window is DrainEpochs
	// wide, so the kill always lands inside it.
	var failErr error
	failedOver := false
	stopPoll := cs.Engine.Every(cs.sampleInterval/2, func(time.Time) {
		if failedOver || cs.Rejuv.NodeState("node2") != rejuv.Draining {
			return
		}
		failedOver = true
		failErr = cs.FailOver()
	})

	total := scaleDuration(90*time.Minute, cfg.TimeScale)
	cs.Run(total, cfg.EBs)
	stopPoll()
	if err := cs.Sync(); err != nil {
		return errorResult("S21", err)
	}
	if failErr != nil {
		return errorResult("S21", failErr)
	}
	cs.FlushNotifications()

	// The restored controller carries the pre-failover history, so the
	// full cycle is visible in one place even though two controller
	// instances lived it.
	hist := cs.Rejuv.History()
	st := cs.Rejuv.Stats()
	chain, cycled := rejuvCycle(hist, "node2")
	rebooted := cs.Node("node2").Framework.RejuvenationCount()
	failed := cs.Driver.Failed()
	resumed := false
	for _, msg := range actions.events {
		if strings.Contains(msg, "after failover") {
			resumed = true
		}
	}
	bystandersClean := cs.Node("node1").Framework.RejuvenationCount() == 0 &&
		cs.Node("node3").Framework.RejuvenationCount() == 0
	for _, ev := range hist {
		if ev.Node != "node2" {
			bystandersClean = false
		}
	}

	var ttd, recovery int64
	if cycled {
		ttd = chain[0].Epoch - int64(rc.HoldDownEpochs)
		recovery = chain[3].Epoch
	}
	pass := failedOver && cycled && rebooted == 1 && resumed && bystandersClean &&
		st.ControlLost == 0 && failed == 0
	observed := fmt.Sprintf("failover during drain: %v (drain re-asserted: %v); node2 micro-reboots: %d (want exactly 1), full cycle: %v, control losses: %d, healthy replicas untouched: %v, %d failed requests",
		failedOver, resumed, rebooted, cycled, st.ControlLost, bystandersClean, failed)
	return Result{
		ID:       "S21",
		Title:    "Robustness — failover while a node is mid-drain (orphaned actuation reconciled)",
		Expected: "the promoted controller resumes the orphaned drain and completes the cycle with exactly one micro-reboot; bystanders untouched, zero dropped requests",
		Observed: observed,
		Pass:     pass,
		Text:     rejuvHistoryText(hist),
		Accuracy: &Accuracy{
			Truth:          []string{"node2/" + ComponentA},
			Flagged:        actuatedPairs(hist),
			TTDRounds:      ttd,
			RecoveryEpochs: recovery,
		},
	}
}

// S22RoundStormOverload floods the aggregator's ingest surface with a
// phantom-publisher round storm between two load phases, against a
// deliberately tiny admission bound. The contract is the overload
// tentpole's: every offered round is either ingested or shed — exact
// accounting, nothing unaccounted —, the phantoms are evicted once the
// storm passes, and the sick replica's verdict re-emerges untouched:
// overload degrades coverage, never correctness.
func S22RoundStormOverload(cfg Config) Result {
	cfg = cfg.withDefaults()
	cs, log, err := func() (*ClusterStack, *alarmLog, error) {
		cs, err := NewClusterStack(ClusterConfig{
			Nodes:          3,
			Seed:           cfg.Seed,
			Scale:          scenarioScale(cfg),
			Mix:            eb.Shopping,
			Detect:         scenarioDetectConfig(),
			Policy:         cluster.RoundRobin,
			IngestLanes:    1,
			LaneQueueDepth: 2,
			StaleEpochs:    2,
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
	}()
	if err != nil {
		return errorResult("S22", err)
	}
	defer cs.Close()
	if _, err := cs.Node("node2").InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		return errorResult("S22", err)
	}

	// Phase A: the verdict establishes under clean load. The raise is
	// asserted on the alarm stream, not the final report — at full
	// TimeScale the saturating leak's verdict legitimately clears and
	// re-raises, so "raised at this exact instant" is not the contract.
	phase := scaleDuration(time.Hour, cfg.TimeScale)
	cs.Run(phase, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S22", err)
	}
	established := false
	for _, msg := range log.raised() {
		if strings.Contains(msg, "node2") {
			established = true
		}
	}
	var ttd int64
	if rep := cs.Aggregator.Report(core.ResourceMemory); rep != nil {
		if top, ok := rep.Top(); ok && top.Pair() == "node2/"+ComponentA {
			ttd = top.FirstEpoch // injected at epoch 0
		}
	}
	preFlagged := flaggedPairs(cs)
	preRaises := len(log.events)

	// The storm: 16 phantom publishers hammer the single depth-2 lane
	// concurrently. Whatever the interleaving sheds, the accounting must
	// be exact — offered = ingested + shed.
	preTotal, preShed := cs.Aggregator.TotalRounds(), cs.Aggregator.ShedRounds()
	base := cs.Engine.Now()
	storm := &faultinject.RoundStorm[cluster.Round]{
		Publishers: 16,
		Rounds:     12,
		Seed:       cfg.Seed,
		Make: func(_, p, i int, _ *sim.Stream) cluster.Round {
			seq := int64(i + 1)
			return cluster.Round{
				Node: fmt.Sprintf("phantom%02d", p),
				Seq:  seq,
				Time: base.Add(time.Duration(seq) * 30 * time.Second),
				Samples: []core.ComponentSample{{
					Component: "phantom", Size: 1000, SizeOK: true,
					Usage: 100 * seq, CPUSeconds: 0.1 * float64(seq), Threads: 2,
				}},
			}
		},
	}
	offered := storm.Fire(cs.Aggregator)
	ingested := cs.Aggregator.TotalRounds() - preTotal
	shed := cs.Aggregator.ShedRounds() - preShed
	accounted := ingested+shed == offered

	// Phase B: load resumes. The stale phantoms evict (the storm's
	// seq-driven epoch ratchet may even evict the idle real nodes — they
	// must rejoin), and the sick replica must be re-flagged.
	cs.Run(scaleDuration(40*time.Minute, cfg.TimeScale), cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S22", err)
	}

	// The post-storm contract on the alarm stream: node2 is re-flagged
	// after the storm, and no raise — before or after — ever names
	// anything but the sick replica.
	reFlagged, falseAlarm := false, false
	for i, msg := range log.events {
		if strings.Contains(msg, "clears") || strings.Contains(msg, "cleared") {
			continue
		}
		if !strings.Contains(msg, "node2") || !strings.Contains(msg, ComponentA) {
			falseAlarm = true
		} else if i >= preRaises {
			reFlagged = true
		}
	}
	phantomsGone := true
	for _, s := range cs.Aggregator.Nodes() {
		if s.Active && strings.HasPrefix(s.Node, "phantom") {
			phantomsGone = false
		}
	}
	healthyClean := true
	for _, n := range []string{"node1", "node3"} {
		if nr := cs.Aggregator.NodeReport(n, core.ResourceMemory); nr == nil || len(nr.Alarms()) > 0 {
			healthyClean = false
		}
	}
	failed := cs.Driver.Failed()
	rep := cs.Aggregator.Report(core.ResourceMemory)
	flagged := map[string]bool{}
	for _, p := range preFlagged {
		flagged[p] = true
	}
	for _, p := range flaggedPairs(cs) {
		flagged[p] = true
	}
	pass := established && accounted && reFlagged && !falseAlarm && phantomsGone &&
		healthyClean && failed == 0
	observed := fmt.Sprintf("storm offered %d rounds: %d ingested + %d shed (accounted: %v, %d notifications dropped at the cap); phantoms evicted: %v; node2 flagged before: %v and re-flagged after: %v, false alarms: %v, healthy replicas clean: %v, %d failed requests",
		offered, ingested, shed, accounted, cs.Aggregator.DroppedNotifications(),
		phantomsGone, established, reFlagged, falseAlarm, healthyClean, failed)
	return Result{
		ID:       "S22",
		Title:    "Robustness — phantom round storm against the ingest admission gate",
		Expected: "every stormed round is ingested or shed (exact accounting), phantoms evict once stale, and the (node2, A) verdict survives the overload",
		Observed: observed,
		Pass:     pass,
		Text:     clusterReportText(rep) + strings.Join(log.raised(), "\n"),
		Accuracy: &Accuracy{
			Truth:     []string{"node2/" + ComponentA},
			Flagged:   sortedSet(flagged),
			TTDRounds: ttd,
		},
	}
}
