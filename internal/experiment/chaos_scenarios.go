package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/faultinject"
	"repro/internal/jmx"
)

// The aging-chaos scenarios (S9-S16) are the litmus-style catalog the
// ISSUE asks for: each run first verifies a steady-state hypothesis (the
// unfaulted system raises no alarm), then injects one fault from the
// catalog — a non-heap aging fault on a single node (S9-S13) or an
// infrastructure chaos event on a cluster (S14-S16) — and verifies
// detection and attribution: the right indicator stream names the right
// (node, component) pair within a bounded number of rounds, while the
// streams the fault must NOT touch stay quiet. Every scenario records
// its ground truth in Result.Accuracy so the full S1-S16 matrix can be
// scored as precision/recall/time-to-detect (accuracy.go).

// firstAlarm returns the earliest first-alarm round in a report and the
// component that raised it (0, "" when nothing alarmed).
func firstAlarm(rep *detect.Report) (int64, string) {
	if rep == nil {
		return 0, ""
	}
	var first int64
	var comp string
	for _, v := range rep.Components {
		if v.FirstAlarmRound > 0 && (first == 0 || v.FirstAlarmRound < first) {
			first, comp = v.FirstAlarmRound, v.Component
		}
	}
	return first, comp
}

// flaggedComponents lists every component with an alarm on record on any
// detector stream — the detection plane's suspect set for the accuracy
// matrix.
func flaggedComponents(bank *core.DetectorBank) []string {
	set := map[string]bool{}
	for _, res := range core.DetectorResources {
		rep := bank.Report(res)
		if rep == nil {
			continue
		}
		for _, v := range rep.Components {
			if v.FirstAlarmRound > 0 {
				set[v.Component] = true
			}
		}
	}
	return sortedSet(set)
}

// flaggedPairs lists every (node, component) pair the aggregator is
// currently flagging across all resources, cluster-wide verdicts as
// "cluster/component".
func flaggedPairs(cs *ClusterStack) []string {
	set := map[string]bool{}
	for _, res := range core.DetectorResources {
		rep := cs.Aggregator.Report(res)
		if rep == nil {
			continue
		}
		for _, v := range rep.Verdicts {
			if v.ClusterWide {
				set["cluster/"+v.Component] = true
				continue
			}
			for _, n := range v.Nodes {
				set[n+"/"+v.Component] = true
			}
		}
	}
	return sortedSet(set)
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// agingChaosSpec parameterises one single-node catalog scenario.
type agingChaosSpec struct {
	id, title string
	// component is the injection target, resource the stream that must
	// carry the verdict.
	component, resource string
	// quiet lists the streams the fault must not disturb.
	quiet    []string
	expected string
	// arm registers the injector on the steady stack.
	arm func(*Stack) error
}

// runAgingChaos is the two-phase litmus runner shared by S9-S13: a
// steady phase verifies the no-alarm hypothesis, then the fault is armed
// and the injected phase must produce the pinned verdict within the
// S2-style round bound, with the untouched streams staying clean.
func runAgingChaos(cfg Config, spec agingChaosSpec) Result {
	cfg = cfg.withDefaults()
	s, log, err := scenarioStack(cfg, eb.Shopping)
	if err != nil {
		return errorResult(spec.id, err)
	}
	defer s.Close()

	steady := scaleDuration(20*time.Minute, cfg.TimeScale)
	s.Run(steady, cfg.EBs)
	preAlarms := len(log.raised())
	preRounds := reportRound(s.Detectors.Report(spec.resource))

	if err := spec.arm(s); err != nil {
		return errorResult(spec.id, err)
	}
	injected := scaleDuration(40*time.Minute, cfg.TimeScale)
	s.Run(injected, cfg.EBs)

	rep := s.Detectors.Report(spec.resource)
	first, suspect := firstAlarm(rep)
	dcfg := scenarioDetectConfig()
	bound := preRounds + int64(2*(dcfg.MinSamples+dcfg.Consecutive)+6)
	var noisy []string
	for _, res := range spec.quiet {
		if qr := s.Detectors.Report(res); qr != nil && len(qr.Alarms()) > 0 {
			noisy = append(noisy, res)
		}
	}
	steadyOK := preAlarms == 0
	suspectOK := suspect == spec.component
	detectedInTime := first > preRounds && first <= bound
	pass := steadyOK && suspectOK && detectedInTime && len(noisy) == 0

	var ttd int64
	if first > preRounds {
		ttd = first - preRounds
	}
	suspectLabel := suspect
	if suspectLabel == "" {
		suspectLabel = "(none)"
	}
	observed := fmt.Sprintf(
		"steady %d rounds, %d alarms; first %s alarm at round %d (injected after %d, bound %d) names %s; quiet streams clean: %v",
		preRounds, preAlarms, spec.resource, first, preRounds, bound, suspectLabel, len(noisy) == 0)
	text := reportText(rep)
	if len(noisy) > 0 {
		text += "\nstreams that should have stayed quiet but alarmed: " + strings.Join(noisy, ", ") + "\n"
	}
	return Result{
		ID:       spec.id,
		Title:    spec.title,
		Expected: spec.expected,
		Observed: observed,
		Pass:     pass,
		Text:     text,
		Accuracy: &Accuracy{
			Truth:              []string{spec.component},
			Flagged:            flaggedComponents(s.Detectors),
			TTDRounds:          ttd,
			PreInjectionAlarms: preAlarms,
		},
	}
}

// S9PoolExhaustion injects connection-pool exhaustion into component A
// after a verified steady phase: leaked pool handles climb on the handle
// stream (the verdict carrier) while requests queue behind the shrunken
// pool; memory, CPU and threads must stay quiet.
func S9PoolExhaustion(cfg Config) Result {
	cfg = cfg.withDefaults()
	return runAgingChaos(cfg, agingChaosSpec{
		id:        "S9",
		title:     "Chaos — connection-pool exhaustion in A (handles + queueing latency)",
		component: ComponentA,
		resource:  core.ResourceHandles,
		quiet:     []string{core.ResourceMemory, core.ResourceCPU, core.ResourceThreads},
		expected:  "zero steady-phase alarms; the handle stream names A within the round bound; memory/CPU/threads stay quiet",
		arm: func(s *Stack) error {
			return s.Inject(&faultinject.PoolExhaustion{
				Component:     ComponentA,
				N:             30,
				PerHandleWait: 2 * time.Millisecond,
				Agent:         s.Framework.HandleAgent(),
				Seed:          cfg.Seed,
			})
		},
	})
}

// S10HandleLeak injects a file-descriptor-style handle leak into
// component B: the live-handle level climbs with nothing else moving but
// the tiny per-handle buffer.
func S10HandleLeak(cfg Config) Result {
	cfg = cfg.withDefaults()
	return runAgingChaos(cfg, agingChaosSpec{
		id:        "S10",
		title:     "Chaos — fd/session-handle leak in B",
		component: ComponentB,
		resource:  core.ResourceHandles,
		quiet:     []string{core.ResourceCPU, core.ResourceThreads},
		expected:  "zero steady-phase alarms; the handle stream names B within the round bound; CPU/threads stay quiet",
		arm: func(s *Stack) error {
			return s.Inject(&faultinject.HandleLeak{
				Component: ComponentB,
				N:         30,
				Agent:     s.Framework.HandleAgent(),
				Heap:      s.Heap,
				Seed:      cfg.Seed,
			})
		},
	})
}

// S11LockContention injects the catalog's pure-latency fault into
// component A: the critical section creeps, response times degrade, and
// NO resource level grows — only the latency-trend stream may (and must)
// name the component.
func S11LockContention(cfg Config) Result {
	cfg = cfg.withDefaults()
	return runAgingChaos(cfg, agingChaosSpec{
		id:        "S11",
		title:     "Chaos — lock-contention aging in A (latency-only)",
		component: ComponentA,
		resource:  core.ResourceLatency,
		quiet: []string{core.ResourceMemory, core.ResourceCPU,
			core.ResourceThreads, core.ResourceHandles},
		expected: "zero steady-phase alarms; only the latency stream alarms, naming A within the round bound",
		arm: func(s *Stack) error {
			// Step/Growth fixes the per-request wait creep; at A's ~1.3
			// req/s the 1.5ms/request creep is a ~2e-3 s/inv-per-second
			// latency slope, 4x the DefaultLatencyMinSlope floor.
			return s.Inject(&faultinject.LockContention{
				Component: ComponentA,
				Step:      3 * time.Millisecond,
				Growth:    2,
				Jitter:    200 * time.Microsecond,
				Seed:      cfg.Seed,
			})
		},
	})
}

// S12FragmentationBloat injects fragmentation-style slow bloat into
// component B: jitter-sized fragments two orders of magnitude below the
// paper's leak, exercising the memory trend detector near its floor.
func S12FragmentationBloat(cfg Config) Result {
	cfg = cfg.withDefaults()
	return runAgingChaos(cfg, agingChaosSpec{
		id:        "S12",
		title:     "Chaos — fragmentation-style slow bloat in B",
		component: ComponentB,
		resource:  core.ResourceMemory,
		quiet: []string{core.ResourceCPU, core.ResourceThreads,
			core.ResourceHandles, core.ResourceLatency},
		expected: "zero steady-phase alarms; the memory stream names B within the round bound despite the shallow slope",
		arm: func(s *Stack) error {
			target, err := s.retainer(ComponentB)
			if err != nil {
				return err
			}
			return s.Inject(&faultinject.FragmentationBloat{
				Component: ComponentB,
				Target:    target,
				Base:      8 * KB,
				N:         10,
				Heap:      s.Heap,
				Seed:      cfg.Seed,
			})
		},
	})
}

// S13StaleCacheDecay injects cache decay into component A: the miss rate
// climbs, so per-invocation CPU degrades with no level step anywhere —
// computational aging carried by the CPU trend stream.
func S13StaleCacheDecay(cfg Config) Result {
	cfg = cfg.withDefaults()
	return runAgingChaos(cfg, agingChaosSpec{
		id:        "S13",
		title:     "Chaos — stale-cache decay in A (per-invocation CPU)",
		component: ComponentA,
		resource:  core.ResourceCPU,
		quiet:     []string{core.ResourceMemory, core.ResourceThreads, core.ResourceHandles},
		expected:  "zero steady-phase alarms; the CPU stream names A within the round bound; memory/threads/handles stay quiet",
		arm: func(s *Stack) error {
			// MissCost·rate/Decay is the per-invocation CPU slope; at A's
			// ~1.3 req/s this is ~1.5e-3 s/inv per second, 3x the
			// DefaultCPUMinSlope floor, and the decay ramp (400 requests,
			// ~10 sampling rounds) outlasts the detection window.
			return s.Inject(&faultinject.StaleCacheDecay{
				Component: ComponentA,
				MissCost:  450 * time.Millisecond,
				Decay:     400,
				Seed:      cfg.Seed,
			})
		},
	})
}

// chaosClusterStack is clusterScenarioStack with a transport chaos hook
// (in-process transport, round-robin balancing — the chaos under test is
// the environment, not the wire codec).
func chaosClusterStack(cfg Config, nodes int, chaos func(string, cluster.Transport) cluster.Transport) (*ClusterStack, *alarmLog, error) {
	cs, err := NewClusterStack(ClusterConfig{
		Nodes:  nodes,
		Seed:   cfg.Seed,
		Scale:  scenarioScale(cfg),
		Mix:    eb.Shopping,
		Detect: scenarioDetectConfig(),
		Policy: cluster.RoundRobin,
		Chaos:  chaos,
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

// activeSet maps node name → currently-active for membership checks.
func activeSet(cs *ClusterStack) map[string]bool {
	out := map[string]bool{}
	for _, s := range cs.Aggregator.Nodes() {
		out[s.Node] = s.Active
	}
	return out
}

// S14NodeKill kills one healthy node at a deterministic instant drawn by
// the NodeKill primitive: the membership change must be detected (node2
// inactive, survivors active) and must not read as aging — zero alarms.
func S14NodeKill(cfg Config) Result {
	cfg = cfg.withDefaults()
	cs, log, err := chaosClusterStack(cfg, 3, nil)
	if err != nil {
		return errorResult("S14", err)
	}
	defer cs.Close()

	total := scaleDuration(time.Hour, cfg.TimeScale)
	kill := faultinject.NodeKill{Node: "node2", Window: total / 3, Seed: cfg.Seed}
	var killErr error
	cs.Engine.Schedule(kill.At(cs.Engine.Now().Add(total/3)), func(time.Time) {
		killErr = cs.Leave(kill.Node)
	})
	cs.Run(total, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S14", err)
	}
	if killErr != nil {
		return errorResult("S14", killErr)
	}

	alarms := log.raised()
	active := activeSet(cs)
	membershipOK := !active["node2"] && active["node1"] && active["node3"]
	rep := cs.Aggregator.Report(core.ResourceMemory)
	quiet := rep != nil && !rep.Alarming()
	pass := len(alarms) == 0 && membershipOK && quiet
	observed := fmt.Sprintf("%d alarms; node2 killed at +%v; final active set %v; %d interactions",
		len(alarms), kill.Offset()+total/3, activeNames(cs), cs.Driver.Completed())
	return Result{
		ID:       "S14",
		Title:    "Chaos — deterministic node kill (no aging)",
		Expected: "the kill is detected as a membership change, not aging: node2 inactive, survivors clean, zero alarms",
		Observed: observed,
		Pass:     pass,
		Text:     clusterReportText(rep) + strings.Join(alarms, "\n"),
		Accuracy: &Accuracy{
			Flagged:            flaggedPairs(cs),
			PreInjectionAlarms: len(alarms),
		},
	}
}

// S15TransportPartition partitions one node's monitoring transport for
// the middle third of the run: the aggregator must evict the silent node
// (detection), fold it back in after the heal (recovery), and raise no
// aging alarm — the application plane never stopped serving.
func S15TransportPartition(cfg Config) Result {
	cfg = cfg.withDefaults()
	var chaos *faultinject.ChaosTransport[cluster.Round]
	cs, log, err := chaosClusterStack(cfg, 3, func(node string, tr cluster.Transport) cluster.Transport {
		if node != "node3" {
			return tr
		}
		chaos = faultinject.NewChaosTransport[cluster.Round](tr)
		return chaos
	})
	if err != nil {
		return errorResult("S15", err)
	}
	defer cs.Close()

	total := scaleDuration(time.Hour, cfg.TimeScale)
	evictedMid := false
	cs.Engine.Schedule(cs.Engine.Now().Add(total/3), func(time.Time) {
		chaos.SetPartitioned(true)
	})
	cs.Engine.Schedule(cs.Engine.Now().Add(2*total/3), func(time.Time) {
		// Just before healing: the silent node must already be evicted —
		// the detection half of the partition hypothesis.
		evictedMid = !activeSet(cs)["node3"]
		chaos.SetPartitioned(false)
	})
	cs.Run(total, cfg.EBs)
	// No Sync: the partition swallowed rounds the barrier would wait for.
	cs.FlushNotifications()

	alarms := log.raised()
	active := activeSet(cs)
	recovered := active["node1"] && active["node2"] && active["node3"]
	rep := cs.Aggregator.Report(core.ResourceMemory)
	quiet := rep != nil && !rep.Alarming()
	pass := len(alarms) == 0 && evictedMid && recovered && chaos.Dropped() > 0 && quiet
	observed := fmt.Sprintf("%d alarms; partition dropped %d rounds; evicted during partition: %v; rejoined after heal: %v",
		len(alarms), chaos.Dropped(), evictedMid, recovered)
	return Result{
		ID:       "S15",
		Title:    "Chaos — monitoring-transport partition and heal (no aging)",
		Expected: "node3 is evicted while partitioned and folded back after the heal, with zero aging alarms",
		Observed: observed,
		Pass:     pass,
		Text:     clusterReportText(rep) + strings.Join(alarms, "\n"),
		Accuracy: &Accuracy{
			Flagged:            flaggedPairs(cs),
			PreInjectionAlarms: len(alarms),
		},
	}
}

// S16ClockSkew skews one node's clock by two minutes from the first
// round AND leaks on that same node: the aggregator's merged-timeline
// normalisation must absorb the skew so attribution still pins exactly
// (node1, A) within the epoch bound.
func S16ClockSkew(cfg Config) Result {
	cfg = cfg.withDefaults()
	var chaos *faultinject.ChaosTransport[cluster.Round]
	cs, log, err := chaosClusterStack(cfg, 3, func(node string, tr cluster.Transport) cluster.Transport {
		if node != "node1" {
			return tr
		}
		chaos = faultinject.NewChaosTransport[cluster.Round](tr)
		return chaos
	})
	if err != nil {
		return errorResult("S16", err)
	}
	defer cs.Close()
	chaos.SetSkew(2 * time.Minute)
	if _, err := cs.Node("node1").InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		return errorResult("S16", err)
	}

	total := scaleDuration(time.Hour, cfg.TimeScale)
	cs.Run(total, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S16", err)
	}

	rep := cs.Aggregator.Report(core.ResourceMemory)
	var top cluster.ClusterVerdict
	var ok bool
	if rep != nil {
		top, ok = rep.Top()
	}
	bound := clusterEpochBound()
	pairOK := ok && top.Pair() == "node1/"+ComponentA && !top.ClusterWide
	inTime := ok && top.FirstEpoch > 0 && top.FirstEpoch <= bound
	pass := pairOK && inTime
	var ttd int64
	if pairOK {
		ttd = top.FirstEpoch
	}
	observed := fmt.Sprintf("top verdict %s at epoch %d/%d (bound %d) under %v skew, %d notifications",
		pairLabel(top, ok), top.FirstEpoch, reportEpoch(rep), bound, 2*time.Minute, len(log.raised()))
	return Result{
		ID:       "S16",
		Title:    "Chaos — clock skew on the leaking node (100KB in A on node1, +2m skew)",
		Expected: fmt.Sprintf("the merged timeline absorbs the skew; the verdict still pins (node1, %s) within %d epochs", ComponentA, bound),
		Observed: observed,
		Pass:     pass,
		Text:     clusterReportText(rep),
		Accuracy: &Accuracy{
			Truth:     []string{"node1/" + ComponentA},
			Flagged:   flaggedPairs(cs),
			TTDRounds: ttd,
		},
	}
}
