package experiment

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/faultinject"
	"repro/internal/jmx"
	"repro/internal/rejuv"
	"repro/internal/sim"
	"repro/internal/tpcw"
)

// The S-series scenarios are the litmus catalog the accuracy matrix scores
// (accuracy.go; scripts/scenariomatrix.sh gates it against
// ACCURACY_baseline.json). Every one has the paper's evaluation shape: run
// TPC-W on one detector-attached node or on a cluster, arm a known aging
// fault (or deliberately none) among environment events, and check that the
// detection plane names the faulty component — and, with rejuvenation
// armed, that acting on the verdict is safe. So they are one table
// (Scenarios) and one runner (Scenario.Run).
//
// Adding a scenario is adding a row: the next ID, a fleet, its load phases,
// the faults it arms with the Truth they make sick, and the events around
// them. A check the shared runner does not make goes on the row as a small
// func: Expect.Check, or one an event's Arm registers with env.check when it
// needs state captured mid-run. The matrix picks the row up once its ID is
// in ACCURACY_baseline.json (TestScenarioTableMatchesBaseline).

// Scenario is one row of the table.
type Scenario struct {
	ID, Title, Expected string
	// Fleet shapes the system under test: Nodes == 0 is one
	// detector-attached Stack, otherwise a ClusterStack built from it (the
	// run fills Seed, Scale, Mix and Detect).
	Fleet ClusterConfig
	// Chaos names the node whose monitoring transport runs through a
	// ChaosTransport; LossyControl loses every rejuvenate command in flight.
	Chaos        string
	LossyControl bool
	// Phases run the load driver in order. A row without phases assembles
	// nothing and runs only its Expect.Check.
	Phases []Phase
	// Faults inject aging, and Expect.Truth names what they make sick.
	// Alarms raised before the first one are pre-injection alarms, and the
	// verdict is read when that fault's phase ends.
	Faults []At
	// Events change the environment around the faults — membership,
	// balancer weights, the monitoring transport, the monitor itself — and
	// must never read as aging.
	Events []At
	Expect Expect
}

// Phase is one stretch of load: Dur (at TimeScale 1) of the base browser
// population on the stack's mix (shopping), or the schedule Shape derives
// from the scaled duration, that population and that mix.
type Phase struct {
	Dur   time.Duration
	Shape func(d time.Duration, ebs int, mix eb.Mix) []eb.Phase
}

// At arms one fault or event when phase Phase starts, before its load
// runs. An Arm that needs a later instant schedules it with env.after.
type At struct {
	Phase int
	Arm   func(e *env) error
}

// Expect is what a row checks beyond the shared contract: zero
// pre-injection alarms and, on a cluster, the final membership, clean
// bystanders and, where aging is injected, no failed request.
type Expect struct {
	// Truth names the sick suspects in Accuracy's vocabulary. Empty: no
	// aging fault, so the run must end without an alarm.
	Truth []string
	// Resource is the stream a single-node verdict must appear on
	// (memory when empty); Quiet lists the streams its fault must not
	// disturb.
	Resource string
	Quiet    []string
	// Slack is the k of detectBound — twice MinSamples+Consecutive, plus
	// k, rounds from injection; 0 leaves detection unbounded.
	Slack int
	// Reboots is how many micro-reboots rejuvenation must give the sick
	// node; a positive count also demands one full drain / reboot /
	// probation / re-admit cycle.
	Reboots int
	// Active is the cluster's final active membership (default: the
	// initial nodes).
	Active []string
	// Check makes the row's own checks and reports what it saw.
	Check func(e *env) (bool, string)
}

// scenarioDetectConfig is the fixed detector tuning every scenario runs
// with, so verdicts are deterministic across time scales.
func scenarioDetectConfig() detect.Config {
	return detect.Config{Window: 20, MinSamples: 6, Consecutive: 3}
}

// scenarioRejuvConfig is the actuation tuning matched to
// scenarioDetectConfig: probation (6 epochs) is shorter than a fresh
// detection (MinSamples+Consecutive = 9 epochs after the post-reboot
// reset), so a successfully rebooted node completes probation before a
// re-armed leak can re-alarm it into a rollback. HealthyWeight is 1
// because the scenario balancers register every node at weight 1 —
// re-admitting above that would skew traffic and trip the shift guard.
func scenarioRejuvConfig() *rejuv.Config {
	return &rejuv.Config{
		HoldDownEpochs:  3,
		MaxConcurrent:   1,
		DrainEpochs:     2,
		RebootEpochs:    3,
		ProbationEpochs: 6,
		ProbationWeight: 1,
		HealthyWeight:   1,
		CooldownEpochs:  8,
	}
}

func scenarioScale(cfg Config) tpcw.Scale {
	return tpcw.Scale{Items: cfg.Items, Customers: cfg.Customers, Seed: cfg.Seed + 1}
}

// detectBound is the latest round (epoch) a verdict may arrive in: the
// earliest possible one is MinSamples+Consecutive rounds after injection;
// allow twice that plus the row's slack for the trend to clear the
// significance bar.
func detectBound(pre int64, slack int) int64 {
	d := scenarioDetectConfig()
	return pre + int64(2*(d.MinSamples+d.Consecutive)+slack)
}

var (
	hour      = []Phase{{Dur: time.Hour}}
	ninety    = []Phase{{Dur: 90 * time.Minute}}
	threeNode = ClusterConfig{Nodes: 3}
	rejuvNode = ClusterConfig{Nodes: 3, Rejuv: scenarioRejuvConfig()}
	quietRest = []string{core.ResourceCPU, core.ResourceThreads, core.ResourceHandles}
)

// leak arms the paper's 100KB/N=100 memory leak in component on node ("" on
// a single-node stack) before the load starts.
func leak(node, component string) At {
	return At{Arm: func(e *env) error {
		_, err := e.node(node).InjectLeak(component, 100*KB, 100, e.cfg.Seed)
		return err
	}}
}

// inject arms the fault fault builds on the single-node stack when phase 1
// starts, after a 20-minute steady phase.
func inject(fault func(e *env) (aspectSource, error)) []At {
	return []At{{Phase: 1, Arm: func(e *env) error {
		f, err := fault(e)
		if err != nil {
			return err
		}
		return e.s.Inject(f)
	}}}
}

// steadyThenFault is the single-node litmus schedule: a steady phase that
// verifies the no-alarm hypothesis, then the injected phase.
var steadyThenFault = []Phase{{Dur: 20 * time.Minute}, {Dur: 40 * time.Minute}}

// Scenarios is the S-series table, in matrix order.
var Scenarios = []Scenario{
	{
		// A static detector misfires here (Moura et al.); the shift guard
		// must keep every alarm down while still registering the moves.
		ID: "S1", Title: "Online detection under workload shift (no aging)",
		Expected: "zero alarms; the shift guard absorbs the mix changes",
		Phases: []Phase{{Dur: time.Hour, Shape: func(d time.Duration, ebs int, mix eb.Mix) []eb.Phase {
			return []eb.Phase{{Duration: d / 3, EBs: ebs, Mix: eb.Browsing},
				{Duration: d / 3, EBs: ebs, Mix: eb.Shopping}, {Duration: d / 3, EBs: ebs * 2, Mix: eb.Ordering}}
		}}},
		Expect: Expect{Check: func(e *env) (bool, string) {
			seen := false
			for _, res := range []string{core.ResourceMemory, core.ResourceCPU, core.ResourceThreads} {
				if rep := e.s.Detectors.Report(res); rep != nil && rep.ShiftRounds > 0 {
					seen = true
				}
			}
			return seen, fmt.Sprintf("shift guard engaged: %v", seen)
		}},
	},
	{
		ID: "S2", Title: "Online leak detection (100KB leak in A, steady mix)",
		Expected: "A flagged online on memory within the round bound",
		Phases:   hour, Faults: []At{leak("", ComponentA)},
		Expect: Expect{Truth: []string{ComponentA}, Slack: 6},
	},
	{
		// The load doubles and halves but the mix is constant, so neither
		// the load-invariant trend series nor the entropy detector may alarm.
		ID: "S3", Title: "Online detection under a diurnal load cycle (no aging)",
		Expected: "zero alarms while the population swings sinusoidally",
		Phases: []Phase{{Dur: time.Hour, Shape: func(d time.Duration, ebs int, mix eb.Mix) []eb.Phase {
			return eb.ProfileSchedule(sim.DiurnalProfile(float64(ebs), float64(ebs)/2, d), d, d/12, mix)
		}}},
	},
	{
		ID: "S4", Title: "Online leak detection through a flash crowd (100KB leak in B)",
		Expected: "B flagged online on memory despite the burst",
		Phases: []Phase{{Dur: time.Hour, Shape: func(d time.Duration, ebs int, mix eb.Mix) []eb.Phase {
			return eb.ProfileSchedule(sim.BurstProfile(float64(ebs), float64(ebs)*4, d/3, d/10), d, d/30, mix)
		}}},
		Faults: []At{leak("", ComponentB)},
		Expect: Expect{Truth: []string{ComponentB}},
	},
	{
		ID: "S5", Title: "Cluster — single-node leak among healthy replicas (100KB in A on node2)",
		Expected: "the cluster verdict names (node2, A) within the epoch bound; node1/node3 stay clean",
		Fleet:    threeNode, Phases: hour, Faults: []At{leak("node2", ComponentA)},
		Expect: Expect{Truth: []string{"node2/" + ComponentA}, Slack: 8},
	},
	{
		ID: "S6", Title: "Cluster — uniform leak on all nodes (100KB in A everywhere)",
		Expected: "the verdict for A is promoted to cluster-wide by quorum, with all three nodes named",
		Fleet:    threeNode, Phases: hour,
		Faults: []At{leak("node1", ComponentA), leak("node2", ComponentA), leak("node3", ComponentA)},
		Expect: Expect{Truth: []string{"cluster/" + ComponentA}},
	},
	{
		// node4 joins at a third of the run with a rebalance, as an
		// operator would drain traffic onto it; node1 leaves at two thirds.
		ID: "S7", Title: "Cluster — node join and leave mid-run (no aging)",
		Expected: "zero aging alarms through both membership changes; final membership node2+node3+node4",
		Fleet:    ClusterConfig{Nodes: 3, Spares: 1}, Phases: hour,
		Events: []At{{Arm: func(e *env) error {
			e.after(e.dur/3, func() error {
				if err := e.cs.Join("node4"); err != nil {
					return err
				}
				e.cs.Balancer.Rebalance()
				return nil
			})
			e.after(2*e.dur/3, func() error { return e.cs.Leave("node1") })
			return nil
		}}},
		Expect: Expect{Active: []string{"node2", "node3", "node4"}},
	},
	{
		// Per-node workloads shift hard while nothing ages: the cluster
		// node-mix guard must absorb the skew.
		ID: "S8", Title: "Cluster — skewed balancer concentrates traffic (no aging)",
		Expected: "the cluster-level shift guard engages on the traffic skew and zero alarms are raised",
		Fleet:    ClusterConfig{Nodes: 3, Policy: cluster.Weighted}, Phases: hour,
		Events: []At{{Arm: func(e *env) error {
			e.after(e.dur/2, func() error {
				e.cs.Balancer.SetWeights(map[string]int{"node1": 8, "node2": 1, "node3": 1})
				e.cs.Balancer.Rebalance()
				return nil
			})
			return nil
		}}},
		Expect: Expect{Check: func(e *env) (bool, string) {
			rep := e.cs.Aggregator.Report(core.ResourceMemory)
			engaged := rep != nil && rep.ShiftEpochs > 0
			var epochs int64
			var dist float64
			if rep != nil {
				epochs, dist = rep.ShiftEpochs, rep.ShiftDistance
			}
			return engaged, fmt.Sprintf("node-mix guard engaged: %v (%d suppressed epochs, last distance %.3f); spread %v",
				engaged, epochs, dist, e.cs.Balancer.Spread())
		}},
	},
	{
		// Leaked pool handles climb on the handle stream while requests
		// queue behind the shrunken pool.
		ID: "S9", Title: "Chaos — connection-pool exhaustion in A (handles + queueing latency)",
		Expected: "zero steady-phase alarms; the handle stream names A within the round bound; memory/CPU/threads stay quiet",
		Phases:   steadyThenFault,
		Faults: inject(func(e *env) (aspectSource, error) {
			return &faultinject.PoolExhaustion{Component: ComponentA, N: 30, PerHandleWait: 2 * time.Millisecond,
				Agent: e.s.Framework.HandleAgent(), Seed: e.cfg.Seed}, nil
		}),
		Expect: Expect{Truth: []string{ComponentA}, Resource: core.ResourceHandles, Slack: 6,
			Quiet: []string{core.ResourceMemory, core.ResourceCPU, core.ResourceThreads}},
	},
	{
		ID: "S10", Title: "Chaos — fd/session-handle leak in B",
		Expected: "zero steady-phase alarms; the handle stream names B within the round bound; CPU/threads stay quiet",
		Phases:   steadyThenFault,
		Faults: inject(func(e *env) (aspectSource, error) {
			return &faultinject.HandleLeak{Component: ComponentB, N: 30, Agent: e.s.Framework.HandleAgent(),
				Heap: e.s.Heap, Seed: e.cfg.Seed}, nil
		}),
		Expect: Expect{Truth: []string{ComponentB}, Resource: core.ResourceHandles, Slack: 6,
			Quiet: []string{core.ResourceCPU, core.ResourceThreads}},
	},
	{
		// Step/Growth fix the per-request wait creep: at A's ~1.3 req/s the
		// 1.5ms/request creep is a ~2e-3 s/inv-per-second latency slope, 4x
		// the DefaultLatencyMinSlope floor. No resource level grows.
		ID: "S11", Title: "Chaos — lock-contention aging in A (latency-only)",
		Expected: "zero steady-phase alarms; only the latency stream alarms, naming A within the round bound",
		Phases:   steadyThenFault,
		Faults: inject(func(e *env) (aspectSource, error) {
			return &faultinject.LockContention{Component: ComponentA, Step: 3 * time.Millisecond, Growth: 2,
				Jitter: 200 * time.Microsecond, Seed: e.cfg.Seed}, nil
		}),
		Expect: Expect{Truth: []string{ComponentA}, Resource: core.ResourceLatency, Slack: 6,
			Quiet: append([]string{core.ResourceMemory}, quietRest...)},
	},
	{
		// Jitter-sized fragments two orders of magnitude below the paper's
		// leak exercise the memory trend detector near its floor.
		ID: "S12", Title: "Chaos — fragmentation-style slow bloat in B",
		Expected: "zero steady-phase alarms; the memory stream names B within the round bound despite the shallow slope",
		Phases:   steadyThenFault,
		Faults: inject(func(e *env) (aspectSource, error) {
			target, err := e.s.retainer(ComponentB)
			return &faultinject.FragmentationBloat{Component: ComponentB, Target: target, Base: 8 * KB, N: 10,
				Heap: e.s.Heap, Seed: e.cfg.Seed}, err
		}),
		Expect: Expect{Truth: []string{ComponentB}, Resource: core.ResourceMemory, Slack: 6,
			Quiet: append([]string{core.ResourceLatency}, quietRest...)},
	},
	{
		// MissCost·rate/Decay is the per-invocation CPU slope: at A's ~1.3
		// req/s ~1.5e-3 s/inv per second, 3x the DefaultCPUMinSlope floor,
		// and the decay ramp (400 requests, ~10 rounds) outlasts the window.
		ID: "S13", Title: "Chaos — stale-cache decay in A (per-invocation CPU)",
		Expected: "zero steady-phase alarms; the CPU stream names A within the round bound; memory/threads/handles stay quiet",
		Phases:   steadyThenFault,
		Faults: inject(func(e *env) (aspectSource, error) {
			return &faultinject.StaleCacheDecay{Component: ComponentA, MissCost: 450 * time.Millisecond,
				Decay: 400, Seed: e.cfg.Seed}, nil
		}),
		Expect: Expect{Truth: []string{ComponentA}, Resource: core.ResourceCPU, Slack: 6,
			Quiet: []string{core.ResourceMemory, core.ResourceThreads, core.ResourceHandles}},
	},
	{
		// The NodeKill primitive draws the instant within the middle third.
		ID: "S14", Title: "Chaos — deterministic node kill (no aging)",
		Expected: "the kill is detected as a membership change, not aging: node2 inactive, survivors clean, zero alarms",
		Fleet:    threeNode, Phases: hour,
		Events: []At{{Arm: func(e *env) error {
			kill := faultinject.NodeKill{Node: "node2", Window: e.dur / 3, Seed: e.cfg.Seed}
			e.after(e.dur/3+kill.Offset(), func() error { return e.cs.Leave(kill.Node) })
			return nil
		}}},
		Expect: Expect{Active: []string{"node1", "node3"}},
	},
	{
		// The application plane never stops serving; only node3's rounds
		// are lost for the middle third of the run.
		ID: "S15", Title: "Chaos — monitoring-transport partition and heal (no aging)",
		Expected: "node3 is evicted while partitioned and folded back after the heal, with zero aging alarms",
		Fleet:    threeNode, Chaos: "node3", Phases: hour,
		Events: []At{{Arm: func(e *env) error {
			evicted := false
			e.after(e.dur/3, func() error { e.chaos.SetPartitioned(true); return nil })
			e.after(2*e.dur/3, func() error {
				// Just before healing, the silent node must already be out.
				evicted = !e.activeSet()["node3"]
				e.chaos.SetPartitioned(false)
				return nil
			})
			e.check(func() (bool, string) {
				return evicted && e.chaos.Dropped() > 0, fmt.Sprintf("partition dropped %d rounds; evicted during partition: %v; rejoined after heal: %v",
					e.chaos.Dropped(), evicted, e.activeSet()["node3"])
			})
			return nil
		}}},
	},
	{
		// The aggregator's clock normalisation must absorb a two-minute
		// skew on the leaking node itself.
		ID: "S16", Title: "Chaos — clock skew on the leaking node (100KB in A on node1, +2m skew)",
		Expected: "the merged timeline absorbs the skew; the verdict still pins (node1, A) within the epoch bound",
		Fleet:    threeNode, Chaos: "node1", Phases: hour,
		Faults: []At{leak("node1", ComponentA)},
		Events: []At{{Arm: func(e *env) error { e.chaos.SetSkew(2 * time.Minute); return nil }}},
		Expect: Expect{Truth: []string{"node1/" + ComponentA}, Slack: 8},
	},
	{
		// The S5 topology with the controller armed: 90 minutes leave room
		// for detection plus HoldDown+Drain+Reboot+Probation epochs.
		ID: "S17", Title: "Actuation — sick replica drained, micro-rebooted, re-admitted under load",
		Expected: "node2 completes a full drain/reboot/probation/re-admit cycle within the epoch bound with zero dropped requests; node1/node3 never actuated",
		Fleet:    rejuvNode, Phases: ninety, Faults: []At{leak("node2", ComponentA)},
		Expect: Expect{Truth: []string{"node2/" + ComponentA}, Slack: 16, Reboots: 1},
	},
	{
		// No cluster and no clock: hysteresis is a pure function of the
		// scripted verdict stream, so the FSM is isolated from detection
		// noise. A flapping alarm must actuate nothing; the same alarm held
		// must actuate exactly once.
		ID: "S18", Title: "Actuation — flapping detector held by hold-down hysteresis",
		Expected: "30 epochs of alternating alarm/quiet actuate nothing; the same alarm sustained actuates exactly once",
		Expect:   Expect{Truth: []string{"node2/" + ComponentA}, Check: flapScript},
	},
	{
		// Every rejuvenate command is lost in flight: the controller must
		// time the ack wait out within RebootEpochs and re-admit node2
		// un-rebooted — a detection-only monitor, never a node stuck out.
		ID: "S19", Title: "Actuation — control-channel loss during drain degrades safely",
		Expected: "lost rejuvenate commands time out within RebootEpochs; node2 is re-admitted un-rebooted, the loss is counted, and no request is dropped",
		Fleet:    rejuvNode, LossyControl: true, Phases: ninety, Faults: []At{leak("node2", ComponentA)},
		Expect: Expect{Truth: []string{"node2/" + ComponentA}, Check: boundedFallback},
	},
	{
		// The aggregator dies mid-epoch-7: the leak's trend is in the
		// shipped detector state, but no verdict can exist yet. The restored
		// banks must carry it; the failover window allows 4 extra epochs.
		ID: "S20", Title: "Robustness — aggregator killed mid-leak, standby promoted from snapshot",
		Expected: "the promoted plane's verdict names (node2, A) within the epoch bound despite the mid-detection failover; zero dropped requests",
		Fleet:    ClusterConfig{Nodes: 3, Standby: true}, Phases: hour,
		Faults: []At{leak("node2", ComponentA)},
		Events: []At{{Arm: func(e *env) error {
			failedOver := false
			var epoch, shipped int64
			e.after(13*e.cs.sampleInterval/2, func() error {
				failedOver, epoch, shipped = true, e.cs.Aggregator.Epoch(), e.cs.shipper.Shipped()
				return e.cs.FailOver()
			})
			e.check(func() (bool, string) {
				top, ok := e.top()
				return failedOver && shipped >= 1 && ok && top.FirstEpoch > epoch,
					fmt.Sprintf("failover at epoch %d after %d shipped generations (%d rounds lost in the window)",
						epoch, shipped, e.cs.lostRounds)
			})
			return nil
		}}},
		Expect: Expect{Truth: []string{"node2/" + ComponentA}, Slack: 12},
	},
	{
		// The plane dies at its worst instant, while node2 drains: polling
		// at half the epoch cadence always lands inside the DrainEpochs
		// window. The restored controller must re-assert the orphaned drain
		// and finish the cycle with exactly one micro-reboot.
		ID: "S21", Title: "Robustness — failover while a node is mid-drain (orphaned actuation reconciled)",
		Expected: "the promoted controller resumes the orphaned drain and completes the cycle with exactly one micro-reboot; bystanders untouched, zero dropped requests",
		Fleet:    ClusterConfig{Nodes: 3, Rejuv: scenarioRejuvConfig(), Standby: true}, Phases: ninety,
		Faults: []At{leak("node2", ComponentA)},
		Events: []At{{Arm: func(e *env) error {
			failedOver := false
			e.cs.Engine.Every(e.cs.sampleInterval/2, func(time.Time) {
				if !failedOver && e.cs.Rejuv.NodeState("node2") == rejuv.Draining {
					failedOver = true
					e.fail(e.cs.FailOver())
				}
			})
			return nil
		}}},
		Expect: Expect{Truth: []string{"node2/" + ComponentA}, Reboots: 1, Check: func(e *env) (bool, string) {
			resumed := false
			for _, msg := range e.actions {
				resumed = resumed || strings.Contains(msg, "after failover")
			}
			lost := e.cs.Rejuv.Stats().ControlLost
			return resumed && lost == 0, fmt.Sprintf("failover during drain, drain re-asserted: %v, control losses: %d", resumed, lost)
		}},
	},
	{
		// Between two load phases, 16 phantom publishers hammer a single
		// depth-2 ingest lane. Whatever the interleaving sheds, offered =
		// ingested + shed; the phantoms (and any real node the storm's
		// epoch ratchet evicted) must settle back, and the sick replica's
		// verdict must survive: overload degrades coverage, not correctness.
		ID: "S22", Title: "Robustness — phantom round storm against the ingest admission gate",
		Expected: "every stormed round is ingested or shed (exact accounting), phantoms evict once stale, and the (node2, A) verdict survives the overload",
		Fleet:    ClusterConfig{Nodes: 3, IngestLanes: 1, LaneQueueDepth: 2, StaleEpochs: 2},
		Phases:   []Phase{{Dur: time.Hour}, {Dur: 40 * time.Minute}},
		Faults:   []At{leak("node2", ComponentA)},
		Events:   []At{{Phase: 1, Arm: roundStorm}},
		Expect:   Expect{Truth: []string{"node2/" + ComponentA}},
	},
}

// env is one scenario run: the assembled system, what it has raised, and
// the checks its events registered.
type env struct {
	cfg   Config
	sc    *Scenario
	s     *Stack        // single-node rows
	cs    *ClusterStack // cluster rows
	chaos *faultinject.ChaosTransport[cluster.Round]
	loss  *lossyControl
	// alarms and actions collect alarm and actuation notification messages.
	// Listeners run inside the single-threaded engine, so no lock is needed.
	alarms, actions []string
	dur             time.Duration // the current phase's scaled length
	err             error         // the first failure of an event fired mid-run
	checks          []func() (bool, string)
	acc             Accuracy
	text            string
}

// Run runs the scenario at cfg and scores it.
func (sc Scenario) Run(cfg Config) Result {
	e := &env{cfg: cfg.withDefaults(), sc: &sc, acc: Accuracy{Truth: sc.Expect.Truth}}
	res := Result{ID: sc.ID, Title: sc.Title, Expected: sc.Expected, Accuracy: &e.acc}
	if len(sc.Phases) > 0 {
		if err := e.assemble(); err != nil {
			return errorResult(sc.ID, err)
		}
		defer e.close()
	}
	pass, obs, err := e.play()
	if err != nil {
		return errorResult(sc.ID, err)
	}
	if sc.Expect.Check != nil {
		ok, note := sc.Expect.Check(e)
		pass, obs = pass && ok, append(obs, note)
	}
	for _, c := range e.checks {
		ok, note := c()
		pass, obs = pass && ok, append(obs, note)
	}
	res.Pass, res.Observed, res.Text = pass, strings.Join(obs, "; "), e.text
	return res
}

// play runs the phases, arming faults and events as each starts, and
// makes the shared checks.
func (e *env) play() (pass bool, obs []string, err error) {
	x := e.sc.Expect
	faultPhase, pre := -1, int64(0)
	flagged := map[string]bool{}
	pass = true
	for i, ph := range e.sc.Phases {
		e.dur = scaleDuration(ph.Dur, e.cfg.TimeScale)
		for _, f := range e.sc.Faults {
			if f.Phase == i {
				if faultPhase < 0 {
					faultPhase, pre, e.acc.PreInjectionAlarms = i, e.round(), len(e.raised())
				}
				e.fail(f.Arm(e))
			}
		}
		for _, ev := range e.sc.Events {
			if ev.Phase == i {
				e.fail(ev.Arm(e))
			}
		}
		if e.err != nil {
			return false, nil, e.err
		}
		mix := e.driver().Mix()
		load := []eb.Phase{{Duration: e.dur, EBs: e.cfg.EBs, Mix: mix}}
		if ph.Shape != nil {
			load = ph.Shape(e.dur, e.cfg.EBs, mix)
		}
		e.fail(e.driver().RunSchedule(load, nil))
		if e.cs != nil {
			if e.chaos != nil && e.chaos.Dropped() > 0 {
				// The barrier would wait forever for the swallowed rounds.
				e.cs.FlushNotifications()
			} else {
				e.fail(e.cs.Sync())
			}
		}
		if e.err != nil {
			return false, nil, e.err
		}
		for _, f := range e.flagged() {
			flagged[f] = true
		}
		if i == faultPhase {
			at, ok, note := e.verdict(pre)
			if at > pre {
				e.acc.TTDRounds = at - pre
			}
			pass, obs = ok, append(obs, note)
		}
	}
	if len(e.sc.Phases) == 0 {
		return true, nil, nil
	}
	e.acc.Flagged = sortedSet(flagged)
	if faultPhase < 0 {
		e.acc.PreInjectionAlarms = len(e.raised())
	}
	pass = pass && e.acc.PreInjectionAlarms == 0
	obs = append(obs, fmt.Sprintf("%d alarms (%d before injection)", len(e.raised()), e.acc.PreInjectionAlarms))
	if e.cs == nil {
		if len(x.Truth) == 0 {
			e.text = reportText(e.s.Detectors.Report(core.ResourceMemory))
		}
		return pass, append(obs, fmt.Sprintf("%d interactions", e.s.Driver.Completed())), nil
	}

	rep := e.cs.Aggregator.Report(core.ResourceMemory)
	if len(x.Truth) == 0 {
		pass = pass && rep != nil && !rep.Alarming()
	}
	want := x.Active
	if want == nil {
		want = e.initial()
	}
	active := activeNames(e.cs)
	clean := e.bystandersClean()
	failed := e.cs.Driver.Failed()
	// Acting on aging must not cost a request; the topology events of the
	// quiet rows (a rebalance moving pinned sessions) may.
	pass = pass && strings.Join(active, ",") == strings.Join(want, ",") && clean && (len(x.Truth) == 0 || failed == 0)
	if e.text == "" {
		e.text = clusterReportText(rep) + strings.Join(e.raised(), "\n")
	}
	return pass, append(obs, fmt.Sprintf("active set %v; healthy replicas clean: %v; %d interactions, %d failed requests",
		active, clean, e.cs.Driver.Completed(), failed)), nil
}

// verdict reads what the detection plane named for the row's fault at the
// end of the fault's phase: the instant it was detected (a round, epoch or,
// under rejuvenation, the first epoch of the alarm streak that drained the
// sick node; 0 unless the truth was named), whether the row's contract
// holds, and an observation.
func (e *env) verdict(pre int64) (at int64, ok bool, obs string) {
	x := e.sc.Expect
	truth := x.Truth[0]
	switch {
	case e.s != nil:
		res := e.resource()
		rep := e.s.Detectors.Report(res)
		first, suspect := firstAlarm(rep)
		var noisy []string
		for _, q := range x.Quiet {
			if qr := e.s.Detectors.Report(q); qr != nil && len(qr.Alarms()) > 0 {
				noisy = append(noisy, q)
			}
		}
		if suspect == truth {
			at = first
		}
		ok = at > pre && len(noisy) == 0
		if suspect == "" {
			suspect = "(none)"
		}
		obs = fmt.Sprintf("first %s alarm at round %d (injected after %d) names %s, suspect correct: %v; quiet streams clean: %v",
			res, first, pre, suspect, at > 0, len(noisy) == 0)
		e.text = reportText(rep)
		if len(noisy) > 0 {
			e.text += "\nstreams that should have stayed quiet but alarmed: " + strings.Join(noisy, ", ") + "\n"
		}
	case e.cs.Rejuv != nil:
		node := strings.SplitN(truth, "/", 2)[0]
		hist, st := e.cs.Rejuv.History(), e.cs.Rejuv.Stats()
		chain, cycled := rejuvCycle(hist, node)
		rebooted := e.cs.Node(node).Framework.RejuvenationCount()
		if d := firstDrainEpoch(hist, node); d > 0 {
			at = d - int64(e.cs.rejuvCfg.HoldDownEpochs)
		}
		if cycled && rebooted > 0 {
			e.acc.RecoveryEpochs = chain[3].Epoch - pre
		}
		ok = at > pre && int(rebooted) == x.Reboots && (x.Reboots == 0 || cycled) && st.ClusterWideVetoes == 0
		cycle := "no full cycle"
		if cycled {
			cycle = fmt.Sprintf("drain@%d reboot@%d probation@%d healthy@%d", chain[0].Epoch, chain[1].Epoch, chain[2].Epoch, chain[3].Epoch)
		}
		obs = fmt.Sprintf("%s; %s micro-reboots: %d, %d rejuvenations freed %d bytes, %d rollbacks, %d vetoes",
			cycle, node, rebooted, st.Rejuvenations, st.FreedBytes, st.Rollbacks, st.ClusterWideVetoes)
		e.text = rejuvHistoryText(hist)
	default:
		top, found := e.top()
		pair := "(none)"
		if found {
			pair = top.Pair()
		}
		if pair == truth {
			at = top.FirstEpoch
		}
		// A cluster-wide verdict must name every node of the fleet.
		ok = at > pre && (!top.ClusterWide || len(top.Nodes) == e.sc.Fleet.Nodes)
		obs = fmt.Sprintf("top verdict %s cluster-wide=%v across %d nodes, raised at epoch %d",
			pair, top.ClusterWide, len(top.Nodes), top.FirstEpoch)
	}
	if x.Slack > 0 {
		bound := detectBound(pre, x.Slack)
		ok = ok && at <= bound
		obs += fmt.Sprintf(" (detected by %d, bound %d)", at, bound)
	}
	return at, ok, obs
}

// assemble builds the row's stack and wires the notification log.
func (e *env) assemble() error {
	scale := scenarioScale(e.cfg)
	if e.sc.Fleet.Nodes == 0 {
		s, err := NewStack(StackConfig{Seed: e.cfg.Seed, Scale: scale, Monitored: true, Detect: true,
			DetectConfig: scenarioDetectConfig(), Mix: eb.Shopping})
		if err != nil {
			return err
		}
		e.s = s
		s.Framework.Server().AddListener(e.listen)
		return nil
	}
	cc := e.sc.Fleet
	cc.Seed, cc.Scale, cc.Mix, cc.Detect = e.cfg.Seed, scale, eb.Shopping, scenarioDetectConfig()
	if node := e.sc.Chaos; node != "" {
		cc.Chaos = func(name string, tr cluster.Transport) cluster.Transport {
			if name != node {
				return tr
			}
			e.chaos = faultinject.NewChaosTransport[cluster.Round](tr)
			return e.chaos
		}
	}
	if e.sc.LossyControl {
		e.loss = &lossyControl{}
		cc.RejuvControl = func(inner rejuv.CommandSender) rejuv.CommandSender {
			e.loss.inner = inner
			return e.loss
		}
	}
	cs, err := NewClusterStack(cc)
	if err != nil {
		return err
	}
	e.cs = cs
	cs.Server.AddListener(e.listen)
	return nil
}

func (e *env) listen(n jmx.Notification) {
	switch n.Type {
	case core.NotifAlarm, cluster.NotifClusterAlarm:
		e.alarms = append(e.alarms, n.Message)
	case rejuv.NotifRejuvAction:
		e.actions = append(e.actions, n.Message)
	}
}

func (e *env) close() {
	if e.s != nil {
		e.s.Close()
	}
	if e.cs != nil {
		e.cs.Close()
	}
}

// after runs fn d into the current phase on the engine, keeping its error.
func (e *env) after(d time.Duration, fn func() error) {
	engine := e.cs.Engine
	engine.Schedule(engine.Now().Add(d), func(time.Time) { e.fail(fn()) })
}

// check registers a row check that needs state an event captured mid-run.
func (e *env) check(fn func() (bool, string)) { e.checks = append(e.checks, fn) }

// fail keeps the first error.
func (e *env) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *env) driver() *eb.ShardedDriver {
	if e.s != nil {
		return e.s.Driver
	}
	return e.cs.Driver
}

func (e *env) node(name string) *Node {
	if e.s != nil {
		return e.s.Node
	}
	return e.cs.Node(name)
}

func (e *env) resource() string {
	if r := e.sc.Expect.Resource; r != "" {
		return r
	}
	return core.ResourceMemory
}

// round is the detection clock: the single-node verdict stream's round or
// the cluster epoch.
func (e *env) round() int64 {
	if e.s != nil {
		if rep := e.s.Detectors.Report(e.resource()); rep != nil {
			return rep.Round
		}
		return 0
	}
	return e.cs.Aggregator.Epoch()
}

// raised is the alarm raises, clears left out.
func (e *env) raised() []string {
	var out []string
	for _, msg := range e.alarms {
		if !strings.Contains(msg, "clears") && !strings.Contains(msg, "cleared") {
			out = append(out, msg)
		}
	}
	return out
}

// flagged is the suspect set in Accuracy's vocabulary: every component
// with an alarm on record on a single node; the pairs the aggregator
// currently flags on a cluster, cluster-wide verdicts as
// "cluster/component"; the pairs the controller drained under
// rejuvenation.
func (e *env) flagged() []string {
	set := map[string]bool{}
	switch {
	case e.s != nil:
		for _, res := range core.DetectorResources {
			if rep := e.s.Detectors.Report(res); rep != nil {
				for _, v := range rep.Components {
					if v.FirstAlarmRound > 0 {
						set[v.Component] = true
					}
				}
			}
		}
	case e.cs.Rejuv != nil:
		drained(e.cs.Rejuv.History(), set)
	default:
		for _, res := range core.DetectorResources {
			if rep := e.cs.Aggregator.Report(res); rep != nil {
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
		}
	}
	return sortedSet(set)
}

// top is the cluster's top memory verdict.
func (e *env) top() (cluster.ClusterVerdict, bool) {
	if rep := e.cs.Aggregator.Report(core.ResourceMemory); rep != nil {
		return rep.Top()
	}
	return cluster.ClusterVerdict{}, false
}

// initial names the nodes the fleet starts with.
func (e *env) initial() []string {
	var out []string
	for _, n := range e.cs.Nodes[:e.sc.Fleet.Nodes] {
		out = append(out, n.Name)
	}
	return out
}

// bystandersClean reports whether the nodes the truth does not name stayed
// healthy: no alarm on their own memory stream and, under rejuvenation, no
// micro-reboot and no transition.
func (e *env) bystandersClean() bool {
	sick := map[string]bool{}
	for _, t := range e.sc.Expect.Truth {
		sick[strings.SplitN(t, "/", 2)[0]] = true
	}
	if len(e.sc.Expect.Truth) == 0 || sick["cluster"] {
		return true
	}
	for _, n := range e.initial() {
		if sick[n] {
			continue
		}
		if nr := e.cs.Aggregator.NodeReport(n, core.ResourceMemory); nr == nil || len(nr.Alarms()) > 0 {
			return false
		}
		if e.cs.Rejuv != nil && e.cs.Node(n).Framework.RejuvenationCount() > 0 {
			return false
		}
	}
	if e.cs.Rejuv != nil {
		for _, ev := range e.cs.Rejuv.History() {
			if !sick[ev.Node] {
				return false
			}
		}
	}
	return true
}

// activeSet maps node name → currently active.
func (e *env) activeSet() map[string]bool {
	out := map[string]bool{}
	for _, s := range e.cs.Aggregator.Nodes() {
		out[s.Node] = s.Active
	}
	return out
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

// rejuvCycle scans a controller history for node's first full
// Draining → Rejuvenating → Probation → Healthy cycle, returning the
// four transition events in order.
func rejuvCycle(hist []rejuv.Event, node string) ([]rejuv.Event, bool) {
	want := []rejuv.State{rejuv.Draining, rejuv.Rejuvenating, rejuv.Probation, rejuv.Healthy}
	var chain []rejuv.Event
	for _, ev := range hist {
		if ev.Node != node || len(chain) == len(want) {
			continue
		}
		if ev.To == want[len(chain)] {
			chain = append(chain, ev)
		}
	}
	return chain, len(chain) == len(want)
}

// firstDrainEpoch is the epoch of node's first Healthy → Draining
// transition, zero if it never drained.
func firstDrainEpoch(hist []rejuv.Event, node string) int64 {
	for _, ev := range hist {
		if ev.Node == node && ev.From == rejuv.Healthy && ev.To == rejuv.Draining {
			return ev.Epoch
		}
	}
	return 0
}

// drained adds the node/component pairs a controller history drained to
// set: the actuation plane's answer to "who was sick".
func drained(hist []rejuv.Event, set map[string]bool) {
	for _, ev := range hist {
		if ev.To == rejuv.Draining && ev.Component != "" {
			set[ev.Node+"/"+ev.Component] = true
		}
	}
}

// rejuvHistoryText renders a transition history for Result.Text.
func rejuvHistoryText(hist []rejuv.Event) string {
	var b strings.Builder
	for _, ev := range hist {
		fmt.Fprintf(&b, "epoch %4d  %-7s %-12s -> %-12s %s\n", ev.Epoch, ev.Node, ev.From, ev.To, ev.Note)
	}
	return b.String()
}

// flapScript is S18: it drives the controller FSM with scripted epoch
// verdicts through probe fakes. The hold-down demands HoldDownEpochs
// consecutive alarming epochs and one quiet epoch resets it, so 30 epochs
// of alarm/quiet flapping must drain nothing; the same alarm sustained
// must then produce exactly one cycle, proving the controller was held by
// hysteresis, not dead.
func flapScript(e *env) (bool, string) {
	rc := *scenarioRejuvConfig()
	bal, snd := &probeBalancer{}, &probeSender{}
	ctrl := rejuv.New(rc, bal, snd)
	ctrl.Track("node1", "node2", "node3")
	epoch := int64(0)
	step := func(alarming bool) {
		epoch++
		ev := cluster.EpochEvent{Epoch: epoch, Active: 3}
		if alarming {
			ev.Verdicts = []cluster.ClusterVerdict{{Resource: core.ResourceMemory, Component: ComponentA,
				Nodes: []string{"node2"}, ActiveNodes: 3, Score: 5}}
		}
		ctrl.ObserveEpoch(ev)
	}
	for i := 0; i < 15; i++ {
		step(true)
		step(false)
	}
	flapTransitions, flapSends, sustainedFrom := len(ctrl.History()), len(snd.sent), epoch
	for i := 0; i < rc.HoldDownEpochs; i++ {
		step(true)
	}
	for i := 0; i < rc.ProbationEpochs+6; i++ {
		step(false) // the reboot acks synchronously; probation runs out clean
	}

	hist, st := ctrl.History(), ctrl.Stats()
	chain, cycled := rejuvCycle(hist, "node2")
	if cycled {
		// The sustained alarms begin at sustainedFrom+1.
		e.acc.TTDRounds = chain[0].Epoch - sustainedFrom
		e.acc.RecoveryEpochs = chain[3].Epoch - sustainedFrom
	}
	set := map[string]bool{}
	drained(hist, set)
	e.acc.Flagged = sortedSet(set)
	e.acc.PreInjectionAlarms = flapTransitions // the flap phase is the pre-injection window
	e.text = rejuvHistoryText(hist)
	return flapTransitions == 0 && flapSends == 0 && cycled && st.Rejuvenations == 1 && bal.drains == 1 &&
			ctrl.NodeState("node2") == rejuv.Healthy,
		fmt.Sprintf("flap phase: %d transitions, %d control sends over 30 epochs; sustained phase: %d drains, %d rejuvenations, node2 ends %s",
			flapTransitions, flapSends, bal.drains, st.Rejuvenations, ctrl.NodeState("node2"))
}

// probeBalancer and probeSender are the minimal actuation fakes S18
// drives the state machine with.
type probeBalancer struct{ drains int }

func (b *probeBalancer) Drain(string) bool         { b.drains++; return true }
func (b *probeBalancer) CompleteDrain(string) int  { return 0 }
func (b *probeBalancer) Readmit(string, int) bool  { return true }
func (b *probeBalancer) PinnedSessions(string) int { return 0 }
func (b *probeBalancer) Inflight(string) int       { return 0 }

type probeSender struct{ sent []cluster.ControlKind }

func (s *probeSender) SendControl(node string, kind cluster.ControlKind, component string, weight int, done func(cluster.ControlAck, error)) {
	s.sent = append(s.sent, kind)
	if done != nil {
		done(cluster.ControlAck{OK: true, Freed: int64(64 * KB)}, nil)
	}
}

// lossyControl swallows rejuvenate commands in flight — delivered to
// nobody, acked by nobody — while passing drain/re-admit through. It wraps
// the control channel only: the verdict path, the balancer and the
// recording plane are untouched.
type lossyControl struct {
	inner rejuv.CommandSender
	mu    sync.Mutex
	lost  int
}

func (l *lossyControl) SendControl(node string, kind cluster.ControlKind, component string, weight int, done func(cluster.ControlAck, error)) {
	if kind == cluster.ControlRejuvenate {
		l.mu.Lock()
		l.lost++
		l.mu.Unlock()
		return
	}
	l.inner.SendControl(node, kind, component, weight, done)
}

func (l *lossyControl) swallowed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lost
}

// boundedFallback is S19's check: every Rejuvenating stint of node2 ends
// within RebootEpochs (+1 epoch of decision latency) through the
// control-lost fallback, the loss is counted, and node2 is not left stuck.
func boundedFallback(e *env) (bool, string) {
	rebootEpochs := int64(e.cs.rejuvCfg.RebootEpochs) + 1
	bounded, fellBack := true, false
	rebootStart := int64(-1)
	for _, ev := range e.cs.Rejuv.History() {
		if ev.Node != "node2" {
			continue
		}
		switch ev.To {
		case rejuv.Rejuvenating:
			rebootStart = ev.Epoch
		case rejuv.Probation:
			bounded = bounded && !(rebootStart >= 0 && ev.Epoch-rebootStart > rebootEpochs)
			fellBack = fellBack || strings.Contains(ev.Note, "control lost")
			rebootStart = -1
		}
	}
	stuck := e.cs.Rejuv.NodeState("node2") == rejuv.Rejuvenating && rebootStart >= 0 &&
		e.cs.Rejuv.Epoch()-rebootStart > rebootEpochs
	lost := e.cs.Rejuv.Stats().ControlLost
	return e.loss.swallowed() >= 1 && lost >= 1 && fellBack && bounded && !stuck,
		fmt.Sprintf("%d rejuvenate commands lost in flight, %d control losses counted, fallback within bound: %v",
			e.loss.swallowed(), lost, bounded && fellBack && !stuck)
}

// roundStorm is S22's event: 16 phantom publishers fire 12 rounds each at
// the aggregator's single depth-2 lane, and the registered check holds the
// accounting exact and the alarm stream honest — node2 re-flagged after
// the storm, and no raise ever naming anything but the sick replica.
func roundStorm(e *env) error {
	agg := e.cs.Aggregator
	preRaises := len(e.raised())
	preTotal, preShed := agg.TotalRounds(), agg.ShedRounds()
	base := e.cs.Engine.Now()
	storm := &faultinject.RoundStorm[cluster.Round]{
		Publishers: 16,
		Rounds:     12,
		Seed:       e.cfg.Seed,
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
	offered := storm.Fire(agg)
	ingested, shed := agg.TotalRounds()-preTotal, agg.ShedRounds()-preShed
	accounted := ingested+shed == offered
	e.check(func() (bool, string) {
		reFlagged, falseAlarm := false, false
		for i, msg := range e.raised() {
			if !strings.Contains(msg, "node2") || !strings.Contains(msg, ComponentA) {
				falseAlarm = true
			} else if i >= preRaises {
				reFlagged = true
			}
		}
		return accounted && reFlagged && !falseAlarm,
			fmt.Sprintf("storm offered %d rounds: %d ingested + %d shed (accounted: %v, %d notifications dropped at the cap); re-flagged after: %v, false alarms: %v",
				offered, ingested, shed, accounted, e.cs.Aggregator.DroppedNotifications(), reFlagged, falseAlarm)
	})
	return nil
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func reportText(rep *detect.Report) string {
	if rep == nil {
		return ""
	}
	return rep.String()
}

func clusterReportText(rep *cluster.ClusterReport) string {
	if rep == nil {
		return ""
	}
	return rep.String()
}

func errorResult(id string, err error) Result {
	return Result{ID: id, Title: "scenario failed to assemble", Observed: err.Error()}
}

// scaleDuration multiplies d by factor (minimum one minute, like
// scalePhases).
func scaleDuration(d time.Duration, factor float64) time.Duration {
	if factor <= 0 {
		return d
	}
	scaled := time.Duration(float64(d) * factor)
	if scaled < time.Minute {
		return time.Minute
	}
	return scaled
}
