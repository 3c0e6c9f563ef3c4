package experiment

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/eb"
	"repro/internal/jmx"
	"repro/internal/rejuv"
)

// The actuation scenarios (S17-S19) close the loop the detection matrix
// opens: a verdict is only useful if acting on it is safe. S17 is the
// happy path — a sick replica drained, micro-rebooted and re-admitted
// under full load with zero dropped requests and no collateral actuation
// on healthy replicas. S18 and S19 are the two ways the loop can hurt:
// a flapping detector must be held by hysteresis (no actuation at all),
// and a lost control channel must degrade to a bounded timeout and a
// safe re-admission, never a node stuck out of rotation.

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

// rejuvScenarioStack assembles an N-node cluster with the rejuvenation
// controller wired in and an actuation-notification log. ctl, when
// non-nil, wraps the control channel (the chaos hook S19 uses to lose
// commands in flight).
func rejuvScenarioStack(cfg Config, nodes int, ctl func(rejuv.CommandSender) rejuv.CommandSender) (*ClusterStack, *alarmLog, error) {
	cs, err := NewClusterStack(ClusterConfig{
		Nodes:        nodes,
		Seed:         cfg.Seed,
		Scale:        scenarioScale(cfg),
		Mix:          eb.Shopping,
		Detect:       scenarioDetectConfig(),
		Policy:       cluster.RoundRobin,
		Rejuv:        scenarioRejuvConfig(),
		RejuvControl: ctl,
	})
	if err != nil {
		return nil, nil, err
	}
	log := &alarmLog{}
	cs.Server.AddListener(func(n jmx.Notification) {
		if n.Type == rejuv.NotifRejuvAction {
			log.events = append(log.events, n.Message)
		}
	})
	return cs, log, nil
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

// actuatedPairs lists the unique node/component pairs the controller
// decided to drain — the actuation plane's answer to "who was sick",
// scored against ground truth like the detection scenarios' verdicts.
func actuatedPairs(hist []rejuv.Event) []string {
	seen := make(map[string]bool)
	var out []string
	for _, ev := range hist {
		if ev.To != rejuv.Draining || ev.Component == "" {
			continue
		}
		p := ev.Node + "/" + ev.Component
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// rejuvHistoryText renders a transition history for Result.Text.
func rejuvHistoryText(hist []rejuv.Event) string {
	var b strings.Builder
	for _, ev := range hist {
		fmt.Fprintf(&b, "epoch %4d  %-7s %-12s -> %-12s %s\n",
			ev.Epoch, ev.Node, ev.From, ev.To, ev.Note)
	}
	return b.String()
}

// S17RejuvenateSickReplica is the closed-loop happy path: the S5
// topology (three balanced nodes, the paper's 100KB/N=100 leak in
// component A on node2) with the rejuvenation controller armed. The
// sick replica must be drained, micro-rebooted and re-admitted at full
// weight — a complete Healthy → Draining → Rejuvenating → Probation →
// Healthy cycle — while the driver drops zero requests and the healthy
// replicas are never touched (zero false rejuvenations).
func S17RejuvenateSickReplica(cfg Config) Result {
	cfg = cfg.withDefaults()
	rc := scenarioRejuvConfig()
	cs, log, err := rejuvScenarioStack(cfg, 3, nil)
	if err != nil {
		return errorResult("S17", err)
	}
	defer cs.Close()
	if _, err := cs.Node("node2").InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		return errorResult("S17", err)
	}

	// 90 minutes: detection needs up to clusterEpochBound() epochs, the
	// actuation cycle roughly HoldDown+Drain+Reboot+Probation more.
	total := scaleDuration(90*time.Minute, cfg.TimeScale)
	cs.Run(total, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S17", err)
	}
	cs.FlushNotifications()

	hist := cs.Rejuv.History()
	st := cs.Rejuv.Stats()
	chain, cycled := rejuvCycle(hist, "node2")
	failed := cs.Driver.Failed()
	rebooted := cs.Node("node2").Framework.RejuvenationCount()

	// Healthy replicas must be untouched: no micro-reboots, no
	// transitions — a false rejuvenation is an availability hit.
	bystandersClean := cs.Node("node1").Framework.RejuvenationCount() == 0 &&
		cs.Node("node3").Framework.RejuvenationCount() == 0
	for _, ev := range hist {
		if ev.Node != "node2" {
			bystandersClean = false
		}
	}

	drainBound := clusterEpochBound() + int64(rc.HoldDownEpochs) + 8
	var ttd, recovery int64
	inTime := false
	cycleDesc := "no full cycle"
	if cycled {
		ttd = chain[0].Epoch - int64(rc.HoldDownEpochs) // first epoch of the alarm streak
		recovery = chain[3].Epoch                       // injected at epoch 0
		inTime = chain[0].Epoch <= drainBound
		cycleDesc = fmt.Sprintf("drain@%d reboot@%d probation@%d healthy@%d (drain bound %d)",
			chain[0].Epoch, chain[1].Epoch, chain[2].Epoch, chain[3].Epoch, drainBound)
	}
	pass := cycled && inTime && failed == 0 && rebooted >= 1 && bystandersClean &&
		st.Rejuvenations >= 1 && st.ClusterWideVetoes == 0
	observed := fmt.Sprintf("%s; %d micro-reboots freed %d bytes, %d failed requests, healthy replicas untouched: %v, %d vetoes, %d actuation notifications",
		cycleDesc, st.Rejuvenations, st.FreedBytes, failed, bystandersClean, st.ClusterWideVetoes, len(log.raised()))
	return Result{
		ID:       "S17",
		Title:    "Actuation — sick replica drained, micro-rebooted, re-admitted under load",
		Expected: fmt.Sprintf("node2 completes a full drain/reboot/probation/re-admit cycle within %d epochs with zero dropped requests; node1/node3 never actuated", drainBound),
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

// probeBalancer and probeSender are the minimal actuation fakes S18
// drives the state machine with: no cluster, no clock — hysteresis is a
// pure function of the scripted verdict stream, so the scenario isolates
// the FSM from detection noise entirely.
type probeBalancer struct{ drains, readmits int }

func (b *probeBalancer) Drain(string) bool         { b.drains++; return true }
func (b *probeBalancer) CompleteDrain(string) int  { return 0 }
func (b *probeBalancer) Readmit(string, int) bool  { b.readmits++; return true }
func (b *probeBalancer) PinnedSessions(string) int { return 0 }
func (b *probeBalancer) Inflight(string) int       { return 0 }

type probeSender struct{ sent []cluster.ControlKind }

func (s *probeSender) SendControl(node string, kind cluster.ControlKind, component string, weight int, done func(cluster.ControlAck, error)) {
	s.sent = append(s.sent, kind)
	if done != nil {
		done(cluster.ControlAck{OK: true, Freed: int64(64 * KB)}, nil)
	}
}

// S18FlappingDetectorHeld is the hysteresis litmus: a detector that
// alarms every other epoch — the classic borderline-trend flap — must
// produce ZERO actuation, while the same alarm held continuously must
// produce exactly one cycle. The hold-down demands HoldDownEpochs
// consecutive alarming epochs and a single quiet epoch resets it, so a
// flapping verdict can never drain a node.
func S18FlappingDetectorHeld(cfg Config) Result {
	cfg = cfg.withDefaults()
	rc := *scenarioRejuvConfig()
	bal := &probeBalancer{}
	snd := &probeSender{}
	ctrl := rejuv.New(rc, bal, snd)
	ctrl.Track("node1", "node2", "node3")

	epoch := int64(0)
	step := func(alarming bool) {
		epoch++
		ev := cluster.EpochEvent{Epoch: epoch, Active: 3}
		if alarming {
			ev.Verdicts = []cluster.ClusterVerdict{{
				Resource: "memory", Component: ComponentA,
				Nodes: []string{"node2"}, ActiveNodes: 3, Score: 5,
			}}
		}
		ctrl.ObserveEpoch(ev)
	}

	// Phase 1 — flap: alarm, quiet, alarm, quiet for 30 epochs.
	for i := 0; i < 15; i++ {
		step(true)
		step(false)
	}
	flapTransitions := len(ctrl.History())
	flapSends := len(snd.sent)
	sustainedFrom := epoch

	// Phase 2 — the same alarm, sustained: exactly one cycle, proving the
	// controller was held by hysteresis, not dead.
	for i := 0; i < rc.HoldDownEpochs; i++ {
		step(true)
	}
	for i := 0; i < rc.ProbationEpochs+6; i++ {
		step(false) // reboot acked synchronously; probation runs out clean
	}

	hist := ctrl.History()
	st := ctrl.Stats()
	chain, cycled := rejuvCycle(hist, "node2")
	var ttd, recovery int64
	if cycled {
		ttd = chain[0].Epoch - sustainedFrom // sustained alarms begin at sustainedFrom+1
		recovery = chain[3].Epoch - sustainedFrom
	}
	pass := flapTransitions == 0 && flapSends == 0 && cycled &&
		st.Rejuvenations == 1 && bal.drains == 1 &&
		ctrl.NodeState("node2") == rejuv.Healthy
	observed := fmt.Sprintf("flap phase: %d transitions, %d control sends over 30 epochs; sustained phase: %d drains, %d rejuvenations, node2 ends %s",
		flapTransitions, flapSends, bal.drains, st.Rejuvenations, ctrl.NodeState("node2"))
	return Result{
		ID:       "S18",
		Title:    "Actuation — flapping detector held by hold-down hysteresis",
		Expected: "30 epochs of alternating alarm/quiet actuate nothing; the same alarm sustained actuates exactly once",
		Observed: observed,
		Pass:     pass,
		Text:     rejuvHistoryText(hist),
		Accuracy: &Accuracy{
			Truth:              []string{"node2/" + ComponentA},
			Flagged:            actuatedPairs(hist),
			TTDRounds:          ttd,
			PreInjectionAlarms: flapTransitions, // the flap phase IS the pre-injection window
			RecoveryEpochs:     recovery,
		},
	}
}

// lossyControl swallows rejuvenate commands in flight — delivered to
// nobody, acked by nobody — while passing drain/re-admit through. It
// wraps the control channel only: the verdict path, the balancer and
// the recording plane are untouched.
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

// S19ControlLossDuringDrain is the degraded-mode litmus: the sick
// replica drains, but every rejuvenate command is lost in flight. The
// controller must time the ack wait out within RebootEpochs, re-admit
// the node un-rebooted (it was healthy enough to serve), count the loss,
// and keep the cluster serving — a lost control channel degrades to a
// detection-only monitor, never to a node stuck out of rotation.
func S19ControlLossDuringDrain(cfg Config) Result {
	cfg = cfg.withDefaults()
	rc := scenarioRejuvConfig()
	loss := &lossyControl{}
	cs, log, err := rejuvScenarioStack(cfg, 3, func(inner rejuv.CommandSender) rejuv.CommandSender {
		loss.inner = inner
		return loss
	})
	if err != nil {
		return errorResult("S19", err)
	}
	defer cs.Close()
	if _, err := cs.Node("node2").InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		return errorResult("S19", err)
	}

	total := scaleDuration(90*time.Minute, cfg.TimeScale)
	cs.Run(total, cfg.EBs)
	if err := cs.Sync(); err != nil {
		return errorResult("S19", err)
	}
	cs.FlushNotifications()

	hist := cs.Rejuv.History()
	st := cs.Rejuv.Stats()
	failed := cs.Driver.Failed()

	// Every Rejuvenating stint must end within the RebootEpochs bound
	// (+1 epoch of decision latency), via the control-lost fallback.
	bounded := true
	fellBack := false
	var rebootStart int64 = -1
	for _, ev := range hist {
		if ev.Node != "node2" {
			continue
		}
		switch ev.To {
		case rejuv.Rejuvenating:
			rebootStart = ev.Epoch
		case rejuv.Probation:
			if rebootStart >= 0 && ev.Epoch-rebootStart > int64(rc.RebootEpochs)+1 {
				bounded = false
			}
			rebootStart = -1
			if strings.Contains(ev.Note, "control lost") {
				fellBack = true
			}
		}
	}
	stuck := cs.Rejuv.NodeState("node2") == rejuv.Rejuvenating && rebootStart >= 0 &&
		cs.Rejuv.Epoch()-rebootStart > int64(rc.RebootEpochs)+1

	var ttd int64
	if first := firstDrainEpoch(hist, "node2"); first > 0 {
		ttd = first - int64(rc.HoldDownEpochs)
	}
	pass := loss.swallowed() >= 1 && st.ControlLost >= 1 && fellBack && bounded && !stuck &&
		failed == 0 && cs.Node("node2").Framework.RejuvenationCount() == 0
	observed := fmt.Sprintf("%d rejuvenate commands lost in flight, %d control losses counted, fallback within bound: %v, node2 micro-reboots: %d, %d failed requests, %d rollbacks, %d actuation notifications",
		loss.swallowed(), st.ControlLost, bounded && fellBack && !stuck,
		cs.Node("node2").Framework.RejuvenationCount(), failed, st.Rollbacks, len(log.raised()))
	return Result{
		ID:       "S19",
		Title:    "Actuation — control-channel loss during drain degrades safely",
		Expected: fmt.Sprintf("lost rejuvenate commands time out within %d epochs; node2 is re-admitted un-rebooted, the loss is counted, and no request is dropped", rc.RebootEpochs),
		Observed: observed,
		Pass:     pass,
		Text:     rejuvHistoryText(hist),
		Accuracy: &Accuracy{
			Truth:     []string{"node2/" + ComponentA},
			Flagged:   actuatedPairs(hist),
			TTDRounds: ttd,
		},
	}
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
