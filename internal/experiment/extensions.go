package experiment

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/aspect"
	"repro/internal/core"
	"repro/internal/eb"
	"repro/internal/faultinject"
	"repro/internal/objsize"
	"repro/internal/rootcause"
	"repro/internal/tpcw"
)

// E8CPUThreadLeaks covers the paper's future work: applying the framework
// to CPU and thread leaks. A CPU hog is injected into search_results and a
// thread leak into buy_confirm; the CPU and thread maps must point at the
// right components.
func E8CPUThreadLeaks(cfg Config) Result {
	cfg = cfg.withDefaults()
	s, err := NewStack(StackConfig{
		Seed:      cfg.Seed,
		Scale:     tpcw.Scale{Items: cfg.Items, Customers: cfg.Customers, Seed: cfg.Seed + 1},
		Monitored: true,
		Mix:       eb.Shopping,
	})
	if err != nil {
		return errResult("E8", err)
	}
	defer s.Close()

	hog := &faultinject.CPUHog{
		Component: tpcw.CompSearchResults,
		Extra:     40 * time.Millisecond,
		EveryN:    1,
	}
	if err := s.Inject(hog); err != nil {
		return errResult("E8", err)
	}
	tl := &faultinject.ThreadLeak{
		Component: tpcw.CompBuyConfirm,
		N:         10,
		Agent:     s.Framework.ThreadAgent(),
		Heap:      s.Heap,
		Seed:      cfg.Seed,
	}
	if err := s.Inject(tl); err != nil {
		return errResult("E8", err)
	}

	s.Run(scaleDuration(30*time.Minute, cfg.TimeScale), cfg.EBs)

	cpuRank := s.Framework.Manager().Rank(core.ResourceCPU, rootcause.Trend{})
	thrRank := s.Framework.Manager().Map(core.ResourceThreads)
	cpuTop, _ := cpuRank.Top()
	thrTop, _ := thrRank.Top()

	text := "CPU ranking (trend strategy over per-component CPU time):\n" + cpuRank.String()
	text += "\nThread ranking (paper map over live threads):\n" + thrRank.String()
	text += fmt.Sprintf("\nhog slowed %d requests; %d threads leaked\n", hog.Hits(), tl.Leaked())

	// The hog makes search_results dominate CPU growth; note every busy
	// component's CPU grows with load, which is why the trend strategy
	// alone is not enough — the paper's future work asks for smarter
	// decision makers, and the reproduction surfaces the same need.
	pass := thrTop.Name == tpcw.CompBuyConfirm && tl.Leaked() > 0 &&
		cpuRank.Position(tpcw.CompSearchResults) <= 2 && cpuTop.Score > 0
	return Result{
		ID:    "E8",
		Title: "Extension — CPU hog and thread leak determination (paper future work)",
		Expected: "thread map names buy_confirm; CPU trend ranks the hogged " +
			"search_results at or near the top",
		Observed: fmt.Sprintf("thread top=%s, cpu position of search_results=%d",
			thrTop.Name, cpuRank.Position(tpcw.CompSearchResults)),
		Pass: pass,
		Text: text,
	}
}

// E9PinpointCoupled demonstrates the related-work claim: the home servlet
// always invokes the Promo service, home both leaks memory and fails
// intermittently; Pinpoint's failure correlation cannot split the pair,
// while the resource-component map can.
func E9PinpointCoupled(cfg Config) Result {
	cfg = cfg.withDefaults()
	s, err := NewStack(StackConfig{
		Seed:          cfg.Seed,
		Scale:         tpcw.Scale{Items: cfg.Items, Customers: cfg.Customers, Seed: cfg.Seed + 1},
		Monitored:     true,
		CollectTraces: true,
		Mix:           eb.Shopping,
	})
	if err != nil {
		return errResult("E9", err)
	}
	defer s.Close()
	// The promo service becomes a first-class monitored component.
	if err := s.Framework.InstrumentComponent(tpcw.CompPromoSvc, s.App.Promo); err != nil {
		return errResult("E9", err)
	}
	if _, err := s.InjectLeak(tpcw.CompHome, 100*KB, 50, cfg.Seed); err != nil {
		return errResult("E9", err)
	}
	// The aging component fails intermittently (every 25th request).
	var reqCount int64
	agingErr := errors.New("injected aging failure")
	fail := &aspect.Aspect{
		Name:     "inject.fail." + tpcw.CompHome,
		Order:    90,
		Pointcut: aspect.MustPointcut(fmt.Sprintf("execution(%s.Service)", tpcw.CompHome)),
		Around: func(jp *aspect.JoinPoint, proceed aspect.Proceed) (any, error) {
			res, err := proceed()
			reqCount++
			if err == nil && reqCount%25 == 0 {
				return nil, agingErr
			}
			return res, err
		},
	}
	if err := s.Weaver.Register(fail); err != nil {
		return errResult("E9", err)
	}

	s.Run(scaleDuration(30*time.Minute, cfg.TimeScale), cfg.EBs)

	pinpoint := rootcause.Pinpoint{}.Analyze(s.Traces.Traces())
	mapRank := s.Framework.Manager().Map(core.ResourceMemory)

	pHome := pinpoint.Position(tpcw.CompHome)
	pPromo := pinpoint.Position(tpcw.CompPromoSvc)
	var scoreHome, scorePromo float64
	for _, e := range pinpoint.Entries {
		switch e.Name {
		case tpcw.CompHome:
			scoreHome = e.Score
		case tpcw.CompPromoSvc:
			scorePromo = e.Score
		}
	}
	tied := math.Abs(scoreHome-scorePromo) < 1e-9
	mapSeparates := mapRank.Position(tpcw.CompHome) == 1 &&
		mapRank.Position(tpcw.CompPromoSvc) > 2

	text := "Pinpoint failure-correlation ranking:\n" + pinpoint.String()
	text += "\nResource-component map (memory):\n" + mapRank.String()
	text += fmt.Sprintf("\npinpoint scores: home=%.4f promo=%.4f (positions %d,%d)\n",
		scoreHome, scorePromo, pHome, pPromo)
	return Result{
		ID:    "E9",
		Title: "Extension — coupled components: Pinpoint baseline vs resource map (§II claim)",
		Expected: "Pinpoint gives identical scores to home and its always-coupled " +
			"Promo callee; the resource map isolates home",
		Observed: fmt.Sprintf("pinpoint tie=%v, map isolates home=%v", tied, mapSeparates),
		Pass:     tied && mapSeparates,
		Text:     text,
	}
}

// Recovery model constants for E10 (documented in DESIGN.md): a full
// Tomcat restart vs a targeted micro-reboot, following the micro-reboot
// motivation the paper cites.
const (
	fullRestartMTTR = 60 * time.Second
	microRebootMTTR = 500 * time.Millisecond
)

// E10TimeToFailure exercises the rejuvenation motivation: with a small
// heap and an aggressive leak, the manager extrapolates time to
// exhaustion, and a micro-reboot of the guilty component reclaims the
// leaked memory at a fraction of a full restart's downtime while keeping
// every session alive.
func E10TimeToFailure(cfg Config) Result {
	cfg = cfg.withDefaults()
	s, err := NewStack(StackConfig{
		Seed:      cfg.Seed,
		Scale:     tpcw.Scale{Items: cfg.Items, Customers: cfg.Customers, Seed: cfg.Seed + 1},
		Monitored: true,
		HeapBytes: 256 * MB,
		Mix:       eb.Shopping,
	})
	if err != nil {
		return errResult("E10", err)
	}
	defer s.Close()
	if _, err := s.InjectLeak(tpcw.CompHome, 1*MB, 20, cfg.Seed); err != nil {
		return errResult("E10", err)
	}
	s.Run(scaleDuration(30*time.Minute, cfg.TimeScale), cfg.EBs)

	tte := s.Framework.Manager().TimeToExhaustion()
	suspect, _ := s.Framework.Manager().Map(core.ResourceMemory).Top()
	retainedBefore := s.Heap.Stats().Retained
	sessionsBefore := s.Container.Sessions().Live()
	freed := s.Framework.MicroReboot(suspect.Name)
	retainedAfter := s.Heap.Stats().Retained
	sessionsAfter := s.Container.Sessions().Live()

	t := NewTable("metric", "value")
	t.Row("top suspect", suspect.Name)
	t.Row("time to heap exhaustion", tte.Truncate(time.Second).String())
	t.Row("retained before micro-reboot", fmtBytes(float64(retainedBefore)))
	t.Row("bytes freed by micro-reboot", fmtBytes(float64(freed)))
	t.Row("retained after micro-reboot", fmtBytes(float64(retainedAfter)))
	t.Row("live sessions preserved", fmt.Sprintf("%d of %d", sessionsAfter, sessionsBefore))
	t.Row("micro-reboot MTTR (model)", microRebootMTTR.String())
	t.Row("full restart MTTR (model)", fullRestartMTTR.String())
	t.Row("MTTR improvement", fmt.Sprintf("%.0fx", float64(fullRestartMTTR)/float64(microRebootMTTR)))

	finite := tte < time.Duration(math.MaxInt64)
	pass := finite && suspect.Name == tpcw.CompHome && freed > 0 &&
		retainedAfter < retainedBefore && sessionsAfter == sessionsBefore
	return Result{
		ID:    "E10",
		Title: "Extension — time-to-exhaustion estimate and micro-reboot recovery",
		Expected: "finite exhaustion ETA; micro-rebooting the suspect reclaims its " +
			"leak without losing sessions",
		Observed: fmt.Sprintf("ETA %s, freed %s, sessions kept %v",
			tte.Truncate(time.Second), fmtBytes(float64(freed)), sessionsAfter == sessionsBefore),
		Pass: pass,
		Text: t.String(),
	}
}

// A1MonitoringLevels is the ablation over §III.B.3's runtime activation:
// full monitoring vs selective (two components) vs none, measured by mean
// service time under identical load.
func A1MonitoringLevels(cfg Config) Result {
	cfg = cfg.withDefaults()
	duration := scaleDuration(10*time.Minute, cfg.TimeScale)

	type level struct {
		name      string
		monitored bool
		selective bool
	}
	levels := []level{
		{"unmonitored", false, false},
		{"selective (2 ACs)", true, true},
		{"full (all ACs)", true, false},
	}
	t := NewTable("level", "completed", "mean service (ms)", "overhead vs unmonitored")
	var base float64
	var ordered []float64
	for _, lv := range levels {
		s, err := NewStack(StackConfig{
			Seed:      cfg.Seed,
			Scale:     tpcw.Scale{Items: cfg.Items, Customers: cfg.Customers, Seed: cfg.Seed + 1},
			Monitored: lv.monitored,
			Mix:       eb.Shopping,
		})
		if err != nil {
			return errResult("A1", err)
		}
		if lv.selective {
			// Deactivate every AC except the two suspects under watch —
			// the paper's "focus the monitoring over a set of determined
			// objects".
			for _, name := range tpcw.Interactions {
				if name != ComponentA && name != ComponentB {
					s.Weaver.SetComponentEnabled(name, false)
				}
			}
		}
		s.Run(duration, cfg.EBs)
		mean := s.Container.ResponseTimes().Mean() * 1000
		if base == 0 {
			base = mean
		}
		overhead := (mean - base) / base * 100
		ordered = append(ordered, mean)
		t.Row(lv.name, s.Driver.Completed(), fmt.Sprintf("%.3f", mean),
			fmt.Sprintf("%+.1f%%", overhead))
		s.Close()
	}
	pass := ordered[0] < ordered[1] && ordered[1] < ordered[2]
	return Result{
		ID:       "A1",
		Title:    "Ablation — monitoring level vs overhead (runtime AC activation)",
		Expected: "overhead grows with monitoring coverage: none < selective < full",
		Observed: fmt.Sprintf("mean service %.3f < %.3f < %.3f ms = %v",
			ordered[0], ordered[1], ordered[2], pass),
		Pass: pass,
		Text: t.String(),
	}
}

// A2SizingPolicies is the ablation over the object-size measurement
// policy of §IV.B.2: accuracy and cost of Shallow / OneLevel / TwoLevel /
// Transitive on a realistically leaky component.
func A2SizingPolicies(cfg Config) Result {
	type leaky struct {
		faultinject.LeakStore
		cache map[string][]byte
	}
	comp := &leaky{cache: make(map[string][]byte)}
	comp.Retain(10 * MB)
	for i := 0; i < 64; i++ {
		comp.cache[fmt.Sprintf("entry-%d", i)] = make([]byte, 4*KB)
	}
	truth := objsize.New(objsize.Transitive).Of(comp)

	t := NewTable("policy", "measured", "of transitive", "ns/op")
	var oneLevelShare float64
	for _, p := range []objsize.Policy{
		objsize.Shallow, objsize.OneLevel, objsize.TwoLevel, objsize.Transitive,
	} {
		sizer := objsize.New(p)
		start := time.Now()
		const reps = 50
		var measured int64
		for i := 0; i < reps; i++ {
			measured = sizer.Of(comp)
		}
		perOp := time.Since(start).Nanoseconds() / reps
		share := float64(measured) / float64(truth) * 100
		if p == objsize.OneLevel {
			oneLevelShare = share
		}
		t.Row(p.String(), fmtBytes(float64(measured)), fmt.Sprintf("%.1f%%", share), perOp)
	}
	// The paper's one-level policy must capture the dominant leak (a
	// flat buffer) while staying cheaper than a full walk.
	pass := oneLevelShare > 90
	return Result{
		ID:    "A2",
		Title: "Ablation — object sizing policy (the paper's one-level rule)",
		Expected: "one level of references captures the leak (>90% of the " +
			"transitive size) without walking the whole graph",
		Observed: fmt.Sprintf("one-level measures %.1f%% of transitive", oneLevelShare),
		Pass:     pass,
		Text:     t.String(),
	}
}

// E11StrategyComparison quantifies what the paper leaves qualitative: the
// localisation accuracy of the determination strategies against the known
// fault set of the Fig. 5 scenario, with the black-box monitor class as
// the floor. Ground truth is the set of components whose leaks actually
// manifest (A, B, C; D's leak never fires, so no strategy can — or
// should — flag it).
func E11StrategyComparison(cfg Config) Result {
	cfg = cfg.withDefaults()
	s, err := runLeakScenario(cfg, []leakSpec{
		{ComponentA, 100 * KB}, {ComponentB, 100 * KB},
		{ComponentC, 100 * KB}, {ComponentD, 100 * KB},
	})
	if err != nil {
		return errResult("E11", err)
	}
	defer s.Close()

	truth := []string{ComponentA, ComponentB, ComponentC}
	strategies := []rootcause.Strategy{
		rootcause.PaperMap{},
		rootcause.Trend{},
		rootcause.BlackBox{},
	}
	t := NewTable("strategy", "top-1 correct", "reciprocal rank", "precision@3")
	evals := make(map[string]rootcause.Evaluation, len(strategies))
	for _, strat := range strategies {
		ranking := s.Framework.Manager().Rank(core.ResourceMemory, strat)
		ev := rootcause.Evaluate(ranking, truth, 3)
		evals[strat.Name()] = ev
		t.Row(strat.Name(), ev.TopHit,
			fmt.Sprintf("%.3f", ev.ReciprocalRank),
			fmt.Sprintf("%.3f", ev.PrecisionAtK))
	}
	// The delta-based resource (the paper's per-invocation before/after
	// measurement) is evaluated as a fourth row.
	deltaRank := s.Framework.Manager().Rank(core.ResourceMemoryDelta, rootcause.PaperMap{})
	deltaEv := rootcause.Evaluate(deltaRank, truth, 3)
	t.Row("paper-map over heap deltas", deltaEv.TopHit,
		fmt.Sprintf("%.3f", deltaEv.ReciprocalRank),
		fmt.Sprintf("%.3f", deltaEv.PrecisionAtK))

	pm, tr, bb := evals["paper-map"], evals["trend"], evals["black-box"]
	pass := pm.TopHit && pm.PrecisionAtK == 1 &&
		tr.TopHit && tr.PrecisionAtK == 1 &&
		bb.PrecisionAtK < 1 &&
		deltaEv.TopHit
	return Result{
		ID:    "E11",
		Title: "Extension — strategy localisation accuracy on the Fig. 5 scenario",
		Expected: "paper map and trend strategies localise perfectly " +
			"(precision@3 = 1); the black-box floor cannot",
		Observed: fmt.Sprintf("paper-map P@3=%.2f, trend P@3=%.2f, black-box P@3=%.2f, delta top-hit=%v",
			pm.PrecisionAtK, tr.PrecisionAtK, bb.PrecisionAtK, deltaEv.TopHit),
		Pass: pass,
		Text: t.String(),
	}
}

// A3MixSensitivity checks that root-cause determination is not an
// artifact of the shopping mix the paper evaluates on: the Fig. 4 leak is
// localised under all three TPC-W mixes, even though the leaking
// component's usage share shifts with the mix.
func A3MixSensitivity(cfg Config) Result {
	cfg = cfg.withDefaults()
	duration := scaleDuration(30*time.Minute, cfg.TimeScale)
	t := NewTable("mix", "completed", "home consumption", "top suspect", "score")
	allLocalised := true
	for _, mix := range []eb.Mix{eb.Browsing, eb.Shopping, eb.Ordering} {
		s, err := NewStack(StackConfig{
			Seed:      cfg.Seed,
			Scale:     tpcw.Scale{Items: cfg.Items, Customers: cfg.Customers, Seed: cfg.Seed + 1},
			Monitored: true,
			Mix:       mix,
		})
		if err != nil {
			return errResult("A3", err)
		}
		if _, err := s.InjectLeak(tpcw.CompHome, 100*KB, 100, cfg.Seed); err != nil {
			s.Close()
			return errResult("A3", err)
		}
		s.Run(duration, cfg.EBs)
		ranking := s.Framework.Manager().Map(core.ResourceMemory)
		top, _ := ranking.Top()
		data, _ := s.Framework.Manager().Data(core.ResourceMemory)
		var homeBytes float64
		for _, d := range data {
			if d.Name == tpcw.CompHome {
				homeBytes = d.Consumption
			}
		}
		if top.Name != tpcw.CompHome {
			allLocalised = false
		}
		t.Row(mix.String(), s.Driver.Completed(), fmtBytes(homeBytes),
			top.Name, fmt.Sprintf("%.3f", top.Score))
		s.Close()
	}
	return Result{
		ID:       "A3",
		Title:    "Ablation — determination accuracy across TPC-W workload mixes",
		Expected: "the leaking component tops the map under browsing, shopping and ordering mixes",
		Observed: fmt.Sprintf("home localised under all mixes: %v", allLocalised),
		Pass:     allLocalised,
		Text:     t.String(),
	}
}
