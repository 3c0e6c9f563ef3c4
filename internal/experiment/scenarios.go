package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/jmx"
	"repro/internal/sim"
	"repro/internal/tpcw"
)

// The online-detection scenarios (S-series) exercise the streaming
// detectors of internal/detect against the workload shapes a production
// deployment sees: mix shifts, diurnal cycles and flash crowds — with and
// without an injected aging fault. Their pass criteria are the
// false-positive / detection-latency contract of the ISSUE: workload
// change alone must raise no alarm, a real leak must be flagged online
// with the right suspect before the run ends.

// scenarioDetectConfig is the fixed tuning the S-scenarios run with, so
// their verdicts are deterministic across time scales.
func scenarioDetectConfig() detect.Config {
	return detect.Config{Window: 20, MinSamples: 6, Consecutive: 3}
}

// scenarioStack assembles a monitored, detector-attached stack and an
// alarm-notification counter.
func scenarioStack(cfg Config, mix eb.Mix) (*Stack, *alarmLog, error) {
	s, err := NewStack(StackConfig{
		Seed:         cfg.Seed,
		Scale:        scenarioScale(cfg),
		Monitored:    true,
		Detect:       true,
		DetectConfig: scenarioDetectConfig(),
		Mix:          mix,
	})
	if err != nil {
		return nil, nil, err
	}
	log := &alarmLog{}
	s.Framework.Server().AddListener(func(n jmx.Notification) {
		if n.Type == core.NotifAlarm {
			log.events = append(log.events, n.Message)
		}
	})
	return s, log, nil
}

func scenarioScale(cfg Config) tpcw.Scale {
	return tpcw.Scale{Items: cfg.Items, Customers: cfg.Customers, Seed: cfg.Seed + 1}
}

// alarmLog collects aging.alarm notification messages. Listeners run on
// the sampling goroutine inside the single-threaded engine, so no lock is
// needed.
type alarmLog struct{ events []string }

func (l *alarmLog) raised() []string {
	var out []string
	for _, e := range l.events {
		if !strings.Contains(e, "clears") {
			out = append(out, e)
		}
	}
	return out
}

// S1WorkloadShift runs an hour in which the workload shifts twice —
// browsing → shopping → ordering, with a population step — while nothing
// ages. A static detector misfires here (Moura et al.); the shift guard
// must keep every alarm down while still registering that the mix moved.
func S1WorkloadShift(cfg Config) Result {
	cfg = cfg.withDefaults()
	s, log, err := scenarioStack(cfg, eb.Browsing)
	if err != nil {
		return errorResult("S1", err)
	}
	defer s.Close()

	third := scaleDuration(20*time.Minute, cfg.TimeScale)
	err = s.Driver.RunSchedule([]eb.Phase{
		{Duration: third, EBs: cfg.EBs, Mix: eb.Browsing},
		{Duration: third, EBs: cfg.EBs, Mix: eb.Shopping},
		{Duration: third, EBs: cfg.EBs * 2, Mix: eb.Ordering},
	}, nil)
	if err != nil {
		return errorResult("S1", err)
	}

	alarms := log.raised()
	shiftSeen := false
	var b strings.Builder
	for _, res := range []string{core.ResourceMemory, core.ResourceCPU, core.ResourceThreads} {
		if rep := s.Detectors.Report(res); rep != nil {
			fmt.Fprintf(&b, "%s", rep)
			if rep.ShiftRounds > 0 {
				shiftSeen = true
			}
		}
	}
	pass := len(alarms) == 0 && shiftSeen
	observed := fmt.Sprintf("%d alarms across %d completed interactions; shift guard engaged: %v",
		len(alarms), s.Driver.Completed(), shiftSeen)
	if len(alarms) > 0 {
		fmt.Fprintf(&b, "\nraised: %s\n", strings.Join(alarms, "; "))
	}
	return Result{
		ID:       "S1",
		Title:    "Online detection under workload shift (no aging)",
		Expected: "zero alarms; the shift guard absorbs the mix changes",
		Observed: observed,
		Pass:     pass,
		Text:     b.String(),
		Accuracy: &Accuracy{
			Flagged:            flaggedComponents(s.Detectors),
			PreInjectionAlarms: len(alarms),
		},
	}
}

// S2OnlineLeakDetection injects the paper's 100KB/N=100 leak into
// component A under a steady shopping mix and requires the streaming
// detectors to flag A on memory while the run is still in flight, within
// a bounded number of sampling rounds of the earliest possible verdict.
func S2OnlineLeakDetection(cfg Config) Result {
	cfg = cfg.withDefaults()
	s, log, err := scenarioStack(cfg, eb.Shopping)
	if err != nil {
		return errorResult("S2", err)
	}
	defer s.Close()
	if _, err := s.InjectLeak(ComponentA, 100*KB, 100, cfg.Seed); err != nil {
		return errorResult("S2", err)
	}

	total := scaleDuration(time.Hour, cfg.TimeScale)
	s.Run(total, cfg.EBs)

	rep := s.Detectors.Report(core.ResourceMemory)
	var first int64
	suspectOK := false
	if rep != nil {
		for _, v := range rep.Components {
			if v.FirstAlarmRound > 0 && (first == 0 || v.FirstAlarmRound < first) {
				first = v.FirstAlarmRound
				suspectOK = v.Component == ComponentA
			}
		}
	}
	dcfg := scenarioDetectConfig()
	// The earliest a verdict can exist is MinSamples + Consecutive
	// rounds; allow twice that plus slack for the trend to clear the
	// significance bar.
	bound := int64(2*(dcfg.MinSamples+dcfg.Consecutive) + 6)
	pass := first > 0 && suspectOK && first <= bound && rep != nil && first < rep.Round
	observed := fmt.Sprintf("first alarm at round %d/%d (bound %d), suspect correct: %v, %d alarm notifications",
		first, reportRound(rep), bound, suspectOK, len(log.raised()))
	text := ""
	if rep != nil {
		text = rep.String()
	}
	return Result{
		ID:       "S2",
		Title:    "Online leak detection (100KB leak in A, steady mix)",
		Expected: fmt.Sprintf("A flagged online on memory within %d rounds", bound),
		Observed: observed,
		Pass:     pass,
		Text:     text,
		Accuracy: &Accuracy{
			Truth:     []string{ComponentA},
			Flagged:   flaggedComponents(s.Detectors),
			TTDRounds: first, // injected at round 0
		},
	}
}

// S3DiurnalCycle runs a day-shaped population swing (trough→peak→trough)
// with no fault: the load doubles and halves but the mix is constant, so
// neither the trend detectors (level/per-invocation series are
// load-invariant) nor the entropy detector may alarm.
func S3DiurnalCycle(cfg Config) Result {
	cfg = cfg.withDefaults()
	s, log, err := scenarioStack(cfg, eb.Shopping)
	if err != nil {
		return errorResult("S3", err)
	}
	defer s.Close()

	total := scaleDuration(time.Hour, cfg.TimeScale)
	profile := sim.DiurnalProfile(float64(cfg.EBs), float64(cfg.EBs)/2, total)
	if err := s.Driver.RunSchedule(eb.ProfileSchedule(profile, total, total/12, s.Driver.Mix()), nil); err != nil {
		return errorResult("S3", err)
	}

	alarms := log.raised()
	pass := len(alarms) == 0
	return Result{
		ID:       "S3",
		Title:    "Online detection under a diurnal load cycle (no aging)",
		Expected: "zero alarms while the population swings sinusoidally",
		Observed: fmt.Sprintf("%d alarms, %d interactions, population %d±%d",
			len(alarms), s.Driver.Completed(), cfg.EBs, cfg.EBs/2),
		Pass: pass,
		Text: strings.Join(alarms, "\n"),
		Accuracy: &Accuracy{
			Flagged:            flaggedComponents(s.Detectors),
			PreInjectionAlarms: len(alarms),
		},
	}
}

// S4BurstWithLeak overlays a flash crowd (4× population for a tenth of
// the run) on a leaking component: the burst must not derail detection —
// the leak is still flagged with the right suspect.
func S4BurstWithLeak(cfg Config) Result {
	cfg = cfg.withDefaults()
	s, log, err := scenarioStack(cfg, eb.Shopping)
	if err != nil {
		return errorResult("S4", err)
	}
	defer s.Close()
	if _, err := s.InjectLeak(ComponentB, 100*KB, 100, cfg.Seed); err != nil {
		return errorResult("S4", err)
	}

	total := scaleDuration(time.Hour, cfg.TimeScale)
	profile := sim.BurstProfile(float64(cfg.EBs), float64(cfg.EBs)*4, total/3, total/10)
	if err := s.Driver.RunSchedule(eb.ProfileSchedule(profile, total, total/30, s.Driver.Mix()), nil); err != nil {
		return errorResult("S4", err)
	}

	rep := s.Detectors.Report(core.ResourceMemory)
	var first int64
	suspectOK := false
	if rep != nil {
		for _, v := range rep.Components {
			if v.FirstAlarmRound > 0 && (first == 0 || v.FirstAlarmRound < first) {
				first = v.FirstAlarmRound
				suspectOK = v.Component == ComponentB
			}
		}
	}
	pass := first > 0 && suspectOK
	return Result{
		ID:       "S4",
		Title:    "Online leak detection through a flash crowd (100KB leak in B)",
		Expected: "B flagged online on memory despite the burst",
		Observed: fmt.Sprintf("first alarm at round %d/%d, suspect correct: %v, %d alarm notifications",
			first, reportRound(rep), suspectOK, len(log.raised())),
		Pass: pass,
		Text: reportText(rep),
		Accuracy: &Accuracy{
			Truth:     []string{ComponentB},
			Flagged:   flaggedComponents(s.Detectors),
			TTDRounds: first, // injected at round 0
		},
	}
}

func reportRound(rep *detect.Report) int64 {
	if rep == nil {
		return 0
	}
	return rep.Round
}

func reportText(rep *detect.Report) string {
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
