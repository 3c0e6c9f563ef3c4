package experiment

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/rootcause"
)

// The accuracy harness closes the loop the ISSUE's litmus catalog opens:
// every S-series scenario injects a known fault (or deliberately none)
// and records what the detection plane named, so the full matrix can be
// scored as precision/recall against fault-injected ground truth — with
// time-to-detect calibration — and gated in CI against a checked-in
// baseline (scripts/scenariomatrix.sh vs ACCURACY_baseline.json).

// Accuracy is one scenario's ground truth and detection outcome.
type Accuracy struct {
	// Truth lists the injected suspects — bare component names for the
	// single-process scenarios, "node/component" pairs for cluster ones,
	// "cluster/component" for uniform faults. Empty means no fault was
	// injected and the detection plane had to stay quiet.
	Truth []string
	// Flagged lists what the detection plane had named by the end of the
	// run, in the same vocabulary as Truth.
	Flagged []string
	// TTDRounds is the time to detect, in sampling rounds (cluster
	// epochs) from the injection instant to the first correct alarm;
	// zero when nothing was (or had to be) detected.
	TTDRounds int64
	// PreInjectionAlarms counts alarms raised while no fault was armed —
	// the steady-state hypothesis requires zero.
	PreInjectionAlarms int
	// RecoveryEpochs is the time to recover, in cluster epochs from the
	// injection instant to the sick node's re-admission at full weight
	// (actuation scenarios only); zero when nothing was rejuvenated.
	RecoveryEpochs int64
}

// ScenarioAccuracy is one scored matrix row.
type ScenarioAccuracy struct {
	ID                 string
	Passed             bool
	Truth              []string
	Flagged            []string
	TP, FP, FN         int
	Precision          float64
	Recall             float64
	TTDRounds          int64
	PreInjectionAlarms int
	RecoveryEpochs     int64
}

// AccuracyReport is the machine-readable matrix artifact
// (accuracy_report.json).
type AccuracyReport struct {
	Scale     float64
	Seed      uint64
	Scenarios []ScenarioAccuracy
	// TP/FP/FN and Precision/Recall are micro-averaged over the matrix.
	TP, FP, FN int
	Precision  float64
	Recall     float64
	// MeanTTDRounds averages TTD over the scenarios that detected.
	MeanTTDRounds float64
	// MeanRecoveryEpochs averages recovery-to-readmit over the scenarios
	// that rejuvenated.
	MeanRecoveryEpochs float64
	// PreInjectionAlarms sums the steady-state violations (must be 0).
	PreInjectionAlarms int
}

// BuildAccuracyReport scores every result that carries ground truth.
// Results without an Accuracy record (tables, figures, ablations) are
// skipped, so the caller can hand over a full experiment run.
func BuildAccuracyReport(cfg Config, results []Result) AccuracyReport {
	cfg = cfg.withDefaults()
	rep := AccuracyReport{Scale: cfg.TimeScale, Seed: cfg.Seed}
	var ttdSum, recSum float64
	var ttdN, recN int
	for _, r := range results {
		if r.Accuracy == nil {
			continue
		}
		a := r.Accuracy
		tp, fp, fn, p, rc := rootcause.PrecisionRecall(a.Flagged, a.Truth)
		rep.Scenarios = append(rep.Scenarios, ScenarioAccuracy{
			ID: r.ID, Passed: r.Pass,
			Truth: a.Truth, Flagged: a.Flagged,
			TP: tp, FP: fp, FN: fn,
			Precision: p, Recall: rc,
			TTDRounds: a.TTDRounds, PreInjectionAlarms: a.PreInjectionAlarms,
			RecoveryEpochs: a.RecoveryEpochs,
		})
		rep.TP += tp
		rep.FP += fp
		rep.FN += fn
		rep.PreInjectionAlarms += a.PreInjectionAlarms
		if a.TTDRounds > 0 {
			ttdSum += float64(a.TTDRounds)
			ttdN++
		}
		if a.RecoveryEpochs > 0 {
			recSum += float64(a.RecoveryEpochs)
			recN++
		}
	}
	rep.Precision, rep.Recall = 1, 1
	if rep.TP+rep.FP > 0 {
		rep.Precision = float64(rep.TP) / float64(rep.TP+rep.FP)
	}
	if rep.TP+rep.FN > 0 {
		rep.Recall = float64(rep.TP) / float64(rep.TP+rep.FN)
	}
	if ttdN > 0 {
		rep.MeanTTDRounds = ttdSum / float64(ttdN)
	}
	if recN > 0 {
		rep.MeanRecoveryEpochs = recSum / float64(recN)
	}
	return rep
}

// JSON renders the report as the checked-in artifact form.
func (r AccuracyReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the human-readable matrix table.
func (r AccuracyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario matrix accuracy (scale %.2f, seed %d)\n", r.Scale, r.Seed)
	t := NewTable("scenario", "pass", "truth", "flagged", "P", "R", "TTD", "TTR", "pre-inj")
	for _, s := range r.Scenarios {
		t.Row(s.ID, s.Passed, setLabel(s.Truth), setLabel(s.Flagged),
			fmt.Sprintf("%.2f", s.Precision), fmt.Sprintf("%.2f", s.Recall),
			s.TTDRounds, s.RecoveryEpochs, s.PreInjectionAlarms)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "overall: precision %.3f (%d TP, %d FP), recall %.3f (%d FN), mean TTD %.1f rounds, mean TTR %.1f epochs, %d pre-injection alarms\n",
		r.Precision, r.TP, r.FP, r.Recall, r.FN, r.MeanTTDRounds, r.MeanRecoveryEpochs, r.PreInjectionAlarms)
	return b.String()
}

func setLabel(set []string) string {
	if len(set) == 0 {
		return "(none)"
	}
	return strings.Join(set, "+")
}
