package experiment

import (
	"fmt"
	"strings"
)

// Result is the outcome of one experiment runner.
type Result struct {
	// ID is the experiment identifier, as listed in Experiments (T1,
	// F3, E9, ...).
	ID string
	// Title names the paper artifact being reproduced.
	Title string
	// Expected states the paper's claim for this artifact.
	Expected string
	// Observed states what this run measured.
	Observed string
	// Pass reports whether the observed shape matches the expectation.
	Pass bool
	// Text is the full rendered report (tables, series, maps).
	Text string
	// Accuracy, when non-nil, carries the scenario's fault-injection
	// ground truth and detection outcome for the accuracy harness
	// (BuildAccuracyReport). Only the S-series scenarios fill it.
	Accuracy *Accuracy
}

// Verdict renders the one-line pass/fail summary.
func (r Result) Verdict() string {
	status := "REPRODUCED"
	if !r.Pass {
		status = "NOT REPRODUCED"
	}
	return fmt.Sprintf("[%s] %s: %s", r.ID, status, r.Observed)
}

// String renders the full report.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "expected: %s\n", r.Expected)
	fmt.Fprintf(&b, "observed: %s\n\n", r.Observed)
	b.WriteString(r.Text)
	b.WriteString("\n")
	b.WriteString(r.Verdict())
	b.WriteString("\n")
	return b.String()
}

// Experiment is one registered runner.
type Experiment struct {
	ID  string
	Run func(Config) Result
}

// Experiments is every runner, in report order: the paper's table (T1)
// and figures (F2–F7), the extension (E8–E11) and ablation (A1–A3)
// studies, then the scenario table (S1–S22).
// cmd/experiments and the repro facade iterate it.
var Experiments = append([]Experiment{
	{"T1", TableI}, {"F2", Fig2}, {"F3", Fig3}, {"F4", Fig4}, {"F5", Fig5}, {"F6", Fig6}, {"F7", Fig7},
	{"E8", E8CPUThreadLeaks}, {"E9", E9PinpointCoupled}, {"E10", E10TimeToFailure},
	{"E11", E11StrategyComparison}, {"A1", A1MonitoringLevels}, {"A2", A2SizingPolicies},
	{"A3", A3MixSensitivity},
}, scenarioExperiments()...)

func scenarioExperiments() []Experiment {
	out := make([]Experiment, len(Scenarios))
	for i, sc := range Scenarios {
		out[i] = Experiment{sc.ID, sc.Run}
	}
	return out
}

// Config parameterises the experiment runners.
type Config struct {
	// TimeScale multiplies the paper's scenario durations (1.0 runs the
	// full one-hour experiments; benchmarks use smaller factors).
	TimeScale float64
	// Seed drives all randomness.
	Seed uint64
	// EBs is the browser population for the single-phase experiments
	// (Figs. 4-7; default 50).
	EBs int
	// Scale overrides the database population (defaults match the
	// figure runners' calibration).
	Items     int
	Customers int
}

func (c Config) withDefaults() Config {
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.EBs <= 0 {
		c.EBs = 50
	}
	if c.Items <= 0 {
		c.Items = 1000
	}
	if c.Customers <= 0 {
		c.Customers = 720
	}
	return c
}
