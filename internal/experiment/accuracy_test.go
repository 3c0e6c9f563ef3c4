package experiment

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestBuildAccuracyReport pins the matrix scoring: results without
// ground truth are skipped, micro-averages pool TP/FP/FN across
// scenarios, mean TTD averages only the detecting scenarios, and
// pre-injection alarms sum.
func TestBuildAccuracyReport(t *testing.T) {
	results := []Result{
		{ID: "T1", Pass: true}, // no Accuracy: not part of the matrix
		{ID: "S2", Pass: true, Accuracy: &Accuracy{
			Truth: []string{"a"}, Flagged: []string{"a"}, TTDRounds: 10}},
		{ID: "S5", Pass: true, Accuracy: &Accuracy{
			Truth: []string{"node2/a"}, Flagged: []string{"node2/a", "node3/b"}, TTDRounds: 14}},
		{ID: "S7", Pass: true, Accuracy: &Accuracy{PreInjectionAlarms: 2}},
	}
	rep := BuildAccuracyReport(Config{TimeScale: 0.35, Seed: 42}, results)

	if len(rep.Scenarios) != 3 {
		t.Fatalf("expected 3 scored scenarios, got %d", len(rep.Scenarios))
	}
	if rep.TP != 2 || rep.FP != 1 || rep.FN != 0 {
		t.Fatalf("micro totals TP=%d FP=%d FN=%d, want 2/1/0", rep.TP, rep.FP, rep.FN)
	}
	if want := 2.0 / 3.0; rep.Precision != want {
		t.Fatalf("precision %.3f, want %.3f", rep.Precision, want)
	}
	if rep.Recall != 1 {
		t.Fatalf("recall %.3f, want 1", rep.Recall)
	}
	if rep.MeanTTDRounds != 12 {
		t.Fatalf("mean TTD %.1f, want 12 (only detecting scenarios count)", rep.MeanTTDRounds)
	}
	if rep.PreInjectionAlarms != 2 {
		t.Fatalf("pre-injection alarms %d, want 2", rep.PreInjectionAlarms)
	}
}

// TestAccuracyReportEmptyMatrix pins the no-evidence edge: a run with no
// ground-truth results scores perfect (nothing to miss, nothing to
// misflag), which is what lets the harness run on result subsets.
func TestAccuracyReportEmptyMatrix(t *testing.T) {
	rep := BuildAccuracyReport(Config{}, []Result{{ID: "F2", Pass: true}})
	if len(rep.Scenarios) != 0 || rep.Precision != 1 || rep.Recall != 1 || rep.MeanTTDRounds != 0 {
		t.Fatalf("empty matrix must score perfect: %+v", rep)
	}
}

// TestAccuracyReportJSONRoundTrip keeps the checked-in artifact form
// stable: the JSON must decode back into an identical report, since the
// CI gate and the agingmon renderer both consume the file.
func TestAccuracyReportJSONRoundTrip(t *testing.T) {
	rep := BuildAccuracyReport(Config{TimeScale: 0.35, Seed: 7}, []Result{
		{ID: "S2", Pass: true, Accuracy: &Accuracy{
			Truth: []string{"a"}, Flagged: []string{"a"}, TTDRounds: 9}},
	})
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back AccuracyReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scale != rep.Scale || back.Seed != rep.Seed || len(back.Scenarios) != 1 ||
		back.Scenarios[0].ID != "S2" || back.Scenarios[0].TTDRounds != 9 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

// TestAccuracyReportString smoke-tests the table renderer the agingmon
// accuracy subcommand shows.
func TestAccuracyReportString(t *testing.T) {
	rep := BuildAccuracyReport(Config{TimeScale: 0.35, Seed: 42}, []Result{
		{ID: "S2", Pass: true, Accuracy: &Accuracy{
			Truth: []string{"a"}, Flagged: []string{"a"}, TTDRounds: 10}},
		{ID: "S3", Pass: true, Accuracy: &Accuracy{}},
	})
	out := rep.String()
	for _, want := range []string{"S2", "S3", "(none)", "overall: precision 1.000", "mean TTD 10.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report table lacks %q:\n%s", want, out)
		}
	}
}
