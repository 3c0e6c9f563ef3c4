package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/experiment"
	"repro/internal/jmxhttp"
	"repro/internal/rejuv"
	"repro/internal/tpcw"
)

// newManagerPlane assembles a short monitored, detector-attached
// single-node run and serves its management plane over an in-process
// HTTP server — the environment every manager-facing command talks to.
func newManagerPlane(t *testing.T) *jmxhttp.Client {
	t.Helper()
	stack, err := experiment.NewStack(experiment.StackConfig{
		Seed:         7,
		Scale:        tpcw.Scale{Items: 200, Customers: 144, Seed: 8},
		Monitored:    true,
		Detect:       true,
		DetectConfig: detect.Config{Window: 20, MinSamples: 4, Consecutive: 2},
		Mix:          eb.Shopping,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	if _, err := stack.InjectLeak(tpcw.CompHome, 100<<10, 20, 7); err != nil {
		t.Fatal(err)
	}
	// The buffer must exist before the run: notifications are delivered
	// synchronously to listeners, not retained.
	buf := jmxhttp.NewNotificationBuffer(stack.Framework.Server(), 0)
	t.Cleanup(buf.Close)
	stack.Run(10*time.Minute, 20)
	srv := httptest.NewServer(jmxhttp.NewHandlerWithNotifications(stack.Framework.Server(), buf))
	t.Cleanup(srv.Close)
	return jmxhttp.NewClient(srv.URL, nil)
}

// newClusterPlane is newManagerPlane for a three-node cluster with a
// leak on node2, serving the aggregator's plane.
func newClusterPlane(t *testing.T) *jmxhttp.Client {
	t.Helper()
	cs, err := experiment.NewClusterStack(experiment.ClusterConfig{
		Nodes:  3,
		Seed:   7,
		Scale:  tpcw.Scale{Items: 200, Customers: 144, Seed: 8},
		Mix:    eb.Shopping,
		Detect: detect.Config{Window: 20, MinSamples: 4, Consecutive: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	if _, err := cs.Node("node2").InjectLeak(tpcw.CompHome, 100<<10, 20, 7); err != nil {
		t.Fatal(err)
	}
	buf := jmxhttp.NewNotificationBuffer(cs.Server, 0)
	t.Cleanup(buf.Close)
	cs.Run(15*time.Minute, 30)
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(jmxhttp.NewHandlerWithNotifications(cs.Server, buf))
	t.Cleanup(srv.Close)
	return jmxhttp.NewClient(srv.URL, nil)
}

// newRejuvPlane is newClusterPlane with the rejuvenation controller
// armed and a tuning tight enough that the leaking node2 completes at
// least one drain/reboot cycle within the run.
func newRejuvPlane(t *testing.T) *jmxhttp.Client {
	t.Helper()
	cs, err := experiment.NewClusterStack(experiment.ClusterConfig{
		Nodes:  3,
		Seed:   7,
		Scale:  tpcw.Scale{Items: 200, Customers: 144, Seed: 8},
		Mix:    eb.Shopping,
		Detect: detect.Config{Window: 20, MinSamples: 4, Consecutive: 2},
		Rejuv: &rejuv.Config{
			HoldDownEpochs: 2, DrainEpochs: 2, RebootEpochs: 2,
			ProbationEpochs: 3, ProbationWeight: 1, HealthyWeight: 1,
			CooldownEpochs: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	if _, err := cs.Node("node2").InjectLeak(tpcw.CompHome, 100<<10, 20, 7); err != nil {
		t.Fatal(err)
	}
	cs.Run(15*time.Minute, 30)
	if err := cs.Sync(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(jmxhttp.NewHandler(cs.Server))
	t.Cleanup(srv.Close)
	return jmxhttp.NewClient(srv.URL, nil)
}

// run dispatches one command and returns its output.
func run(t *testing.T, client *jmxhttp.Client, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := dispatch(client, args, &out); err != nil {
		t.Fatalf("agingmon %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestManagerCommands(t *testing.T) {
	client := newManagerPlane(t)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"names"}, []string{"aging:type=Manager", "monitoring:agent=ObjectSize"}},
		{[]string{"components"}, []string{tpcw.CompHome, tpcw.CompShoppingCart}},
		{[]string{"describe", managerName}, []string{"JMX Manager Agent", "MicroReboot", "Samples"}},
		{[]string{"get", managerName, "Samples"}, []string{"20"}},
		{[]string{"suspects"}, []string{" 1. " + tpcw.CompHome}},
		{[]string{"suspects", "memory"}, []string{" 1. " + tpcw.CompHome}},
		{[]string{"map", "memory"}, []string{"strategy=paper-map", tpcw.CompHome}},
		{[]string{"live", "memory"}, []string{"strategy=live", "alarm=true"}},
		{[]string{"verdicts", "memory"}, []string{"resource=memory", tpcw.CompHome, "alarm=true"}},
		{[]string{"tte"}, []string{"seconds"}},
		{[]string{"invoke", managerName, "Suspects", "memory"}, []string{tpcw.CompHome}},
		{[]string{"notifications"}, []string{"aging.alarm"}},
	} {
		out := run(t, client, tc.args...)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Fatalf("agingmon %s: output lacks %q:\n%s", strings.Join(tc.args, " "), want, out)
			}
		}
	}
}

func TestWatchCommandPollsAndStops(t *testing.T) {
	client := newManagerPlane(t)
	old, oldInt := *watchRounds, *watchInterval
	*watchRounds, *watchInterval = 2, time.Millisecond
	defer func() { *watchRounds, *watchInterval = old, oldInt }()

	out := run(t, client, "watch", "memory")
	if got := strings.Count(out, "resource=memory"); got != 2 {
		t.Fatalf("watch polled %d times, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, "!! ") || !strings.Contains(out, "aging.alarm") {
		t.Fatalf("watch did not surface alarm notifications:\n%s", out)
	}
}

func TestActivateDeactivateAndReboot(t *testing.T) {
	client := newManagerPlane(t)
	run(t, client, "deactivate", tpcw.CompHome)
	if out := run(t, client, "get", managerName, "MonitoringEnabled"); !strings.Contains(out, "true") {
		t.Fatalf("whole-AC state should be untouched by per-component deactivate: %s", out)
	}
	run(t, client, "activate", tpcw.CompHome)
	out := run(t, client, "reboot", tpcw.CompHome)
	if !strings.Contains(out, "freed") {
		t.Fatalf("reboot output: %s", out)
	}
}

func TestClusterCommands(t *testing.T) {
	client := newClusterPlane(t)

	out := run(t, client, "nodes")
	for _, want := range []string{"node1", "node2", "node3", "active", "errors", "dropped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("nodes output lacks %q:\n%s", want, out)
		}
	}
	// The forwarder beans are on the plane, so the wire counters must be
	// joined as numbers, not the "-" placeholder.
	if strings.Contains(out, "-\n") || strings.Contains(out, " - ") {
		t.Fatalf("nodes output shows placeholder wire counters despite forwarder beans:\n%s", out)
	}

	out = run(t, client, "cluster-stats")
	if !strings.Contains(out, "shed-rounds=0") || !strings.Contains(out, "dropped-notifications=0") {
		t.Fatalf("cluster-stats lacks the overload counters:\n%s", out)
	}

	out = run(t, client, "cluster", "memory")
	if !strings.Contains(out, "resource=memory") || !strings.Contains(out, tpcw.CompHome) ||
		!strings.Contains(out, "on node2") || !strings.Contains(out, "node-local") {
		t.Fatalf("cluster report does not name (node2, %s):\n%s", tpcw.CompHome, out)
	}
	if !strings.Contains(out, "overload: shed-rounds=") {
		t.Fatalf("cluster report lacks the overload counter line:\n%s", out)
	}

	out = run(t, client, "node-verdicts", "node2", "memory")
	if !strings.Contains(out, "alarm=true") {
		t.Fatalf("node2 verdicts lack the alarm:\n%s", out)
	}
	out = run(t, client, "node-verdicts", "node1")
	if strings.Contains(out, "alarm=true") {
		t.Fatalf("healthy node1 shows an alarm:\n%s", out)
	}

	out = run(t, client, "cluster-live", "memory")
	if !strings.Contains(out, "node2/"+tpcw.CompHome) {
		t.Fatalf("cluster-live lacks the (node, component) pair:\n%s", out)
	}
}

func TestRejuvCommands(t *testing.T) {
	client := newRejuvPlane(t)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"rejuv"}, []string{
			"epoch=", "node1", "node2", "node3", "rejuvenations="}},
		{[]string{"rejuv-history"}, []string{
			"node2", "draining", "rejuvenating", "micro-reboot"}},
	} {
		out := run(t, client, tc.args...)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Fatalf("agingmon %s: output lacks %q:\n%s", strings.Join(tc.args, " "), want, out)
			}
		}
	}
	// The only node that ever actuated is the leaking one.
	out := run(t, client, "rejuv-history")
	if strings.Contains(out, "node1") || strings.Contains(out, "node3") {
		t.Fatalf("healthy nodes appear in the actuation history:\n%s", out)
	}
}

func TestRejuvCommandsNeedActuationPlane(t *testing.T) {
	client := newManagerPlane(t)
	for _, args := range [][]string{{"rejuv"}, {"rejuv-history"}} {
		var out bytes.Buffer
		err := dispatch(client, args, &out)
		if err == nil {
			t.Fatalf("agingmon %s: expected an error without a Rejuvenator bean", strings.Join(args, " "))
		}
		if !strings.Contains(err.Error(), "-rejuvenate") {
			t.Fatalf("agingmon %s: error does not point at the enabling flag: %v", strings.Join(args, " "), err)
		}
	}
}

func TestClusterWatchPollsAndStops(t *testing.T) {
	client := newClusterPlane(t)
	old, oldInt := *watchRounds, *watchInterval
	*watchRounds, *watchInterval = 2, time.Millisecond
	defer func() { *watchRounds, *watchInterval = old, oldInt }()

	out := run(t, client, "cluster-watch", "memory")
	if got := strings.Count(out, "resource=memory"); got != 2 {
		t.Fatalf("cluster-watch polled %d times, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, "aging.cluster.alarm") {
		t.Fatalf("cluster-watch did not surface cluster alarms:\n%s", out)
	}
}

func TestErrorPaths(t *testing.T) {
	client := newManagerPlane(t)
	for _, args := range [][]string{
		{"bogus-command"},
		{"describe"},
		{"get", managerName},
		{"set", managerName, "x"},
		{"invoke", managerName},
		{"node-verdicts"},
		{"reboot"},
		{"notifications", "not-a-number"},
	} {
		var out bytes.Buffer
		if err := dispatch(client, args, &out); err == nil {
			t.Fatalf("agingmon %s: expected an error", strings.Join(args, " "))
		}
	}
	// Cluster commands against a single-node plane fail cleanly.
	var out bytes.Buffer
	if err := dispatch(client, []string{"cluster", "memory"}, &out); err == nil {
		t.Fatal("cluster command succeeded without an aggregator")
	}
}

func TestParseValue(t *testing.T) {
	for in, want := range map[string]any{
		"true":  true,
		"false": false,
		"42":    42.0,
		"x":     "x",
	} {
		if got := parseValue(in); got != want {
			t.Fatalf("parseValue(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestAccuracyCommand renders a scenario-matrix accuracy artifact: the
// command reads a local file, so no management plane is needed (a nil
// client must be fine).
func TestAccuracyCommand(t *testing.T) {
	rep := experiment.AccuracyReport{
		Scale: 0.35,
		Seed:  42,
		Scenarios: []experiment.ScenarioAccuracy{
			{ID: "S2", Passed: true, Truth: []string{"tpcw.home"},
				Flagged: []string{"tpcw.home"}, TP: 1, Precision: 1, Recall: 1, TTDRounds: 10},
			{ID: "S7", Passed: true, Precision: 1, Recall: 1},
		},
		TP: 1, Precision: 1, Recall: 1, MeanTTDRounds: 10,
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/report.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"accuracy", path}, []string{
			"scale 0.35, seed 42", "S2", "tpcw.home", "S7", "(none)",
			"precision 1.000", "recall 1.000", "mean TTD 10.0 rounds"}},
	} {
		out := run(t, nil, tc.args...)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Fatalf("agingmon %s: output lacks %q:\n%s", strings.Join(tc.args, " "), want, out)
			}
		}
	}
}

// TestAccuracyCommandErrors pins the failure modes: wrong arity, a
// missing file and a malformed artifact.
func TestAccuracyCommandErrors(t *testing.T) {
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"accuracy"},
		{"accuracy", "/nonexistent/report.json"},
		{"accuracy", bad},
	} {
		var out bytes.Buffer
		if err := dispatch(nil, args, &out); err == nil {
			t.Fatalf("agingmon %s: expected error", strings.Join(args, " "))
		}
	}
}
