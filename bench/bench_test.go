package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/aspect"
	"repro/internal/eb"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

func TestPercentilePicker(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {40, 50}, {100, 90}, {200, 95}, {800, 95},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {167561, 99.99},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {100, 100}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// returns, which is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %g %g %g, want 7.5 15 22.5", q1, q2, q3)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	if got := spread([]float64{100, 104}); math.Abs(got-4.0/102) > 1e-12 {
		t.Errorf("spread(100, 104) = %g, want range/median", got)
	}
	if got := spread([]float64{9, 9, 9}); got != 0 {
		t.Errorf("spread of equal values = %g, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanSample, ID: 1, Start: 0, End: 100},
		{Name: spanPublish, ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: spanPublish, ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: counted once
		{Name: spanPublish, ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{Name: spanSubmit, ID: 5, Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 30, 4: 30, 5: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	buf := newSpanBuf(3, 4)
	outer := buf.begin(spanSample, noTag, 7)
	inner := buf.begin(spanPublish, noTag, 7)
	buf.end(inner)
	buf.end(outer)
	next := buf.begin(spanSample, noTag, 8)
	buf.end(next)
	if buf.spans[1].Parent != buf.spans[0].ID || buf.spans[0].Parent != 0 || buf.spans[2].Parent != 0 {
		t.Errorf("parents = %d %d %d, want nested span under the open one only",
			buf.spans[0].Parent, buf.spans[1].Parent, buf.spans[2].Parent)
	}
	if buf.spans[0].ID>>40 != 3 || buf.spans[0].ID == buf.spans[1].ID {
		t.Errorf("span ids %x %x: want the buffer prefix and distinct ids", buf.spans[0].ID, buf.spans[1].ID)
	}
	if s := buf.spans[1]; s.Start < buf.spans[0].Start || s.End > buf.spans[0].End {
		t.Errorf("child %+v not inside parent %+v", s, buf.spans[0])
	}
}

func TestLightMatrix(t *testing.T) {
	m := lightMatrix()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(tpcw.Interactions)-len(heavyInteractions) {
		t.Errorf("light matrix has %d rows, want %d", len(m), len(tpcw.Interactions)-len(heavyInteractions))
	}
	for from, row := range m {
		var total float64
		for _, tr := range row {
			if slices.Contains(heavyInteractions, tr.To) {
				t.Errorf("%s -> %s: heavy interaction still reachable", from, tr.To)
			}
			if tr.Weight <= 0 {
				t.Errorf("%s -> %s has weight %g", from, tr.To, tr.Weight)
			}
			total += tr.Weight
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("row %s sums to %g, want 1", from, total)
		}
	}
	// Every light interaction stays reachable from home, and nothing else.
	seen := map[string]bool{tpcw.CompHome: true}
	for queue := []string{tpcw.CompHome}; len(queue) > 0; queue = queue[1:] {
		for _, tr := range m[queue[0]] {
			if !seen[tr.To] {
				seen[tr.To] = true
				queue = append(queue, tr.To)
			}
		}
	}
	if len(seen) != len(m) {
		t.Errorf("%d interactions reachable from home, want %d", len(seen), len(m))
	}
	// The source matrix still has them: the filter is what removes them.
	if _, ok := eb.TransitionMatrix(eb.Shopping)[tpcw.CompBestSellers]; !ok {
		t.Error("Shopping matrix lost its best_sellers row; lightMatrix no longer filters anything")
	}
}

func TestBestSellersOracleAgreesWithDAO(t *testing.T) {
	db := sqldb.NewDB()
	if err := tpcw.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := tpcw.Populate(db, tpcw.Scale{Items: 120, Customers: 56, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	orders, err := db.Table(tpcw.TableOrders)
	if err != nil {
		t.Fatal(err)
	}
	if orders.Len() != 50 {
		t.Fatalf("database has %d orders, want 50", orders.Len())
	}
	conn := sqldb.NewPool(db, 1).Acquire()
	dao := tpcw.NewCatalogDAO(aspect.NewWeaver(nil))
	nonEmpty := 0
	for _, subject := range tpcw.Subjects {
		want, err := bruteForceBestSellers(conn, subject)
		if err != nil {
			t.Fatal(err)
		}
		items, err := dao.BestSellers(conn, subject)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, len(items))
		for i := range items {
			got[i] = items[i].ID
		}
		if !slices.Equal(got, want) {
			t.Errorf("BestSellers(%s) = %v, oracle says %v", subject, got, want)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(tpcw.Subjects)/2 {
		t.Errorf("only %d of %d subjects have best sellers: the comparison is nearly vacuous", nonEmpty, len(tpcw.Subjects))
	}
}

func TestRecordSchemaRoundTrip(t *testing.T) {
	m := meta{Commit: "abc123", Host: "h", Go: "go1.24.0", NProc: 2, Procs: 2, GOGC: 100}
	res := &result{Workload: wlFleetRounds, Size: "nodes=128", Traced: true}
	res.add(mRounds, 10100.25, "1/s")
	res.addN("cluster.fold_us_p95", 3358.6, "us", 800)
	var buf bytes.Buffer
	if err := writeRecords(&buf, records(m, 42, res)); err != nil {
		t.Fatal(err)
	}
	want := []string{"commit", "go", "gogc", "host", "metric", "nproc", "procs", "seed", "size", "traced", "unit", "value", "workload"}
	sc := bufio.NewScanner(&buf)
	var back []record
	for sc.Scan() {
		var fields map[string]any
		if err := json.Unmarshal(sc.Bytes(), &fields); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(fields))
		for k := range fields {
			if k != "n" {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		if !slices.Equal(keys, want) {
			t.Errorf("record keys %v, want %v", keys, want)
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		back = append(back, r)
	}
	if !slices.Equal(back, records(m, 42, res)) {
		t.Errorf("records did not survive the round trip: %+v", back)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", bf.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !slices.Equal(e2e, endToEndDefs) {
		t.Errorf("end_to_end = %+v\nwant %+v", e2e, endToEndDefs)
	}
	var layers []metricDef
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !slices.Equal(layers, layerDefs) {
		t.Errorf("per_layer has %d metrics, harness %d; first difference matters:\n got %+v\nwant %+v",
			len(layers), len(layerDefs), layers, layerDefs)
	}
}

// smokeScale is 1/50 of the normative size.
const smokeScale = 0.02

// TestQuickSmoke runs all five workloads at 1/50 size with every
// correctness check on. The three workload families whose traced path
// differs (monitored mix, direct mode, fleet) also run traced, with their
// probes, and must reproduce the untraced run's exact counts.
func TestQuickSmoke(t *testing.T) {
	known := make(map[string]bool, len(layerDefs))
	for _, d := range layerDefs {
		known[d.Name] = true
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			untraced, err := runWorkload(runConfig{Workload: w, Seed: 42, Scale: smokeScale})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range untraced.CheckFailures {
				t.Errorf("check failed: %s", f)
			}
			line := lineFor(untraced, nil)
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("result line %+v", line)
			}
			for _, d := range endToEndDefs {
				if v := line.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, v)
				}
			}
			if w == wlShopMix || w == wlOrderMix {
				return
			}

			traced, err := runWorkload(runConfig{Workload: w, Seed: 42, Scale: smokeScale, Traced: true,
				TraceOut: filepath.Join(t.TempDir(), "trace.jsonl")})
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			for _, f := range traced.CheckFailures {
				t.Errorf("traced: check failed: %s", f)
			}
			pairMetrics(untraced, traced, io.Discard)
			for _, m := range traced.Metrics {
				if !known[m.Name] {
					t.Errorf("traced: metric %s is not declared in layerDefs", m.Name)
				}
			}
			if n := len(lineFor(untraced, traced).Metrics); n != len(layerDefs) {
				t.Errorf("traced: result line has %d metrics, want %d", n, len(layerDefs))
			}
			if _, ok := traced.get(mTraceOverhead); !ok {
				t.Errorf("traced: no %s", mTraceOverhead)
			}
			for _, d := range exactDefs {
				u, uok := untraced.get(d.Name)
				v, vok := traced.get(d.Name)
				if uok && vok && u != v {
					t.Errorf("%s = %g untraced, %g traced: exact counts must not depend on tracing", d.Name, u, v)
				}
			}
		})
	}
}

// The shard-scaling probe only runs beside traced shop_mix, which the
// smoke test skips.
func TestShardScalingProbe(t *testing.T) {
	res := &result{}
	if err := shardScalingProbe(res, runConfig{Workload: wlShopMix, Seed: 42, Scale: smokeScale}, eb.Shopping); err != nil {
		t.Fatal(err)
	}
	if v, ok := res.get("sim.shard_scaling_efficiency"); !ok || !(v > 0) {
		t.Errorf("sim.shard_scaling_efficiency = %g, %v", v, ok)
	}
}

// A failed check must fail the run, not just the metric.
func TestFailedCheckMakesResultIncorrect(t *testing.T) {
	res := &result{Workload: wlShopMix, Attempted: 10}
	res.check(1+1 == 2, "arithmetic")
	if line := lineFor(res, nil); !line.Correct {
		t.Error("passing check marked the result incorrect")
	}
	res.check(false, "verdict flags %q", "shard01/tpcw.search_request")
	if line := lineFor(res, nil); line.Correct {
		t.Error("failed check left the result correct")
	}
}

// Arguments that cannot mean what they say are refused before anything
// runs: the work is fixed whatever -seconds says, and one -trace-out file
// cannot hold the spans of five workloads.
func TestRefusedArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", wlShopMix, "-seconds", "5"},
		{"-trace", "1", "-trace-out", "spans.jsonl"},
		{"-workload", wlShopMix, "-trace-out", "spans.jsonl"},
		{"-workload", "no_such_workload"},
		{"-trace", "2"},
		{"stray"},
	} {
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("run(%v) = %d with message %q, want 2 and a message", args, code, stderr.String())
		}
	}
}
