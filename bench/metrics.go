package main

import "repro/internal/tpcw"

// metricDef declares one metric of the benchmark contract (BENCHMARK.json
// lists exactly these; bench_test.go holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; exact
	// counts have bound 0 (any change is a change). Layer metrics have
	// none.
	Bound float64
}

// mOps is the one throughput name of the machine-facing result line:
// interactions_per_s on the four request workloads, rounds_per_s on
// fleet_rounds. The acceptance driver needs every end-to-end metric on
// every workload and none of them ever zero, so the two workload-specific
// names fold into one there; records and tables keep the specific names.
const mOps = "ops_per_s"

// endToEndDefs are the bounded metrics, present and non-zero on every
// workload.
var endToEndDefs = []metricDef{
	{mSetup, "s", "lower", 0.25},
	{mOps, "1/s", "higher", 0.15},
	{mCPU, "us", "lower", 0.15},
	{mAllocs, "count", "lower", 0.05},
	{mRSS, "MB", "lower", 0.20},
}

// exactDefs are end-to-end counts that must repeat exactly for one seed.
// They are zero or absent on some workloads, so the acceptance driver
// sees them among the layer metrics; -repeat holds them to "any change",
// and on fleet_rounds, where they do not depend on the seed, correctness
// checks hold ttd_epochs and wire_bytes_per_round to ceilings
// (fleetTTDCeiling, fleetWireBytesCeiling).
var exactDefs = []metricDef{
	{mFailedShare, "share", "lower", 0},
	{mTTD, "count", "lower", 0},
	{mWireBytes, "B", "lower", 0},
	{"sqldb.rows_scanned_per_interaction", "count", "lower", 0},
	{"aspect.joinpoints_per_interaction", "count", "lower", 0},
}

// repeatBound returns the bound -repeat holds a metric of an untraced run
// to.
func repeatBound(name string) (float64, bool) {
	if name == mInteractions || name == mRounds {
		name = mOps
	}
	for _, defs := range [][]metricDef{endToEndDefs, exactDefs} {
		for _, d := range defs {
			if d.Name == name {
				return d.Bound, true
			}
		}
	}
	return 0, false
}

// Layer metrics the parent derives from an untraced/traced pair.
const (
	mTraceOverhead = "trace_overhead_ratio"
	mReconcile     = "servlet.reconcile_ratio"
)

// layerDefs are the per-layer metrics of a traced run, layer = package
// name. README.md says how each is measured and what it should move.
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{mTTD, "count", "lower", 0},
		{mWireBytes, "B", "lower", 0},
		{"eb.generator_ns_per_interaction", "ns", "lower", 0},
		{"sim.shard_scaling_efficiency", "ratio", "higher", 0},
		{"servlet.submit_wall_share", "share", "lower", 0},
		{"servlet.submit_us_p50", "us", "lower", 0},
		{"servlet.submit_us_p99", "us", "lower", 0},
		{mReconcile, "ratio", "lower", 0},
	}
	for _, comp := range tpcw.Interactions {
		defs = append(defs,
			metricDef{interactionMetric(comp, "time_share"), "share", "lower", 0},
			metricDef{interactionMetric(comp, "submit_us_p50"), "us", "lower", 0})
	}
	return append(defs, []metricDef{
		{"tpcw.dao.best_sellers_us", "us", "lower", 0},
		{"tpcw.dao.search_us", "us", "lower", 0},
		{"tpcw.dao.new_products_us", "us", "lower", 0},
		{"tpcw.dao.order_create_us", "us", "lower", 0},
		{"tpcw.dao.item_by_id_ns", "ns", "lower", 0},
		{"sqldb.select_latest_order_us", "us", "lower", 0},
		{"sqldb.select_order_lines_us", "us", "lower", 0},
		{"sqldb.get_pk_ns", "ns", "lower", 0},
		{"sqldb.insert_ns", "ns", "lower", 0},
		{"sqldb.rows_scanned_per_interaction", "count", "lower", 0},
		{"sqldb.queries_per_interaction", "count", "lower", 0},
		{"sqldb.orders_rows_end", "count", "lower", 0},
		{"sqldb.order_line_rows_end", "count", "lower", 0},
		{"aspect.dispatch_ns_nomatch", "ns", "lower", 0},
		{"aspect.dispatch_ns_advised", "ns", "lower", 0},
		{"aspect.joinpoints_per_interaction", "count", "lower", 0},
		{"core.advice_ns_per_interaction", "ns", "lower", 0},
		{"servlet.invoke_ns_unmonitored", "ns", "lower", 0},
		{"core.sample_self_us_p50", "us", "lower", 0},
		{"core.sample_self_us_p99", "us", "lower", 0},
		{"objsize.walk_us_per_round", "us", "lower", 0},
		{"detect.observe_us_per_round", "us", "lower", 0},
		{"cluster.publish_ns_per_round", "ns", "lower", 0},
		{"cluster.encode_ns_per_round", "ns", "lower", 0},
		{"cluster.decode_ns_per_round", "ns", "lower", 0},
		{"cluster.frames_per_round", "count", "lower", 0},
		{"cluster.ingest_ns_per_round", "ns", "lower", 0},
		{"cluster.fold_us_p50", "us", "lower", 0},
		{"cluster.fold_us_p95", "us", "lower", 0},
		{"cluster.epoch_lag_max", "count", "lower", 0},
		{"cluster.shed_rounds", "count", "lower", 0},
		{"cluster.dropped_notifications", "count", "lower", 0},
		{"rejuv.observe_epoch_ns", "ns", "lower", 0},
		{mTraceOverhead, "ratio", "lower", 0},
	}...)
}()
