#!/usr/bin/env bash
# benchdiff.sh — compare a fresh benchmark run against BENCH_baseline.json.
#
# Usage: scripts/benchdiff.sh [-t pct] [-b benchtime] [bench_regex]
#
#   -t pct        allowed ns/op regression over the recorded baseline, in
#                 percent (default 200: fail only when a benchmark runs at
#                 more than 3x its recorded time — CI containers are noisy
#                 and share cores, so this is a smoke gate against
#                 order-of-magnitude regressions, not a perf lab)
#   -b benchtime  go test -benchtime (default 2000x — enough iterations to
#                 amortise cold starts like name interning while staying
#                 a few seconds of CI time)
#   bench_regex   which benchmarks to run (default: the monitoring-plane and
#                 request-path set; the sub-10ns aspect fast-path benches are
#                 excluded because a fixed-iteration run of a nanosecond op
#                 measures timer overhead, not the op)
#
# Every benchmark runs three times (go test -count 3) and the gate reads
# the *minimum* ns/op of the three: a shared host only ever adds time, so
# the fastest run is the reading least disturbed by its neighbours.
#
# For each benchmark in the fresh run that has an entry in
# BENCH_baseline.json, the script compares ns/op against the *most recent*
# recorded figure for that benchmark (the last sub-entry carrying ns_op —
# "after", "with_cluster_tier", ... in recording order) and fails with a
# per-benchmark report when the regression threshold is exceeded.
# Benchmarks without a baseline entry are reported as informational.
#
# The baseline records the GOMAXPROCS it was taken at
# (environment.gomaxprocs). Timings and several allocation counts depend on
# it, so the script refuses to compare a run at any other count: set
# GOMAXPROCS to the recorded value, or re-record the baseline.
#
# allocs/op is gated separately and absolutely: the run uses -benchmem and
# ANY increase over the recorded allocs_op, in any of the three runs, fails. Allocation counts are
# deterministic (no timing noise), so unlike ns/op there is no tolerance —
# this is what locks the zero-alloc request and monitoring paths in CI.
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD_PCT=200
BENCHTIME=2000x
while getopts "t:b:" opt; do
  case "$opt" in
    t) THRESHOLD_PCT="$OPTARG" ;;
    b) BENCHTIME="$OPTARG" ;;
    *) echo "usage: $0 [-t pct] [-b benchtime] [bench_regex]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
# BenchmarkAggregatorIngest is not in the default regex: go test splits
# -bench patterns on every slash, so a sub-benchmark filter cannot ride
# one top-level alternation. The aggregation-plane set runs in its own
# blocks below with per-size iteration counts.
REGEX="${1:-BenchmarkMonitorObserve|BenchmarkWirePublish|BenchmarkWireDecode|BenchmarkForwarderObserve|BenchmarkRequestMonitoredParallel|BenchmarkRequestMonitored|BenchmarkRequestUnmonitored}"

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
PROCS="${GOMAXPROCS:-$(nproc)}"
RECORDED_PROCS="$(python3 -c 'import json; print(json.load(open("BENCH_baseline.json"))["environment"]["gomaxprocs"])')"
echo "benchdiff: GOMAXPROCS=$PROCS (baseline recorded at $RECORDED_PROCS)"
if [[ "$PROCS" != "$RECORDED_PROCS" ]]; then
  echo "benchdiff: refusing to compare a run at GOMAXPROCS=$PROCS against a baseline recorded at GOMAXPROCS=$RECORDED_PROCS; rerun as GOMAXPROCS=$RECORDED_PROCS $0 or re-record BENCH_baseline.json" >&2
  exit 3
fi
echo "running: go test -run '^$' -bench \"$REGEX\" -benchtime $BENCHTIME -count 3 -benchmem ./..." >&2
go test -run '^$' -bench "$REGEX" -benchtime "$BENCHTIME" -count 3 -benchmem ./... 2>/dev/null | tee "$OUT" >&2

# The load tier is gated with its own iteration counts: the timing-wheel
# ops are sub-microsecond (2000 iterations would measure loop overhead),
# and one DriverSessions100k iteration is a full 100k-session run, so
# 2000 of them would take minutes. Only run when no custom regex was
# given — a targeted invocation should run exactly what it asked for.
if [[ -z "${1:-}" ]]; then
  # Aggregation plane, small clusters: one epoch is a few hundred µs, so
  # 300 iterations amortise pool warm-up without dragging CI.
  echo "running: go test -run '^$' -bench 'BenchmarkAggregatorIngest/nodes=(1|3)$' -benchtime 300x -count 3 -benchmem ./internal/cluster/" >&2
  go test -run '^$' -bench 'BenchmarkAggregatorIngest/nodes=(1|3)$' -benchtime 300x -count 3 -benchmem ./internal/cluster/ 2>/dev/null | tee -a "$OUT" >&2
  # Fleet scale: one nodes=128 epoch is ~19 ms and one parallel round
  # fans in from dozens of goroutines, so these run at their own low
  # iteration count — 2000x of nodes=128 would be most of a minute of
  # CI time for no extra signal.
  echo "running: go test -run '^$' -bench 'BenchmarkAggregatorIngest/nodes=(32|128)$|BenchmarkAggregatorParallelIngest' -benchtime 50x -count 3 -benchmem ./internal/cluster/" >&2
  go test -run '^$' -bench 'BenchmarkAggregatorIngest/nodes=(32|128)$|BenchmarkAggregatorParallelIngest' -benchtime 50x -count 3 -benchmem ./internal/cluster/ 2>/dev/null | tee -a "$OUT" >&2
  # sqldb access paths under best_sellers, at 1.5k and 15k orders: their
  # rows_scanned/op is exact, and the 15k/1.5k ns/op ratio staying near
  # the window's growth (~2x), not the table's (10x), is the point.
  echo "running: go test -run '^$' -bench 'BenchmarkSelectLatestByPK|BenchmarkSelectRangeWindow|BenchmarkBestSellers' -benchtime $BENCHTIME -count 3 -benchmem ./internal/sqldb/ ./internal/tpcw/" >&2
  go test -run '^$' -bench 'BenchmarkSelectLatestByPK|BenchmarkSelectRangeWindow|BenchmarkBestSellers' -benchtime "$BENCHTIME" -count 3 -benchmem ./internal/sqldb/ ./internal/tpcw/ 2>/dev/null | tee -a "$OUT" >&2
  echo "running: go test -run '^$' -bench 'BenchmarkEngineSchedule|BenchmarkEngineCancel' -benchtime 200000x -count 3 -benchmem ./internal/sim/" >&2
  go test -run '^$' -bench 'BenchmarkEngineSchedule|BenchmarkEngineCancel' -benchtime 200000x -count 3 -benchmem ./internal/sim/ 2>/dev/null | tee -a "$OUT" >&2
  echo "running: go test -run '^$' -bench BenchmarkDriverSessions100k -benchtime 5x -count 3 -benchmem ./internal/eb/" >&2
  go test -run '^$' -bench 'BenchmarkDriverSessions100k' -benchtime 5x -count 3 -benchmem ./internal/eb/ 2>/dev/null | tee -a "$OUT" >&2
fi

python3 - "$OUT" "$THRESHOLD_PCT" <<'PYEOF'
import json, re, sys

out_path, threshold = sys.argv[1], float(sys.argv[2])
base = json.load(open("BENCH_baseline.json"))["benchmarks"]

# Most recent recorded figures per benchmark: the last sub-entry that has
# an ns_op (allocs_op rides the same entry when present).
recorded = {}
for name, entries in base.items():
    for sub in entries.values():
        if isinstance(sub, dict) and "ns_op" in sub:
            recorded[name] = (float(sub["ns_op"]), sub.get("allocs_op"))

line_re = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op"
    r"(?:.*?\s(\d+) allocs/op)?")
# Minimum ns/op and maximum allocs/op per benchmark over the -count runs.
runs = {}
for line in open(out_path):
    m = line_re.match(line.strip())
    if not m:
        continue
    name, ns = m.group(1), float(m.group(2))
    allocs = int(m.group(3)) if m.group(3) is not None else None
    if name in runs:
        prev_ns, prev_allocs = runs[name]
        ns = min(ns, prev_ns)
        if prev_allocs is not None:
            allocs = prev_allocs if allocs is None else max(allocs, prev_allocs)
    runs[name] = (ns, allocs)

failures, alloc_failures, checked, info = [], [], 0, 0
for name, (ns, allocs) in runs.items():
    if name not in recorded:
        info += 1
        print(f"  (no baseline) {name}: {ns:.0f} ns/op")
        continue
    checked += 1
    baseline, base_allocs = recorded[name]
    delta = (ns / baseline - 1.0) * 100.0
    status = "ok"
    if delta > threshold:
        status = "REGRESSION"
        failures.append((name, baseline, ns, delta))
    alloc_note = ""
    if base_allocs is not None and allocs is not None:
        alloc_note = f", {allocs} vs {base_allocs} allocs/op"
        if allocs > base_allocs:
            status = "ALLOC-REGRESSION"
            alloc_failures.append((name, base_allocs, allocs))
    print(f"  [{status}] {name}: {ns:.0f} ns/op vs {baseline:.0f} recorded ({delta:+.1f}%{alloc_note})")

if checked == 0:
    print("benchdiff: no benchmark in the run matches a baseline entry", file=sys.stderr)
    sys.exit(2)
failed = False
if failures:
    failed = True
    print(f"\nbenchdiff: {len(failures)} benchmark(s) regressed beyond {threshold:.0f}%:", file=sys.stderr)
    for name, baseline, ns, delta in failures:
        print(f"  {name}: {ns:.0f} ns/op vs {baseline:.0f} ({delta:+.1f}%)", file=sys.stderr)
if alloc_failures:
    failed = True
    print(f"\nbenchdiff: {len(alloc_failures)} benchmark(s) allocate more than recorded (any increase fails):", file=sys.stderr)
    for name, base_allocs, allocs in alloc_failures:
        print(f"  {name}: {allocs} allocs/op vs {base_allocs} recorded", file=sys.stderr)
if failed:
    sys.exit(1)
print(f"benchdiff: {checked} benchmark(s) within {threshold:.0f}% of BENCH_baseline.json and at-or-under recorded allocs/op")
PYEOF
