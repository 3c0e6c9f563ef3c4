#!/usr/bin/env bash
# scenariomatrix.sh — run the full S1-S22 scenario matrix against its
# fault-injected ground truth and gate the accuracy report against
# ACCURACY_baseline.json.
#
# Usage: scripts/scenariomatrix.sh [-o report.json]
#
#   -o report.json  keep the fresh accuracy report at this path (default:
#                   a temp file discarded after the comparison)
#
# The matrix runs at the baseline's recorded configuration (scale 0.35,
# seed 42, 500 items / 300 customers — the same pinned tuning the
# scenario unit tests use), so verdicts are deterministic and any
# difference from the baseline is a code change, not noise. The scenarios
# it runs are the IDs recorded in the baseline, in order. The gate fails
# when:
#   - any scenario present in the baseline is missing, no longer passes,
#     or scores below its recorded precision/recall;
#   - a scenario's flagged set differs from the recorded one;
#   - a scenario detects later (TTDRounds) or recovers later
#     (RecoveryEpochs) than recorded, or no longer detects or recovers;
#   - a pre-injection alarm appears anywhere (the steady-state
#     hypothesis of the litmus catalog requires zero);
#   - the overall matrix drops below the absolute floors: precision 0.9,
#     recall 1.0.
set -euo pipefail
cd "$(dirname "$0")/.."

REPORT=""
while getopts "o:" opt; do
  case "$opt" in
    o) REPORT="$OPTARG" ;;
    *) echo "usage: $0 [-o report.json]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

OUT="${REPORT:-$(mktemp)}"
if [[ -z "$REPORT" ]]; then
  trap 'rm -f "$OUT"' EXIT
fi

SCENARIOS="$(python3 -c 'import json; print(",".join(s["ID"] for s in json.load(open("ACCURACY_baseline.json"))["Scenarios"]))')"
echo "running: go run ./cmd/experiments -run $SCENARIOS -scale 0.35 -seed 42 -items 500 -customers 300 -accuracy $OUT" >&2
go run ./cmd/experiments -run "$SCENARIOS" -scale 0.35 -seed 42 -items 500 -customers 300 -accuracy "$OUT" >&2

python3 - "$OUT" <<'PYEOF'
import json, sys

fresh = json.load(open(sys.argv[1]))
base = json.load(open("ACCURACY_baseline.json"))

fresh_rows = {s["ID"]: s for s in fresh["Scenarios"]}
failures = []

for row in base["Scenarios"]:
    sid = row["ID"]
    got = fresh_rows.get(sid)
    if got is None:
        failures.append(f"{sid}: missing from the fresh matrix")
        continue
    if not got["Passed"]:
        failures.append(f"{sid}: no longer passes")
    if got["Precision"] < row["Precision"]:
        failures.append(f"{sid}: precision {got['Precision']:.2f} below recorded {row['Precision']:.2f}")
    if got["Recall"] < row["Recall"]:
        failures.append(f"{sid}: recall {got['Recall']:.2f} below recorded {row['Recall']:.2f}")
    if got["PreInjectionAlarms"] > 0:
        failures.append(f"{sid}: {got['PreInjectionAlarms']} pre-injection alarm(s)")
    if sorted(got["Flagged"] or []) != sorted(row["Flagged"] or []):
        failures.append(f"{sid}: flagged {got['Flagged']} differs from recorded {row['Flagged']}")
    for key, what in (("TTDRounds", "detects"), ("RecoveryEpochs", "recovers")):
        rec, now = row.get(key, 0), got.get(key, 0)
        if rec > 0 and now == 0:
            failures.append(f"{sid}: no longer {what} (recorded {key} {rec})")
        elif now > rec:
            failures.append(f"{sid}: {key} {now} above recorded {rec}")

if fresh["Precision"] < 0.9:
    failures.append(f"overall precision {fresh['Precision']:.3f} below the 0.9 floor")
if fresh["Recall"] < 1.0:
    failures.append(f"overall recall {fresh['Recall']:.3f} below the 1.0 floor")

print(f"scenariomatrix: {len(base['Scenarios'])} scenarios checked, "
      f"precision {fresh['Precision']:.3f} recall {fresh['Recall']:.3f} "
      f"mean TTD {fresh['MeanTTDRounds']:.1f} rounds, "
      f"mean TTR {fresh.get('MeanRecoveryEpochs', 0):.1f} epochs")
if failures:
    print(f"\nscenariomatrix: {len(failures)} regression(s) vs ACCURACY_baseline.json:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("scenariomatrix: no regression vs ACCURACY_baseline.json")
PYEOF
