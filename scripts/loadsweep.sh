#!/usr/bin/env bash
# loadsweep.sh — sweep the load tier across session populations and shard
# counts (the bm.py-style benchmark matrix), printing one line per cell:
# wall time, completed interactions, peak WIPS and the completion
# checksum.
#
# Usage: scripts/loadsweep.sh [-d duration] [-s "sessions..."]
#                             [-n "shards..."] [-j file]
#
#   -d duration   virtual time per cell (default 2m)
#   -s list       session populations (default "10000 100000 1000000")
#   -n list       shard counts (default "1 2 4")
#   -j file       also append one JSON object per cell to file
#
# Two invariants to eyeball in the output:
#   - within a sessions row, completed/checksum are identical for every
#     shard count (the determinism contract: shards=1 vs N
#     byte-identical) — the script exits non-zero if they diverge;
#   - wall time grows sublinearly with sessions (the per-event cost is
#     O(1): timing-wheel scheduling, SoA table, zero steady-state allocs).
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION=2m
SESSIONS="10000 100000 1000000"
SHARDS="1 2 4"
JSON=""
while getopts "d:s:n:j:" opt; do
  case "$opt" in
    d) DURATION="$OPTARG" ;;
    s) SESSIONS="$OPTARG" ;;
    n) SHARDS="$OPTARG" ;;
    j) JSON="$OPTARG" ;;
    *) echo "usage: $0 [-d duration] [-s \"sessions...\"] [-n \"shards...\"] [-j file]" >&2; exit 2 ;;
  esac
done

BIN="$(mktemp -d)/tpcwsim"
trap 'rm -rf "$(dirname "$BIN")"' EXIT
go build -o "$BIN" ./cmd/tpcwsim

printf "%10s %7s %10s %12s %10s %s\n" SESSIONS SHARDS WALL COMPLETED PEAK_WIPS CHECKSUM
for sess in $SESSIONS; do
  row_sum=""
  for sh in $SHARDS; do
    start=$(date +%s.%N)
    out="$("$BIN" -load -sessions "$sess" -shards "$sh" -duration "$DURATION" 2>/dev/null)"
    wall=$(echo "$(date +%s.%N) $start" | awk '{printf "%.2f", $1-$2}')
    completed=$(echo "$out" | sed -n 's/^completed \([0-9]*\) .*/\1/p')
    peak=$(echo "$out" | sed -n 's/^peak WIPS \([0-9]*\),.*/\1/p')
    sum=$(echo "$out" | sed -n 's/.*completion checksum \(0x[0-9a-f]*\)$/\1/p')
    printf "%10s %7s %9ss %12s %10s %s\n" "$sess" "$sh" "$wall" "$completed" "$peak" "$sum"
    if [[ -n "$JSON" ]]; then
      printf '{"sessions":%s,"shards":%s,"duration":"%s","wall_sec":%s,"completed":%s,"peak_wips":%s,"checksum":"%s"}\n' \
        "$sess" "$sh" "$DURATION" "$wall" "$completed" "$peak" "$sum" >> "$JSON"
    fi
    if [[ -n "$row_sum" && "$sum" != "$row_sum" ]]; then
      echo "loadsweep: DETERMINISM VIOLATION: sessions=$sess checksum differs across shard counts" >&2
      exit 1
    fi
    row_sum="$sum"
  done
done
echo "loadsweep: checksums identical across shard counts for every cell"
