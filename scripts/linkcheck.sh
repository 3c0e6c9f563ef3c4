#!/usr/bin/env bash
# linkcheck.sh — fail on broken relative links in README.md and docs/.
#
# Checks three things:
#   1. every relative markdown link target ([text](target)) resolves to
#      an existing file, relative to the linking document;
#   2. every `path/to/file.go:line`-style anchor in backticks (the
#      paper-mapping tables) names an existing file;
#   3. every such anchor's line exists and, in a table row, names the
#      row's symbol: the last identifier of the first code span in the
#      column before the anchor (`core.Manager.Map` -> Map).
# External links (http/https/mailto) and pure #fragments are skipped.
set -u
cd "$(dirname "$0")/.."

fail=0

check_file() {
  local doc="$1"
  local dir
  dir=$(dirname "$doc")

  # 1. Markdown link targets.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    local path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN LINK: $doc -> $target"
      fail=1
    fi
  done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')

  # 2. Backticked file anchors (`internal/foo/bar.go:123`, `cmd/x/main.go`).
  while IFS= read -r anchor; do
    local path="${anchor%%:*}"
    if [ ! -e "$path" ]; then
      echo "BROKEN ANCHOR: $doc -> $anchor"
      fail=1
    fi
  done < <(grep -o '`[A-Za-z0-9_./-]*\.\(go\|md\|json\|yml\)\(:[0-9]*\)\?`' "$doc" \
           | tr -d '`' | grep '/' )

  # 3. Line anchors land on the symbol they document.
  while IFS=$'\t' read -r path line symbol; do
    [ -e "$path" ] || continue
    local n
    n=$(wc -l < "$path")
    if [ "$line" -gt "$n" ]; then
      echo "STALE ANCHOR: $doc -> $path:$line (the file has $n lines)"
      fail=1
    elif [ -n "$symbol" ] && ! sed -n "${line}p" "$path" | grep -qw -- "$symbol"; then
      echo "STALE ANCHOR: $doc -> $path:$line does not name $symbol"
      fail=1
    fi
  done < <(awk -F'|' '{
    for (i = 1; i <= NF; i++) {
      c = $i
      while (match(c, /`[A-Za-z0-9_.\/-]+\.go:[0-9]+`/)) {
        a = substr(c, RSTART + 1, RLENGTH - 2)
        c = substr(c, RSTART + RLENGTH)
        sym = ""
        if ($0 ~ /^\|/ && i > 1 && match($(i - 1), /`[^`]*`/)) {
          s = substr($(i - 1), RSTART + 1, RLENGTH - 2)
          while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
            sym = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
          }
        }
        k = index(a, ":")
        print substr(a, 1, k - 1) "\t" substr(a, k + 1) "\t" sym
      }
    }
  }' "$doc")
}

for doc in README.md docs/*.md; do
  [ -e "$doc" ] || continue
  check_file "$doc"
done

if [ "$fail" -ne 0 ]; then
  echo "linkcheck: FAILED"
  exit 1
fi
echo "linkcheck: OK"
