#!/usr/bin/env bash
# loc.sh — print the repo's non-test Go line count outside bench/, one
# number. Every simplification PR reports before -> after with it
# (ROADMAP aim 2); comments and blank lines count, so stripping them is
# not a way to move the number.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 | xargs -0 cat | wc -l
