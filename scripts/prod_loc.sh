#!/usr/bin/env bash
# prod_loc.sh — production Go line count, the size metric ROADMAP tracks.
#
# Counts every line of every non-test .go file in the module, excluding the
# benchmark harness (tnbbench/) and its build directory (.bench_build/).
# Code moved into _test.go files leaves the count, so report such moves
# separately from deletions.
#
# Usage:
#   scripts/prod_loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' -not -name '*_test.go' -not -path './tnbbench/*' -not -path './.bench_build/*' | xargs cat | wc -l
