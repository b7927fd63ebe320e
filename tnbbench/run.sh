#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash tnbbench/run.sh --workload rx-collide-sf8 --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd tnbbench && go build -o "$out/tnbbench" .) >&2
exec "$out/tnbbench" "$@"
