#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload stress --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# traced runs' spans stay under .bench_build/ there.
set -euo pipefail

if [[ ! -f go.mod || ! -d must || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a dwst checkout (go.mod, must/, internal/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
