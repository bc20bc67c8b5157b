#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
#
# The build cache, temporaries and the binary stay under .bench_build/,
# so the run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
