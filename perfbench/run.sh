#!/usr/bin/env bash
# Builds `crashprone` and the benchmark from this checkout into .bench_build
# and runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload score-batch --seed 1 --seconds 10 --trace 0
#
# Every build product and cache stays under .bench_build.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/crashprone" ./cmd/crashprone
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
