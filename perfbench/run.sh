#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload light-mix --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the Go
# tool's telemetry counters, the benchmark's stores and its trace files all
# stay under .bench_build there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
