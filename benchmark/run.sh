#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#   bash benchmark/run.sh --workload star-dqn --seed 1 --seconds 20 --trace 0
# Everything the build leaves behind stays under .bench_build in the
# checkout: the binary, the Go build cache and the toolchain's own
# state (module cache, telemetry).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
	go build -C "$root/benchmark" -o "$build/iswitch-benchmark" .
exec "$build/iswitch-benchmark" "$@"
