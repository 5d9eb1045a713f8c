#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash hhbench/run.sh --workload campaign --seed 7 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, traces, profiles, digests) stays under
# .bench_build in the working directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd hhbench && go build -o "$build/hhbench" .)
exec "$build/hhbench" -out "$build/hhbench-out" "$@"
