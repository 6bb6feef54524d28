#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/ and
# benchmark/out/ of the working directory, which must be the checkout's
# root (BENCHMARK.json's bounds and the repository's go.mod are found
# from there).
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
# The go command keeps its telemetry counters under the user's config
# directory; this keeps them inside the checkout as well.
export XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/educebench" ./cmd/educebench
exec "$build/educebench" "$@"
