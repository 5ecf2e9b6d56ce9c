#!/usr/bin/env bash
# Entry point of the benchmark of record (see README.md in this directory).
# Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --all [--runs K] [--seed N] [--out FILE]
#   bash benchmark/run.sh --compare A.json B.json
#
# Everything the Go toolchain writes (build cache, temp files, telemetry)
# is kept under .bench_build/ in the checkout, so a run touches nothing
# outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local

# Diagnostics of the build go to stderr: stdout carries only results.
go build -C "$root/benchmark" -o "$build/bin/vsync-benchmark" . >&2
exec "$build/bin/vsync-benchmark" "$@"
