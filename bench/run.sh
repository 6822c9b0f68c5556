#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# flags. Run it from the root of a checkout:
#
#   bash bench/run.sh -workload dse-cold -seed 1 -seconds 15 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, and the
# benchmark's scratch directories. Outside a checkout of the module the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
# The module has no dependencies: never fetch a toolchain or a module.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -o "$build/vtrain-bench" ./bench
exec "$build/vtrain-bench" "$@"
