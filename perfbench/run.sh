#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it with
# the given arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload recovery --seed 1 --seconds 15 --trace 0
#
# Every build product and the Go build cache stay under .bench_build/ in the
# working directory, so nothing outside the tree is read or written beyond
# the Go toolchain itself.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
