#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload report_resident --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and the benchmark's scratch files all live in
# .bench_build at the root, so a run reads and writes nothing outside the
# checkout. The build fails (and nothing is run) when the checkout lacks the
# repository's own sources.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$build/icares-bench" .)
exec "$build/icares-bench" -workdir "$build/work" "$@"
