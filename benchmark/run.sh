#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload scan_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and the data directories under .bench_build/, the
# trace files under benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
