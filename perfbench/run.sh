#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload netsim-faultstorm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product (the Go build cache
# included) stays under the build directory inside the checkout:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/perfbench
mkdir -p "$out/tmp"

# The go command's user configuration (and its local telemetry counters)
# live under XDG_CONFIG_HOME; keep them inside the build directory too.
export XDG_CONFIG_HOME=$out/config
export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off
export PERFBENCH_OUT=$out

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
