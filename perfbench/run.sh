#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it. From the
# repository root:
#
#   bash perfbench/run.sh --workload olap --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the go command's own state (its
# telemetry counters live under XDG_CONFIG_HOME) and the run artifacts
# (report, spans, CPU profiles) stay under .bench_build/ in the current
# directory. Without the simulator's sources next to perfbench/ the build
# fails and so does this script.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/artifacts" "$@"
