#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload resolve-knnj --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache, the binary and every
# file a run writes stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0 XDG_CONFIG_HOME="$out/config"
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
