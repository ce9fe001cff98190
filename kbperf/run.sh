#!/usr/bin/env bash
# Builds the kbperf benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash kbperf/run.sh --workload query-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run files stay under .bench_build/
# in the checkout; the toolchain is never downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/kbperf"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd kbperf && go build -o "$out/kbperf" .)
exec "$out/kbperf" --out "$out" "$@"
