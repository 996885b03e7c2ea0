#!/usr/bin/env bash
# Entry point of the repository benchmark. Run from the checkout root:
#
#   bash relbench/run.sh --workload grar-sweep --seed 1 --seconds 30 --trace 0
#
# Builds the benchmark program and the rar binary from this checkout into
# .bench_build/ (Go build cache included, so nothing is written outside
# the checkout), then runs the benchmark program with the given arguments. The
# last line of standard output is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$root/relbench" -o "$out/relbench" . >&2
go build -o "$out/rar" ./cmd/rar >&2
exec "$out/relbench" -root "$root" "$@"
