#!/usr/bin/env bash
# Builds the benchmark and thermod from the checkout's sources into
# .bench_build/ (build cache included, so nothing is written outside the
# checkout), then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload timing-grid --seed 0 --seconds 20 --trace 0
#
# Flags are passed through to the benchmark; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/spans" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/thermod" ./cmd/thermod
exec "$out/perfbench" --thermod "$out/thermod" --spans "$out/spans" "$@"
