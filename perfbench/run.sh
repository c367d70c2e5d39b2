#!/usr/bin/env bash
# Builds the benchmark and the profitlb server from this checkout's
# sources, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-day --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh                      # every workload, untraced and traced
#   bash perfbench/run.sh --steadiness
#   bash perfbench/run.sh --reference          # the README's reference figures
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binaries and the scenario files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0
go build -C "$root/perfbench" -o "$out/perfbench" .
go build -C "$root" -o "$out/profitlb" ./cmd/profitlb
exec "$out/perfbench" -serve-bin "$out/profitlb" -work "$out" "$@"
