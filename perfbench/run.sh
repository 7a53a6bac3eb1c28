#!/usr/bin/env bash
# Builds chiller-node and the benchmark from this checkout, then runs
# one workload:
#
#   bash perfbench/run.sh --workload tpcc-tcp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (Go build cache included).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/bin/chiller-node" ./cmd/chiller-node
(cd perfbench && go build -o "$build/bin/perfbench" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/bin/perfbench" --node-bin "$build/bin/chiller-node" --out "$build/perfbench" --commit "$commit" "$@"
