#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the repository
# root. Every build artefact (compiler cache, module cache, the binary)
# stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload paper-quick --seed 7 --seconds 25 --trace 0
#   bash perfbench/run.sh --workload all --trace 1      # every metric, every workload
#   bash perfbench/run.sh compare old.jsonl new.jsonl   # A/B two result sets
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off

(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
