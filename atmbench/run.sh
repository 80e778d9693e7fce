#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout of the repository:
#
#   bash atmbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, temporary provision caches and trace
# files all live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/atmbench" && go build -o "$build/atmbench" .)
exec "$build/atmbench" --scratch "$build" "$@"
