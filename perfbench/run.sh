#!/usr/bin/env bash
# Builds pmaxentd and the benchmark from this checkout, then runs one
# benchmark invocation from the repository root:
#
#   bash perfbench/run.sh --workload paper-run --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# result and span files, the daemon's temporary history journal) stays
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
go build -o "$build/bin/pmaxentd" ./cmd/pmaxentd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -pmaxentd "$build/bin/pmaxentd" -out "$build/out" "$@"
