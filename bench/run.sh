#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload ingest-sparse --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# run's scratch stores all live under .bench_build/ in that root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
  GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$here" && go build -o "$build/blapbench" .)
exec "$build/blapbench" "$@"
