#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash e2ebench/run.sh --workload job|deep|serve --seed N --seconds S --trace 0|1
# Run from the repository root. The Go build cache and the binary stay in
# .bench_build/ under the root, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
