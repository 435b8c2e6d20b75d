#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments:
#
#   bash surferbench/run.sh --workload social-pagerank-prop --seed 1 --seconds 20 --trace 0
#
# Build products (binary and Go build cache) go to .bench_build/ at the
# checkout root, so nothing is read or written outside the checkout except
# the Go toolchain itself.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C "$root/surferbench" build -o "$out/surferbench" .
cd "$root"
exec "$out/surferbench" "$@"
