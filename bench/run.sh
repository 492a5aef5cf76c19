#!/usr/bin/env bash
# Builds bsd and the benchmark inside the checkout and runs the benchmark.
# Everything the go tool writes (build cache, temporary files, binaries)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/run"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root" build -o "$build/bsd" ./cmd/bsd
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" -bsd "$build/bsd" -dir "$build/run" "$@"
