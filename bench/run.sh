#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout
# and runs it with the given arguments. BENCHMARK.json's command is
# `bash bench/run.sh`; plain `go run ./bench` does the same with the user's
# own build cache.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep the compiler's cache and temporary files inside the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
