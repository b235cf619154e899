#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes — the binary, Go's build cache
# and its temporary files — stays under .bench_build in the checkout, so a
# run touches nothing outside it. The first build in a checkout compiles the
# standard library into that cache; later ones are a sub-second no-op.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
