#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments: the command BENCHMARK.json names. `go run ./bench` does the
# same for a person at a terminal, but keeps its build cache in $HOME;
# this keeps every file the build writes under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/legion-bench" ./bench
exec "$build/legion-bench" "$@"
