#!/usr/bin/env bash
# Builds the benchmark (a module of its own, benchmark/go.mod) inside the
# checkout and runs it with the given arguments.  The Go build cache, GOPATH
# and the toolchain's per-user files are pointed under .bench_build/, so
# nothing is read or written outside the checkout, and nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/whilepar-benchmark" .
exec "$build/whilepar-benchmark" "$@"
