#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside the
# checkout: the Go build cache and the binary live in .bench_build/, results
# and traces in bench/out/. All arguments go to the benchmark (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$root/.bench_build/fluentps-bench" .
exec "$root/.bench_build/fluentps-bench" "$@"
