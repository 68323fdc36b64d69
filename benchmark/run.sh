#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it from the
# checkout root. Everything the build writes (Go build cache, temp files,
# the binary) stays inside the checkout; nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" GOFLAGS=-modcacherw
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/slimgraph-benchmark" .
cd "$root"
exec "$build/slimgraph-benchmark" "$@"
