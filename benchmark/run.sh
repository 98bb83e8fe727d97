#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run leave behind goes under .bench_build in the checkout: the Go
# build cache, the Go temp dir, the binary and the registry's catalog
# state. Arguments are passed through to the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
