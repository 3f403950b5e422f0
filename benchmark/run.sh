#!/bin/sh
# Builds the harness from source and runs it with the given arguments from
# the repository root. Everything the build writes (the binary, the Go build
# cache, temporary files, the toolchain's counters) stays in the checkout,
# under .bench_build/. The first call in a checkout pays for the build.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -C "$root/benchmark" -o "$build/anonbench" .
cd "$root"
exec "$build/anonbench" "$@"
