#!/usr/bin/env bash
# Build ppmload from source inside the checkout and run it. This is
# BENCHMARK.json's command: run from the root of a checkout as
#
#   bash cmd/ppmload/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write — the Go build cache, temporary
# files, the toolchain's own config and counters, the binary, the span
# file — goes under .bench_build/ in the checkout; nothing is fetched
# (the module is vendored). Where there is no module to build (a
# directory holding only BENCHMARK.json and cmd/ppmload), it exits 2
# without printing a result.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/cmd/ppmload/main.go" ] || [ ! -d "$root/internal" ]; then
	echo "ppmload: run from the root of a full checkout (no go.mod, cmd/ppmload or internal/ here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=vendor
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -o "$build/ppmload" ./cmd/ppmload
exec "$build/ppmload" "$@"
