#!/usr/bin/env bash
# Builds the harness from source into <checkout>/.bench_build and runs it
# from the checkout root. Every file the Go toolchain writes (build cache,
# temp files, telemetry) is kept inside .bench_build, so a run reads and
# writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$here" && go build -o "$build/ccsp-benchmark" .) >&2
cd "$root"
exec "$build/ccsp-benchmark" "$@"
