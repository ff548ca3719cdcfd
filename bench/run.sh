#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, module
# cache, telemetry) is kept under .bench_build/ at the checkout root, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$build/tflux-bench" .)
exec "$build/tflux-bench" "$@"
