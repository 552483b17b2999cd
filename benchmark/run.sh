#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the checkout's root.
# The toolchain's own files (build cache, module cache, telemetry) go under
# .bench_build with the binary, so a run writes only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/forkbase-bench" .) >&2
exec "$build/forkbase-bench" -root "$root" "$@"
