#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$here" && go build -o "$build/robuststore-bench" .) >&2

cd "$root"
exec "$build/robuststore-bench" "$@"
