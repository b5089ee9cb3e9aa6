#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json): builds the harness from
# this checkout into the git-ignored .bench_build/ and runs it from the
# checkout root. Everything the Go toolchain writes stays under .bench_build/,
# and nothing is fetched: the harness imports only this repository and the
# standard library.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bin/harness" .)
cd "$root"
exec "$build/bin/harness" "$@"
