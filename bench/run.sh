#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it with the given arguments. Everything the Go toolchain
# writes (build cache, module path, its own config) is kept inside the
# checkout too, so a run reads and writes nothing outside it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/go-tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/go-tmp"
export GOPATH="$build/go-path"
export GOENV="$build/go-env"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

go -C "$here" build -o "$build/ps3bench" .
exec "$build/ps3bench" "$@"
