#!/usr/bin/env bash
# Builds bench/ into .bench_build/ under the current directory (the root of a
# checkout) and runs it with the given arguments. Everything the Go toolchain
# writes — build cache, temp files, the binary — stays inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
