#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Everything the build writes stays under .bench_build/ in
# the directory it is run from (the repository root).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/sobench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
(cd "$root/sobench" && go build -o "$out/sobench" .)
exec "$out/sobench" "$@"
