#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-pushes --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the binary, the loopback workload's decision logs) stays
# under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

bin="$out/perfbench"
tmp="$out/perfbench.$$"
(cd "$root/perfbench" && go build -o "$tmp" .)
mv -f "$tmp" "$bin"
exec "$bin" "$@"
