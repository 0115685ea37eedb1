#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary and, for traced
# runs, the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out"
# The go command keeps local telemetry under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/traces" "$@"
