#!/usr/bin/env bash
# Builds the simulation benchmark from this checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash simbench/run.sh --workload batch-compute --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, binary) stays under
# .bench_build/ in the current directory. Build output goes to standard
# error, so the benchmark's JSON result stays the last line of standard
# output. A failed build exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build/simbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$src" && go build -o "$out/simbench" .) >&2
exec "$out/simbench" "$@"
