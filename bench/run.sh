#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload compile --seed 1 --seconds 55 --trace 0
#   bash bench/run.sh compare A.jsonl -- B.jsonl
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) lands under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/merced-bench" .)
exec "$out/merced-bench" "$@"
