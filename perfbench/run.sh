#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sparse-wide-tcp --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build and module caches, the go command's
# config and telemetry, temporary files, the binary) stays under
# .bench_build/ in the checkout. The build fails, and the script exits
# non-zero without printing a result, when the repository's sources are not
# next to perfbench/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
