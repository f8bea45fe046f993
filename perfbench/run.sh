#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The Go toolchain's cache, temp
# files and home directory all live under .bench_build/, so a run reads
# and writes nothing outside the checkout but the toolchain itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/home/gomod" \
GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	go build -C "$root/perfbench" -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
