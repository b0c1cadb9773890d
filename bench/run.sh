#!/usr/bin/env bash
# Builds lukebench from the checkout this is run in and runs it with the
# given arguments, from the checkout's root:
#
#   bash bench/run.sh --workload warm-ref --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache, temporary files and tool configuration
# all live under .bench_build in the checkout, so the run writes nothing
# outside it and reads nothing outside it but the Go toolchain. The first
# run builds from scratch.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/lukebench" ./cmd/lukebench)
exec "$out/lukebench" "$@"
