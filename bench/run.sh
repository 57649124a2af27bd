#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run it from the repository root, for example
#
#   bash bench/run.sh --workload build-vdn4 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the module cache and the binary all live in
# .bench_build/ under the current directory, so a run writes nothing
# outside the checkout. Outside a checkout (no repository module next to
# bench/) the build fails and the script exits nonzero without a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
