#!/usr/bin/env bash
# Builds tpbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# The build cache, module cache, Go configuration, temporary files and
# the binary stay under .bench_build/ in the current directory, and the
# build never reaches the network. It needs the module at the repository
# root; without it the build fails and nothing runs.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go -C bench build -o "$out/tpbench" ./tpbench
exec "$out/tpbench" "$@"
