#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and what
# the run leaves behind go to .bench_build under the working directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
