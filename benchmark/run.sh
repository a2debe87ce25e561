#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it.
#
#   bash benchmark/run.sh --workload data-small --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes — build cache, temporary files,
# its own configuration — is kept under .bench_build/ in the checkout,
# so a run reads and writes nothing outside it. The binary is rebuilt
# only when the sources changed (the build cache decides).
#
# The go command is kept from starting its telemetry child (a daemonised
# `go` that outlives the build): the mode file under the private config
# directory says "off" before go is first invoked. In a directory that
# holds the benchmark but not the module, nothing is started at all.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: $root is not a checkout of the trio module (no go.mod); nothing to measure" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

go build -o "$out/trio-benchmark" ./benchmark
exec "$out/trio-benchmark" "$@"
