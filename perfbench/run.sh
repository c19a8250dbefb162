#!/usr/bin/env bash
# Builds the benchmark and ratsserve from this checkout, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload litmus-catalog --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/,
# including the go command's cache, temporary files and telemetry
# settings (XDG_CONFIG_HOME).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
# With telemetry on (the default, "local"), a go command may start a
# detached upload process that outlives it. Turning telemetry off first
# keeps every process this script starts a child it waits for.
go telemetry off >&2
go build -o "$out/ratsserve" ./cmd/ratsserve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -serve-bin "$out/ratsserve" -out "$out" "$@"
