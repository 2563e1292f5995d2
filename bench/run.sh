#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash bench/run.sh [flags]. Build outputs,
# the Go build cache, the go command's own configuration and telemetry, and
# the clusters' scratch warehouses all stay under .bench_build/ in the
# working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
