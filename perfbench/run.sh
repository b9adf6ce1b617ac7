#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload flash-fbs-r256 --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build and run artifact (Go
# build cache, temp dirs, the binary, traces) stays under .bench_build/, and
# the module proxy is off: the benchmark builds offline from source only.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
