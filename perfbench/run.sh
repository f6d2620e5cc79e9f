#!/usr/bin/env bash
# Builds the methodology benchmark from source and runs one workload.
# Run from the repository root; every argument is passed to the binary:
#
#   bash perfbench/run.sh --workload gaussian --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache, scratch directories and trace files
# all live under .bench_build/perfbench in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --work-dir "$out" "$@"
