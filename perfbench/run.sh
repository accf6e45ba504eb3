#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_http --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache and temporary files stay under
# .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
