#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload nas-mpi --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ at the root of the checkout, so a run writes nothing
# outside it. The build fails, and the script exits non-zero, when the
# simulator's sources are not next to the benchmark.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$bench_dir" build -o "$out/smibench-e2e" .
exec "$out/smibench-e2e" "$@"
