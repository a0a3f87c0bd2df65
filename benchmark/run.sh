#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through, e.g.
#
#   bash benchmark/run.sh -workload serve-1k -seed 3 -seconds 30 -trace 0
#   bash benchmark/run.sh compare .bench_out/a.json .bench_out/b.json
#
# Everything the build and the run write stays inside the repository:
# the Go build cache, the toolchain's own state and the binary under
# .bench_build, results under .bench_out.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
