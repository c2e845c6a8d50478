#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload kv_cluster --seed 1 --seconds 10 --trace 0
#
# Everything the build writes, the Go build cache included, stays under
# .bench_build/ at the repository root. The build is incremental, so only
# the first run in a checkout pays for compiling. Build output goes to
# standard error: the last line of standard output is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry and env files
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C "$root/benchmark" build -o "$build/prdma-benchmark" . >&2
exec "$build/prdma-benchmark" "$@"
