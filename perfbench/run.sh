#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload web-open --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build cache, the binary, the
# journals and the trace files all stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build). The last line of standard
# output is the JSON result; the build's own output goes to standard error.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) 1>&2
exec "$build/perfbench" --workdir "$build" "$@"
