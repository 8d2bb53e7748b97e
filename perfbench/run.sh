#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload cold-hybrid --seed 1 --seconds 26 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR, by default
# .bench_build): the Go build cache, temporary files, the benchmark binary,
# the temporary swiftd stores and the trace files.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build" "$@"
