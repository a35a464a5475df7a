#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload fig6-flow --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build, relative to the checkout root):
# the Go build cache, the binary, traces and sampling profiles.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/out"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS="-buildvcs=false" GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/out" "$@"
