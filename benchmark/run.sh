#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash benchmark/run.sh --workload fuzz-exec --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build): the Go build
# and module caches, the binary, checkpoints and trace files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/compdiff-bench" .)
exec "$build/compdiff-bench" -workdir "$build" "$@"
