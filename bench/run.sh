#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there.  Everything the build and the run write — the
# Go build cache, the go tool's own counters, the binary, the WAL files of
# the file-backed workloads — stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/logicallog-bench" .)
cd "$root"
exec "$build/logicallog-bench" -dir "$build/tmp" -spec "$root/BENCHMARK.json" "$@"
