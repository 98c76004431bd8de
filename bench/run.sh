#!/usr/bin/env bash
# Entry point of the repo benchmark (BENCHMARK.json "command"): builds the
# bench module from the checkout this script sits in, then runs it with the
# arguments given, e.g.
#
#   bash bench/run.sh --workload wire-open --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: Go's build cache, its temporary files, the binary,
# and the span files of traced runs (TMPDIR). The first build in a fresh
# checkout compiles the standard library too; later ones are cache hits.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -C "$here" -o "$build/csds-bench" .
exec "$build/csds-bench" "$@"
