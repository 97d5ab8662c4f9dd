#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given flags. Everything it writes stays inside the checkout:
# build outputs and the Go caches under .bench_build, traces under
# benchmark/out. Run it from the repository root:
#
#   bash benchmark/run.sh --workload wire_ycsb_a --seed 1 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/famebench" .) >&2
cd "$root"
exec "$build/famebench" "$@"
