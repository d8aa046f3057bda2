#!/usr/bin/env bash
# Builds the perfbench program from source and runs it with the given
# arguments, from the root of a commsched checkout:
#
#   bash perfbench/run.sh --workload figure-sweep --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, binaries, scratch state) stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOENV=off
export CGO_ENABLED=0
mkdir -p "$build/bin"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
