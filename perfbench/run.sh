#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload figure3 --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, Go's
# configuration and telemetry directory, the binary, span files) stays
# under .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
