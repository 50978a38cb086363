#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root. Every file the
# build and the run write stays under .bench_build in that directory.
#
#   bash clearbench/run.sh --workload campaigns-packed --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd "$root/clearbench" && go build -o "$out/clearbench" .)
exec "$out/clearbench" "$@"
