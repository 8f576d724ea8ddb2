#!/usr/bin/env bash
# Builds dscweaverd and the benchmark from this checkout's sources, then
# runs one benchmark invocation. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload weave-cold --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dscweaverd || ! -f perfbench/go.mod ]]; then
    echo "perfbench: run from the root of a dscweaver checkout" >&2
    exit 2
fi
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/work"
# The go command also writes telemetry under the user config directory;
# XDG_CONFIG_HOME keeps that inside the checkout as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/dscweaverd" ./cmd/dscweaverd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/dscweaverd" -work "$out/work" "$@"
