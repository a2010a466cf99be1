#!/usr/bin/env bash
# Builds the grid benchmark from the checkout's sources and runs it:
#
#   bash benchgrid/run.sh --workload fig5-graph --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under ${CARGO_TARGET_DIR:-.bench_build}: the Go build cache, the binary,
# the per-run result files and the span dumps.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
mkdir -p "$GOTMPDIR"

(cd "$root/benchgrid" && go build -o "$out/benchgrid" .)
exec "$out/benchgrid" -outdir "$out" "$@"
