#!/usr/bin/env bash
# Builds the solver benchmark from source and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload smallfront --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# spill files) goes under $CARGO_TARGET_DIR, or .bench_build when unset.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (solver sources not found in $root)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out"

# Keep the toolchain's caches and configuration inside the build
# directory, and never fetch modules or toolchains.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spill "$out/spill" "$@"
