#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload exec-square --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# The Go build cache, temporary files and the binary stay under
# perfbench/.build, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/perfbench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go -C perfbench build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
