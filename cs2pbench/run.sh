#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#   bash cs2pbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
# Every build and cache file stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
	GOENV=off GOWORK=off
(cd "$root/cs2pbench" && go build -o "$out/cs2pbench" .)
exec "$out/cs2pbench" "$@"
