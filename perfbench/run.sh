#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload uts-64 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and the run reports all
# stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
