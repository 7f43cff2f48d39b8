#!/usr/bin/env bash
# Builds the lpbench driver from this checkout's sources and runs it
# from the checkout root with the given arguments, e.g.
#   bash lpbench/run.sh --workload fig7-cold --seed 1 --seconds 30 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd lpbench && go build ${LPBENCH_TAGS:+-tags "$LPBENCH_TAGS"} -o "$out/lpbench${LPBENCH_TAGS:+-$LPBENCH_TAGS}" .)
exec "$out/lpbench${LPBENCH_TAGS:+-$LPBENCH_TAGS}" "$@"
