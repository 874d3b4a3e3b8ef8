#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash mkperf/run.sh --workload olsr-grid --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, temporaries) stays under
# .bench_build/ in the checkout. Without the MANETKit sources beside this
# directory the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOTELEMETRY=off GOWORK=off
go -C "$root/mkperf" build -o "$out/mkperf" .
exec "$out/mkperf" "$@"
