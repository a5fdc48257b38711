#!/usr/bin/env bash
# Builds the semperf benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash semperf/run.sh --workload mail --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# fleet's journals and the span files all stay under .bench_build/ there.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
(cd "$root/semperf" && go build -o "$out/semperf" .) >&2
exec "$out/semperf" --workdir "$out/semperf-run" "$@"
