#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments; see perfbench/NOTES.md. Run from the repository root:
#
#   bash perfbench/run.sh --workload gateway --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays
# under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
