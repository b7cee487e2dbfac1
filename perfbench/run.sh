#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload lab-synthetic --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, scratch data and the
# trace ledgers.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
