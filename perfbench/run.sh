#!/usr/bin/env bash
# Builds the benchmark and zipserverd from this checkout's sources, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, the Go build cache, the Go
# tool's own state) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/zipserverd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a full repository checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false" GOTELEMETRY=off

go build -o "$out/bin/zipserverd" ./cmd/zipserverd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --server "$out/bin/zipserverd" "$@"
