#!/usr/bin/env bash
# Builds the overlay benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash overlaybench/run.sh --workload join --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, the relay WAL and audit
# journal of each run) stays under .bench_build/ in the current
# directory. Build output goes to stderr, so standard output carries only
# the benchmark's lines, the last one being its JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Offline, self-contained build: no module downloads, no toolchain
# switch, caches and the go command's own config and telemetry files
# inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/overlaybench" && go build -o "$out/overlaybench" .) >&2
exec "$out/overlaybench" --workdir "$out/work" "$@"
