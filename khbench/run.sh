#!/usr/bin/env bash
# Builds the benchmark and the khserve daemon from this checkout's sources,
# then runs one workload:
#
#   bash khbench/run.sh --workload decompose-road --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, edge
# lists, span files) stays under .bench_build/khbench in the checkout.
# Go telemetry is turned off in that private config directory: otherwise
# the go command forks a detached telemetry process that outlives the run.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/khserve" ]]; then
	echo "khbench: $root holds no repro module to build (go.mod, cmd/khserve)" >&2
	exit 1
fi
out="$root/.bench_build/khbench"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root" && go build -o "$out/bin/khserve" ./cmd/khserve)
(cd "$root/khbench" && go build -o "$out/bin/khbench" .)
cd "$root"
exec "$out/bin/khbench" -khserve "$out/bin/khserve" -out "$out" "$@"
