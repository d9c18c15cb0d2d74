#!/usr/bin/env bash
# Builds crowdmapd and the benchmark from this checkout, then runs one
# benchmark run. Run from the repository root:
#
#   bash crowdbench/run.sh --workload grow --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# .bench_build (Go caches and binaries), .bench_cache (generated inputs)
# and .bench_run (data directories, daemon logs, spans).
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/crowdmapd ]]; then
	echo "crowdbench: run from the root of a CrowdMap checkout (no go.mod or cmd/crowdmapd in $root)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# With telemetry on, every go command may start a detached sidecar process
# that outlives this script. Turning it off is recorded under
# $XDG_CONFIG_HOME and starts no sidecar itself.
go telemetry off >&2
go build -o "$build/crowdmapd" ./cmd/crowdmapd >&2
(cd crowdbench && go build -o "$build/crowdbench" .) >&2
exec "$build/crowdbench" -daemon "$build/crowdmapd" -work "$root/.bench_run" -cache "$root/.bench_cache" "$@"
