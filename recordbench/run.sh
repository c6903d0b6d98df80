#!/usr/bin/env bash
# Builds the RECORD benchmark and cmd/recordd from the checkout it sits in,
# then runs the benchmark with the given arguments:
#
#   bash recordbench/run.sh --workload fig2-compile --seed 1 --seconds 20 --trace 0
#   bash recordbench/run.sh --selftest
#   bash recordbench/run.sh --compare before.txt after.txt
#
# Run it from the root of the checkout.  Every build product, Go cache and
# temporary file lands in .bench_build/ there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

# With telemetry on (Go's default mode is "local") every go command in a
# fresh config directory forks a detached sidecar that outlives it.  The mode
# file is the only switch the go command reads, so turn it off before any go
# command runs.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$build/bin/recordd" ./cmd/recordd) >&2
(cd "$here" && go build -o "$build/bin/recordbench" .) >&2

exec "$build/bin/recordbench" -recordd "$build/bin/recordd" -workdir "$build/tmp" -root "$root" "$@"
