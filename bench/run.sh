#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build/
# (build cache included, so nothing outside the checkout is written) and
# runs it from the checkout root with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
# The toolchain's own counters would otherwise land in the user's
# configuration directory.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$root/.bench_build/bench" .)
exec "$root/.bench_build/bench" "$@"
