#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it
# with the given arguments (see main.go for the flags). Every build and
# cache file stays under .bench_build/ in the checkout root; the benchmark
# module resolves vodplace from the parent directory, so outside a full
# checkout the build fails and the script exits nonzero.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout as well.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
