#!/usr/bin/env bash
# Builds the benchmark and the programs it drives (cfa, manetsim) from the
# checkout it is run in, then runs the benchmark. Run it from the root of
# the checkout:
#
#   bash bench/run.sh --workload serve-batch --seed 1 --seconds 20 --trace 0
#
# Builds, the Go build cache, fixtures and spans all stay under
# .bench_build/ in the checkout; the toolchain never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/bench" && go build -o "$out/bin/" . crossfeature/cmd/cfa crossfeature/cmd/manetsim)
exec "$out/bin/bench" "$@"
