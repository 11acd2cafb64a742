#!/usr/bin/env bash
# Builds the benchmark and the hsched server from the checkout's source,
# then runs the benchmark with the arguments given, from the checkout root:
#
#   bash perfbench/run.sh --workload repeat --seed 1 --seconds 10 --trace 0
#
# Every file the build writes (Go build cache, module cache, toolchain
# config and telemetry) stays under .bench_build/perfbench, so the run
# reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/bin/" . hsched/cmd/hsched
exec "$out/bin/perfbench" -hsched "$out/bin/hsched" -trace-dir "$out/trace" "$@"
