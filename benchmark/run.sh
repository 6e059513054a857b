#!/usr/bin/env bash
# The command BENCHMARK.json names. It is run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain and the benchmark write stays inside the
# checkout, under .bench_build: the build cache, the toolchain's temporary
# and configuration directories, the compiled daemon, the generated
# database, snapshot directories and the span files.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/cqacdbd ]; then
	echo "benchmark: no go.mod and cmd/cqacdbd here: run from the root of a checkout that holds the program" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOTOOLCHAIN=local
# With a fresh configuration directory the go command would start a
# telemetry child on its first call of the day, and that child outlives
# the command. Telemetry off: the toolchain starts nothing the benchmark
# does not wait for.
echo off >"$build/config/go/telemetry/mode"
exec go run ./benchmark "$@"
