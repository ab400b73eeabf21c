#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds swload from the checkout's own
# source and runs it with Go's build cache and temporary files under
# .bench_build/, so a run reads and writes nothing outside the checkout.
# Arguments go to swload unchanged; by hand, `go run ./bench/swload` does
# the same with the user's own Go cache.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/swserve ] || [ ! -d bench/swload ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod, cmd/swserve and bench/swload are needed)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bin/swload" ./bench/swload
exec "$build/bin/swload" "$@"
