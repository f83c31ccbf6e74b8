#!/usr/bin/env bash
# Builds fexserve, fexserver and the benchmark from this checkout's source,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload detect-offline --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root of the checkout (Go build cache included), so repeated runs reuse
# the cache and nothing outside the checkout is touched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/fexserve || ! -d cmd/fexserver ]]; then
	echo "perfbench: $root is not a FexIoT checkout (go.mod, cmd/fexserve, cmd/fexserver missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/bin/" ./cmd/fexserve ./cmd/fexserver
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -out "$build" "$@"
