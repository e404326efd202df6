#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; every
# argument passes through to the program:
#
#   bash perfbench/run.sh --workload fleet-survey --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ at the root
# of the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root holds no androne source tree to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
