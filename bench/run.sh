#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing every
# argument through to it:
#
#   bash bench/run.sh                       every workload, both passes
#   bash bench/run.sh --workload pipe.small --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh --twice [args]        two runs of the same code, then
#                                           their differences against the bounds
#
# Everything the build and the run write stays under bench/out/.
set -euo pipefail

bench="$(cd "$(dirname "$0")" && pwd)"
out="$bench/out"
mkdir -p "$out/tmp"

# Keep the toolchain's cache, scratch and configuration inside bench/out/.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local
(cd "$bench" && go build -o "$out/stapbench11" .)

# Same processor count and collector setting on every run.
export GOMAXPROCS="$(nproc)"
unset GOGC

cd "$bench/.."
if [ "${1:-}" = "--twice" ]; then
	shift
	"$out/stapbench11" -out "$out/run1" "$@"
	"$out/stapbench11" -out "$out/run2" "$@"
	exec "$out/stapbench11" -agree "$out/run1/results.json,$out/run2/results.json"
fi
exec "$out/stapbench11" "$@"
