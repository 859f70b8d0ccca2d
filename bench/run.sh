#!/usr/bin/env bash
# Build the benchmark once, inside the checkout, and run it.
#
#   bench/run.sh                                  the full protocol: every workload untraced,
#                                                 then traced; tables, one JSON object, span
#                                                 files and results.json under .bench_out/
#   bench/run.sh -check                           the untraced set twice, compared by the bounds
#   bench/run.sh -workload W -seed N -seconds S -trace 0|1
#                                                 one run, as BENCHMARK.json's driver calls it
#
# Exits non-zero when the tree does not build, a metric is missing, or the
# correctness oracle rejects a single operation.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
    echo "bench/run.sh: no go.mod here; the benchmark builds the repository it measures" >&2
    exit 2
fi
# Everything the build writes stays under the checkout.
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/highrpm-bench" ./bench
if [ $# -eq 0 ]; then
    set -- -trace 1
fi
exec "$build/highrpm-bench" "$@"
