#!/usr/bin/env bash
# Paired comparison of a parent commit and the working tree on one benchmark
# workload: bench/README.md's "Comparing a parent and a change", scripted.
#
#   scripts/benchpair.sh PARENT WORKLOAD PAIRS FIRST_SEED
#
# It builds PARENT's bench/ twice — against PARENT, and against a copy of the
# working tree (tracked and untracked files as they are on disk) with PARENT's
# bench/ copied over it — under .bench_build/pair. It then runs PAIRS pairs of
# `-workload WORKLOAD -trace 0` for BENCHMARK.json's run_seconds, pair i with
# seed FIRST_SEED+i, the parent first in even pairs and the change first in odd
# ones, and prints for every end-to-end metric each side's median and
# quartiles, the pairs the change won (ties count for neither) and the pairs
# whose two values were identical, each followed by every pair's two values
# in seed order. A run that fails stops the script.
#
# It writes nothing under bench/ and changes no bound. Needs git and jq.
set -eu
if [ $# -ne 4 ]; then
    echo "usage: scripts/benchpair.sh PARENT WORKLOAD PAIRS FIRST_SEED" >&2
    exit 2
fi
parent=$1 workload=$2 pairs=$3 seed0=$4
cd "$(dirname "$0")/.."
root=$PWD
command -v jq >/dev/null || { echo "benchpair: needs jq" >&2; exit 2; }
rev=$(git rev-parse --verify "$parent^{commit}")
seconds=$(jq -r '.run_seconds' BENCHMARK.json)

work="$root/.bench_build/pair"
rm -rf "$work"
mkdir -p "$work/src/parent" "$work/src/change" "$work/tmp" "$work/out"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$work/tmp"
git archive "$rev" | tar -x -C "$work/src/parent"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar --null -T - -cf - | tar -xf - -C "$work/src/change"
rm -rf "$work/src/change/bench"
cp -R "$work/src/parent/bench" "$work/src/change/bench"
for side in parent change; do
    (cd "$work/src/$side" && go build -o "$work/$side" ./bench)
done
rm -rf "$work/src"

# run SIDE PAIR: one run, its contract line (the last stdout line) kept.
run() {
    local seed=$((seed0 + $2))
    if ! (cd "$work" && "./$1" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 \
        >"out/$1-$2.log" 2>"out/$1-$2.err"); then
        echo "benchpair: $1 failed on seed $seed; see $work/out/$1-$2.err" >&2
        exit 1
    fi
    tail -n 1 "$work/out/$1-$2.log" >"$work/out/$1-$2.json"
}
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
    echo "benchpair: pair $((i + 1))/$pairs done (seed $((seed0 + i)))" >&2
done

echo "$workload: $pairs pairs, seeds $seed0-$((seed0 + pairs - 1)), $seconds s, parent ${rev:0:7} against the working tree"
printf '%-20s %36s %36s %6s %6s\n' metric "parent median [q1, q3]" "change median [q1, q3]" wins same
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | while read -r metric better; do
    for ((i = 0; i < pairs; i++)); do
        for side in parent change; do
            jq -r --arg m "$metric" '.metrics[$m].value' "$work/out/$side-$i.json"
        done | paste -sd ' '
    done | awk -v metric="$metric" -v better="$better" '
        # quantile: linear interpolation between the order statistics.
        function quantile(x, n, p,   h, lo) {
            h = (n - 1) * p; lo = int(h)
            return lo + 1 < n ? x[lo] + (h - lo) * (x[lo + 1] - x[lo]) : x[lo]
        }
        function sortn(x, n,   i, j, v) {
            for (i = 1; i < n; i++) { v = x[i]; for (j = i - 1; j >= 0 && x[j] > v; j--) x[j + 1] = x[j]; x[j + 1] = v }
        }
        BEGIN { n = 0 }
        {
            a[n] = $1; b[n] = $2; n++
            pairs = pairs sprintf(" %.5g→%.5g", $1, $2)
            if ($1 == $2) same++
            else if ((better == "lower") == ($2 < $1)) wins++
        }
        END {
            sortn(a, n); sortn(b, n)
            printf "%-20s %10.6g [%10.6g, %10.6g] %10.6g [%10.6g, %10.6g] %3d/%-2d %3d/%-2d\n", metric,
                quantile(a, n, .5), quantile(a, n, .25), quantile(a, n, .75),
                quantile(b, n, .5), quantile(b, n, .25), quantile(b, n, .75), wins, n, same, n
            print "  pairs, parent→change:" pairs
        }'
done
for side in parent change; do
    cat "$work/out/$side"-*.json | jq -s -r --arg s "$side" '"\($s): \(map(.attempted) | add) operations, \(map(.failed) | add) failed"'
done
