#!/usr/bin/env bash
# Parent-vs-change benchmark pairs: the protocol a performance claim is
# measured with.
#
#   scripts/bench_pairs.sh <parent-dir> <change-dir> <workload> <seed> <n>
#
# Each directory is a checkout of one commit (`git archive <rev> | tar -x
# -C <dir>`), so the numbers describe committed files only. The script
# builds the benchmark in both, then runs BENCHMARK.json's command there
# for `<workload>` at `<seed>`, untraced and for its `run_seconds`, in `n`
# pairs that alternate which side runs first (parent then change, change
# then parent, ...): a slow phase of the machine then lands on both sides
# of a pair, and neither side always runs first. It prints every run's
# end-to-end metrics, and per metric each side's median and quartiles, the
# median change, the number of pairs in which the change was better and a
# verdict:
#
#   gain        the change is better in at least nine tenths of the pairs
#               (ties count for neither side) and the medians differ by
#               more than the parent's interquartile range,
#   loss        the same with the sides swapped,
#   over bound  the change's median is worse than the parent's by more than
#               the metric's `bound` in BENCHMARK.json (a fraction),
#   –           none of these.
#
# Below ten pairs no gain or loss is called: under pure noise, six pairs
# all fall the same way one time in 32.
#
# A run that reports `correct: false` or failed operations stops it.
#
# Needs `jq`. Run from anywhere; the directories may be relative.
set -euo pipefail

if [[ $# -ne 5 ]]; then
    echo "usage: $0 <parent-dir> <change-dir> <workload> <seed> <n>" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

mapfile -t command < <(jq -r '.command[]' "$spec")
seconds=$(jq -r '.run_seconds' "$spec")
mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$spec")

for dir in "$parent" "$change"; do
    echo "building $dir" >&2
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT
for ((i = 1; i <= pairs; i++)); do
    order="parent change"
    ((i % 2 == 0)) && order="change parent"
    for side in $order; do
        dir=$parent
        [[ $side == change ]] && dir=$change
        out="$runs/$side.$i.json"
        (cd "$dir" && "${command[@]}" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 | tail -n 1) > "$out"
        if [[ $(jq -r '.correct and .failed == 0' "$out") != true ]]; then
            echo "pair $i, $side: the run was not correct" >&2
            cat "$out" >&2
            exit 1
        fi
        line="pair $i $side"
        for entry in "${metrics[@]}"; do
            name=${entry%% *}
            line+=" $name=$(jq -r ".metrics.$name.value" "$out")"
        done
        echo "$line"
    done
done

echo
echo "$workload, seed $seed, $pairs pairs"
printf '%-14s %-8s %12s %12s %12s %9s %6s  %s\n' metric side q1 median q3 change wins verdict
for entry in "${metrics[@]}"; do
    read -r name better bound <<<"$entry"
    for ((i = 1; i <= pairs; i++)); do
        echo "$(jq -r ".metrics.$name.value" "$runs/parent.$i.json") $(jq -r ".metrics.$name.value" "$runs/change.$i.json")"
    done | awk -v name="$name" -v better="$better" -v bound="$bound" '
        # quartiles as the medians of the lower and upper halves
        function median(v, lo, hi,    n, m) {
            n = hi - lo + 1
            m = lo + int((n - 1) / 2)
            return (n % 2) ? v[m] : (v[m] + v[m + 1]) / 2
        }
        # insertion sort: POSIX awk has no sort of its own
        function sort(v, n,    i, j, x) {
            for (i = 2; i <= n; i++) {
                x = v[i]
                for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
                v[j + 1] = x
            }
        }
        function stats(v, n, out) {
            sort(v, n)
            out["med"] = median(v, 1, n)
            out["q1"] = median(v, 1, int(n / 2))
            out["q3"] = median(v, n - int(n / 2) + 1, n)
        }
        {
            n++
            p[n] = $1
            c[n] = $2
            # gap > 0: the change is better on this pair
            gap = better == "lower" ? $1 - $2 : $2 - $1
            if (gap > 0) wins++
            if (gap < 0) losses++
        }
        END {
            stats(p, n, ps)
            stats(c, n, cs)
            delta = ps["med"] == 0 ? 0 : 100 * (cs["med"] - ps["med"]) / ps["med"]
            # the median gap, positive when the change is better
            gap = better == "lower" ? ps["med"] - cs["med"] : cs["med"] - ps["med"]
            iqr = ps["q3"] - ps["q1"]
            if (ps["med"] != 0 && -gap / ps["med"] > bound) verdict = "over bound"
            else if (n >= 10 && 10 * losses >= 9 * n && -gap > iqr) verdict = "loss"
            else if (n >= 10 && 10 * wins >= 9 * n && gap > iqr) verdict = "gain"
            else verdict = "–"
            printf "%-14s %-8s %12.4f %12.4f %12.4f\n", name, "parent", ps["q1"], ps["med"], ps["q3"]
            printf "%-14s %-8s %12.4f %12.4f %12.4f %+8.2f%% %3d/%d  %s\n", name, "change", cs["q1"], cs["med"], cs["q3"], delta, wins, n, verdict
        }'
done
