#!/usr/bin/env bash
# A change against a parent revision, in alternating pairs of benchmark runs:
# the tool behind a performance claim. It exports <rev> into a scratch
# directory (git archive), and for each workload and seed runs
# `benchmark/run.sh` once from the parent's root and once from this
# checkout's root (the working tree, edits included), alternating which side
# goes first so a drift of the host does not read as a regression.
#
# Usage: scripts/bench_pairs.sh <rev> [workload ...] [--pairs N] [--seeds 1,2,3]
#
#   workloads   default: every workload of BENCHMARK.json
#   --pairs N   seeds 1..N (default 10)
#   --seeds     an explicit comma-separated seed list instead
#
# Per workload and end-to-end metric it prints the parent's median
# [q1, q3] -> the change's median, the change's relative move and its wins
# out of N pairs, and flags every seed whose `wire_bytes_per_op` or
# `stored_bytes_per_plain_byte` differs between the sides (both are
# deterministic per seed). It stops on an empty or short result line, on a
# failed operation count above zero, and when a file under crates/ or src/
# changes mid-run (the change side would measure the edit). The exported
# parent is removed at exit; set TMPDIR to choose where it goes. Needs jq.
# Do nothing else on the host meanwhile.
set -euo pipefail

cd "$(dirname "$0")/.."
repo="$PWD"

usage() {
    sed -n 's/^# Usage: //p' "$0" >&2
    exit 2
}

rev=""
workloads=()
pairs=10
seeds=""
while [ "$#" -gt 0 ]; do
    case "$1" in
        --pairs) [ "$#" -ge 2 ] || usage; pairs="$2"; shift 2 ;;
        --seeds) [ "$#" -ge 2 ] || usage; seeds="$2"; shift 2 ;;
        -*) usage ;;
        *)
            if [ -z "$rev" ]; then rev="$1"; else workloads+=("$1"); fi
            shift
            ;;
    esac
done
[ -n "$rev" ] || usage
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || { echo "bench_pairs: no commit $rev" >&2; exit 2; }
[ "${#workloads[@]}" -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
[ -n "$seeds" ] || seeds="$(seq -s, 1 "$pairs")"
IFS=, read -ra seed_list <<< "$seeds"
seconds="$(jq -r '.run_seconds' BENCHMARK.json)"
metrics="$(jq -c '[.end_to_end[] | {name, better}]' BENCHMARK.json)"

scratch="$(mktemp -d -t bench_pairs.XXXXXX)"
lock_was_clean=1
git diff --quiet -- benchmark/Cargo.lock || lock_was_clean=0
cleanup() {
    rm -rf "$scratch"
    [ "$lock_was_clean" = 0 ] || git -C "$repo" checkout -q -- benchmark/Cargo.lock
}
trap cleanup EXIT
parent="$scratch/parent"
mkdir "$parent"
git archive "$rev" | tar -x -C "$parent"
stamp="$scratch/stamp"
touch "$stamp"
echo "bench_pairs: $(git rev-parse --short "$rev") (parent) against the working tree at $(git describe --always --dirty)" >&2

# One run from `root`; prints its result line once it is whole.
run() { # root workload seed
    local line changed
    line="$(cd "$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)"
    if ! jq -e --argjson m "$metrics" '
        . as $r | ($r.metrics | type) == "object" and ($r.failed | type) == "number"
        and all($m[]; ($r.metrics[.name].value | type) == "number")' <<< "$line" > /dev/null 2>&1; then
        echo "bench_pairs: $2 seed $3 in $1 gave an empty or short result line: '$line'" >&2
        exit 1
    fi
    if [ "$(jq '.failed' <<< "$line")" != 0 ]; then
        echo "bench_pairs: $2 seed $3 in $1 failed operations: $line" >&2
        exit 1
    fi
    changed="$(find "$repo/crates" "$repo/src" -type f -newer "$stamp" | head -n 1)"
    if [ -n "$changed" ]; then
        echo "bench_pairs: $changed changed mid-run; the change side would measure the edit" >&2
        exit 1
    fi
    printf '%s\n' "$line"
}

for w in "${workloads[@]}"; do
    : > "$scratch/$w.parent"
    : > "$scratch/$w.change"
    i=0
    for seed in "${seed_list[@]}"; do
        if [ $((i % 2)) = 0 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            if [ "$side" = parent ]; then root="$parent"; else root="$repo"; fi
            echo "==> $w seed $seed: $side" >&2
            run "$root" "$w" "$seed" >> "$scratch/$w.$side"
        done
        i=$((i + 1))
    done
    echo "== $w: ${#seed_list[@]} pairs, seeds $seeds"
    jq -rn --argjson m "$metrics" --arg seeds "$seeds" \
        --slurpfile p "$scratch/$w.parent" --slurpfile c "$scratch/$w.change" '
        def quantile($q): sort | . as $s | (length - 1) * $q | . as $h | floor as $lo
            | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, ($s | length) - 1] | min] - $s[$lo]);
        def fmt: if . == 0 then "0" elif (. | fabs) >= 100 then (. * 10 | round / 10 | tostring)
            else (. * 1000 | round / 1000 | tostring) end;
        ($seeds | split(",")) as $seed
        | ($m[]
           | .name as $n | .better as $better
           | ($p | map(.metrics[$n].value)) as $pv | ($c | map(.metrics[$n].value)) as $cv
           | ($pv | quantile(0.5)) as $pm | ($cv | quantile(0.5)) as $cm
           | ([range(0; $pv | length) | select(if $better == "lower" then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)]
              | length) as $wins
           | "\($n): \($pm | fmt) [\($pv | quantile(0.25) | fmt), \($pv | quantile(0.75) | fmt)] -> \($cm | fmt)"
             + (if $pm != 0 then " (\((($cm - $pm) / $pm * 1000 | round) / 10) %)" else "" end)
             + ", change wins \($wins)/\($pv | length)"),
          ("wire_bytes_per_op", "stored_bytes_per_plain_byte"
           | . as $n
           | range(0; $p | length) as $i
           | select($p[$i].metrics[$n].value != $c[$i].metrics[$n].value)
           | "MISMATCH \($n) seed \($seed[$i]): parent \($p[$i].metrics[$n].value), change \($c[$i].metrics[$n].value)")'
done
