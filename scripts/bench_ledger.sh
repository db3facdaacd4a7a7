#!/usr/bin/env bash
# The performance ledger: BENCH_<workload>.json at the repository root holds,
# for each workload of BENCHMARK.json, the median and quartiles of every
# metric over ten seeded runs of `benchmark/run.sh` (three traced runs for
# the per-layer and kernel metrics), with the seeds, the commit and the host
# they were measured on. A PR that moves a number regenerates the files it
# moves, so `git log -p BENCH_*.json` is the performance history.
#
# Usage: scripts/bench_ledger.sh [workload ...]           regenerate (~2 min a workload)
#        scripts/bench_ledger.sh --check [workload ...]   one fresh run a workload against
#                                                         the committed medians, inside
#                                                         BENCHMARK.json's bounds
#
# Reads BENCHMARK.json and calls benchmark/run.sh; changes nothing under
# benchmark/. Numbers compare only with numbers from the same host: --check
# on another machine measures the machine. Do nothing else on the host
# meanwhile (2 vCPUs: a cargo build next to a run shows up as a regression).
set -euo pipefail

cd "$(dirname "$0")/.."

check=0
if [ "${1:-}" = --check ]; then
    check=1
    shift
fi
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi
seconds="$(jq -r '.run_seconds' BENCHMARK.json)"
untraced_seeds="1 2 3 4 5 6 7 8 9 10"
traced_seeds="1 2 3"

# An offline build rewrites benchmark/Cargo.lock whenever a product crate's
# dependencies differ from what it pins; put it back if it was clean.
raw="$(mktemp -d -t bench_ledger.XXXXXX)"
lock_was_clean=1
git diff --quiet -- benchmark/Cargo.lock || lock_was_clean=0
cleanup() {
    rm -rf "$raw"
    [ "$lock_was_clean" = 0 ] || git checkout -q -- benchmark/Cargo.lock
}
trap cleanup EXIT

# One run; prints the result object (the last line of run.sh's output).
run() { # workload seed trace
    bash benchmark/run.sh --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" | tail -n 1
}

if [ "$check" = 1 ]; then
    status=0
    for w in "${workloads[@]}"; do
        echo "==> $w: seed 1 against BENCH_$w.json" >&2
        run "$w" 1 0 | jq -r --slurpfile ledger "BENCH_$w.json" --slurpfile manifest BENCHMARK.json '
            . as $run
            | ($manifest[0].end_to_end[]
               | . as $m
               | $ledger[0].end_to_end.metrics[$m.name].median as $base
               | $run.metrics[$m.name].value as $now
               | select($base > 0)
               | (if $m.better == "lower" then ($now - $base) else ($base - $now) end / $base) as $worse
               | select($worse > $m.bound)
               | "\($m.name): \($now) against a median of \($base) \($m.unit) (\($worse * 100 | round) % worse, bound \($m.bound * 100) %)"),
              (select(.correct and .failed == 0 | not) | "correct=\(.correct), \(.failed) of \(.attempted) operations failed")
        ' | { ! grep . ; } || status=1
    done
    [ "$status" = 0 ] && echo "bench_ledger: every end-to-end metric inside its bound" >&2
    exit "$status"
fi

commit="$(git describe --always --dirty)"
cpu="$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo | head -n 1)"

# Median and quartiles (linear interpolation) of each metric over the runs
# of one trace mode: `jq -s` over a file of result objects, seeds in $seeds.
summary='
    def quantile($p): sort | . as $s | (length - 1) * $p | . as $h | floor as $lo
        | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, ($s | length) - 1] | min] - $s[$lo]);
    . as $runs
    | { seeds: ($seeds | split(" ") | map(tonumber)),
      attempted: (map(.attempted) | add),
      failed: (map(.failed) | add),
      correct: all(.correct),
      metrics: (.[0].metrics | keys_unsorted | map(. as $name | {
          key: $name,
          value: ($runs | map(.metrics[$name].value) | {
              unit: $runs[0].metrics[$name].unit,
              median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75) })
      }) | from_entries) }'

for w in "${workloads[@]}"; do
    for seed in $untraced_seeds; do
        echo "==> $w: seed $seed" >&2
        run "$w" "$seed" 0 >> "$raw/$w.untraced"
    done
    for seed in $traced_seeds; do
        echo "==> $w: seed $seed, traced" >&2
        run "$w" "$seed" 1 >> "$raw/$w.traced"
    done
    jq -n \
        --arg workload "$w" --arg commit "$commit" --arg cpu "$cpu" --arg rustc "$(rustc --version)" \
        --argjson nproc "$(nproc)" --argjson seconds "$seconds" \
        --argjson end_to_end "$(jq -s --arg seeds "$untraced_seeds" "$summary" "$raw/$w.untraced")" \
        --argjson per_layer "$(jq -s --arg seeds "$traced_seeds" "$summary" "$raw/$w.traced")" \
        '{ workload: $workload, commit: $commit, run_seconds: $seconds,
           host: { nproc: $nproc, cpu: $cpu, rustc: $rustc },
           end_to_end: $end_to_end, per_layer: $per_layer }' > "BENCH_$w.json"
    echo "wrote BENCH_$w.json" >&2
done
