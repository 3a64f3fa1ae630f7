#!/usr/bin/env bash
# Repeatability harness: runs the five workloads N times (default 5), each
# time with another seed, keeps every result line, and prints per metric and
# workload the median and the spread. Fails if an end-to-end metric spreads
# beyond its bound in BENCHMARK.json (see summarize.py for the rule).
#
#   benchmark/repeat.sh [N] [FIRST_SEED] [OUT_DIR]
#
# To compare two sets of runs of the same code:
#   benchmark/summarize.py SET1_DIR SET2_DIR
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-5}"
first_seed="${2:-11}"
out="${3:-$here/out/repeat-$(date +%Y%m%d-%H%M%S)}"
mkdir -p "$out"

for w in ingest-pc ingest-ps ingest-bg-open read-mix fleet-skew; do
    for ((i = 0; i < runs; i++)); do
        seed=$((first_seed + i))
        "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 |
            tail -n 1 >"$out/$w.$seed.json"
        echo "done: $w seed $seed" >&2
    done
done
"$here/summarize.py" "$out"
