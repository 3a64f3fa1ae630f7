#!/bin/bash
# Regenerates every table/figure; outputs under results/. Exits non-zero,
# naming them, when any experiment binary failed.
set -uo pipefail
cd "$(dirname "$0")/.."
bash scripts/ci.sh || exit 1
R=results
failed=()
# run <bin> [args..]: output to results/<bin>.txt; run_json also exports
# results/<bin>.json.
run() { "./target/release/$1" "${@:2}" >"$R/$1.txt" 2>&1 || failed+=("$1"); }
run_json() { run "$@" --json "$R/$1.json"; }
run_json fig05 --points 200000
run_json fig08 --points 30000
run_json fig07 --points 300000
run_json fig09 --points 150000
run_json fig10 --segment 100000
run_json fig11 --points 30000
run_json fig12 --points 60000
run_json fig13 --points 60000
run_json fig14 --points 60000
run fig15 --points 40000
run_json fig16 --points 200000
run_json fig17 --segment 60000
run_json fig18 --points 30000
run_json fig19 --points 200000
run_json fig20 --points 120000
run_json table03 --points 200000
run ablation_sstable_size --points 120000
run ablation_zeta
run ablation_block_reads --points 60000
run ablation_tuner
if ((${#failed[@]})); then
  echo "EXPERIMENTS-FAILED: ${failed[*]}"
  exit 1
fi
echo ALL-EXPERIMENTS-DONE
