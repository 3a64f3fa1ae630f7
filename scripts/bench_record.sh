#!/bin/bash
# Records one build's benchmark results in the trajectory files at the repo
# root: `BENCH_<workload>.json`, one JSON array per workload, one record per
# build appended at its end.
#
#   scripts/bench_record.sh --pr N [--tree DIR] [--seeds "11 12 13 14 15"]
#                           [--workloads "ingest-pc ..."] [--seconds 10]
#
# `--tree` names the checkout whose `benchmark/run.sh` is run (default: this
# one), so a parent commit cloned elsewhere is recorded with its own code;
# the record goes to this checkout's files either way. For every workload
# and seed it runs `benchmark/run.sh --workload W --seed S --seconds 10
# --trace 0` and keeps, per seed, the end-to-end metrics of the JSON line the
# run prints last ("exact": the deterministic counters, by metric) and the
# run's `valid` flag (false on a memory filesystem, where fsync is free).
# The `wall.*` lines it prints are kept as medians over the seeds and marked
# unbounded: they move 20-40 % between runs of the same code.
set -euo pipefail
here="$(cd "$(dirname "$0")/.." && pwd)"

pr=""
tree="$here"
seeds="11 12 13 14 15"
workloads="ingest-pc ingest-ps ingest-bg-open read-mix fleet-skew"
seconds=10
while [ $# -gt 0 ]; do
  case "$1" in
    --pr) pr="${2:?--pr needs a number}"; shift 2 ;;
    --tree) tree="$(cd "${2:?--tree needs a directory}" && pwd)"; shift 2 ;;
    --seeds) seeds="${2:?--seeds needs a list}"; shift 2 ;;
    --workloads) workloads="${2:?--workloads needs a list}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a number}"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
[ -n "$pr" ] || { echo "--pr is required" >&2; exit 2; }
commit="$(git -C "$tree" rev-parse --short=12 HEAD)"
if [ -n "$(git -C "$tree" status --porcelain -- crates benchmark)" ]; then
  commit="$commit+dirty"
fi

runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT
for w in $workloads; do
  for s in $seeds; do
    echo "== $w seed $s ($commit)" >&2
    bash "$tree/benchmark/run.sh" --workload "$w" --seed "$s" \
      --seconds "$seconds" --trace 0 >"$runs/$w-$s.txt"
  done
  python3 - "$here/BENCH_$w.json" "$runs" "$w" "$pr" "$commit" $seeds <<'PYEOF'
import json, os, statistics, sys

path, runs, workload, pr, commit, *seeds = sys.argv[1:]
# Deterministic at equal seed: compared exactly, PR over PR.
EXACT = ["write_amp", "write_bytes_per_point", "read_bytes_per_op",
         "space_bytes_per_point", "fsyncs_per_kpoint",
         "write_syscalls_per_kpoint", "read_syscalls_per_op"]
per_seed, wall, valid = {}, {}, True
for seed in seeds:
    lines = open(os.path.join(runs, f"{workload}-{seed}.txt")).read().splitlines()
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    valid &= any("valid=true" in l for l in lines if l.startswith("# nproc"))
    per_seed[seed] = {
        "exact": {k: metrics[k] for k in EXACT if k in metrics},
        "noisy": {k: v for k, v in metrics.items() if k not in EXACT},
        "failed": result["failed"],
    }
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0].startswith("wall."):
            wall.setdefault(parts[0], []).append(float(parts[1]))
record = {
    "pr": int(pr),
    "commit": commit,
    "workload": workload,
    "valid": valid,
    "seeds": per_seed,
    "wall": {
        "unbounded": True,
        "median": {k: statistics.median(v) for k, v in sorted(wall.items())},
    },
}
records = json.load(open(path)) if os.path.exists(path) else []
records.append(record)
with open(path, "w") as f:
    f.write("[\n")
    f.write(",\n".join(json.dumps(r, sort_keys=True) for r in records))
    f.write("\n]\n")
print(f"{path}: record {len(records)} (PR {pr}, {commit})")
PYEOF
done
