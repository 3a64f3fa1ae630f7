#!/usr/bin/env bash
# Builds the benchmark (offline, its own workspace) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
#
# Without --workload, runs all five workloads, one process each. The last
# line each process prints on standard output is its JSON result. Exits
# non-zero if the build fails, an operation fails or an answer differs from
# the oracle.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/seplsm-benchmark"

workload=all
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload)
            workload="${2:?--workload needs a name}"
            shift 2
            ;;
        --trace)
            # Both `--trace` alone and `--trace 0|1` are accepted.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
                args+=(--trace "$2")
                shift 2
            else
                args+=(--trace 1)
                shift
            fi
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

if [ "$workload" != all ]; then
    exec "$bin" --home "$here" --workload "$workload" ${args[@]+"${args[@]}"}
fi

status=0
for w in ingest-pc ingest-ps ingest-bg-open read-mix fleet-skew; do
    "$bin" --home "$here" --workload "$w" ${args[@]+"${args[@]}"} || status=1
done
exit "$status"
