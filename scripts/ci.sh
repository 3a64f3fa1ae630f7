#!/bin/bash
# CI gate: format, lint, build, test. Offline-friendly (uses vendored deps;
# never touches the network) and tolerant of missing optional tools.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

if cargo fmt --version >/dev/null 2>&1; then
  echo "== cargo fmt --check =="
  cargo fmt --all --check
else
  echo "== cargo fmt not installed; skipping format check =="
fi

if cargo clippy --version >/dev/null 2>&1; then
  echo "== cargo clippy =="
  cargo clippy --workspace --all-targets --offline -- -D warnings
else
  echo "== cargo clippy not installed; skipping lint =="
fi

# seplint emits machine-readable findings so a CI failure names the exact
# file/line/rule instead of burying it in the build log.
echo "== seplint (R3-R9 storage-kernel contracts) =="
SEPLINT_JSON="$(mktemp)"
if cargo run -q -p seplint --offline -- --format json . >"$SEPLINT_JSON"; then
  rm -f "$SEPLINT_JSON"
else
  python3 - "$SEPLINT_JSON" <<'PYEOF'
import json, sys
findings = json.load(open(sys.argv[1]))
for f in findings:
    print(f"seplint: {f['file']}:{f['line']}: {f['rule']}: {f['message']}")
print(f"seplint: {len(findings)} violation(s)")
PYEOF
  rm -f "$SEPLINT_JSON"
  exit 1
fi

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test =="
cargo test -q --workspace --offline

# Fault-injection lane: replays every engine workload with a simulated crash
# at every I/O operation (seeded FaultPlan — fully deterministic, no clock,
# no RNG at runtime) and checks the durability contract after each recovery.
echo "== fault injection (crash schedules) =="
cargo test -q -p seplsm --test crash_schedules --offline
# Same lane, by name: directories written by the PR 12 and PR 13 builds
# (headerless fixed-record WALs, one per fleet series; flat manifests) must
# still recover, strict and salvage, and leave only framed logs behind.
echo "== fault injection (old-format fixtures) =="
cargo test -q -p seplsm --test crash_schedules --offline \
  pr12_and_pr13_format_directories_still_recover
# Same lane, by name: the traced fsync budget of one flush/merge commit
# (k table fsyncs + 1 directory + 1 manifest, in that order, and nothing on
# the WAL; one WAL write + fsync per batch, however many series). A
# regression fails on the assertion that prints the op that crept back in.
echo "== fault injection (fsync budget) =="
cargo test -q -p seplsm --test fsync_budget --offline

# Observability lane: a short instrumented bench run must emit a JSONL
# event trace that parses line-by-line, and — because sinks run on the
# deterministic logical clock — two runs of the same seeded workload must
# produce byte-identical traces.
echo "== observability (JSONL trace determinism) =="
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
cargo run -q --release -p seplsm-bench --bin trace_run --offline -- \
  --points 5000 --seed 42 --trace "$TRACE_DIR/a.jsonl" >/dev/null
cargo run -q --release -p seplsm-bench --bin trace_run --offline -- \
  --points 5000 --seed 42 --trace "$TRACE_DIR/b.jsonl" >/dev/null
cmp "$TRACE_DIR/a.jsonl" "$TRACE_DIR/b.jsonl" \
  || { echo "trace not deterministic"; exit 1; }
python3 - "$TRACE_DIR/a.jsonl" <<'PYEOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty trace"
kinds = set()
for i, line in enumerate(lines):
    obj = json.loads(line)
    assert obj["seq"] == i, f"seq gap at line {i}"
    kinds.add(obj["event"])
assert "flush_finished" in kinds, kinds
assert "point_classified" in kinds, kinds
print(f"trace OK: {len(lines)} events, {len(kinds)} kinds")
PYEOF

# Perf-smoke lane: a tiny perf_baseline run must emit the three BENCH_*.json
# reports, each parseable, with a warm-cache hit rate above zero, the
# fleet determinism check (baked into the bench itself) passing, and the
# v3 cold-read lane actually pruning tables and fetching fewer bytes than
# the v2 whole-file path.
echo "== perf smoke (cache + fleet flush pool) =="
PERF_DIR="$(mktemp -d)"
cargo run -q --release -p seplsm-bench --bin perf_baseline --offline -- \
  --points 2000 --series 4 --workers 2 --passes 4 \
  --out-dir "$PERF_DIR" >/dev/null
python3 - "$PERF_DIR" <<'PYEOF'
import json, sys, os
d = sys.argv[1]
ingest = json.load(open(os.path.join(d, "BENCH_ingest.json")))
query = json.load(open(os.path.join(d, "BENCH_query.json")))
compaction = json.load(open(os.path.join(d, "BENCH_compaction.json")))
assert ingest["deterministic"] is True, ingest
# Admission-control lane: the burst pass must report tail latency and
# genuinely stall (with the L0 depth still bounded by the stop watermark);
# the light pass must never stall.
for key in ("p99", "p999", "stall_ticks", "max_l0_depth"):
    assert key in ingest, f"missing ingest key {key}"
assert ingest["stall_ticks"] > 0, ingest["burst"]
assert ingest["burst"]["stalls"] > 0, ingest["burst"]
assert ingest["max_l0_depth"] <= ingest["stop_watermark"], ingest["burst"]
assert ingest["light"]["stall_ticks"] == 0, ingest["light"]
assert query["cache_on"]["hit_rate"] > 0, query
assert query["disk_byte_reduction"] > 1, query
assert query["tables_pruned"] > 0, query
assert query["cold_byte_reduction"] > 1, query
assert query["cold_query_bytes"]["v3"] < query["cold_query_bytes"]["v2"], query
# Aggregation-pushdown lane: folding index pre-aggregates must actually
# happen and must beat decode-and-fold on bytes, with bit-identical answers
# (the bench fails outright on divergence, so the flag is always true here).
assert query["blocks_folded"] > 0, query
assert query["agg_byte_reduction"] > 1, query
assert query["agg_results_bit_identical"] is True, query
assert compaction["cache"]["invalidated_blocks"] >= 0, compaction
# Multi-tenant skew lane: the arbiter must have grown the hot series past
# every cold neighbour, and the adaptive controller must have retuned at
# least one series online against its arbiter-assigned slice.
for key in ("hot_series_capacity", "cold_series_capacity",
            "rebalances", "retunes"):
    assert key in ingest, f"missing ingest key {key}"
assert ingest["hot_series_capacity"] > ingest["cold_series_capacity"], ingest
assert ingest["retunes"] > 0, ingest
assert ingest["rebalances"] > 0, ingest
print(f"perf smoke OK: burst p99 {ingest['p99']:.1f}us with "
      f"{ingest['stall_ticks']} stall ticks "
      f"(depth {ingest['max_l0_depth']}/{ingest['stop_watermark']}), "
      f"query hit rate "
      f"{query['cache_on']['hit_rate']:.2f}, "
      f"{query['disk_byte_reduction']:.1f}x fewer disk bytes, "
      f"cold v3 {query['cold_byte_reduction']:.1f}x fewer bytes, "
      f"agg pushdown {query['agg_byte_reduction']:.1f}x fewer bytes "
      f"({query['blocks_folded']} blocks folded), "
      f"{query['tables_pruned']} tables pruned, skew "
      f"{ingest['hot_series_capacity']}/{ingest['cold_series_capacity']} "
      f"hot/cold capacity with {ingest['retunes']} online retune(s)")
PYEOF
rm -rf "$PERF_DIR"

# Frozen-benchmark lane: `benchmark/` (a cargo workspace of its own) is the
# instrument every later PR is judged with and may not change with the code
# it measures, so an engine-API change that breaks `benchmark/src/adapter.rs`
# has to fail here. The smoke run builds it against this checkout and drives
# all five workloads at 1/50 size; it exits non-zero on a build error, a
# failed operation or an answer that differs from the oracle.
echo "== benchmark smoke (frozen adapter contract) =="
bash benchmark/run.sh --smoke --seconds 10 >/dev/null

# Opt-in undefined-behaviour lane: MIRI=1 scripts/ci.sh runs the kernel's
# memtable/buffer unit tests under miri when the component is installed.
# The workspace forbids unsafe code (`[workspace.lints.rust]`), so this mainly guards the
# vendored shims.
if [[ "${MIRI:-0}" == "1" ]]; then
  if cargo miri --version >/dev/null 2>&1; then
    echo "== cargo miri test (opt-in) =="
    cargo miri test -q -p seplsm-lsm --lib --offline -- memtable buffer
  else
    echo "== MIRI=1 requested but cargo-miri is not installed; skipping =="
  fi
fi

# Opt-in data-race lane: TSAN=1 scripts/ci.sh rebuilds the flush-pool and
# cache tests under ThreadSanitizer (nightly-only -Zsanitizer=thread) — the
# runtime complement to seplint R8's static lock discipline. Tolerant-skip
# like the MIRI lane: a stable-only toolchain just reports and moves on.
if [[ "${TSAN:-0}" == "1" ]]; then
  TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
  # -Zbuild-std (needed so std itself is TSAN-instrumented, avoiding false
  # positives from uninstrumented Arc/Mutex internals) requires the nightly
  # rust-src component on disk; installing it needs the network, so treat
  # its absence exactly like a missing nightly.
  if rustc +nightly --version >/dev/null 2>&1 \
     && [[ -d "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library" ]]; then
    echo "== cargo test under ThreadSanitizer (opt-in) =="
    RUSTFLAGS="-Zsanitizer=thread" \
    RUSTDOCFLAGS="-Zsanitizer=thread" \
    TSAN_OPTIONS="halt_on_error=1" \
    cargo +nightly test -q -p seplsm-lsm --lib --offline \
      -Zbuild-std --target "$TSAN_TARGET" \
      --target-dir target/tsan -- multi:: cache:: background:: \
      || { echo "ThreadSanitizer lane failed"; exit 1; }
  else
    echo "== TSAN=1 requested but nightly + rust-src are not installed; skipping =="
  fi
fi

echo CI-OK
