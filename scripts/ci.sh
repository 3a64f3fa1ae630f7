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

# Rustdoc lane: an intra-doc link to a function a PR deleted or renamed is
# an error, over the workspace's own crates only (not the vendored shims).
if rustdoc --version >/dev/null 2>&1; then
  echo "== cargo doc (broken intra-doc links) =="
  DOC_PKGS=()
  for manifest in crates/*/Cargo.toml; do
    DOC_PKGS+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -1)")
  done
  RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --no-deps --offline -q "${DOC_PKGS[@]}"
else
  echo "== rustdoc not installed; skipping doc-link check =="
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

# Every tool the docs and scripts tell a reader to run (`--bin <name>` or
# `target/release/<name>`) must still exist, so a deleted bin cannot leave
# dangling instructions behind.
echo "== documented bins exist =="
for bin in $(grep -ohE -- '--bin[ =][A-Za-z0-9_-]+|target/release/[A-Za-z0-9_-]+' \
    README.md DESIGN.md EXPERIMENTS.md scripts/*.sh \
    | sed -E 's#^--bin[ =]##; s#^target/release/##' | sort -u); do
  compgen -G "crates/*/src/bin/$bin.rs" >/dev/null \
    || grep -qsxF "name = \"$bin\"" crates/*/Cargo.toml \
    || { echo "documented bin '$bin' does not exist"; exit 1; }
done

# Same for tests: every `file.rs::test_name` the docs cite as evidence must
# still be a `fn test_name` in that file (`tests/…` from the repo root, a bare
# file name anywhere under crates/*/src), so a test that moved or was folded
# into another cannot leave a citation pointing at nothing.
echo "== documented tests exist =="
for cite in $(grep -ohE '`[A-Za-z0-9_/.-]+\.rs::[A-Za-z0-9_]+`' \
    README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u); do
  file="${cite%%::*}"; name="${cite##*::}"
  [[ "$file" == */* ]] || file="$(find crates/*/src -name "$file" | head -1)"
  grep -qsE "fn $name\b" "$file" \
    || { echo "documented test '$cite' does not exist"; exit 1; }
done

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test =="
cargo test -q --workspace --offline

# Fault-injection lane: replays every engine workload with a simulated crash
# at every I/O operation (seeded FaultPlan — fully deterministic, no clock,
# no RNG at runtime) and checks the durability contract after each recovery.
echo "== fault injection (crash schedules) =="
cargo test -q -p seplsm --test crash_schedules --offline
# The traced fsync budget of the durability horizon: a plan between
# horizons writes its tables and nothing else; a horizon costs one fsync per
# table still live and unsynced + 1 directory + 1 manifest, in that order,
# then deletes what the plans retired, and nothing on the WAL; one WAL write
# + fsync per batch, however many series; a fleet batch that reaches a
# horizon Σk + 3, however many series flushed; at rest one manifest record
# per live table + one header per series. A regression fails on the
# assertion that prints the op that crept back in.
echo "== fault injection (fsync budget) =="
cargo test -q -p seplsm --test fsync_budget --offline
# The tests that read bytes an *older build* wrote ran with their files
# above; what is checked here is that they are still there under their
# names, so that a rename or a deletion cannot pass silently:
#   - directories of the PR 12 and PR 13 builds (headerless fixed-record
#     WALs, one per fleet series; flat manifests) recover, strict and
#     salvage, and leave only framed logs behind;
#   - fleet directories of the PR 13 and PR 18 builds (one manifest per
#     series) fold into `fleet.manifest` + `fleet.wal`, also when a crash
#     lands between the fold and the removal;
#   - logs of the PR 19 build (`kind 1` checkpoints: no range, every
#     buffered point re-logged) read as checkpoints of all time;
#   - logs of the PR 21 build, the last to log raw 24-byte points
#     (`kind 0` / `kind 2`), read as they stand and continue packed;
#   - SSTables of the PR 23 build, the last that could write v1, v2 and
#     52-byte-entry v3 tables (`tests/fixtures/tables/`).
echo "== old-format fixture tests exist =="
listed() {
  cargo test -q -p seplsm --test "$1" --offline -- --list 2>/dev/null
}
CRASH_TESTS="$(listed crash_schedules)"
for name in pr12_and_pr13_format_directories_still_recover \
    pr18_fleet_directory_still_recovers pr19_logs_still_recover \
    pr21_logs_still_recover; do
  grep -qx "$name: test" <<<"$CRASH_TESTS" \
    || { echo "crash_schedules lost its fixture test '$name'"; exit 1; }
done
# The merge-input section of the traced fsync budget: a merge takes the
# tables lately written from the pool of written tables and reads none.
FSYNC_TESTS="$(listed fsync_budget)"
for name in a_merge_of_tables_this_engine_wrote_reads_none_of_them \
    the_first_merge_after_recovery_reads_exactly_its_inputs \
    an_l0_merge_of_what_the_worker_just_flushed_reads_nothing \
    fleet_series_on_one_store_merge_without_reading_it; do
  grep -qx "$name: test" <<<"$FSYNC_TESTS" \
    || { echo "fsync_budget lost its merge-input test '$name'"; exit 1; }
done
# The horizon's schedule, and its crash contract: a merge over tables no
# horizon synced deletes them without an fsync; a horizon syncs, records,
# deletes and checkpoints in that order; engines with nothing to defer to
# still pay every plan as it goes; a crash at every op across two horizons,
# each followed by a power cut that loses or tears every table the durable
# manifest does not name, loses no acknowledged point; a horizon whose
# manifest fsync fails once is retried as a rewrite, and a merge before the
# retry keeps what that horizon synced; a horizon's checkpoint write torn
# at every byte, in an engine's log and in the fleet's, replays more, never
# less.
for name in a_merge_over_never_synced_inputs_deletes_them_and_syncs_nothing \
    a_horizon_syncs_then_commits_then_deletes_then_checkpoints \
    engines_with_nothing_to_defer_to_pay_for_every_plan_as_it_goes; do
  grep -qx "$name: test" <<<"$FSYNC_TESTS" \
    || { echo "fsync_budget lost its horizon test '$name'"; exit 1; }
done
for name in an_lsm_engine_survives_a_power_cut_at_every_op_across_two_horizons \
    an_engine_retries_a_horizon_that_failed_at_its_manifest_sync_as_a_rewrite \
    a_merge_after_a_failed_fleet_horizon_keeps_what_that_horizon_synced \
    an_engine_s_torn_checkpoint_is_ignored_whole_and_only_replays_more \
    a_torn_checkpoint_is_ignored_whole_and_only_ever_replays_more; do
  grep -qx "$name: test" <<<"$CRASH_TESTS" \
    || { echo "crash_schedules lost its horizon test '$name'"; exit 1; }
done
TABLE_TESTS="$(listed old_tables)"
for name in every_fixture_decodes_bit_exactly_through_every_entry_point \
    every_flip_and_truncation_of_a_fixture_is_rejected_or_harmless \
    the_test_only_writer_reproduces_what_the_old_build_wrote \
    a_directory_of_old_tables_opens_answers_and_upgrades_by_compaction; do
  grep -qx "$name: test" <<<"$TABLE_TESTS" \
    || { echo "old_tables lost its test '$name'"; exit 1; }
done

# CLI lane: under the separation policy a flush takes one buffer and leaves
# the other, and its checkpoint names only the range it took — the `wal`
# line of a durable `seplsm stats` run must report that checkpoints re-logged
# less than 1 % of the bytes the run logged, and that the log, frames
# included, cost at most 10 B a point (packed frames; raw points took 24).
# The payloads are made integer-valued the way the benchmark makes them
# (`generate` writes tenths, whose mantissas pack to ~12 B a point).
echo "== seplsm stats (packed log; checkpoints re-log < 1 % under the separation policy) =="
STATS_DIR="$(mktemp -d)"
target/release/seplsm generate --dataset M12 --points 20000 \
  --seed 7 --out "$STATS_DIR/tenths.csv" >/dev/null
awk -F, 'NR == 1 { print; next } { printf "%s,%s,%d\n", $1, $2, $3 * 10 + 0.5 }' \
  "$STATS_DIR/tenths.csv" >"$STATS_DIR/m12.csv"
WAL_LINE="$(target/release/seplsm stats --input "$STATS_DIR/m12.csv" \
  --policy separation:256 --budget 512 --dir "$STATS_DIR/store" \
  | grep '^wal before the closing flush')"
# The same points under the conventional policy, where every flush is a
# merge: its `io:` line (a trace-only fault plan on store, WAL and manifest)
# must show fewer than one table read per 1 000 points — merge inputs are
# the tables the last merges wrote and come out of the pool of written
# tables; read back from the store they cost 21.5 reads per 1 000 points
# here — and fewer than 8 table fsyncs per 1 000 points: a table is synced
# only if it is still live at a horizon (2 per 1 000 points here, the 40
# tables live at rest), not by every plan that writes one (23.5).
IO_LINE="$(target/release/seplsm stats --input "$STATS_DIR/m12.csv" \
  --policy conventional --budget 512 --dir "$STATS_DIR/store-pc" \
  | grep '^io: ')"
rm -rf "$STATS_DIR"
LOGGED="$(sed -nE 's/.* ([0-9]+) logged B, .*/\1/p' <<<"$WAL_LINE")"
RELOGGED="$(sed -nE 's/.* ([0-9]+) relogged B$/\1/p' <<<"$WAL_LINE")"
[[ -n "$LOGGED" && -n "$RELOGGED" && $((RELOGGED * 100)) -lt "$LOGGED" ]] \
  || { echo "checkpoints re-logged too much: $WAL_LINE"; exit 1; }
B_PER_POINT="$(sed -nE 's/.* ([0-9.]+) B\/point, .*/\1/p' <<<"$WAL_LINE")"
awk -v b="$B_PER_POINT" 'BEGIN { exit !(b != "" && b > 0 && b <= 10) }' \
  || { echo "the log costs more than 10 B a point: $WAL_LINE"; exit 1; }
echo "== seplsm stats (merge inputs come from the pool: < 1 table read per 1 000 points) =="
READS_PER_KPOINT="$(sed -nE 's/.*StoreRead [0-9]+ \(([0-9.]+)\/kpoint\).*/\1/p' <<<"$IO_LINE")"
awk -v r="$READS_PER_KPOINT" 'BEGIN { exit !(r != "" && r < 1) }' \
  || { echo "merges read their inputs back: $IO_LINE"; exit 1; }
echo "== seplsm stats (tables are synced at horizons: < 8 StoreSync per 1 000 points) =="
SYNCS_PER_KPOINT="$(sed -nE 's/.*StoreSync [0-9]+ \(([0-9.]+)\/kpoint\).*/\1/p' <<<"$IO_LINE")"
awk -v s="$SYNCS_PER_KPOINT" 'BEGIN { exit !(s != "" && s < 8) }' \
  || { echo "tables are fsynced plan by plan: $IO_LINE"; exit 1; }

# Observability lane: a short instrumented bench run must emit a JSONL
# event trace that parses line-by-line, and — because sinks run on the
# deterministic logical clock — two runs of the same seeded workload must
# produce byte-identical traces.
echo "== observability (JSONL trace determinism) =="
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
trace_run() {
  cargo run -q --release -p seplsm-bench --bin trace_run --offline -- \
    --points 5000 --seed 42 "$@" >/dev/null
}
trace_run --trace "$TRACE_DIR/a.jsonl"
trace_run --trace "$TRACE_DIR/b.jsonl"
cmp "$TRACE_DIR/a.jsonl" "$TRACE_DIR/b.jsonl" \
  || { echo "trace not deterministic"; exit 1; }
# Same pair under the separation policy: its in-order flushes commit as
# merge plans with no inputs.
trace_run --nseq 256 --trace "$TRACE_DIR/c.jsonl"
trace_run --nseq 256 --trace "$TRACE_DIR/d.jsonl"
cmp "$TRACE_DIR/c.jsonl" "$TRACE_DIR/d.jsonl" \
  || { echo "separation-policy trace not deterministic"; exit 1; }
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

# Frozen-benchmark lane: `benchmark/` (a cargo workspace of its own) is the
# instrument every later PR is judged with and may not change with the code
# it measures, so an engine-API change that breaks `benchmark/src/adapter.rs`
# has to fail here. The smoke run builds it against this checkout and drives
# all five workloads at 1/50 size; it exits non-zero on a build error, a
# failed operation or an answer that differs from the oracle.
echo "== benchmark smoke (frozen adapter contract) =="
bash benchmark/run.sh --smoke --seconds 10 >/dev/null
# The traced run wraps the store in the benchmark's frozen `TimedStore`,
# which forwards neither `publish_batch` nor `sync_published`: every horizon
# then runs over the trait's *defaults* (every table durable as it is
# written, nothing left to sync), a path no other lane takes.
echo "== benchmark smoke (traced fleet, default publish/sync pair) =="
bash benchmark/run.sh --smoke --seconds 10 --workload fleet-skew --trace 1 \
  >/dev/null

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
