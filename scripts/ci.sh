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

# Rustdoc lane: an intra-doc link to a function a change deleted or renamed
# is an error, over the workspace's own crates only (not the vendored
# shims); so is a public doc linking a private item (a dead link in the
# rendered docs) and an explicit link target the label already names.
if rustdoc --version >/dev/null 2>&1; then
  echo "== cargo doc (broken, private and redundant intra-doc links) =="
  DOC_PKGS=()
  for manifest in crates/*/Cargo.toml; do
    DOC_PKGS+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -1)")
  done
  DOC_DENY="-D rustdoc::broken_intra_doc_links"
  DOC_DENY+=" -D rustdoc::private_intra_doc_links"
  DOC_DENY+=" -D rustdoc::redundant_explicit_links"
  RUSTDOCFLAGS="$DOC_DENY" cargo doc --no-deps --offline -q "${DOC_PKGS[@]}"
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

# The fault files ran once, inside `cargo test --workspace` above; what is
# checked from here on is that the tests they hold are still there under
# their names, so that a rename or a deletion cannot pass silently.
#
# Fault-injection lane, `tests/crash_schedules.rs`: runs every engine
# workload once under a probed FaultPlan (seeded, fully deterministic, no
# clock, no RNG at runtime), which copies the directory a crash — or a torn
# write — would leave at each I/O operation, and checks the durability
# contract on a recovery of every copy. `one_pass_images_equal_replayed_faults`
# proves each copy equal to the directory a replayed crash leaves. Its tests
# that read bytes an *older build* wrote:
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
# The traced fsync budget of the durability horizon, `tests/fsync_budget.rs`:
# a plan between horizons writes its tables and nothing else; a horizon
# costs one fsync per table still live and unsynced + 1 directory + 1
# manifest, in that order, then deletes what the plans retired, and nothing
# on the WAL; one WAL write + fsync per batch, however many series; a fleet
# batch that reaches a horizon Σk + 3, however many series flushed; at rest
# one manifest record per live table + one header per series. A regression
# fails on the assertion that prints the op that crept back in. Its
# merge-input section: a merge takes the tables lately written from the
# pool of written tables and reads none.
FSYNC_TESTS="$(listed fsync_budget)"
for name in a_merge_of_tables_this_engine_wrote_reads_none_of_them \
    the_first_merge_after_recovery_reads_exactly_its_inputs \
    an_l0_merge_of_what_the_worker_just_flushed_reads_nothing \
    fleet_series_on_one_store_merge_without_reading_it \
    a_cold_series_merges_without_reading_back_what_a_hot_series_wrote_since; do
  grep -qx "$name: test" <<<"$FSYNC_TESTS" \
    || { echo "fsync_budget lost its merge-input test '$name'"; exit 1; }
done
# The horizon's schedule, and its crash contract: a merge over tables no
# horizon synced drops them at no I/O at all; a horizon writes, syncs,
# records, deletes and checkpoints in that order; the background worker's
# flushes and L0 merges pay nothing between its horizons and the same
# grouped commit at one; an engine with neither log nor manifest syncs its
# tables at rest; a crash at every op across two horizons, inline or the
# worker's, each followed by a power cut that loses or tears every table
# the durable manifest does not name, loses no acknowledged point; a
# horizon's table write torn, at every one of them, loses none either; a
# horizon whose table write fails once is retried, writing every staged
# table again from memory; a horizon whose manifest fsync fails once is
# retried as a rewrite, and a merge before the retry keeps what that horizon
# synced; a horizon's checkpoint write torn at every byte, in an engine's
# log and in the fleet's, replays more, never less; a fleet at rest runs one
# horizon, after every series has flushed.
for name in a_merge_over_never_synced_inputs_deletes_them_and_syncs_nothing \
    a_horizon_syncs_then_commits_then_deletes_then_checkpoints \
    the_background_engine_pays_the_same_grouped_commit \
    an_engine_with_neither_log_nor_manifest_syncs_its_tables_at_rest \
    a_fleet_at_rest_runs_one_horizon_however_many_series_it_holds; do
  grep -qx "$name: test" <<<"$FSYNC_TESTS" \
    || { echo "fsync_budget lost its horizon test '$name'"; exit 1; }
done
for name in an_lsm_engine_survives_a_power_cut_at_every_op_across_two_horizons \
    a_tiered_engine_survives_a_power_cut_at_every_op_across_two_horizons \
    a_torn_horizon_table_write_loses_no_acknowledged_point \
    a_horizon_failing_at_any_table_write_rewrites_every_table_from_memory \
    an_engine_retries_a_horizon_that_failed_at_its_manifest_sync_as_a_rewrite \
    a_merge_after_a_failed_fleet_horizon_keeps_what_that_horizon_synced \
    an_engine_s_torn_checkpoint_is_ignored_whole_and_only_replays_more \
    a_torn_checkpoint_is_ignored_whole_and_only_ever_replays_more; do
  grep -qx "$name: test" <<<"$CRASH_TESTS" \
    || { echo "crash_schedules lost its horizon test '$name'"; exit 1; }
done
# The staged tables of `FileStore`: a table published and not yet synced
# costs no op and leaves no file, yet reads like a synced one; a failed put
# leaves nothing staged and no tmp file, whichever op failed; a failed sync
# of a published batch keeps what it did not rename staged for the retry and
# leaves no tmp file either. The block cache's reads: a run of missing
# blocks is one span that never bridges a cached block, and a corrupt block
# inside a run fails every read of it.
LSM_TESTS="$(cargo test -q -p seplsm-lsm --lib --offline -- --list 2>/dev/null)"
for name in a_staged_table_costs_no_io_and_no_file_yet_reads_like_a_synced_one \
    file_store_failed_put_discards_its_staged_table \
    file_store_failed_batch_removes_its_staged_tmp_files \
    cached_store_fetches_the_missing_blocks_around_a_warm_one \
    a_corrupt_block_inside_a_fetched_run_fails_every_read; do
  grep -qx "store::tests::$name: test" <<<"$LSM_TESTS" \
    || { echo "store.rs lost its test '$name'"; exit 1; }
done
# One manifest path for an engine and a fleet: a commit that failed at its
# fsync is retried as a rewrite, whichever owner it has; an engine refuses a
# fleet's manifest and a fleet an engine's (or an older layout's per-series
# manifest holding a named group), strict and salvage; a recovery report
# counts the manifest records salvage dropped, and not the torn group tail a
# strict open drops.
for name in a_commit_that_failed_at_its_fsync_is_retried_as_a_rewrite \
    a_failed_fleet_commit_is_retried_as_a_rewrite; do
  grep -qx "manifest::tests::$name: test" <<<"$LSM_TESTS" \
    || { echo "manifest.rs lost its retry test '$name'"; exit 1; }
done
DURABILITY_TESTS="$(listed engine_durability)"
for name in an_engine_refuses_a_fleet_s_manifest_and_a_fleet_an_engine_s \
    manifest_records_dropped_counts_what_salvage_drops_and_nothing_else; do
  grep -qx "$name: test" <<<"$DURABILITY_TESTS" \
    || { echo "engine_durability lost its manifest test '$name'"; exit 1; }
done
# The pool of written tables: the series holding the most points gives up
# its oldest table first, the lowest series key among equals; a single
# owner evicts in FIFO order.
grep -qx "compaction::tests::the_largest_holder_gives_up_its_oldest_entry_first: test" \
    <<<"$LSM_TESTS" \
  || { echo "compaction.rs lost its pool eviction test"; exit 1; }
# The one temporal invariant: a commit that moves the pivot LAST(R).t_g
# backwards is corrupt. A trace write that failed surfaces when the JSONL
# sink is flushed.
for name in compaction::tests::a_commit_that_moves_the_pivot_back_is_corrupt \
    obs::tests::a_trace_write_that_failed_surfaces_at_flush; do
  grep -qx "$name: test" <<<"$LSM_TESTS" \
    || { echo "crates/lsm lost its test '$name'"; exit 1; }
done
# The fleet arbiter splits its whole budget between the series' MemTables:
# a split hands out all but its division remainders, a series admitted
# later takes its floor from them or forces a new split, and a fleet's
# series hold the whole budget.
for name in arbiter::tests::admission_takes_the_floor_from_the_unassigned_points \
    arbiter::tests::forced_rebalance_restores_floors_when_the_split_left_too_little \
    arbiter::tests::budget_is_conserved_exactly \
    multi::tests::an_arbiter_hands_its_series_the_whole_budget; do
  grep -qx "$name: test" <<<"$LSM_TESTS" \
    || { echo "crates/lsm lost its arbiter test '$name'"; exit 1; }
done
# One bound on the background backlog: a hand-off that finds the flush
# queue full is the write stall, witnessed and counted where the writer
# waits; every stall ends, its wait refused or not; and the backlog never
# passes the depth DESIGN §14 derives.
for name in background::tests::a_full_flush_queue_is_a_write_stall \
    admission::tests::stalls_always_end \
    background::tests::the_backlog_stays_within_its_structural_bound; do
  grep -qx "$name: test" <<<"$LSM_TESTS" \
    || { echo "crates/lsm lost its write-stall test '$name'"; exit 1; }
done
# One thread compacts the background engine: every table write, sync and
# delete lands on its worker, appends, quiesce and recovery included, and a
# degraded worker answers a call without touching a table. The writer waits
# for the worker only through its queue: a `sync_flush` append returns once
# a barrier call is answered, after the merge its flush made due; so two
# trace passes of the tiered crash sweep do the same I/O op for op, and a
# crash image recorded in one pass is the directory a replayed crash leaves.
for name in background::tests::only_the_worker_writes_syncs_or_deletes_a_table \
    background::tests::quiesce_on_a_degraded_engine_touches_no_table \
    background::tests::a_sync_flush_append_returns_after_the_merge_it_made_due; do
  grep -qx "$name: test" <<<"$LSM_TESTS" \
    || { echo "crates/lsm lost its one-worker test '$name'"; exit 1; }
done
for name in a_tiered_pass_repeats_its_io_op_for_op \
    one_pass_images_equal_replayed_faults; do
  grep -qx "$name: test" <<<"$CRASH_TESTS" \
    || { echo "crash_schedules lost its premise test '$name'"; exit 1; }
done
# SSTable blocks are cut on a 1-2-5 time grid: no block straddles a
# multiple of the grid step or holds more than the point cap, encoding is
# deterministic, the cut handles one point, negative generation times and
# gaps near 2^64, and a downsample in buckets of the grid step decodes only
# the blocks that the range edges clip.
for name in sstable::format::tests::blocks_are_cut_on_a_1_2_5_time_grid \
    sstable::format::tests::the_grid_handles_one_point_negative_times_and_huge_gaps \
    query::tests::a_grid_bucket_downsample_decodes_only_the_range_edges; do
  grep -qx "$name: test" <<<"$LSM_TESTS" \
    || { echo "crates/lsm lost its block grid test '$name'"; exit 1; }
done
TABLE_TESTS="$(listed old_tables)"
for name in every_fixture_decodes_bit_exactly_through_every_entry_point \
    every_flip_and_truncation_of_a_fixture_is_rejected_or_harmless \
    the_test_only_writer_reproduces_what_the_old_build_wrote \
    a_directory_of_old_tables_opens_answers_and_upgrades_by_compaction; do
  grep -qx "$name: test" <<<"$TABLE_TESTS" \
    || { echo "old_tables lost its test '$name'"; exit 1; }
done

# The query figures recommend a policy with the online ζ preset, which at
# n = 512 takes the default preset's decision on the paper datasets.
BENCH_TESTS="$(cargo test -q -p seplsm-bench --lib --offline -- --list 2>/dev/null)"
grep -qx "drive::tests::the_online_preset_recommends_what_the_default_preset_does: test" \
    <<<"$BENCH_TESTS" \
  || { echo "drive.rs lost its recommendation preset test"; exit 1; }

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
# 100 000 such points under the conventional policy, where every flush is a
# merge: its `io:` line (a trace-only fault plan on store, WAL and manifest)
# must show fewer than one table read per 1 000 points — merge inputs are
# the tables the last merges wrote and come out of the pool of written
# tables (0.57 reads per 1 000 points: the inputs that left the pool). Only
# an input a horizon made a file costs a read when the pool misses it, so
# the run is long enough for three horizons before the one at rest; read
# back from the store, the inputs cost 2.00 reads per 1 000 points. It must
# also show fewer than 8 table fsyncs and fewer than 8 table writes per
# 1 000 points: a table is written and synced only if it is still live at a
# horizon (3.96 per 1 000 points here), not by every plan that makes one
# (30.16).
target/release/seplsm generate --dataset M12 --points 100000 \
  --seed 7 --out "$STATS_DIR/tenths-100k.csv" >/dev/null
awk -F, 'NR == 1 { print; next } { printf "%s,%s,%d\n", $1, $2, $3 * 10 + 0.5 }' \
  "$STATS_DIR/tenths-100k.csv" >"$STATS_DIR/m12-100k.csv"
IO_LINE="$(target/release/seplsm stats --input "$STATS_DIR/m12-100k.csv" \
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
echo "== seplsm stats (tables are written at horizons: < 8 StoreWrite per 1 000 points) =="
WRITES_PER_KPOINT="$(sed -nE 's/.*StoreWrite [0-9]+ \(([0-9.]+)\/kpoint\).*/\1/p' <<<"$IO_LINE")"
awk -v w="$WRITES_PER_KPOINT" 'BEGIN { exit !(w != "" && w < 8) }' \
  || { echo "tables a merge consumes reach the file system: $IO_LINE"; exit 1; }

# The background engine takes the same horizon: its open-loop benchmark
# lane, replayed on the durable stack for 3 s (90 000 points paced at
# 30 000 points/s), must fsync fewer than 5 tables and commit fewer than 1
# manifest group per 1 000 points. A worker that syncs and records every
# flush and every L0 merge as it goes pays 8.79 and 4.79.
echo "== io_split ingest-bg-open (the worker's tables are synced at horizons) =="
BG_IO="$(target/release/io_split --workload ingest-bg-open --seed 11 --seconds 3)"
# The rate per 1 000 points of IoOp class $1 in io_split output $2.
per_kpoint() { sed -nE "s/^$1 +[0-9]+ +\(([0-9.]+)\/kpoint\)\$/\1/p" <<<"$2"; }
awk -v s="$(per_kpoint StoreSync "$BG_IO")" \
    -v m="$(per_kpoint ManifestSync "$BG_IO")" \
    'BEGIN { exit !(s != "" && m != "" && s < 5 && m < 1) }' \
  || { echo "the worker syncs plan by plan: $BG_IO"; exit 1; }

# A fleet's 64 series share one pool of written tables, and while it is over
# budget the series holding the most points gives up its oldest table: the
# Zipf-hot series pay for their own surplus instead of evicting the tables a
# cold series' next merge consumes. `fleet-skew` replayed for 3 s (45 000
# points) must read fewer than 2 tables per 1 000 points back from the
# store: 1.00 with that rule. The fleet flushes on one thread, so the
# replay repeats bit for bit: a second run must print the same.
echo "== io_split fleet-skew (a hot series does not evict a cold one's merge inputs) =="
FLEET_IO="$(target/release/io_split --workload fleet-skew --seed 11 --seconds 3)"
awk -v r="$(per_kpoint StoreRead "$FLEET_IO")" \
    'BEGIN { exit !(r != "" && r < 2) }' \
  || { echo "the fleet's merges read their inputs back: $FLEET_IO"; exit 1; }
FLEET_IO_AGAIN="$(target/release/io_split --workload fleet-skew --seed 11 --seconds 3)"
cmp -s <(echo "$FLEET_IO") <(echo "$FLEET_IO_AGAIN") \
  || { printf 'the fleet replay does not repeat:\n%s\n-- second run --\n%s\n' \
         "$FLEET_IO" "$FLEET_IO_AGAIN"; exit 1; }
# The arbiter gives the fleet's whole budget to the series' MemTables, split
# by √heat, and larger MemTables flush less often: `fleet-skew` replayed for
# 10 s must fsync fewer than 13 times per 1 000 points. 10.85 so; 20.27 when
# the split goes by heat, which leaves the Zipf-cold series near their
# floor; 30.70 when a quarter of the budget is also held back from the
# series.
echo "== io_split fleet-skew (the memory budget goes to the MemTables by √heat: < 13 fsyncs per 1 000 points) =="
FLEET_IO="$(target/release/io_split --workload fleet-skew --seed 11 --seconds 10)"
awk -v f="$(per_kpoint fsyncs "$FLEET_IO")" \
    'BEGIN { exit !(f != "" && f < 13) }' \
  || { echo "the fleet's memory does not go where it saves fsyncs: $FLEET_IO"; exit 1; }

# Observability lane: a short instrumented bench run must emit a JSONL
# event trace that parses line-by-line, and — because a trace line is
# numbered by its sequence alone, with no clock — two runs of the same
# seeded workload must produce byte-identical traces. Every line begins
# `{"seq":N,"event":…` and carries no timestamp.
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
    assert list(obj)[:2] == ["seq", "event"], f"line {i} begins {list(obj)[:2]}"
    assert "ts" not in obj, f"line {i} carries a timestamp"
    assert obj["seq"] == i, f"seq gap at line {i}"
    kinds.add(obj["event"])
assert "flush_finished" in kinds, kinds
assert "point_classified" in kinds, kinds
print(f"trace OK: {len(lines)} events, {len(kinds)} kinds")
PYEOF
# The query figures run the background engine with `sync_flush`, whose
# appends return only once the worker is idle: its flush, and the horizon
# and L0 merge that made due, done. No query races a merge, so fig12–fig15
# and fig20 print the same bytes on every run, and at `run_all.sh`'s
# arguments those are the committed `results/` files, text (minus the
# `wrote` line) and JSON. Each figure recommends its policies with the
# online ζ preset (`drive.rs::the_online_preset_recommends_what_the_default_preset_does`),
# so a run takes 20–30 s.
echo "== query figures (fig12–fig15, fig20 reproduce results/ byte for byte) =="
for run in "fig12 60000" "fig13 60000" "fig14 60000" "fig15 40000" \
    "fig20 120000"; do
  read -r fig points <<<"$run"
  json=()
  [[ -f "results/$fig.json" ]] && json=(--json "$TRACE_DIR/$fig.json")
  "target/release/$fig" --points "$points" "${json[@]}" \
    >"$TRACE_DIR/$fig.out" 2>&1 || { echo "$fig failed"; exit 1; }
  grep -v '^wrote ' "$TRACE_DIR/$fig.out" >"$TRACE_DIR/$fig.txt"
  grep -v '^wrote ' "results/$fig.txt" >"$TRACE_DIR/$fig.committed.txt"
  cmp -s "$TRACE_DIR/$fig.txt" "$TRACE_DIR/$fig.committed.txt" \
    || { echo "$fig differs from results/$fig.txt:"
         diff "$TRACE_DIR/$fig.committed.txt" "$TRACE_DIR/$fig.txt"; exit 1; }
  if ((${#json[@]})); then
    cmp -s "$TRACE_DIR/$fig.json" "results/$fig.json" \
      || { echo "$fig differs from results/$fig.json:"
           diff "results/$fig.json" "$TRACE_DIR/$fig.json"; exit 1; }
  fi
done

# A trace that cannot be written fails the run that asked for it: the JSONL
# sink keeps its first write error and returns it when flushed.
echo "== observability (an unwritable trace fails seplsm stats) =="
target/release/seplsm generate --dataset M3 --points 2000 --seed 7 \
  --out "$TRACE_DIR/small.csv" >/dev/null
if target/release/seplsm stats --input "$TRACE_DIR/small.csv" \
    --trace /dev/full >/dev/null 2>&1; then
  echo "seplsm stats reported a trace to /dev/full as written"; exit 1
fi

# Frozen-benchmark lane: `benchmark/` (a cargo workspace of its own) is the
# instrument every later PR is judged with and may not change with the code
# it measures, so an engine-API change that breaks `benchmark/src/adapter.rs`
# has to fail here. The smoke run builds it against this checkout and drives
# all five workloads at 1/50 size; it exits non-zero on a build error, a
# failed operation or an answer that differs from the oracle.
echo "== benchmark smoke (frozen adapter contract) =="
SMOKE_OUT="$TRACE_DIR/smoke.txt"
bash benchmark/run.sh --smoke --seconds 10 >"$SMOKE_OUT"
# The same run's exact counters — write amplification, bytes written and
# stored per point, fsyncs and write syscalls per 1 000 points, and read
# syscalls per read of the two inline ingest workloads, of read-mix and of
# fleet-skew, whose series all flush on one thread — repeat bit for bit
# from run to run (read bytes per read do not: they move by a few bytes),
# so they are compared with the record in scripts/smoke_counters.json.
# A change that means to move them updates that file in the same diff.
echo "== benchmark smoke (exact counters equal scripts/smoke_counters.json) =="
python3 - "$SMOKE_OUT" scripts/smoke_counters.json <<'PYEOF'
import json, sys
out, record = sys.argv[1:]
# run.sh runs the workloads in this order; each prints its JSON result last.
order = ["ingest-pc", "ingest-ps", "ingest-bg-open", "read-mix", "fleet-skew"]
results = [json.loads(l) for l in open(out) if l.startswith("{")]
assert len(results) == len(order), f"{len(results)} results, {len(order)} workloads"
got = dict(zip(order, results))
expected = json.load(open(record))
# The traced run's entry is checked below, after that run.
expected.pop("fleet-skew traced")
moved = []
for workload, metrics in expected.items():
    for name, want in metrics.items():
        have = got[workload]["metrics"][name]["value"]
        if have != want:
            moved.append(f"{workload} {name}: recorded {want!r}, ran {have!r}")
for line in moved:
    print(f"smoke counter moved: {line}")
if moved:
    print(f"a change that means to move these counters updates {record}")
    sys.exit(1)
print(f"smoke counters OK: {sum(map(len, expected.values()))} exact")
PYEOF
# The traced run wraps the store in the benchmark's frozen `TimedStore`,
# which forwards neither `publish_batch` nor `sync_published`: every horizon
# then runs over the trait's *defaults* (every table durable as it is
# written, nothing left to sync), a path no other lane takes.
echo "== benchmark smoke (traced fleet, default publish/sync pair) =="
TRACED_OUT="$TRACE_DIR/smoke_traced.txt"
bash benchmark/run.sh --smoke --seconds 10 --workload fleet-skew --trace 1 \
  >"$TRACED_OUT"
# The untraced counters above cannot see the fleet arbiter: at 1/50 size a
# change to how it splits the memory can leave every flush where it was.
# Its own lines in the traced run — rebalances, resizes and the hot/cold
# capacity ratio, as printed — repeat from run to run, so they are compared
# with the "fleet-skew traced" entry of scripts/smoke_counters.json.
echo "== benchmark smoke (traced fleet arbiter equals scripts/smoke_counters.json) =="
python3 - "$TRACED_OUT" scripts/smoke_counters.json <<'PYEOF'
import json, sys
out, record = sys.argv[1:]
expected = json.load(open(record))["fleet-skew traced"]
printed = {}
for line in open(out):
    parts = line.split()
    if len(parts) == 3 and parts[0] in expected:
        printed[parts[0]] = float(parts[1])
moved = [f"{name}: recorded {want!r}, ran {printed.get(name)!r}"
         for name, want in expected.items() if printed.get(name) != want]
for line in moved:
    print(f"traced smoke line moved: {line}")
if moved:
    print(f"a change that means to move these lines updates {record}")
    sys.exit(1)
print(f"traced smoke lines OK: {len(expected)} exact")
PYEOF

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

# Opt-in data-race lane: TSAN=1 scripts/ci.sh rebuilds the cache and
# background-worker tests under ThreadSanitizer (nightly-only
# -Zsanitizer=thread) — the runtime complement to seplint R8's static lock
# discipline. Tolerant-skip like the MIRI lane: a stable-only toolchain just
# reports and moves on.
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
      --target-dir target/tsan -- cache:: background:: \
      || { echo "ThreadSanitizer lane failed"; exit 1; }
  else
    echo "== TSAN=1 requested but nightly + rust-src are not installed; skipping =="
  fi
fi

echo CI-OK
