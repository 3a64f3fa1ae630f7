//! The fsync budget of the durability horizon, proved op by op.
//!
//! Every engine here runs on the real durable stack — `FileStore` + WAL +
//! manifest — with a `FaultPlan::trace_only` attached, so the trace names
//! every physical I/O op in execution order. Between horizons a flush or
//! merge does no I/O at all — its tables are staged in the store's memory,
//! and the inputs no horizon synced are dropped from there: no write, no
//! fsync, no rename, no delete, no manifest, nothing on the WAL. A horizon
//! (an engine's flushes took 64 tables' worth of points out of memory, or it
//! comes to rest) costs exactly one write per table still live and
//! unsynced, then per table one fsync followed by its rename, then 1
//! tables-directory fsync and 1 manifest fsync, then the deletion of the
//! durable inputs the plans retired; the checkpoints it queues ride on the
//! next write of the log. A merge whose k tables are what its horizon finds
//! live therefore costs k + 2 fsyncs; a batch between horizons one WAL
//! write + one WAL fsync, however many series of a fleet it touched or
//! flushed, and a fleet batch that reaches a horizon Σk + 3. The background
//! worker runs the same horizon after the plan that makes one due, and an
//! engine with neither a log nor a manifest runs it with nothing to record.
//! The log file is cut only past its dead-bytes threshold and when the
//! engine comes to rest. A regression names the op that crept back in.
//! The "checkpoint bytes" section pins what the checkpoints cost in bytes:
//! their ranges, and the points still volatile inside them — not the
//! buffers the flushes did not take. The last section pins what a merge
//! reads: nothing of the tables the engine (or its fleet) wrote lately,
//! which it takes from the pool of written tables; exactly its inputs after
//! a reopen.

#[allow(dead_code)] // each test file uses part of it
#[path = "support/wal_layout.rs"]
mod wal_layout;

use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

use seplsm::lsm::{SsTableId, SsTableMeta};
use wal_layout::{
    checkpoint_frame, point_bytes, points_frame, CHECKPOINT_FRAME,
};

use seplsm::{
    ArbiterConfig, DataPoint, EngineConfig, Event, FaultPlan, FileStore, IoOp,
    MultiOpenOptions, OpenOptions, Policy, RingBufferSink, SeriesId,
    TableStore, TieredOpenOptions, TimeRange,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "seplsm-fsync-budget-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store(dir: &TempDir, plan: &Arc<FaultPlan>) -> Arc<FileStore> {
    Arc::new(
        FileStore::open(dir.path("tables"))
            .expect("store")
            .with_faults(Arc::clone(plan)),
    )
}

fn point(gen_time: i64) -> DataPoint {
    DataPoint::new(gen_time, gen_time + 1, gen_time as f64)
}

fn count(ops: &[IoOp], op: IoOp) -> usize {
    ops.iter().filter(|o| **o == op).count()
}

/// The ops that end in an fsync — the benchmark's `fsyncs_per_kpoint` set.
fn fsyncs(ops: &[IoOp]) -> usize {
    [
        IoOp::StoreSync,
        IoOp::DirSync,
        IoOp::WalSync,
        IoOp::WalRewrite,
        IoOp::ManifestSync,
        IoOp::ManifestRewrite,
    ]
    .iter()
    .map(|op| count(ops, *op))
    .sum()
}

fn first(ops: &[IoOp], op: IoOp) -> usize {
    ops.iter()
        .position(|o| *o == op)
        .unwrap_or_else(|| panic!("no {op:?} in {ops:?}"))
}

fn last(ops: &[IoOp], op: IoOp) -> usize {
    ops.iter()
        .rposition(|o| *o == op)
        .unwrap_or_else(|| panic!("no {op:?} in {ops:?}"))
}

/// `n` staged tables written to their tmp files, as a sync starts.
fn written(n: usize) -> Vec<IoOp> {
    [IoOp::StoreWrite].repeat(n)
}

/// `n` tables made durable one by one: each fsynced, then renamed to its
/// live name.
fn synced(n: usize) -> Vec<IoOp> {
    [IoOp::StoreSync, IoOp::StoreRename].repeat(n)
}

/// `ops` concatenated.
fn seq(parts: &[&[IoOp]]) -> Vec<IoOp> {
    parts.concat()
}

/// `ops` without the table reads: debug builds decode the run's tail after
/// every plan (`check_version_against_store`), which reads the store again
/// — a hooked op for a synced table, none for a staged one.
fn unread(ops: &[IoOp]) -> Vec<IoOp> {
    ops.iter()
        .copied()
        .filter(|op| *op != IoOp::StoreRead)
        .collect()
}

/// The grouped commit of `k` tables written and made durable, up to and
/// including the manifest fsync: k table writes, *then* per table one fsync
/// and its rename, *then* one directory fsync, *then* one manifest append +
/// fsync — and no manifest rewrite.
fn assert_grouped_commit(ops: &[IoOp], k: usize) {
    assert_eq!(count(ops, IoOp::StoreWrite), k, "{ops:?}");
    assert_eq!(count(ops, IoOp::StoreSync), k, "{ops:?}");
    assert_eq!(count(ops, IoOp::StoreRename), k, "{ops:?}");
    assert_eq!(count(ops, IoOp::ManifestAppend), 1, "{ops:?}");
    assert_eq!(count(ops, IoOp::ManifestSync), 1, "{ops:?}");
    assert_eq!(count(ops, IoOp::ManifestRewrite), 0, "{ops:?}");
    assert_eq!(count(ops, IoOp::ManifestRename), 0, "{ops:?}");
    let syncs = first(ops, IoOp::StoreSync);
    assert!(
        last(ops, IoOp::StoreWrite) < syncs,
        "every table written before the first fsync: {ops:?}"
    );
    assert_eq!(ops[syncs..syncs + 2 * k], synced(k), "{ops:?}");
    let tables_dir_sync = first(ops, IoOp::DirSync);
    assert!(
        last(ops, IoOp::StoreRename) < tables_dir_sync,
        "every rename precedes the directory fsync: {ops:?}"
    );
    assert!(
        tables_dir_sync < first(ops, IoOp::ManifestAppend)
            && first(ops, IoOp::ManifestAppend)
                < first(ops, IoOp::ManifestSync),
        "tables durable before the manifest commit: {ops:?}"
    );
}

/// The ops of the WAL: nothing of a flush or merge may touch it.
fn wal_ops(ops: &[IoOp]) -> usize {
    [
        IoOp::WalAppend,
        IoOp::WalSync,
        IoOp::WalRewrite,
        IoOp::WalRename,
    ]
    .iter()
    .map(|op| count(ops, *op))
    .sum()
}

/// An inline engine over `dir` on the durable stack, every op traced.
fn durable(
    dir: &TempDir,
    plan: &Arc<FaultPlan>,
    config: EngineConfig,
) -> seplsm::LsmEngine {
    OpenOptions::new(config)
        .store(store(dir, plan))
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .faults(Arc::clone(plan))
        .open()
        .expect("open")
}

#[test]
fn a_merge_writing_k_tables_costs_k_plus_two_fsyncs_and_the_sync_one() {
    let dir = TempDir::new("merge");
    let plan = FaultPlan::trace_only(0);
    // Tables of 4 points: a horizon once the flushes took 256 points out
    // of memory, 64 tables' worth — sixteen fills of C0.
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(4);
    let mut engine = durable(&dir, &plan, config);
    // Sixteen in-order points fill C0: the first flush lays down 4 tables.
    for i in 0..16 {
        engine.append(point(i * 100)).expect("append");
    }
    assert_eq!(engine.run().len(), 4);
    // Fourteen rounds of sixteen stragglers spanning the whole run: every
    // round's merge consumes every table the one before it wrote and drops
    // them unsynced. None of it is an fsync, or a manifest record — or any
    // op at all: the tables live and die in the store's memory.
    let straggle = |round: i64| {
        std::iter::once(-round).chain((1..16).map(move |i| i * 100 + round))
    };
    let before = plan.ops() as usize;
    let (created, deleted) = (
        engine.metrics().tables_created,
        engine.metrics().tables_deleted,
    );
    for round in 1..15 {
        for tg in straggle(round) {
            engine.append(point(tg)).expect("append");
        }
    }
    let rounds = &plan.trace()[before..];
    assert_eq!(engine.metrics().compactions, 14);
    assert_eq!(fsyncs(rounds), 0, "{rounds:?}");
    assert_eq!(count(rounds, IoOp::ManifestAppend), 0, "{rounds:?}");
    assert_eq!(count(rounds, IoOp::StoreRename), 0, "{rounds:?}");
    assert_eq!(wal_ops(rounds), 0, "{rounds:?}");
    assert!(rounds.is_empty(), "{rounds:?}");
    // Round r writes 4(r + 1) tables and deletes the 4r it merged.
    let metrics = engine.metrics();
    let sum = |r: std::ops::Range<u64>| 4 * r.sum::<u64>();
    assert_eq!(metrics.tables_created - created, sum(2..16));
    assert_eq!(metrics.tables_deleted - deleted, sum(1..15));
    // The fifteenth round's merge makes 256 points into k = 64 tables, and
    // the flushes have now taken 256 points out of memory: its horizon
    // finds exactly its k tables live.
    let last_round: Vec<i64> = straggle(15).collect();
    for &tg in &last_round[..15] {
        engine.append(point(tg)).expect("append");
    }
    engine.sync_wal().expect("sync");
    let before = plan.ops() as usize;
    engine
        .append(point(last_round[15]))
        .expect("append triggers the merge");
    let trace = plan.trace();
    let ops = &trace[before..];
    let k = 64;
    assert_eq!(engine.run().len(), k);
    assert_eq!(engine.metrics().compactions, 15);

    assert_grouped_commit(ops, k);
    assert_eq!(count(ops, IoOp::DirSync), 1, "{ops:?}");
    // The merge's 60 inputs were never synced: dropped, at no op.
    assert_eq!(count(ops, IoOp::StoreDelete), 0, "never synced: {ops:?}");
    // The WAL checkpoint is a frame queued in the log: no I/O here.
    assert_eq!(wal_ops(ops), 0, "{ops:?}");
    assert_eq!(fsyncs(ops), k + 2, "{ops:?}");
    // Nothing survived the merge, so the point appended since the last
    // sync is in its tables: the batch's closing sync has nothing to do.
    // (With points appended after the merge it is the batch's one write and
    // one fsync, checkpoint frame included: k + 3 for the whole batch.)
    let before = plan.ops() as usize;
    engine.sync_wal().expect("sync");
    assert_eq!(plan.ops() as usize, before);
    engine.append(point(3000)).expect("append");
    engine.sync_wal().expect("sync");
    assert_eq!(plan.trace()[before..], [IoOp::WalAppend, IoOp::WalSync]);
    // At rest the log is cut to its header, in place, behind the horizon.
    engine.flush_all().expect("flush");
    let rest = &plan.trace()[before + 2..];
    assert_eq!(wal_ops(rest), 1, "{rest:?}");
    assert!(
        first(rest, IoOp::ManifestSync) < first(rest, IoOp::WalRewrite),
        "{rest:?}"
    );
    assert_eq!(engine.wal_stats().map(|s| s.cuts), Some(1));
}

#[test]
fn an_in_order_flush_defers_every_fsync_to_its_horizon_survivors_or_not() {
    let dir = TempDir::new("in-order");
    let plan = FaultPlan::trace_only(0);
    let policy = Policy::separation(8, 4).expect("policy");
    let config = EngineConfig::new(policy).with_sstable_points(4);
    let mut engine = durable(&dir, &plan, config);

    // C_seq fills with nothing in C_nonseq: no buffered point survives.
    for i in 0..3 {
        engine.append(point(i * 10)).expect("append");
    }
    let before = plan.ops() as usize;
    engine.append(point(30)).expect("append triggers the flush");
    assert_eq!(engine.run().len(), 1);
    assert!(plan.trace()[before..].is_empty(), "{:?}", plan.trace());

    // Now with a straggler parked in C_nonseq: it survives the flush, which
    // still stages its table and does nothing else.
    engine.append(point(15)).expect("straggler");
    for i in 4..7 {
        engine.append(point(i * 10)).expect("append");
    }
    let before = plan.ops() as usize;
    engine.append(point(70)).expect("append triggers the flush");
    assert_eq!(engine.run().len(), 2);
    assert_eq!(engine.buffered_points(), 1);
    assert!(plan.trace()[before..].is_empty(), "{:?}", plan.trace());
    // The batch's sync writes what was appended since the last one — the
    // flushed points too: no durable table holds them yet.
    let before = plan.ops() as usize;
    engine.sync_wal().expect("sync");
    assert_eq!(plan.trace()[before..], [IoOp::WalAppend, IoOp::WalSync]);
    // At rest, the horizon writes and syncs every table live then — the
    // straggler's merge dropped one of the two unsynced — once, before the
    // manifest.
    let before = plan.ops() as usize;
    engine.flush_all().expect("flush");
    let rest = &plan.trace()[before..];
    let live = engine.run().len();
    assert_eq!(count(rest, IoOp::StoreSync), live, "{rest:?}");
    assert_eq!(count(&plan.trace(), IoOp::StoreSync), live);
    assert_eq!(count(&plan.trace(), IoOp::StoreWrite), live);
    assert_eq!(count(&plan.trace(), IoOp::StoreDelete), 0);
    assert!(
        last(rest, IoOp::StoreRename) < first(rest, IoOp::DirSync)
            && first(rest, IoOp::DirSync) < first(rest, IoOp::ManifestSync)
            && first(rest, IoOp::ManifestSync) < first(rest, IoOp::WalRewrite),
        "{rest:?}"
    );
}

/// The cut schedule: flushes of 256 in-order points into four 64-point
/// tables with a sync every 64 appends — a horizon every sixteen flushes,
/// 64 tables' worth of points. Until a horizon every logged point is live;
/// at one, the checkpoints — one per flush, 29 B, the ranges disjoint —
/// leave all of them dead, and the horizon's own last 64 points never reach
/// the file (flushed and checkpointed before their sync). Returns the
/// horizon whose checkpoints take the dead bytes past 64 KiB: with nothing
/// live, that is where the file is truncated in place.
fn horizon_that_makes_the_cut_due() -> usize {
    let mut dead = 0;
    for cycle in 1i64.. {
        let horizon = cycle % 16 == 0;
        for quarter in 0..if horizon { 3 } else { 4 } {
            let at = (cycle - 1) * 256 + quarter * 64;
            let frame: Vec<DataPoint> = (at..at + 64).map(point).collect();
            dead += points_frame(&frame);
        }
        if horizon {
            dead += 16 * CHECKPOINT_FRAME;
            if dead > 64 * 1024 {
                return cycle as usize / 16;
            }
        }
    }
    unreachable!("every cycle adds dead bytes")
}

#[test]
fn the_log_is_cut_only_past_its_dead_bytes_threshold_or_at_rest() {
    let dir = TempDir::new("cut");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(256)).with_sstable_points(64);
    let mut engine = durable(&dir, &plan, config);
    // One flush more than it takes to make the cut due.
    let due = horizon_that_makes_the_cut_due();
    assert_eq!(due, 3);
    for i in 0..(due as i64 * 16 + 1) * 256 {
        engine.append(point(i)).expect("append");
        if (i + 1) % 64 == 0 {
            engine.sync_wal().expect("sync");
        }
    }
    let trace = plan.trace();
    assert_eq!(count(&trace, IoOp::ManifestSync), due, "one per horizon");
    assert_eq!(count(&trace, IoOp::WalRewrite), 1, "{trace:?}");
    assert_eq!(count(&trace, IoOp::WalRename), 0, "{trace:?}");
    let cut = first(&trace, IoOp::WalRewrite);
    assert_eq!(count(&trace[..cut], IoOp::ManifestSync), due, "{trace:?}");
    let commit = last(&trace[..cut], IoOp::ManifestSync);
    assert_eq!(wal_ops(&trace[commit..cut]), 0, "cut follows its commit");
    // The engine comes to rest: its horizon, one more cut, then nothing
    // left to cut.
    let before = plan.ops() as usize;
    engine.flush_all().expect("flush");
    engine.flush_all().expect("flush");
    let rest = &plan.trace()[before..];
    assert_eq!(wal_ops(rest), 1, "{rest:?}");
    assert!(
        first(rest, IoOp::ManifestSync) < first(rest, IoOp::WalRewrite),
        "{rest:?}"
    );
    let stats = engine.wal_stats().expect("wal");
    assert_eq!((stats.cuts, stats.live_bytes, stats.dead_bytes), (2, 0, 0));
}

#[test]
fn the_background_engine_pays_the_same_grouped_commit() {
    let dir = TempDir::new("tiered");
    let plan = FaultPlan::trace_only(0);
    // Tables of 4 points, C0 of 8: a flush is two tables, the worker merges
    // L0 every second flush, and a horizon is due every 32 flushes.
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(4);
    let mut engine = TieredOpenOptions::new(config)
        .store(store(&dir, &plan))
        // Each append returns only once the worker has committed its
        // hand-off; `quiesce` is a job queued behind that commit's due
        // horizon, and the worker merges L0 once that horizon is done.
        .sync_flush()
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    let mut next = 0;
    let mut in_order = |engine: &mut seplsm::TieredEngine, n: i64| {
        for _ in 0..n {
            engine.append(point(next * 10)).expect("append");
            next += 1;
        }
    };
    let table_io = [
        IoOp::StoreWrite,
        IoOp::StoreSync,
        IoOp::DirSync,
        IoOp::ManifestSync,
    ];
    let io = |ops: &[IoOp]| table_io.map(|op| count(ops, op));
    // A flush and an L0 merge between horizons: neither writes, syncs or
    // records anything.
    let before = plan.ops() as usize;
    in_order(&mut engine, 8);
    engine.quiesce().expect("merge L0 into the empty run");
    assert_eq!(io(&plan.trace()[before..]), [0; 4]);
    // The 32nd flush makes the horizon due: the 64 live tables, none of
    // which a horizon recorded, written and synced, then the directory and
    // one manifest group; the consumed tables no horizon synced were
    // dropped as they went, so there is nothing to delete.
    in_order(&mut engine, 247);
    engine.sync_wal().expect("sync");
    let before = plan.ops() as usize;
    in_order(&mut engine, 1);
    engine.quiesce().expect("wait out the horizon");
    let commit = [IoOp::DirSync, IoOp::ManifestAppend, IoOp::ManifestSync];
    assert_eq!(
        unread(&plan.trace()[before..]),
        seq(&[&written(64), &synced(64), &commit])
    );
    // Eight stragglers into the first two run tables, which that horizon
    // made durable: the merge retires them and stages its four outputs, at
    // no I/O.
    for i in 0..8 {
        engine.append(point(i * 10 + 5)).expect("append");
    }
    let before = plan.ops() as usize;
    engine.quiesce().expect("merge the stragglers");
    assert_eq!(unread(&plan.trace()[before..]), []);
    // 31 flushes more make the next horizon: the 68 live tables no horizon
    // recorded — the merges' 2 + 4 outputs and the flushes' 62 — written
    // and synced, the directory, one group, and only then the four retired
    // tables, two of L0 and two of the run, deleted.
    in_order(&mut engine, 247);
    engine.sync_wal().expect("sync");
    let before = plan.ops() as usize;
    in_order(&mut engine, 1);
    engine.quiesce().expect("wait out the horizon");
    let delete = [IoOp::StoreDelete].repeat(4);
    assert_eq!(
        unread(&plan.trace()[before..]),
        seq(&[&written(68), &synced(68), &commit, &delete])
    );
    engine.finish().expect("finish");
}

#[test]
fn a_merge_over_never_synced_inputs_deletes_them_and_syncs_nothing() {
    let dir = TempDir::new("unsynced-inputs");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(4);
    let mut engine = durable(&dir, &plan, config);
    for i in 0..16 {
        engine.append(point(i * 10)).expect("append");
    }
    for i in 0..15 {
        engine.append(point(i * 10 + 5)).expect("append");
    }
    // The merge consumes the four tables the flush staged, which no horizon
    // synced: it stages its eight, drops those four, and touches nothing.
    let before = plan.ops() as usize;
    engine.append(point(155)).expect("append merges");
    assert_eq!(engine.metrics().compactions, 1);
    assert_eq!(engine.metrics().tables_created, 4 + 8);
    assert_eq!(engine.metrics().tables_deleted, 4);
    assert!(plan.trace()[before..].is_empty(), "{:?}", plan.trace());
    // Its outputs cost no write and no fsync until the horizon, which
    // writes and syncs each of them once, retires nothing and records
    // exactly them.
    let before = plan.ops() as usize;
    engine.flush_all().expect("flush");
    let rest = &plan.trace()[before..];
    assert_eq!(count(rest, IoOp::StoreWrite), 8, "{rest:?}");
    assert_eq!(count(rest, IoOp::StoreSync), 8, "{rest:?}");
    assert_eq!(count(rest, IoOp::StoreDelete), 0, "{rest:?}");
    assert_eq!(engine.manifest_stats().expect("manifest").live, 8);
}

#[test]
fn a_horizon_syncs_then_commits_then_deletes_then_checkpoints() {
    let dir = TempDir::new("horizon");
    let plan = FaultPlan::trace_only(0);
    // Tables of 4 points, C0 of 16: a horizon every sixteen plans.
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(4);
    let mut engine = durable(&dir, &plan, config);
    // Sixteen in-order flushes: the sixteenth is the horizon over the 64
    // tables they staged, which it writes only now.
    for i in 0..255 {
        engine.append(point(i * 10)).expect("append");
    }
    engine.sync_wal().expect("sync");
    let before = plan.ops() as usize;
    engine.append(point(2550)).expect("the sixteenth flush");
    let commit = [IoOp::DirSync, IoOp::ManifestAppend, IoOp::ManifestSync];
    assert_eq!(
        unread(&plan.trace()[before..]),
        seq(&[&written(64), &synced(64), &commit])
    );
    assert_eq!(engine.manifest_stats().expect("manifest").records, 65);

    // A merge of sixteen stragglers into the first four tables, which the
    // horizon made durable: they leave the version but stay on disk, and
    // its eight outputs are staged.
    for i in 0..15 {
        engine.append(point(i * 10 + 5)).expect("append");
    }
    let before = plan.ops() as usize;
    engine.append(point(155)).expect("append merges");
    assert_eq!(unread(&plan.trace()[before..]), []);
    // Fifteen flushes more make the next horizon: the 8 + 60 tables live
    // and unsynced written and synced, the directory, one group holding the
    // net change (the 4 retired out, the 68 in), and only then the 4
    // retired deleted.
    for i in 256..495 {
        engine.append(point(i * 10)).expect("append");
    }
    engine.sync_wal().expect("sync");
    let frames = engine.wal_stats().expect("wal").frames;
    let before = plan.ops() as usize;
    engine.append(point(4950)).expect("the last flush");
    let delete = [IoOp::StoreDelete].repeat(4);
    assert_eq!(
        unread(&plan.trace()[before..]),
        seq(&[&written(68), &synced(68), &commit, &delete])
    );
    let manifest = engine.manifest_stats().expect("manifest");
    assert_eq!(manifest.records, 65 + 1 + 4 + 68);
    assert_eq!(manifest.live, 128);
    // Then its checkpoints: one frame per disjoint range the sixteen plans
    // took — the merge's and fifteen flushes' — queued, riding on the
    // next write.
    let stats = engine.wal_stats().expect("wal");
    assert_eq!(stats.frames, frames + 16);
    assert_eq!(stats.live_bytes, 0, "everything logged is durable now");
    let before = plan.ops() as usize;
    engine.append(point(5000)).expect("append");
    engine.sync_wal().expect("sync");
    assert_eq!(plan.trace()[before..], [IoOp::WalAppend, IoOp::WalSync]);
}

#[test]
fn an_engine_with_neither_log_nor_manifest_syncs_its_tables_at_rest() {
    let dir = TempDir::new("bare");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(4);
    let mut engine = OpenOptions::new(config)
        .store(store(&dir, &plan))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    // A flush of four tables, then a merge of sixteen stragglers into
    // them: eight tables, and no table I/O for either.
    for i in 0..16 {
        engine.append(point(i * 10)).expect("append");
    }
    for i in 0..16 {
        engine.append(point(i * 10 + 5)).expect("append");
    }
    assert_eq!(engine.metrics().compactions, 1);
    assert_eq!(unread(&plan.trace()), []);
    // At rest the horizon: each live table written and synced, then the
    // directory; nothing to record and nothing retired.
    engine.flush_all().expect("flush");
    assert_eq!(
        unread(&plan.trace()),
        seq(&[&written(8), &synced(8), &[IoOp::DirSync]])
    );
}

/// The ops of a commit: the tables directory, the manifest, the deletion
/// of consumed inputs. A fleet series' flush may issue none of them.
fn commit_ops(ops: &[IoOp]) -> usize {
    [
        IoOp::DirSync,
        IoOp::ManifestAppend,
        IoOp::ManifestSync,
        IoOp::ManifestRewrite,
        IoOp::ManifestRename,
        IoOp::StoreDelete,
    ]
    .iter()
    .map(|op| count(ops, *op))
    .sum()
}

#[test]
fn a_fleet_batch_pays_one_commit_however_many_series_flushed() {
    let dir = TempDir::new("fleet");
    let plan = FaultPlan::trace_only(0);
    // Tables of 4 points: the fleet's horizon is due at the first sync
    // after its series' flushes took 256 points out of memory.
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(4);
    let tables = store(&dir, &plan);
    let mut fleet = MultiOpenOptions::new(config)
        .store(Arc::clone(&tables) as Arc<dyn TableStore>)
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    // Series 1–3 each lay down two tables, series 0 fifty-eight — 256
    // points, a horizon at the sync; series 4 only buffers.
    for s in 1..4 {
        for i in 0..8 {
            fleet.append(SeriesId(s), point(i * 10)).expect("append");
        }
    }
    for i in 0..232 {
        fleet.append(SeriesId(0), point(i * 10)).expect("append");
    }
    fleet.append(SeriesId(4), point(0)).expect("append");
    fleet.sync_wal_all().expect("sync");
    // One batch in which m = 4 series flush k = 4 + 2 + 4 + 56 tables and
    // 256 points again: series 1 merges eight stragglers into its two
    // tables (which the last horizon made durable), series 2 flushes once,
    // series 3 twice, series 0 twenty-eight times.
    let before = plan.ops() as usize;
    for i in 0..8 {
        fleet
            .append(SeriesId(1), point(i * 10 + 5))
            .expect("append");
        fleet
            .append(SeriesId(2), point(i * 10 + 80))
            .expect("append");
        fleet
            .append(SeriesId(3), point(i * 10 + 80))
            .expect("append");
    }
    for i in 0..8 {
        fleet
            .append(SeriesId(3), point(i * 10 + 160))
            .expect("append");
    }
    for i in 232..456 {
        fleet.append(SeriesId(0), point(i * 10)).expect("append");
    }
    fleet.append(SeriesId(4), point(10)).expect("append");
    assert_eq!(fleet.combined_metrics().compactions, 1);
    assert_eq!(fleet.combined_metrics().flushes, 32 + 31);
    let k = 4 + 2 + 4 + 56;
    assert_eq!(tables.staged_tables(), k);
    let synced_at = plan.ops() as usize;
    fleet.sync_wal_all().expect("sync");
    let trace = plan.trace();
    // The flushes stage their tables and do nothing else.
    let flushes = &trace[before..synced_at];
    assert_eq!(count(flushes, IoOp::StoreWrite), 0, "{flushes:?}");
    assert_eq!(fsyncs(flushes), 0, "{flushes:?}");
    assert_eq!(commit_ops(flushes), 0, "{flushes:?}");
    assert_eq!(wal_ops(flushes), 0, "{flushes:?}");
    assert_eq!(unread(flushes), [], "{flushes:?}");
    // The sync is the horizon: every table the batch left live written and
    // synced, the directory, every series' group in one manifest append +
    // fsync, series 1's two retired inputs, then — its checkpoints queued
    // behind all of that — the log.
    let tail = [
        IoOp::DirSync,
        IoOp::ManifestAppend,
        IoOp::ManifestSync,
        IoOp::StoreDelete,
        IoOp::StoreDelete,
        IoOp::WalAppend,
        IoOp::WalSync,
    ];
    assert_eq!(trace[synced_at..], seq(&[&written(k), &synced(k), &tail]));
    assert_eq!(fsyncs(&trace[before..]), k + 3, "{trace:?}");
    assert_eq!(tables.staged_tables(), 0);
    // Nothing is pending any more: a second sync finds a clean fleet.
    let before = plan.ops() as usize;
    fleet.sync_wal_all().expect("sync");
    assert_eq!(plan.ops() as usize, before);
}

#[test]
fn a_rebalance_that_flushes_twenty_series_commits_nothing_until_the_sync() {
    let dir = TempDir::new("fleet-rebalance");
    let plan = FaultPlan::trace_only(0);
    // Two-point tables: a horizon once the flushes took 128 points out of
    // memory.
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(2);
    // 21 series at 16 points each while they are equally hot; the floor is
    // what a series is admitted with, before the first split.
    let series = 21u32;
    let arbiter = ArbiterConfig::new(u64::from(series) * 16)
        .with_floor(4)
        .with_rebalance_every(u64::from(series));
    let tables = store(&dir, &plan);
    let mut fleet = MultiOpenOptions::new(config)
        .store(Arc::clone(&tables) as Arc<dyn TableStore>)
        .durable_dir(dir.path("meta"))
        .arbiter(arbiter)
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    // Fifteen round-robin rounds: every split finds the series equally hot
    // and leaves each with fifteen points in a buffer of sixteen.
    for i in 0..15 {
        for s in 0..series {
            fleet.append(SeriesId(s), point(i * 10)).expect("append");
        }
    }
    assert_eq!(fleet.combined_metrics().flushes, 0);
    // Twenty appends to series 0 alone (it flushes twice: sixteen tables),
    // acknowledged.
    for i in 15..35 {
        fleet.append(SeriesId(0), point(i * 10)).expect("append");
    }
    fleet.sync_wal_all().expect("sync");
    let flushes = fleet.combined_metrics().flushes;
    // The twenty-first is the split: series 0 has all the recent heat, and
    // every other series shrinks to 14 points, below the 15 it holds, and
    // flushes 14 of them as seven tables — past the 128 points that make a
    // horizon due, yet short of the 256 unsynced tables that would run one
    // inside the append: 16 + 140 tables wait for the sync.
    let before = plan.ops() as usize;
    let staged = tables.staged_tables();
    fleet.append(SeriesId(0), point(350)).expect("append");
    assert_eq!(fleet.combined_metrics().flushes, flushes + 20);
    let synced_at = plan.ops() as usize;
    // Every table staged since the last horizon is live — in-order
    // flushes consume nothing — and is written and synced at this one.
    let live = tables.staged_tables();
    assert!(live >= staged + 20, "{staged} → {live}");
    fleet.sync_wal_all().expect("sync");
    let trace = plan.trace();
    let rebalance = &trace[before..synced_at];
    assert_eq!(count(rebalance, IoOp::StoreWrite), 0, "{rebalance:?}");
    assert_eq!(fsyncs(rebalance), 0, "{rebalance:?}");
    assert_eq!(commit_ops(rebalance), 0, "{rebalance:?}");
    assert_eq!(wal_ops(rebalance), 0, "{rebalance:?}");
    let tail = [
        IoOp::DirSync,
        IoOp::ManifestAppend,
        IoOp::ManifestSync,
        IoOp::WalAppend,
        IoOp::WalSync,
    ];
    assert_eq!(
        trace[synced_at..],
        seq(&[&written(live), &synced(live), &tail])
    );
    assert_eq!(tables.staged_tables(), 0);
}

#[test]
fn a_pending_commit_forces_itself_before_a_log_cut_and_past_the_table_bound() {
    // The bound: a caller that never syncs. One table per four points;
    // the fleet lets 256 of them wait unsynced and runs its horizon by
    // itself at the next — every table, the directory, the manifest, and
    // no fsync of the log nobody asked for.
    let dir = TempDir::new("fleet-bound");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(4)).with_sstable_points(4);
    let tables = store(&dir, &plan);
    let mut fleet = MultiOpenOptions::new(config)
        .store(Arc::clone(&tables) as Arc<dyn TableStore>)
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    for i in 0..256 * 4 {
        fleet.append(SeriesId(9), point(i)).expect("append");
    }
    let trace = plan.trace();
    assert_eq!(tables.staged_tables(), 256);
    assert_eq!(count(&trace, IoOp::StoreWrite), 0, "{trace:?}");
    assert_eq!(fsyncs(&trace), 0, "{trace:?}");
    assert_eq!(commit_ops(&trace), 0, "{trace:?}");
    let before = plan.ops() as usize;
    for i in 256 * 4..257 * 4 {
        fleet.append(SeriesId(9), point(i)).expect("append");
    }
    let trace = plan.trace();
    // The log's own spills aside: its pending buffer is written, never
    // fsynced, when 342 points wait.
    let ops: Vec<IoOp> = unread(&trace[before..])
        .into_iter()
        .filter(|op| *op != IoOp::WalAppend)
        .collect();
    let commit = [IoOp::DirSync, IoOp::ManifestAppend, IoOp::ManifestSync];
    assert_eq!(ops, seq(&[&written(257), &synced(257), &commit]));
    assert_eq!(count(&trace, IoOp::WalSync), 0, "{trace:?}");
    assert_eq!(tables.staged_tables(), 0);
    drop(fleet);

    // The cut: the single-series schedule of
    // `the_log_is_cut_only_past_its_dead_bytes_threshold_or_at_rest`, on a
    // fleet. The checkpoints of the horizon that makes the cut due are
    // queued at that batch's sync, behind the manifest fsync that covers
    // their flushes, and the cut follows them.
    let dir = TempDir::new("fleet-cut");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(256)).with_sstable_points(64);
    let mut fleet = MultiOpenOptions::new(config)
        .store(store(&dir, &plan))
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    let due = horizon_that_makes_the_cut_due();
    for i in 0..(due as i64 * 16 + 1) * 256 {
        fleet.append(SeriesId(9), point(i)).expect("append");
        if (i + 1) % 64 == 0 {
            fleet.sync_wal_all().expect("sync");
        }
    }
    let trace = plan.trace();
    assert_eq!(count(&trace, IoOp::ManifestSync), due, "{trace:?}");
    assert_eq!(count(&trace, IoOp::WalRewrite), 1, "{trace:?}");
    let cut = first(&trace, IoOp::WalRewrite);
    assert_eq!(count(&trace[..cut], IoOp::ManifestSync), due, "{trace:?}");
    assert_eq!(
        trace[cut - 3..cut],
        [IoOp::DirSync, IoOp::ManifestAppend, IoOp::ManifestSync],
        "the cut follows the commit that covers it: {trace:?}"
    );
}

#[test]
fn a_fleet_batch_costs_one_wal_write_and_one_wal_fsync() {
    let dir = TempDir::new("fleet-batch");
    let plan = FaultPlan::trace_only(0);
    let config = EngineConfig::new(Policy::separation(16, 8).expect("policy"))
        .with_sstable_points(4);
    let mut fleet = MultiOpenOptions::new(config)
        .store(store(&dir, &plan))
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    // Open every series first, so the batch below only appends.
    for s in 0..12 {
        fleet.append(SeriesId(s), point(0)).expect("append");
    }
    fleet.sync_wal_all().expect("sync");
    // One batch touching twelve series, series 0 hard enough to flush.
    let before = plan.ops() as usize;
    for i in 1..8 {
        fleet.append(SeriesId(0), point(i * 10)).expect("append");
        for s in 1..12 {
            if i < 4 {
                fleet.append(SeriesId(s), point(i * 10)).expect("append");
            }
        }
    }
    assert_eq!(fleet.engine(SeriesId(0)).expect("series").run().len(), 2);
    assert_eq!(fleet.combined_metrics().flushes, 1);
    let flush = plan.ops() as usize;
    fleet.sync_wal_all().expect("sync");
    let trace = plan.trace();
    assert_eq!(unread(&trace[before..flush]), []);
    assert_eq!(trace[flush..], [IoOp::WalAppend, IoOp::WalSync]);
    // At rest: every series flushes its own tables, one horizon commits
    // them to the one manifest, and the log is cut once.
    let before = plan.ops() as usize;
    fleet.flush_all().expect("flush");
    let trace = plan.trace();
    let ops = &trace[before..];
    assert_eq!(wal_ops(ops), 1, "{ops:?}");
    assert_eq!(ops[ops.len() - 1], IoOp::WalRewrite, "{ops:?}");
    assert_eq!(count(ops, IoOp::ManifestSync), 1, "{ops:?}");
    // The manifest at rest: one header per series, one record per table.
    let tables: usize = (0..12)
        .map(|s| fleet.engine(SeriesId(s)).expect("series").run().len())
        .sum();
    let stats = fleet.manifest_stats().expect("durable fleet");
    assert_eq!(stats.records, (12 + tables) as u64);
    assert_eq!(stats.live, stats.records);
}

#[test]
fn a_fleet_at_rest_runs_one_horizon_however_many_series_it_holds() {
    let dir = TempDir::new("fleet-rest");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(4);
    let tables = store(&dir, &plan);
    let mut fleet = MultiOpenOptions::new(config)
        .store(Arc::clone(&tables) as Arc<dyn TableStore>)
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    // Every series flushes eight in-order points into two tables, then
    // buffers three stragglers inside their range: 24 series, 48 tables
    // and 192 points, short of a horizon.
    let series = 24;
    for s in 0..series {
        for i in 0..8 {
            fleet.append(SeriesId(s), point(i * 10)).expect("append");
        }
        for i in 0..3 {
            fleet
                .append(SeriesId(s), point(i * 10 + 5))
                .expect("append");
        }
    }
    fleet.sync_wal_all().expect("sync");
    assert_eq!(tables.staged_tables(), 2 * series as usize);
    let before = plan.ops() as usize;
    assert_eq!(count(&plan.trace(), IoOp::StoreSync), 0);
    fleet.flush_all().expect("flush");
    // Every series' stragglers merge into the two tables it staged; only
    // then does the one horizon sync what is live, so no table is synced
    // and then consumed.
    assert_eq!(fleet.combined_metrics().compactions, u64::from(series));
    let trace = plan.trace();
    let ops = &trace[before..];
    assert_eq!(count(ops, IoOp::ManifestSync), 1, "{ops:?}");
    let commit = first(ops, IoOp::ManifestSync);
    assert_eq!(count(&ops[..commit], IoOp::DirSync), 1, "{ops:?}");
    let live: usize = (0..series)
        .map(|s| fleet.engine(SeriesId(s)).expect("series").run().len())
        .sum();
    assert_eq!(count(ops, IoOp::StoreSync), live, "{ops:?}");
    assert_eq!(tables.staged_tables(), 0);
}

// ------------------------------------------------------- checkpoint bytes

fn file_len(path: PathBuf) -> u64 {
    std::fs::metadata(path).expect("stat").len()
}

#[test]
fn a_seq_flush_with_two_hundred_stragglers_buffered_queues_29_bytes() {
    let dir = TempDir::new("range-lsm");
    let plan = FaultPlan::trace_only(0);
    // C_seq holds 8 points, C_nonseq 256; sixty-four flushes of C_seq take
    // the pool's budget of points out of memory, 512: a horizon.
    let policy = Policy::separation(264, 8).expect("policy");
    let config = EngineConfig::new(policy).with_sstable_points(8);
    let open = |plan: Option<&Arc<FaultPlan>>| {
        let store: Arc<dyn TableStore> = match plan {
            Some(plan) => store(&dir, plan),
            None => Arc::new(
                FileStore::open(dir.path("tables")).expect("reopen store"),
            ),
        };
        let options = OpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"));
        match plan {
            Some(plan) => options.faults(Arc::clone(plan)).open(),
            None => options.open_or_recover().map(|(engine, _)| engine),
        }
        .expect("open")
    };
    let mut engine = open(Some(&plan));
    for i in 0..63 * 8 {
        engine.append(point(i * 10)).expect("append");
    }
    assert_eq!(engine.run().len(), 63, "the pivot is 5030 from here on");
    engine.sync_wal().expect("sync");
    // One write, one frame.
    let stragglers: Vec<DataPoint> = (1..=200).map(|i| point(-i)).collect();
    for p in &stragglers {
        engine.append(*p).expect("straggler");
    }
    engine.sync_wal().expect("sync");
    assert_eq!(engine.buffered_points(), 200);
    let before = engine.wal_stats().expect("wal");
    let len = file_len(dir.path("wal"));
    // The sixty-fourth flush is the horizon: eight in-order points that
    // never reach the file, because nothing synced them before their
    // tables were durable, and one checkpoint frame per flush — 29 bytes,
    // carrying nothing: the stragglers lie below every range.
    for i in 63 * 8..64 * 8 {
        engine.append(point(i * 10)).expect("append");
    }
    assert_eq!(engine.run().len(), 64);
    assert_eq!(engine.buffered_points(), 200);
    let after = engine.wal_stats().expect("wal");
    assert_eq!(after.frames, before.frames + 64, "a checkpoint per flush");
    assert_eq!(after.relogged_bytes, 0, "which carries no point");
    assert_eq!(after.live_bytes, point_bytes(&stragglers));
    // Its next write: the frames, and the one point appended since.
    engine.append(point(5120)).expect("append");
    let ops = plan.ops() as usize;
    engine.sync_wal().expect("sync");
    assert_eq!(plan.trace()[ops..], [IoOp::WalAppend, IoOp::WalSync]);
    assert_eq!(
        file_len(dir.path("wal")),
        len + 64 * CHECKPOINT_FRAME + points_frame(&[point(5120)])
    );
    // And the stragglers the frames did not carry are still in the log.
    drop(engine);
    let engine = open(None);
    assert_eq!(engine.buffered_points(), 201);
    assert_eq!(engine.scan_all().expect("scan").len(), 64 * 8 + 201);
}

#[test]
fn a_late_point_inside_a_flushed_range_rides_the_fleet_s_deferred_checkpoint() {
    let dir = TempDir::new("range-fleet");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(8);
    let mut fleet = MultiOpenOptions::new(config.clone())
        .store(store(&dir, &plan))
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    let id = SeriesId(3);
    // Sixty-three flushes of eight points and seven points more: one flush
    // short of the pool's budget of points, 512.
    for i in 0..63 * 8 + 7 {
        fleet.append(id, point(i * 10)).expect("append");
    }
    fleet.sync_wal_all().expect("sync");
    let len = file_len(dir.path("meta/fleet.wal"));
    // The 512th point flushes [5040, 5110]; the horizon waits for the
    // next sync, and before that comes a point inside its range and one
    // past it.
    fleet.append(id, point(5110)).expect("append flushes");
    assert_eq!(fleet.combined_metrics().flushes, 64);
    fleet.append(id, point(5075)).expect("late, in range");
    fleet.append(id, point(5130)).expect("past the range");
    let ops = plan.ops() as usize;
    fleet.sync_wal_all().expect("sync");
    let tail = [
        IoOp::DirSync,
        IoOp::ManifestAppend,
        IoOp::ManifestSync,
        IoOp::WalAppend,
        IoOp::WalSync,
    ];
    assert_eq!(
        plan.trace()[ops..],
        seq(&[&written(64), &synced(64), &tail]),
        "the checkpoints are queued after the fleet's commit"
    );
    // Sixty-three of them carry nothing; the last carries the late point
    // (its pending copy went with the flushed ones); point 5130 is an
    // ordinary frame behind them.
    let stats = fleet.wal_stats().expect("durable fleet");
    let (late, past) =
        (point_bytes(&[point(5075)]), point_bytes(&[point(5130)]));
    assert_eq!(stats.relogged_bytes, late);
    assert_eq!(stats.live_bytes, late + past);
    assert_eq!(
        file_len(dir.path("meta/fleet.wal")),
        len + 63 * CHECKPOINT_FRAME
            + checkpoint_frame(&[point(5075)])
            + points_frame(&[point(5130)])
    );
    drop(fleet);
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("reopen store"));
    let (fleet, report) = MultiOpenOptions::new(config)
        .store(store)
        .durable_dir(dir.path("meta"))
        .open_or_recover()
        .expect("recover");
    assert!(report.is_clean(), "{report:?}");
    let series = fleet.engine(id).expect("series");
    assert_eq!(series.buffered_points(), 2, "both came from the log");
    let recovered: Vec<i64> = series
        .scan_all()
        .expect("scan")
        .iter()
        .map(|p| p.gen_time)
        .collect();
    let mut expected: Vec<i64> = (0..64 * 8).map(|i| i * 10).collect();
    expected.extend([5075, 5130]);
    expected.sort();
    assert_eq!(recovered, expected);
}

/// A store whose publications wait while the gate is shut: holds the
/// background engine's flush worker still, so hand-offs pile up behind it.
struct GatedStore {
    inner: FileStore,
    shut: Mutex<bool>,
    opened: Condvar,
}

impl GatedStore {
    fn set_shut(&self, shut: bool) {
        *self.shut.lock().expect("gate") = shut;
        self.opened.notify_all();
    }
}

impl TableStore for GatedStore {
    fn put(
        &self,
        points: &[DataPoint],
    ) -> seplsm::Result<(SsTableMeta, usize)> {
        self.inner.put(points)
    }
    fn publish_batch(
        &self,
        chunks: &[&[DataPoint]],
    ) -> seplsm::Result<Vec<(SsTableMeta, usize)>> {
        let shut = self.shut.lock().expect("gate");
        drop(self.opened.wait_while(shut, |shut| *shut).expect("gate"));
        self.inner.publish_batch(chunks)
    }
    fn sync_published(&self, ids: &[SsTableId]) -> seplsm::Result<()> {
        self.inner.sync_published(ids)
    }
    fn get(&self, id: SsTableId) -> seplsm::Result<Vec<DataPoint>> {
        self.inner.get(id)
    }
    fn delete(&self, id: SsTableId) -> seplsm::Result<()> {
        self.inner.delete(id)
    }
    fn list(&self) -> seplsm::Result<Vec<SsTableId>> {
        self.inner.list()
    }
}

#[test]
fn a_tiered_hand_off_with_nothing_retired_queues_no_frame() {
    let dir = TempDir::new("range-tiered");
    // One-point tables: a horizon is due once eight batches have landed.
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(1);
    let gated = Arc::new(GatedStore {
        inner: FileStore::open(dir.path("tables")).expect("store"),
        shut: Mutex::new(true),
        opened: Condvar::new(),
    });
    let sink = RingBufferSink::new(4096);
    let mut engine = TieredOpenOptions::new(config.clone())
        .store(Arc::clone(&gated) as Arc<dyn TableStore>)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .observer(sink.clone())
        .open()
        .expect("open");
    let checkpoints = || -> Vec<u64> {
        sink.events()
            .iter()
            .filter_map(|e| match e {
                Event::WalTruncate { survivors } => Some(*survivors),
                _ => None,
            })
            .collect()
    };
    // Eight hand-offs while the worker is held: batches [0, 70], [5, 75]
    // (overlapping it), [200, 270] and five more inside [200, 277] are in
    // flight, none has retired, and the log is told nothing — it still
    // covers all 64 points.
    let mut batch = Vec::new();
    for base in [0, 5, 200, 201, 203, 204, 206, 207] {
        for i in 0..8 {
            let p = point(base + i * 10);
            batch.push(p);
            engine.append(p).expect("append");
        }
    }
    engine.sync_wal().expect("sync");
    assert_eq!(checkpoints(), [0u64; 0], "nothing retired, nothing queued");
    assert_eq!(
        file_len(dir.path("wal")),
        8 + points_frame(&batch),
        "one batch, one frame, no checkpoint"
    );
    // Let them land, and the horizon the eighth makes due retire them;
    // then buffer points inside and outside their ranges.
    gated.set_shut(false);
    engine.quiesce().expect("land and retire");
    for gen_time in [42, 142, 242] {
        engine.append(point(gen_time)).expect("append");
    }
    assert_eq!(checkpoints(), [0u64; 0], "told only at a hand-off");
    // The next hand-off (held again) finds eight batches retired: their
    // two disjoint ranges [0, 75] and [200, 277] become one frame each,
    // carrying the buffered point inside it. Point 142 is in neither, and
    // the batch being handed off — it holds all three — is in flight.
    gated.set_shut(true);
    for i in 0..5 {
        engine.append(point(300 + i * 10)).expect("append");
    }
    assert_eq!(checkpoints(), [1, 1]);
    engine.sync_wal().expect("sync");
    assert_eq!(
        file_len(dir.path("wal")),
        8 + points_frame(&batch)
            + checkpoint_frame(&[point(42)])
            + checkpoint_frame(&[point(242)])
            + points_frame(&[142, 300, 310, 320, 330, 340].map(point)),
        "points 42 and 242 are in the checkpoints, not in the batch's frame"
    );
    // A crash right here, with that batch in flight and the worker stuck:
    // what the disk holds now recovers everything.
    let crashed = TempDir::new("range-tiered-crashed");
    for file in ["wal", "manifest"] {
        std::fs::copy(dir.path(file), crashed.path(file)).expect("copy");
    }
    std::fs::create_dir_all(crashed.path("tables")).expect("mkdir");
    for table in std::fs::read_dir(dir.path("tables")).expect("ls") {
        let table = table.expect("entry");
        std::fs::copy(
            table.path(),
            crashed.path("tables").join(table.file_name()),
        )
        .expect("copy");
    }
    gated.set_shut(false);
    drop(engine);
    let store: Arc<dyn TableStore> = Arc::new(
        FileStore::open(crashed.path("tables")).expect("reopen store"),
    );
    let (engine, report) = TieredOpenOptions::new(config)
        .store(store)
        .wal(crashed.path("wal"))
        .manifest(crashed.path("manifest"))
        .open_or_recover()
        .expect("recover");
    assert!(report.is_clean(), "{report:?}");
    let (recovered, _) = engine
        .query(TimeRange::new(i64::MIN, i64::MAX))
        .expect("query");
    assert_eq!(recovered.len(), 64 + 3 + 5);
}

// ------------------------------------------------------------ merge inputs

/// The table reads a merge pays for its inputs: the `StoreRead`s before its
/// first table write, if it writes one. (Debug builds decode the run's tail
/// after every plan, which reads the store again — after the writes. A
/// merge between horizons writes nothing, and the tail it leaves is its
/// outputs, staged in memory: reading them is no op.)
///
/// Reading a staged table is no op either, so each test below first makes
/// a merge's inputs files — a horizon, which leaves the pool as it is —
/// and a merge that missed the pool would pay a `StoreRead` per input.
fn input_reads(ops: &[IoOp]) -> usize {
    let writes = ops.iter().position(|op| *op == IoOp::StoreWrite);
    count(&ops[..writes.unwrap_or(ops.len())], IoOp::StoreRead)
}

#[test]
fn a_merge_of_tables_this_engine_wrote_reads_none_of_them() {
    let dir = TempDir::new("inputs-inline");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(4);
    let tables = store(&dir, &plan);
    let mut engine = OpenOptions::new(config)
        .store(Arc::clone(&tables) as Arc<dyn TableStore>)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    for i in 0..16 {
        engine.append(point(i * 10)).expect("append");
    }
    // Three merges in a row, each consuming what the one before it wrote,
    // synced to files by a horizon in between.
    for round in 1..=3 {
        engine.flush_all().expect("horizon");
        assert_eq!(tables.staged_tables(), 0);
        assert_eq!(engine.run().len(), 4 * round as usize);
        for i in 0..15 {
            engine.append(point(i * 10 + round)).expect("append");
        }
        let before = plan.ops() as usize;
        engine.append(point(150 + round)).expect("append merges");
        assert_eq!(engine.metrics().compactions, round as u64);
        let ops = &plan.trace()[before..];
        assert_eq!(input_reads(ops), 0, "round {round}: {ops:?}");
    }
    assert_eq!(engine.scan_all().expect("scan").len(), 16 * 4);
}

#[test]
fn the_first_merge_after_recovery_reads_exactly_its_inputs() {
    let dir = TempDir::new("inputs-recovered");
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(4);
    let open = |plan: &Arc<FaultPlan>| {
        OpenOptions::new(config.clone())
            .store(store(&dir, plan))
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .faults(Arc::clone(plan))
            .open_or_recover()
            .expect("open")
            .0
    };
    let mut engine = open(&FaultPlan::trace_only(0));
    for i in 0..16 {
        engine.append(point(i * 10)).expect("append");
    }
    assert_eq!(engine.run().len(), 4);
    // At rest: the tables are durable and in the manifest.
    engine.flush_all().expect("flush");
    drop(engine);
    // The tables outlive the engine, its pool does not: the merge that
    // consumes all four reads all four — once each, and nothing else.
    let plan = FaultPlan::trace_only(0);
    let mut engine = open(&plan);
    for i in 0..15 {
        engine.append(point(i * 10 + 5)).expect("append");
    }
    let before = plan.ops() as usize;
    engine.append(point(155)).expect("append merges");
    let ops = &plan.trace()[before..];
    assert_eq!(engine.metrics().compactions, 1);
    assert_eq!(input_reads(ops), 4, "{ops:?}");
    // What it wrote, the next merge takes from the pool — though a horizon
    // made every one of its outputs a file first.
    let before = plan.ops() as usize;
    engine.flush_all().expect("horizon");
    let rest = &plan.trace()[before..];
    assert_eq!(count(rest, IoOp::StoreSync), engine.run().len(), "{rest:?}");
    assert_eq!(engine.run().len(), 8);
    for i in 0..15 {
        engine.append(point(i * 10 + 7)).expect("append");
    }
    let before = plan.ops() as usize;
    engine.append(point(157)).expect("append merges");
    assert_eq!(input_reads(&plan.trace()[before..]), 0);
}

#[test]
fn an_l0_merge_of_what_the_worker_just_flushed_reads_nothing() {
    let dir = TempDir::new("inputs-tiered");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(4);
    let mut engine = TieredOpenOptions::new(config)
        .store(store(&dir, &plan))
        .sync_flush()
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    // L0 → empty run, then L0 → the run that merge wrote: the worker's
    // flush outputs and the merge's outputs both come out of the pool.
    for base in [0, 5] {
        for i in 0..8 {
            engine.append(point(i * 10 + base)).expect("append");
        }
        let before = plan.ops() as usize;
        engine.quiesce().expect("merge L0 into the run");
        let ops = &plan.trace()[before..];
        assert_eq!(input_reads(ops), 0, "{ops:?}");
    }
    assert_eq!(engine.table_layout().len(), 4);
    assert_eq!(engine.finish().expect("finish").points.len(), 16);
}

#[test]
fn fleet_series_on_one_store_merge_without_reading_it() {
    let dir = TempDir::new("inputs-fleet");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(4);
    let tables = store(&dir, &plan);
    let mut fleet = MultiOpenOptions::new(config)
        .store(Arc::clone(&tables) as Arc<dyn TableStore>)
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    for s in 1..=2 {
        for i in 0..8 {
            fleet.append(SeriesId(s), point(i * 10)).expect("append");
        }
    }
    fleet.sync_wal_all().expect("sync");
    // Each series merges eight stragglers into its two tables, which the
    // fleet's one pool still holds whichever series wrote last — though a
    // horizon made them files first.
    for s in 1..=2 {
        fleet.flush_all().expect("horizon");
        assert_eq!(tables.staged_tables(), 0);
        let before = plan.ops() as usize;
        for i in 0..8 {
            fleet
                .append(SeriesId(s), point(i * 10 + 5))
                .expect("append");
        }
        let ops = &plan.trace()[before..];
        assert_eq!(input_reads(ops), 0, "series {s}: {ops:?}");
    }
    assert_eq!(fleet.combined_metrics().compactions, 2);
    fleet.sync_wal_all().expect("sync");
}

#[test]
fn a_cold_series_merges_without_reading_back_what_a_hot_series_wrote_since() {
    let dir = TempDir::new("inputs-fleet-skew");
    let plan = FaultPlan::trace_only(0);
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(4);
    let tables = store(&dir, &plan);
    let mut fleet = MultiOpenOptions::new(config)
        .store(Arc::clone(&tables) as Arc<dyn TableStore>)
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(&plan))
        .open()
        .expect("open");
    // Series 1 writes two tables, and a horizon makes them files.
    for i in 0..8 {
        fleet.append(SeriesId(1), point(i * 10)).expect("append");
    }
    fleet.flush_all().expect("horizon");
    assert_eq!(tables.staged_tables(), 0);
    // Series 2 then flushes more in-order points than the pool holds
    // (64 tables of 4 points): the pool's largest holder, it gives up its
    // own oldest tables, not series 1's.
    for i in 0..(64 * 4 + 48) {
        fleet.append(SeriesId(2), point(i * 10)).expect("append");
    }
    assert_eq!(fleet.engine(SeriesId(2)).expect("series 2").run().len(), 76);
    // Series 1's stragglers merge into its two tables, taken from the pool.
    let before = plan.ops() as usize;
    for i in 0..8 {
        fleet
            .append(SeriesId(1), point(i * 10 + 5))
            .expect("append");
    }
    let ops = &plan.trace()[before..];
    assert_eq!(input_reads(ops), 0, "{ops:?}");
    assert_eq!(fleet.combined_metrics().compactions, 1);
    fleet.sync_wal_all().expect("sync");
}
