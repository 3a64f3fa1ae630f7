//! Crash-schedule exploration: record the full I/O-op trace of a mixed
//! in-order/out-of-order workload, then replay the same workload with a
//! hard crash injected at *every* op prefix and assert the recovery
//! contract after each one:
//!
//! * every point acknowledged by a successful `sync` survives recovery;
//! * recovery never invents points (recovered ⊆ attempted) and never
//!   duplicates a generation time (the documented WAL window is deduplicated
//!   by the merge pipeline);
//! * the recovered engine passes the full integrity audit
//!   (`check_integrity`), and nothing panics anywhere on the way.
//!
//! A torn-write sweep repeats the schedule with the crashing op's payload
//! truncated, a proptest drives `MultiSeriesEngine` through random
//! workload/crash combinations, and a salvage test corrupts a stored table
//! on purpose to check the degraded recovery path end to end.
//!
//! The grouped-commit section crashes at every op of a multi-output merge
//! and of an in-order flush (group publication, manifest edit group, the
//! WAL write that carries the checkpoint frame, the closing cut) in strict
//! and salvage mode, tears the manifest edit group at every record boundary
//! and in between, tears every WAL write, and recovers checked-in PR 12-
//! and PR 13-format directories. The fleet-log section sweeps crashes and
//! torn writes over a fleet batch → flush → checkpoint → sync → cut
//! sequence and tears one checkpoint frame at every byte.

#[allow(dead_code)] // each test file uses part of it
#[path = "support/wal_layout.rs"]
mod wal_layout;

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use seplsm::{
    AdmissionOutcome, DataPoint, EngineConfig, Event, Fault, FaultPlan,
    FileStore, IoOp, LsmEngine, MultiOpenOptions, MultiSeriesEngine,
    OpenOptions, Policy, RecoveryOptions, RecoveryStepKind, RingBufferSink,
    SeriesId, TableStore, TieredEngine, TieredOpenOptions, TimeRange,
};

/// Seed carried by every plan; derives nothing at runtime (determinism),
/// but names the schedule in failure messages.
const SEED: u64 = 0xB10C_5EED;
/// Points per engine workload. Sized so each engine sees well over a
/// hundred I/O ops (crash points) without making the quadratic sweep slow.
const WORKLOAD_POINTS: usize = 48;
/// `sync` every this many appends (odd on purpose, to land syncs in
/// different phases of the flush cycle).
const SYNC_EVERY: usize = 7;
/// Points of the crash sweeps: the workload plus the 64 tables' worth of
/// points (512 at `config()`'s tables) an engine's flushes take out of
/// memory before a horizon is due. Between horizons a flush or merge does
/// no I/O at all, so a sweep must cross one to crash inside it.
const HORIZON_POINTS: usize = WORKLOAD_POINTS + 64 * 8;

/// Bytes of a framed WAL's magic: the whole file when the log is at rest.
const WAL_HEADER: u64 = 8;
/// The magic itself (DESIGN.md §8); a PR ≤ 13 log has no header.
const WAL_MAGIC: &[u8] = b"SEPWAL2\n";

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "seplsm-crashsched-{tag}-{}-{:?}",
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

fn config() -> EngineConfig {
    EngineConfig::new(Policy::conventional(8)).with_sstable_points(8)
}

/// Mixed workload with unique generation times: mostly in-order, every
/// fifth point an out-of-order straggler (gen time ends in 3, so it can
/// never collide with the in-order multiples of ten).
fn workload(n: usize) -> Vec<DataPoint> {
    (0..n as i64)
        .map(|i| {
            let tg = if i % 5 == 4 { i * 10 - 27 } else { i * 10 };
            DataPoint::new(tg, i * 10 + 3, i as f64)
        })
        .collect()
}

/// What the workload managed before the injected failure (if any).
struct Outcome {
    /// Points whose append was *called* (the last one may have failed after
    /// partially logging — recovery may legally resurrect it).
    attempted: usize,
    /// Points whose append returned `Ok`.
    appended: usize,
    /// `appended` as of the last successful `sync` — the durability
    /// contract covers exactly this prefix.
    synced: usize,
}

fn drive<E>(
    engine: &mut E,
    pts: &[DataPoint],
    mut append: impl FnMut(&mut E, DataPoint) -> seplsm::Result<AdmissionOutcome>,
    mut sync: impl FnMut(&mut E) -> seplsm::Result<()>,
) -> Outcome {
    let mut out = Outcome {
        attempted: 0,
        appended: 0,
        synced: 0,
    };
    for (i, p) in pts.iter().enumerate() {
        out.attempted += 1;
        if append(engine, *p).is_err() {
            return out;
        }
        out.appended += 1;
        if (i + 1) % SYNC_EVERY == 0 {
            if sync(engine).is_err() {
                return out;
            }
            out.synced = out.appended;
        }
    }
    if sync(engine).is_ok() {
        out.synced = out.appended;
    }
    out
}

/// The recovery contract, checked against what one pass achieved.
fn check_contract(
    recovered: &[DataPoint],
    pts: &[DataPoint],
    out: &Outcome,
    ctx: &str,
) {
    let mut seen = HashSet::new();
    for p in recovered {
        assert!(
            seen.insert(p.gen_time),
            "{ctx}: duplicate gen_time {} in recovered data",
            p.gen_time
        );
    }
    let attempted: HashSet<i64> =
        pts[..out.attempted].iter().map(|p| p.gen_time).collect();
    for p in recovered {
        assert!(
            attempted.contains(&p.gen_time),
            "{ctx}: recovery invented point {}",
            p.gen_time
        );
    }
    for p in &pts[..out.synced] {
        assert!(
            seen.contains(&p.gen_time),
            "{ctx}: synced point {} lost (synced={}, appended={})",
            p.gen_time,
            out.synced,
            out.appended
        );
    }
}

// ---------------------------------------------------------------- LsmEngine

fn lsm_pass(
    tag: &str,
    plan: &Arc<FaultPlan>,
    pts: &[DataPoint],
) -> (TempDir, Outcome) {
    let dir = TempDir::new(tag);
    let store = FileStore::open(dir.path("tables"))
        .expect("store")
        .with_faults(Arc::clone(plan));
    // Faults attach only after `open` completes, so op numbering starts
    // at the first workload-driven disk touch in every pass.
    let mut engine = OpenOptions::new(config())
        .store(Arc::new(store))
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .faults(Arc::clone(plan))
        .open()
        .expect("open");
    let out = drive(&mut engine, pts, LsmEngine::append, |e| e.sync_wal());
    (dir, out)
}

fn lsm_recover_check(
    dir: &TempDir,
    pts: &[DataPoint],
    out: &Outcome,
    ctx: &str,
) {
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("reopen store"));
    let (engine, report) = OpenOptions::new(config())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(RecoveryOptions::strict().with_gc_orphans())
        .open_or_recover()
        .unwrap_or_else(|e| panic!("{ctx}: strict recovery failed: {e}"));
    assert!(
        report.quarantined.is_empty(),
        "{ctx}: strict recovery must not quarantine (a crash only truncates)"
    );
    let recovered = engine.scan_all().expect("scan recovered engine");
    check_contract(&recovered, pts, out, ctx);
    engine
        .check_integrity()
        .unwrap_or_else(|e| panic!("{ctx}: integrity audit failed: {e}"));
}

#[test]
fn lsm_engine_survives_a_crash_at_every_io_op() {
    let pts = workload(HORIZON_POINTS);
    let plan = FaultPlan::trace_only(SEED);
    let (dir, out) = lsm_pass("lsm-trace", &plan, &pts);
    assert_eq!(out.appended, pts.len(), "trace pass must complete");
    assert_eq!(out.synced, pts.len());
    lsm_recover_check(&dir, &pts, &out, "trace pass");
    drop(dir);
    let total = plan.ops();
    assert!(
        total >= 100,
        "workload too small to be interesting: {total}"
    );
    for k in 0..total {
        let plan = FaultPlan::crash_at(SEED, k);
        let (dir, out) = lsm_pass("lsm-crash", &plan, &pts);
        assert!(plan.is_crashed(), "crash at op {k}/{total} never fired");
        assert!(out.appended < pts.len() || out.synced < pts.len());
        lsm_recover_check(&dir, &pts, &out, &format!("crash at op {k}"));
    }
}

#[test]
fn lsm_engine_survives_torn_writes() {
    let pts = workload(WORKLOAD_POINTS);
    let plan = FaultPlan::trace_only(SEED);
    let (dir, _) = lsm_pass("lsm-torn-trace", &plan, &pts);
    drop(dir);
    let total = plan.ops();
    for k in (0..total).step_by(5) {
        // Tear a little and a lot: 3 bytes clips a frame's last point, 64
        // takes several points off it (or more than some payloads hold);
        // either way the whole frame fails its CRC.
        for truncate in [3usize, 64] {
            let plan =
                FaultPlan::new(SEED, Fault::TornWrite { at: k, truncate });
            let (dir, out) = lsm_pass("lsm-torn", &plan, &pts);
            assert!(plan.is_crashed(), "tear at op {k} never fired");
            lsm_recover_check(
                &dir,
                &pts,
                &out,
                &format!("torn write at op {k} (-{truncate} bytes)"),
            );
        }
    }
}

/// `lsm_pass` with a policy shrink in the middle: the first 30 points go
/// into buffers of `wide`, which `set_policy(narrow)` then re-routes through
/// buffers a quarter the size — several flushes inside one call, each with
/// the not yet re-routed points in no buffer at all, and a few points left
/// buffered at the end — and the rest of the workload follows under
/// `narrow`.
fn lsm_shrink_pass(
    tag: &str,
    plan: &Arc<FaultPlan>,
    pts: &[DataPoint],
    (wide, narrow): (Policy, Policy),
) -> (TempDir, Outcome) {
    let dir = TempDir::new(tag);
    let store = FileStore::open(dir.path("tables"))
        .expect("store")
        .with_faults(Arc::clone(plan));
    let mut engine =
        OpenOptions::new(EngineConfig::new(wide).with_sstable_points(8))
            .store(Arc::new(store))
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .faults(Arc::clone(plan))
            .open()
            .expect("open");
    let mut out = Outcome {
        attempted: 0,
        appended: 0,
        synced: 0,
    };
    // The second segment is one point and a sync: it puts the checkpoints
    // of the shrink on the disk while what the shrink left buffered is
    // still buffered.
    for (i, segment) in [&pts[..30], &pts[30..31], &pts[31..]]
        .into_iter()
        .enumerate()
    {
        if i == 1 && engine.set_policy(narrow).is_err() {
            break;
        }
        let done = out.appended;
        let part =
            drive(&mut engine, segment, LsmEngine::append, |e| e.sync_wal());
        out.attempted += part.attempted;
        out.appended += part.appended;
        if part.synced > 0 {
            out.synced = done + part.synced;
        }
        if part.synced < segment.len() {
            break;
        }
    }
    (dir, out)
}

/// The recovery contract across a policy shrink: a crash at any op of it —
/// the flushes of the re-routing, the one checkpoint behind them, the WAL
/// write that carries it — loses nothing that was acknowledged.
#[test]
fn a_policy_shrink_survives_a_crash_at_every_io_op() {
    let pts = workload(HORIZON_POINTS);
    let shrinks = [
        ("pi_c", (Policy::conventional(32), Policy::conventional(8))),
        (
            "pi_s",
            (
                Policy::separation(32, 16).expect("policy"),
                Policy::separation(8, 4).expect("policy"),
            ),
        ),
    ];
    for (name, shrink) in shrinks {
        let plan = FaultPlan::trace_only(SEED);
        let (dir, out) = lsm_shrink_pass("shrink-trace", &plan, &pts, shrink);
        assert_eq!(out.synced, pts.len(), "{name}: trace pass must complete");
        lsm_recover_check(&dir, &pts, &out, &format!("{name}: trace pass"));
        drop(dir);
        let total = plan.ops();
        assert!(
            total >= 60,
            "{name}: too few ops to be interesting: {total}"
        );
        for k in 0..total {
            let plan = FaultPlan::crash_at(SEED, k);
            let (dir, out) =
                lsm_shrink_pass("shrink-crash", &plan, &pts, shrink);
            assert!(plan.is_crashed(), "{name}: crash at op {k} never fired");
            let ctx = format!("{name}: shrink, crash at op {k}/{total}");
            lsm_recover_check(&dir, &pts, &out, &ctx);
        }
    }
}

// -------------------------------------------------------------- TieredEngine

fn tiered_pass(
    tag: &str,
    plan: &Arc<FaultPlan>,
    pts: &[DataPoint],
) -> (TempDir, Outcome) {
    let dir = TempDir::new(tag);
    let store = FileStore::open(dir.path("tables"))
        .expect("store")
        .with_faults(Arc::clone(plan));
    let mut engine = TieredOpenOptions::new(config())
        .store(Arc::new(store))
        // Synchronous flushes give every pass the same deterministic op
        // order (append blocks until the worker retires the hand-off).
        .sync_flush()
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .faults(Arc::clone(plan))
        .open()
        .expect("open");
    let out = drive(&mut engine, pts, TieredEngine::append, |e| e.sync_wal());
    (dir, out)
}

fn tiered_recover_check(
    dir: &TempDir,
    pts: &[DataPoint],
    out: &Outcome,
    ctx: &str,
) {
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("reopen store"));
    let (mut engine, report) = TieredOpenOptions::new(config())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(RecoveryOptions::strict().with_gc_orphans())
        .open_or_recover()
        .unwrap_or_else(|e| panic!("{ctx}: strict recovery failed: {e}"));
    assert!(
        report.quarantined.is_empty(),
        "{ctx}: strict recovery must not quarantine"
    );
    let (recovered, _) = engine
        .query(TimeRange::new(-1_000, 1_000_000))
        .expect("query recovered engine");
    check_contract(&recovered, pts, out, ctx);
    // A lost checkpoint replays a longer log, whose flushes can leave the
    // worker merging L0 — and retiring the tables an audit of the
    // pre-merge version would still look for. Audit at rest.
    engine
        .quiesce()
        .unwrap_or_else(|e| panic!("{ctx}: quiesce failed: {e}"));
    engine
        .check_integrity()
        .unwrap_or_else(|e| panic!("{ctx}: integrity audit failed: {e}"));
}

#[test]
fn tiered_engine_survives_a_crash_at_every_io_op() {
    let pts = workload(HORIZON_POINTS);
    let plan = FaultPlan::trace_only(SEED);
    let (dir, out) = tiered_pass("tiered-trace", &plan, &pts);
    assert_eq!(out.appended, pts.len(), "trace pass must complete");
    tiered_recover_check(&dir, &pts, &out, "trace pass");
    drop(dir);
    let total = plan.ops();
    assert!(
        total >= 100,
        "workload too small to be interesting: {total}"
    );
    for k in 0..total {
        let plan = FaultPlan::crash_at(SEED, k);
        let (dir, out) = tiered_pass("tiered-crash", &plan, &pts);
        assert!(plan.is_crashed(), "crash at op {k}/{total} never fired");
        tiered_recover_check(&dir, &pts, &out, &format!("crash at op {k}"));
    }
}

#[test]
fn tiered_engine_absorbs_one_transient_fault_per_op() {
    // FailOnce is not a crash: the worker's bounded retry must absorb it
    // wherever it lands on the flush path or in its horizon, and the
    // workload completes.
    let pts = workload(HORIZON_POINTS);
    let plan = FaultPlan::trace_only(SEED);
    let (dir, _) = tiered_pass("tiered-once-trace", &plan, &pts);
    drop(dir);
    let total = plan.ops();
    let mut absorbed = 0u64;
    for k in (0..total).step_by(11) {
        let plan = FaultPlan::new(SEED, Fault::FailOnce { at: k });
        let (dir, out) = tiered_pass("tiered-once", &plan, &pts);
        // The workload either completes (fault absorbed by a retry) or
        // fails cleanly on an unretried path (WAL/manifest appends are
        // writer-side and not retried) — never panics, and recovery holds
        // either way.
        if out.appended == pts.len() && plan.injected_failures() > 0 {
            absorbed += 1;
        }
        tiered_recover_check(
            &dir,
            &pts,
            &out,
            &format!("transient fault at op {k}"),
        );
    }
    assert!(
        absorbed > 0,
        "at least some store-path transients must be absorbed by retry"
    );
}

// ------------------------------------------------------------ Grouped commit

/// Table shape of the grouped-commit scenarios: a full MemTable becomes
/// several tables, so every flush and merge publishes a multi-table batch.
const GROUP_SSTABLE_POINTS: usize = 4;

/// Sixteen in-order points, sixteen stragglers interleaved with all of
/// them, then eight more in order. Under `π_c(16)` that is a four-table
/// flush followed by a 4 → 8-table merge; under `π_s(8 + 8)` the in-order
/// points leave through the append path and the stragglers through a
/// multi-output merge; the tiered engine flushes each to L0 and drains L0
/// into the run in between.
fn group_workload() -> Vec<DataPoint> {
    let in_order = (0..16i64).map(|i| i * 10);
    let stragglers = (0..16i64).map(|i| i * 10 + 5);
    let tail = (16..24i64).map(|i| i * 10);
    in_order
        .chain(stragglers)
        .chain(tail)
        .enumerate()
        .map(|(i, tg)| DataPoint::new(tg, i as i64 * 10 + 3, i as f64))
        .collect()
}

#[derive(Clone, Copy)]
enum GroupEngine {
    /// Inline engine, `π_c(16)`: merges only.
    Conventional,
    /// Inline engine, `π_s(8 + 8)`: in-order flushes and merges.
    Separation,
    /// Background engine, `π_c(8)`, synchronous flushes.
    Tiered,
}

impl GroupEngine {
    /// [`group_workload`]; the tiered engine's goes on in order for the 64
    /// tables' worth of points it flushes before a horizon is due, so the
    /// sweep crosses one of the worker's.
    fn workload(self) -> Vec<DataPoint> {
        let mut pts = group_workload();
        if let Self::Tiered = self {
            let from = pts.len() as i64;
            let more = 64 * GROUP_SSTABLE_POINTS as i64;
            pts.extend(
                (from..from + more)
                    .map(|i| DataPoint::new(i * 10, i * 10 + 3, i as f64)),
            );
        }
        pts
    }

    fn config(self) -> EngineConfig {
        let policy = match self {
            Self::Conventional => Policy::conventional(16),
            Self::Separation => Policy::separation(16, 8).expect("policy"),
            Self::Tiered => Policy::conventional(8),
        };
        EngineConfig::new(policy).with_sstable_points(GROUP_SSTABLE_POINTS)
    }

    fn pass(
        self,
        tag: &str,
        plan: &Arc<FaultPlan>,
        pts: &[DataPoint],
    ) -> (TempDir, Outcome) {
        let dir = TempDir::new(tag);
        let store = Arc::new(
            FileStore::open(dir.path("tables"))
                .expect("store")
                .with_faults(Arc::clone(plan)),
        );
        let out = match self {
            Self::Conventional | Self::Separation => {
                let mut engine = OpenOptions::new(self.config())
                    .store(store)
                    .wal(dir.path("wal"))
                    .manifest(dir.path("manifest"))
                    .faults(Arc::clone(plan))
                    .open()
                    .expect("open");
                let out = drive(&mut engine, pts, LsmEngine::append, |e| {
                    e.sync_wal()
                });
                // The engine comes to rest: the WAL is cut to its header.
                let _ = engine.flush_all();
                out
            }
            Self::Tiered => {
                let mut engine = TieredOpenOptions::new(self.config())
                    .store(store)
                    .sync_flush()
                    .wal(dir.path("wal"))
                    .manifest(dir.path("manifest"))
                    .faults(Arc::clone(plan))
                    .open()
                    .expect("open");
                let out = drive(&mut engine, pts, TieredEngine::append, |e| {
                    e.sync_wal()
                });
                let _ = engine.finish();
                out
            }
        };
        (dir, out)
    }

    /// Recovers the directory in `mode` and checks the contract, the
    /// integrity audit, and that every table file the recovered version
    /// does not reference — outputs renamed into place by a commit that
    /// never reached the manifest, inputs a committed merge had not yet
    /// deleted — was swept as an orphan.
    fn recover_check(
        self,
        dir: &TempDir,
        pts: &[DataPoint],
        out: &Outcome,
        recovery: RecoveryOptions,
        ctx: &str,
    ) {
        let store: Arc<dyn TableStore> = Arc::new(
            FileStore::open(dir.path("tables")).expect("reopen store"),
        );
        let (recovered, live_tables, table_files, report) = match self {
            Self::Conventional | Self::Separation => {
                let (engine, report) = OpenOptions::new(self.config())
                    .store(Arc::clone(&store))
                    .wal(dir.path("wal"))
                    .manifest(dir.path("manifest"))
                    .recovery(recovery)
                    .open_or_recover()
                    .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                engine
                    .check_integrity()
                    .unwrap_or_else(|e| panic!("{ctx}: integrity: {e}"));
                let live = engine.version().live_table_ids().len();
                let files = store.list().expect("list").len();
                (engine.scan_all().expect("scan"), live, files, report)
            }
            Self::Tiered => {
                let (mut engine, report) =
                    TieredOpenOptions::new(self.config())
                        .store(Arc::clone(&store))
                        .wal(dir.path("wal"))
                        .manifest(dir.path("manifest"))
                        .recovery(recovery)
                        .open_or_recover()
                        .unwrap_or_else(|e| {
                            panic!("{ctx}: recovery failed: {e}")
                        });
                // Audit at rest (see `tiered_recover_check`).
                engine
                    .quiesce()
                    .unwrap_or_else(|e| panic!("{ctx}: quiesce: {e}"));
                engine
                    .check_integrity()
                    .unwrap_or_else(|e| panic!("{ctx}: integrity: {e}"));
                let recovered = engine.scan_all().expect("scan");
                // Stop the worker first, so the file count is not racing
                // a merge still retiring its inputs.
                let live = engine.finish().expect("finish").run_tables;
                let files = store.list().expect("list").len();
                (recovered, live, files, report)
            }
        };
        assert!(
            report.quarantined.is_empty(),
            "{ctx}: a crash only truncates, nothing is quarantined"
        );
        check_contract(&recovered, pts, out, ctx);
        assert_eq!(
            table_files,
            live_tables,
            "{ctx}: uncommitted outputs / unretired inputs must be GC'd \
             ({} removed)",
            report.orphans_removed.len()
        );
    }
}

/// The crash points of the power-cut sweep over `trace`, whose every
/// crash also loses or tears tables and so has more to check than a plain
/// crash: every op, except that of a run of table operations — a horizon
/// syncing sixty tables, the reads a debug build audits every plan with —
/// only the first, the last and every sixteenth: a crash at the i-th table
/// of such a run leaves what a crash at the next one does.
fn crash_points(trace: &[IoOp]) -> Vec<u64> {
    let table = |op: &IoOp| {
        matches!(
            op,
            IoOp::StoreWrite
                | IoOp::StoreSync
                | IoOp::StoreRename
                | IoOp::StoreRead
                | IoOp::StoreDelete
        )
    };
    (0..trace.len())
        .filter(|&k| {
            !table(&trace[k])
                || k % 16 == 0
                || k == 0
                || !table(&trace[k - 1])
                || trace.get(k + 1).is_none_or(|next| !table(next))
        })
        .map(|k| k as u64)
        .collect()
}

fn recovery_modes() -> [(&'static str, RecoveryOptions); 2] {
    [
        ("strict", RecoveryOptions::strict().with_gc_orphans()),
        ("salvage", RecoveryOptions::salvage().with_gc_orphans()),
    ]
}

/// Crashes at every I/O op of the scenario — every table write, fsync and
/// rename of each group publication, the directory fsync, the manifest
/// edit-group append and fsync, the WAL writes that carry the checkpoint
/// frames, the closing flush and its cut — and recovers in strict and
/// salvage mode.
fn grouped_commit_survives_every_crash(engine: GroupEngine, tag: &str) {
    let pts = engine.workload();
    let plan = FaultPlan::trace_only(SEED);
    let (dir, out) = engine.pass(&format!("{tag}-trace"), &plan, &pts);
    assert_eq!(out.synced, pts.len(), "trace pass must complete");
    let trace = plan.trace();
    // The scenario must actually contain what it claims to sweep: a
    // multi-table group publication and edit-group commits.
    assert!(
        trace.windows(5).any(|w| w
            == [
                IoOp::StoreSync,
                IoOp::StoreRename,
                IoOp::StoreSync,
                IoOp::StoreRename,
                IoOp::DirSync
            ]),
        "no multi-table publication in {trace:?}"
    );
    assert!(trace.contains(&IoOp::ManifestAppend));
    // No flush touches the log: its checkpoint rides on the next batch's
    // write, and the file is cut once, when the engine comes to rest.
    assert!(trace.contains(&IoOp::WalAppend));
    assert_eq!(
        trace.iter().filter(|op| **op == IoOp::WalRewrite).count(),
        1,
        "{trace:?}"
    );
    assert!(!trace.contains(&IoOp::WalRename), "{trace:?}");
    assert_eq!(
        std::fs::metadata(dir.path("wal")).expect("stat").len(),
        WAL_HEADER,
        "a log at rest is its header"
    );
    for (mode, recovery) in recovery_modes() {
        engine.recover_check(&dir, &pts, &out, recovery, mode);
        // Recovery is idempotent: the second mode reopens what the first
        // one left behind.
    }
    drop(dir);
    for k in 0..plan.ops() {
        for (mode, recovery) in recovery_modes() {
            let plan = FaultPlan::crash_at(SEED, k);
            let (dir, out) = engine.pass(&format!("{tag}-crash"), &plan, &pts);
            assert!(plan.is_crashed(), "crash at op {k} never fired");
            let ctx =
                format!("{mode}: crash at op {k} ({:?})", trace[k as usize]);
            engine.recover_check(&dir, &pts, &out, recovery, &ctx);
        }
    }
}

#[test]
fn lsm_multi_output_merge_survives_a_crash_at_every_io_op() {
    grouped_commit_survives_every_crash(GroupEngine::Conventional, "grp-pc");
}

#[test]
fn lsm_in_order_flush_survives_a_crash_at_every_io_op() {
    grouped_commit_survives_every_crash(GroupEngine::Separation, "grp-ps");
}

#[test]
fn tiered_flush_and_l0_merge_survive_a_crash_at_every_io_op() {
    grouped_commit_survives_every_crash(GroupEngine::Tiered, "grp-bg");
}

/// Tears every WAL write of the scenario — `Points` frames, the
/// `Checkpoint` frames riding with them, under the tiered engine the
/// checkpoint carrying a whole hand-off — at every byte. A frame
/// that is not wholly there must not exist for replay: the acknowledged
/// prefix survives and nothing is invented, in strict and salvage mode.
#[test]
fn torn_wal_writes_never_lose_an_acknowledged_point() {
    for (engine, tag) in [
        (GroupEngine::Conventional, "torn-wal-pc"),
        (GroupEngine::Separation, "torn-wal-ps"),
        (GroupEngine::Tiered, "torn-wal-bg"),
    ] {
        let pts = group_workload();
        let plan = FaultPlan::trace_only(SEED);
        let (dir, _) = engine.pass(&format!("{tag}-trace"), &plan, &pts);
        drop(dir);
        let writes: Vec<u64> = plan
            .trace()
            .iter()
            .enumerate()
            .filter(|(_, op)| **op == IoOp::WalAppend)
            .map(|(i, _)| i as u64)
            .collect();
        assert!(writes.len() >= 4, "scenario syncs several batches");
        for at in writes {
            // The largest write here is a 16-point hand-off checkpoint plus
            // a batch, 86 bytes packed: every byte of it is a place to
            // tear, and cuts past a smaller write's length persist nothing.
            for truncate in 1..=88 {
                for (mode, recovery) in recovery_modes() {
                    let plan =
                        FaultPlan::new(SEED, Fault::TornWrite { at, truncate });
                    let (dir, out) =
                        engine.pass(&format!("{tag}-tear"), &plan, &pts);
                    assert!(plan.is_crashed(), "tear at op {at} never fired");
                    let ctx = format!(
                        "{mode}: WAL write at op {at} torn by {truncate} bytes"
                    );
                    engine.recover_check(&dir, &pts, &out, recovery, &ctx);
                }
            }
        }
    }
}

/// Tears every manifest edit-group append of the scenario at every record
/// boundary and at points inside records. Whatever prefix of the group
/// reached the disk, recovery must see none of it: a half-applied `Replace`
/// would either overlap the run (strict recovery refuses it) or drop
/// tables whose points nothing else holds (the contract check misses
/// them).
#[test]
fn torn_manifest_edit_groups_are_never_half_applied() {
    /// Bytes of one manifest record.
    const RECORD: usize = 33;
    for (engine, tag) in [
        (GroupEngine::Conventional, "torn-grp-pc"),
        (GroupEngine::Tiered, "torn-grp-bg"),
    ] {
        let pts = group_workload();
        let plan = FaultPlan::trace_only(SEED);
        let (dir, _) = engine.pass(&format!("{tag}-trace"), &plan, &pts);
        drop(dir);
        let appends: Vec<u64> = plan
            .trace()
            .iter()
            .enumerate()
            .filter(|(_, op)| **op == IoOp::ManifestAppend)
            .map(|(i, _)| i as u64)
            .collect();
        // The inline engine commits one group, at rest; the background
        // worker one per plan.
        assert!(!appends.is_empty(), "scenario commits a group");
        for at in appends {
            // The largest group here is header + 4 removes + 8 adds (the
            // inline engine's at rest: header + 10 adds); cuts past a
            // smaller group's length persist nothing of it.
            for records in 0..14 {
                for extra in [0, 1, RECORD / 2, RECORD - 1] {
                    let truncate = records * RECORD + extra;
                    let plan =
                        FaultPlan::new(SEED, Fault::TornWrite { at, truncate });
                    let (dir, out) =
                        engine.pass(&format!("{tag}-tear"), &plan, &pts);
                    assert!(plan.is_crashed(), "tear at op {at} never fired");
                    let ctx = format!(
                        "manifest group at op {at} torn by {truncate} bytes"
                    );
                    engine.recover_check(
                        &dir,
                        &pts,
                        &out,
                        RecoveryOptions::strict().with_gc_orphans(),
                        &ctx,
                    );
                }
            }
        }
    }
}

/// The fleet of `tests/fixtures/pr13/fleet`: series 1–3 hold `workload(46)`
/// shifted by `1000 × id` in time and by `id` in value, series 7 two points
/// that were never flushed.
fn pr13_fleet_contents(series: u32) -> Vec<DataPoint> {
    if series == 7 {
        return vec![DataPoint::new(5, 6, 7.0), DataPoint::new(15, 16, 7.5)];
    }
    let shift = i64::from(series) * 1000;
    let mut points: Vec<DataPoint> = workload(46)
        .into_iter()
        .map(|p| {
            DataPoint::new(
                p.gen_time + shift,
                p.arrival_time + shift,
                p.value + f64::from(series),
            )
        })
        .collect();
    points.sort_by_key(|p| p.gen_time);
    points
}

/// Copies a checked-in fixture directory to where a test may write.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read fixture dir") {
        let entry = entry.expect("entry");
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).expect("copy fixture file");
        }
    }
}

/// The files of `dir`, by name, sorted.
fn file_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("ls")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Durable state written by older builds (`tests/fixtures/pr12/` and
/// `tests/fixtures/pr13/`, see their READMEs: this file's `workload(43)` /
/// `workload(46)` appended, synced, and the engine dropped without a closing
/// flush). PR 12 left header-less manifests of flat `ADD` / `ADD_L0`
/// records; both left header-less WALs of fixed 28-byte records still
/// holding the buffered survivors — PR 13's fleet one `series-<n>.wal` per
/// series. Every directory must recover, strict and salvage, to the
/// contents the build that wrote it recovers, and leave only framed logs
/// behind: the inline and background engines' converted in place, the
/// fleet's folded into one `fleet.wal`.
#[test]
fn pr12_and_pr13_format_directories_still_recover() {
    fn assert_framed(wal: &std::path::Path) {
        let bytes = std::fs::read(wal).expect("read recovered log");
        assert!(bytes.starts_with(WAL_MAGIC), "{} not framed", wal.display());
    }
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures");
    let pi_s = || {
        EngineConfig::new(Policy::separation(8, 4).expect("policy"))
            .with_sstable_points(4)
    };
    let pi_c =
        || EngineConfig::new(Policy::conventional(8)).with_sstable_points(4);
    for (build, points, tiered_config) in
        [("pr12", 43, pi_c()), ("pr13", 46, pi_s())]
    {
        let mut expected = workload(points);
        expected.sort_by_key(|p| p.gen_time);
        for (mode, recovery) in recovery_modes() {
            let ctx = format!("{build}, {mode}");
            let dir = TempDir::new(&format!("{build}-fixture-{mode}"));
            copy_dir(&fixtures.join(build), &dir.0);

            let store: Arc<dyn TableStore> = Arc::new(
                FileStore::open(dir.path("lsm/tables")).expect("fixture store"),
            );
            let (mut engine, report) = OpenOptions::new(pi_s())
                .store(store)
                .wal(dir.path("lsm/wal"))
                .manifest(dir.path("lsm/manifest"))
                .recovery(recovery)
                .open_or_recover()
                .unwrap_or_else(|e| panic!("{ctx}: inline engine: {e}"));
            assert!(report.is_clean(), "{ctx}: {report:?}");
            assert!(report.orphans_removed.is_empty(), "{ctx}: {report:?}");
            assert_eq!(engine.scan_all().expect("scan"), expected, "{ctx}");
            engine.check_integrity().expect("integrity");
            assert_framed(&dir.path("lsm/wal"));
            // And it keeps going in the new formats on top of the old ones.
            engine.flush_all().expect("flush");
            assert_eq!(engine.scan_all().expect("scan"), expected, "{ctx}");

            let store: Arc<dyn TableStore> = Arc::new(
                FileStore::open(dir.path("tiered/tables"))
                    .expect("fixture store"),
            );
            let (engine, report) =
                TieredOpenOptions::new(tiered_config.clone())
                    .store(store)
                    .sync_flush()
                    .wal(dir.path("tiered/wal"))
                    .manifest(dir.path("tiered/manifest"))
                    .recovery(recovery)
                    .open_or_recover()
                    .unwrap_or_else(|e| {
                        panic!("{ctx}: background engine: {e}")
                    });
            assert!(report.is_clean(), "{ctx}: {report:?}");
            assert_eq!(engine.scan_all().expect("scan"), expected, "{ctx}");
            engine.check_integrity().expect("integrity");
            assert_framed(&dir.path("tiered/wal"));
            let finished = engine.finish().expect("finish");
            assert_eq!(finished.points, expected, "{ctx}");

            if build == "pr12" {
                continue; // PR 12 has no fleet fixture.
            }
            let store: Arc<dyn TableStore> = Arc::new(
                FileStore::open(dir.path("fleet/tables"))
                    .expect("fixture store"),
            );
            let (mut fleet, report) = MultiOpenOptions::new(pi_s())
                .store(store)
                .durable_dir(dir.path("fleet/meta"))
                .recovery(recovery)
                .open_or_recover()
                .unwrap_or_else(|e| panic!("{ctx}: fleet: {e}"));
            assert!(report.is_clean(), "{ctx}: {report:?}");
            let ids = [1, 2, 3, 7].map(SeriesId);
            assert_eq!(fleet.series_ids(), ids, "{ctx}");
            let scan = |fleet: &MultiSeriesEngine, id: SeriesId| {
                fleet.engine(id).expect("series").scan_all().expect("scan")
            };
            for id in ids {
                assert_eq!(
                    scan(&fleet, id),
                    pr13_fleet_contents(id.0),
                    "{ctx}: {id}"
                );
            }
            fleet.check_integrity().expect("integrity");
            // The four per-series logs are gone, folded into the one log.
            let mut left: Vec<String> =
                std::fs::read_dir(dir.path("fleet/meta"))
                    .expect("ls")
                    .map(|e| {
                        let name = e.expect("entry").file_name();
                        name.to_string_lossy().into_owned()
                    })
                    .filter(|name| name.ends_with(".wal"))
                    .collect();
            left.sort();
            assert_eq!(left, ["fleet.wal"], "{ctx}");
            assert_framed(&dir.path("fleet/meta/fleet.wal"));
            // A second crash right here recovers the same fleet from it.
            fleet
                .append(ids[3], DataPoint::new(25, 26, 8.0))
                .expect("append");
            fleet.sync_wal_all().expect("sync");
            drop(fleet);
            let store: Arc<dyn TableStore> = Arc::new(
                FileStore::open(dir.path("fleet/tables")).expect("store"),
            );
            let (fleet, report) = MultiOpenOptions::new(pi_s())
                .store(store)
                .durable_dir(dir.path("fleet/meta"))
                .recovery(recovery)
                .open_or_recover()
                .unwrap_or_else(|e| panic!("{ctx}: fleet again: {e}"));
            assert!(report.is_clean(), "{ctx}: {report:?}");
            assert_eq!(scan(&fleet, ids[0]), pr13_fleet_contents(1), "{ctx}");
            assert_eq!(scan(&fleet, ids[3]).len(), 3, "{ctx}");
        }
    }
}

/// The fleet of `tests/fixtures/pr18/fleet` (see its README): the last
/// layout with one `series-<n>.manifest` per series, dropped mid-run with
/// merges done and stragglers in the framed `fleet.wal`. Its contents are
/// PR 13's fleet's. It must recover, strict and salvage, to what the build
/// that wrote it recovers, leaving `fleet.manifest` + `fleet.wal` and
/// nothing else — also when a crash between the fold and the removal
/// leaves the per-series manifests behind for a second recovery to fold
/// again — and keep going on top of it.
#[test]
fn pr18_fleet_directory_still_recovers() {
    let pi_s = || {
        EngineConfig::new(Policy::separation(8, 4).expect("policy"))
            .with_sstable_points(4)
    };
    let ids = [1, 2, 3, 7].map(SeriesId);
    // PR 13's fleet left per-series manifests too (and per-series logs).
    let cases = ["pr13", "pr18"]
        .into_iter()
        .flat_map(|build| recovery_modes().map(|mode| (build, mode)));
    for (build, (mode, recovery)) in cases {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(build)
            .join("fleet");
        let dir = TempDir::new(&format!("{build}-fleet-fixture-{mode}"));
        let mode = format!("{build}, {mode}");
        copy_dir(&fixture, &dir.0);
        let recover = |ctx: &str| {
            let store: Arc<dyn TableStore> = Arc::new(
                FileStore::open(dir.path("tables")).expect("fixture store"),
            );
            let (fleet, report) = MultiOpenOptions::new(pi_s())
                .store(store)
                .durable_dir(dir.path("meta"))
                .recovery(recovery)
                .open_or_recover()
                .unwrap_or_else(|e| panic!("{mode}, {ctx}: {e}"));
            assert!(report.is_clean(), "{mode}, {ctx}: {report:?}");
            assert!(report.orphans_removed.is_empty(), "{mode}, {ctx}");
            assert_eq!(fleet.series_ids(), ids, "{mode}, {ctx}");
            fleet.check_integrity().expect("integrity");
            assert_eq!(
                file_names(&dir.path("meta")),
                ["fleet.manifest", "fleet.wal"],
                "{mode}, {ctx}"
            );
            fleet
        };
        let scan = |fleet: &MultiSeriesEngine, id: SeriesId| {
            fleet.engine(id).expect("series").scan_all().expect("scan")
        };

        let fleet = recover("first recovery");
        for id in ids {
            assert_eq!(scan(&fleet, id), pr13_fleet_contents(id.0), "{mode}");
        }
        let stats = fleet.manifest_stats().expect("durable fleet");
        assert_eq!(stats.records, 4 + 3 * 11, "one header per series: {mode}");
        drop(fleet);

        // A crash after the fold, before the removal was durable: the
        // per-series manifests are back, and say what the fold recorded.
        for id in ids {
            let name = format!("meta/series-{}.manifest", id.0);
            std::fs::copy(fixture.join(&name), dir.path(&name))
                .expect("the removed manifest comes back");
        }
        let mut fleet = recover("recovery after a crash mid-fold");
        for id in ids {
            assert_eq!(scan(&fleet, id), pr13_fleet_contents(id.0), "{mode}");
        }

        // And it keeps going in the new layout: merges, a sync, a
        // closing flush, one more crash.
        for i in 0..8 {
            let tg = 1_005 + i * 10;
            fleet
                .append(ids[0], DataPoint::new(tg, tg + 1, 0.5))
                .expect("append");
        }
        fleet.sync_wal_all().expect("sync");
        fleet
            .append(ids[3], DataPoint::new(25, 26, 8.0))
            .expect("append");
        fleet.sync_wal_all().expect("sync");
        drop(fleet);
        let mut fleet = recover("recovery of the new layout");
        assert_eq!(scan(&fleet, ids[0]).len(), 46 + 8, "{mode}");
        assert_eq!(scan(&fleet, ids[1]), pr13_fleet_contents(2), "{mode}");
        assert_eq!(scan(&fleet, ids[3]).len(), 3, "{mode}");
        fleet.flush_all().expect("flush");
        assert_eq!(scan(&fleet, ids[0]).len(), 46 + 8, "{mode}");
    }
}

/// The checkpoint frames of a framed log, as `(kind, points carried)`: the
/// raw kinds `1` and `2` of older builds, whose length gives the count, and
/// the packed kind `4`, which states it (as a varint, left out when zero).
fn checkpoint_frames(wal: &std::path::Path) -> Vec<(u8, usize)> {
    let bytes = std::fs::read(wal).expect("read log");
    assert!(bytes.starts_with(WAL_MAGIC), "{} not framed", wal.display());
    let mut frames = Vec::new();
    let mut off = WAL_MAGIC.len();
    while off + 9 <= bytes.len() {
        let len = u32::from_le_bytes(
            bytes[off..off + 4].try_into().expect("four bytes"),
        ) as usize;
        let body = &bytes[off + 8..off + 8 + len];
        match body[0] {
            0 | 3 => {}
            1 => frames.push((1, (len - 5) / 24)),
            2 => frames.push((2, (len - 5 - 16) / 24)),
            kind => {
                let mut count = 0;
                for (i, byte) in body[5 + 16..].iter().enumerate() {
                    count |= usize::from(byte & 0x7f) << (7 * i);
                    if byte & 0x80 == 0 {
                        break;
                    }
                }
                frames.push((kind, count));
            }
        }
        off += 8 + len;
    }
    frames
}

/// Durable state written by the PR 19 build (`tests/fixtures/pr19/`, see its
/// README), the last one whose checkpoint frames had no range and re-logged
/// every buffered point: all three engines dropped mid-run under `π_s` with
/// stragglers buffered and survivor-carrying `kind 1` frames in their logs.
/// Every directory must recover, strict and salvage, to the contents the
/// build that wrote it recovers, and keep going with range checkpoints in
/// the log recovery cut from the old frames.
#[test]
fn pr19_logs_still_recover() {
    let logs = ["lsm/wal", "tiered/wal", "fleet/meta/fleet.wal"];
    old_logs_still_recover("pr19", 1, &logs);
}

/// Durable state written by the PR 21 build (`tests/fixtures/pr21/`, see its
/// README), the last one that logged raw 24-byte points: the same three
/// engines on the same schedule, their logs all `kind 0` points frames and
/// `kind 2` range checkpoints — the background engine's and the fleet's
/// carrying points, the inline engine's under `π_s` none. Same contract.
#[test]
fn pr21_logs_still_recover() {
    let carrying = ["tiered/wal", "fleet/meta/fleet.wal"];
    old_logs_still_recover("pr21", 2, &carrying);
}

/// The body of the two tests above: `tests/fixtures/<build>` holds logs
/// whose checkpoint frames are all of `kind`, those of `carrying` with
/// points in some of them.
fn old_logs_still_recover(build: &str, kind: u8, carrying: &[&str]) {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(build);
    let pi_s = || {
        EngineConfig::new(Policy::separation(8, 4).expect("policy"))
            .with_sstable_points(4)
    };
    for log in ["lsm/wal", "tiered/wal", "fleet/meta/fleet.wal"] {
        let frames = checkpoint_frames(&fixture.join(log));
        assert!(!frames.is_empty(), "{build}/{log}");
        assert!(frames.iter().all(|(k, _)| *k == kind), "{build}/{log}");
        assert_eq!(
            frames.iter().any(|(_, carried)| *carried > 0),
            carrying.contains(&log),
            "{build}/{log}"
        );
    }
    let mut expected = workload(46);
    expected.sort_by_key(|p| p.gen_time);
    for (mode, recovery) in recovery_modes() {
        let dir = TempDir::new(&format!("{build}-fixture-{mode}"));
        let mode = format!("{build}, {mode}");
        copy_dir(&fixture, &dir.0);
        let store = |tables: &str| -> Arc<dyn TableStore> {
            Arc::new(FileStore::open(dir.path(tables)).expect("fixture store"))
        };

        let open_lsm = || {
            OpenOptions::new(pi_s())
                .store(store("lsm/tables"))
                .wal(dir.path("lsm/wal"))
                .manifest(dir.path("lsm/manifest"))
                .recovery(recovery)
                .open_or_recover()
                .unwrap_or_else(|e| panic!("{mode}: inline engine: {e}"))
        };
        let (mut engine, report) = open_lsm();
        assert!(report.is_clean(), "{mode}: {report:?}");
        assert!(report.orphans_removed.is_empty(), "{mode}: {report:?}");
        assert_eq!(engine.scan_all().expect("scan"), expected, "{mode}");
        assert_eq!(engine.buffered_points(), 2, "{mode}: 413 and 450");
        engine.check_integrity().expect("integrity");
        // Four in-order points flush `C_seq` past the straggler, whose range
        // the log is told of only at the engine's next horizon: the last
        // checkpoint in it is still recovery's cut, carrying the two points
        // recovery left buffered, and a second crash recovers them — and
        // the flushed four — from the log.
        for i in 0..4 {
            let tg = 460 + i * 10;
            engine
                .append(DataPoint::new(tg, tg + 3, 0.5))
                .expect("append");
        }
        engine.sync_wal().expect("sync");
        assert_eq!(engine.buffered_points(), 2, "{mode}: 413 and 490");
        drop(engine);
        let frames = checkpoint_frames(&dir.path("lsm/wal"));
        assert_eq!(frames.last(), Some(&(4, 2)), "{mode}: {frames:?}");
        let (mut engine, report) = open_lsm();
        assert!(report.is_clean(), "{mode}: {report:?}");
        assert_eq!(engine.scan_all().expect("scan").len(), 50, "{mode}");
        assert_eq!(engine.get(413).expect("get"), Some(expected[42]));
        engine.flush_all().expect("flush");
        assert_eq!(engine.scan_all().expect("scan").len(), 50, "{mode}");

        let (engine, report) = TieredOpenOptions::new(pi_s())
            .store(store("tiered/tables"))
            .sync_flush()
            .wal(dir.path("tiered/wal"))
            .manifest(dir.path("tiered/manifest"))
            .recovery(recovery)
            .open_or_recover()
            .unwrap_or_else(|e| panic!("{mode}: background engine: {e}"));
        assert!(report.is_clean(), "{mode}: {report:?}");
        assert_eq!(engine.scan_all().expect("scan"), expected, "{mode}");
        engine.check_integrity().expect("integrity");
        let finished = engine.finish().expect("finish");
        assert_eq!(finished.points, expected, "{mode}");

        let (mut fleet, report) = MultiOpenOptions::new(pi_s())
            .store(store("fleet/tables"))
            .durable_dir(dir.path("fleet/meta"))
            .recovery(recovery)
            .open_or_recover()
            .unwrap_or_else(|e| panic!("{mode}: fleet: {e}"));
        assert!(report.is_clean(), "{mode}: {report:?}");
        let ids = [1, 2, 3, 7].map(SeriesId);
        assert_eq!(fleet.series_ids(), ids, "{mode}");
        for id in ids {
            let series = fleet.engine(id).expect("series");
            assert_eq!(
                series.scan_all().expect("scan"),
                pr13_fleet_contents(id.0),
                "{mode}: {id}"
            );
            assert_eq!(series.buffered_points(), 2, "{mode}: {id}");
        }
        fleet.check_integrity().expect("integrity");
        assert_eq!(
            file_names(&dir.path("fleet/meta")),
            ["fleet.manifest", "fleet.wal"],
            "{mode}"
        );
        fleet.flush_all().expect("flush");
        for id in ids {
            assert_eq!(
                fleet.engine(id).expect("series").scan_all().expect("scan"),
                pr13_fleet_contents(id.0),
                "{mode}: {id}"
            );
        }
    }
}

// -------------------------------------------------------- MultiSeriesEngine

static MULTI_CASE: AtomicUsize = AtomicUsize::new(0);

type PerSeries<T> = std::collections::HashMap<u32, T>;

/// What a fleet workload managed before the injected failure (if any).
#[derive(Default)]
struct FleetOutcome {
    /// Per series, the generation times whose append returned `Ok`.
    appended: PerSeries<Vec<i64>>,
    /// Per series, the length of `appended` at the last successful
    /// `sync_wal_all` — the durability contract covers exactly this prefix.
    synced: PerSeries<usize>,
}

impl FleetOutcome {
    fn acknowledge(&mut self) {
        for (s, appended) in &self.appended {
            self.synced.insert(*s, appended.len());
        }
    }
}

/// Appends `pts` in order, syncing the fleet log every `sync_every`
/// appends and once at the end; stops at the first failure.
fn drive_fleet(
    engine: &mut MultiSeriesEngine,
    pts: &[(u32, DataPoint)],
    sync_every: usize,
) -> FleetOutcome {
    let mut out = FleetOutcome::default();
    for (i, (s, p)) in pts.iter().enumerate() {
        if engine.append(SeriesId(*s), *p).is_err() {
            return out;
        }
        out.appended.entry(*s).or_default().push(p.gen_time);
        if (i + 1) % sync_every == 0 {
            if engine.sync_wal_all().is_err() {
                return out;
            }
            out.acknowledge();
        }
    }
    if engine.sync_wal_all().is_ok() {
        out.acknowledge();
    }
    out
}

fn fleet_recover(
    dir: &TempDir,
    recovery: RecoveryOptions,
) -> MultiSeriesEngine {
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("reopen store"));
    let (engine, _report) = MultiOpenOptions::new(config())
        .store(store)
        .durable_dir(dir.path("meta"))
        .recovery(recovery)
        .open_or_recover()
        .expect("recovery after crash");
    engine.check_integrity().expect("integrity audit");
    engine
}

/// The recovery contract per series: no duplicate generation times, every
/// synced point present, nothing but this series' attempted appends.
fn check_fleet_contract(
    engine: &MultiSeriesEngine,
    pts: &[(u32, DataPoint)],
    out: &FleetOutcome,
    ctx: &str,
) {
    for (s, appended) in &out.appended {
        let synced = out.synced.get(s).copied().unwrap_or(0);
        let Ok((recovered, _)) =
            engine.query(SeriesId(*s), TimeRange::new(-1_000, 1_000_000))
        else {
            // The series may not have reached its first durable write.
            assert_eq!(synced, 0, "{ctx}: synced series {s} missing");
            continue;
        };
        let got: HashSet<i64> = recovered.iter().map(|p| p.gen_time).collect();
        assert_eq!(got.len(), recovered.len(), "{ctx}: duplicates");
        for tg in &appended[..synced] {
            assert!(got.contains(tg), "{ctx}: synced point {s}/{tg} lost");
        }
        // `attempted` includes at most one point past `appended` (the one
        // whose append failed mid-flight).
        let attempted: HashSet<i64> = pts
            .iter()
            .filter(|(series, _)| series == s)
            .map(|(_, p)| p.gen_time)
            .collect();
        for tg in &got {
            assert!(
                attempted.contains(tg),
                "{ctx}: recovery invented point {s}/{tg}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn multi_series_engine_recovers_from_any_crash(
        raw in proptest::collection::vec((0u32..3u32, 0i64..1_000i64), 8..48),
        crash_at in 0u64..300u64,
    ) {
        // Unique (series, gen_time) pairs keep the contract set-based.
        let mut seen = HashSet::new();
        let pts: Vec<(u32, DataPoint)> = raw
            .into_iter()
            .filter(|(s, tg)| seen.insert((*s, *tg)))
            .map(|(s, tg)| (s, DataPoint::new(tg, tg + 5, f64::from(s))))
            .collect();
        let case = MULTI_CASE.fetch_add(1, Ordering::Relaxed);
        let dir = TempDir::new(&format!("multi-{case}"));
        let plan = FaultPlan::crash_at(SEED, crash_at);
        let out = {
            let store = FileStore::open(dir.path("tables"))
                .expect("store")
                .with_faults(Arc::clone(&plan));
            let mut engine = MultiOpenOptions::new(config())
                .store(Arc::new(store))
                .durable_dir(dir.path("meta"))
                .faults(Arc::clone(&plan))
                .open()
                .expect("durable engine");
            drive_fleet(&mut engine, &pts, 9)
        };
        let engine = fleet_recover(
            &dir,
            RecoveryOptions::strict().with_gc_orphans(),
        );
        check_fleet_contract(&engine, &pts, &out, "random crash");
    }
}

/// The fleet crash schedule over a run that closes with `flush_all`, which
/// flushes the series one after another and then runs the horizon: at
/// each of five crash points, before that call or inside it, the fleet
/// must keep every series' engine, and recovery must uphold the same
/// contract (synced prefix survives, nothing is invented).
#[test]
fn a_crash_inside_the_fleet_s_flush_all_preserves_the_durability_contract() {
    let pts: Vec<(u32, DataPoint)> = workload(WORKLOAD_POINTS)
        .into_iter()
        .enumerate()
        .map(|(i, p)| ((i % 4) as u32, p))
        .collect();
    for crash_at in [6u64, 25, 60, 110, 200] {
        let dir = TempDir::new(&format!("multi-flush-all-{crash_at}"));
        let plan = FaultPlan::crash_at(SEED, crash_at);
        let out = {
            let store = FileStore::open(dir.path("tables"))
                .expect("store")
                .with_faults(Arc::clone(&plan));
            let mut engine = MultiOpenOptions::new(config())
                .store(Arc::new(store))
                .durable_dir(dir.path("meta"))
                .faults(Arc::clone(&plan))
                .open()
                .expect("durable engine");
            let out = drive_fleet(&mut engine, &pts, usize::MAX);
            // May crash mid-flush; every series engine is retained either
            // way, and the fleet keeps answering for the survivors.
            if engine.flush_all().is_err() {
                assert_eq!(
                    engine.len(),
                    out.appended.len(),
                    "crash_at {crash_at}: a failed flush_all lost series"
                );
            }
            out
            // Crash: dropped here.
        };
        let engine =
            fleet_recover(&dir, RecoveryOptions::strict().with_gc_orphans());
        check_fleet_contract(
            &engine,
            &pts,
            &out,
            &format!("flush_all, crash at op {crash_at}"),
        );
    }
}

// ---------------------------------------------------------------- Fleet log

/// The fleet-log scenario's table shape and policy: `π_s(8 + 8)`, so the
/// hot series' in-order flushes leave its stragglers behind as checkpoint
/// survivors.
fn fleet_log_config() -> EngineConfig {
    GroupEngine::Separation.config()
}

/// Batches of the fleet-log scenario, and appends per batch.
const FLEET_LOG_ROUNDS: i64 = 4;
const FLEET_LOG_BATCH: usize = 8;

/// Four batches over four series. In each, series 1–3 take one point and
/// the hot series 0 four in-order ones, so `C_seq` fills — and the batch's
/// last append flushes it and queues its checkpoint — every second batch.
/// From the third batch on series 0 also takes a straggler, which stays
/// buffered and survives the flush (before that, series 1 takes a second
/// point instead).
fn fleet_log_workload() -> Vec<(u32, DataPoint)> {
    let mut pts = Vec::new();
    for round in 0..FLEET_LOG_ROUNDS {
        for s in 1..4u32 {
            let tg = round * 10 + i64::from(s);
            pts.push((s, DataPoint::new(tg, tg + 1, f64::from(s))));
        }
        if round < 2 {
            let tg = round * 10 + 5;
            pts.push((1, DataPoint::new(tg, tg + 1, 1.0)));
        } else {
            let tg = (round - 2) * 40 + 5;
            pts.push((0, DataPoint::new(tg, tg + 500, -1.0)));
        }
        for i in 0..4 {
            let tg = (round * 4 + i) * 10;
            pts.push((0, DataPoint::new(tg, tg + 1, 0.0)));
        }
    }
    pts
}

/// A durable fleet under `plan`: `pts` in batches of `batch` appends, each
/// closed by a sync, then the closing `flush_all` that cuts the log.
fn fleet_pass(
    config: EngineConfig,
    batch: usize,
    tag: &str,
    plan: &Arc<FaultPlan>,
    pts: &[(u32, DataPoint)],
) -> (TempDir, FleetOutcome) {
    let dir = TempDir::new(tag);
    let store = FileStore::open(dir.path("tables"))
        .expect("store")
        .with_faults(Arc::clone(plan));
    let mut engine = MultiOpenOptions::new(config)
        .store(Arc::new(store))
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(plan))
        .open()
        .expect("durable fleet");
    let out = drive_fleet(&mut engine, pts, batch);
    let _ = engine.flush_all();
    (dir, out)
}

/// Recovers the fleet `fleet_pass` left in `dir` and checks the contract
/// and the integrity audit; returns it with its report.
fn fleet_recover_check(
    config: EngineConfig,
    dir: &TempDir,
    pts: &[(u32, DataPoint)],
    out: &FleetOutcome,
    recovery: RecoveryOptions,
    ctx: &str,
) -> (MultiSeriesEngine, seplsm::RecoveryReport) {
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("reopen store"));
    let (engine, report) = MultiOpenOptions::new(config)
        .store(store)
        .durable_dir(dir.path("meta"))
        .recovery(recovery)
        .open_or_recover()
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert!(report.quarantined.is_empty(), "{ctx}: {report:?}");
    engine
        .check_integrity()
        .unwrap_or_else(|e| panic!("{ctx}: integrity: {e}"));
    check_fleet_contract(&engine, pts, out, ctx);
    (engine, report)
}

/// Batch → sync, batch → flush → checkpoint → sync, twice, then the
/// closing `flush_all` that cuts the log.
fn fleet_log_pass(
    tag: &str,
    plan: &Arc<FaultPlan>,
    pts: &[(u32, DataPoint)],
) -> (TempDir, FleetOutcome) {
    fleet_pass(fleet_log_config(), FLEET_LOG_BATCH, tag, plan, pts)
}

fn fleet_log_recover_check(
    dir: &TempDir,
    pts: &[(u32, DataPoint)],
    out: &FleetOutcome,
    recovery: RecoveryOptions,
    ctx: &str,
) {
    fleet_recover_check(fleet_log_config(), dir, pts, out, recovery, ctx);
}

#[test]
fn fleet_log_survives_a_crash_or_a_torn_write_at_every_io_op() {
    let pts = fleet_log_workload();
    let plan = FaultPlan::trace_only(SEED);
    let (dir, out) = fleet_log_pass("fleet-log-trace", &plan, &pts);
    let trace = plan.trace();
    assert_eq!(out.synced.len(), 4, "trace pass must complete");
    // Four batches: four WAL writes and fsyncs for four series, two
    // flushes of the hot series in between, and at rest the horizon and
    // one cut.
    let count = |op| trace.iter().filter(|o| **o == op).count();
    assert_eq!(count(IoOp::WalAppend), 4, "{trace:?}");
    assert_eq!(count(IoOp::WalSync), 4, "{trace:?}");
    assert_eq!(count(IoOp::WalRewrite), 1, "{trace:?}");
    assert_eq!(count(IoOp::WalRename), 0, "{trace:?}");
    assert!(count(IoOp::ManifestSync) >= 1, "{trace:?}");
    assert_eq!(
        std::fs::metadata(dir.path("meta/fleet.wal"))
            .expect("stat")
            .len(),
        WAL_HEADER
    );
    for (mode, recovery) in recovery_modes() {
        fleet_log_recover_check(&dir, &pts, &out, recovery, mode);
    }
    drop(dir);
    for k in 0..plan.ops() {
        for (mode, recovery) in recovery_modes() {
            let op = trace[k as usize];
            let plan = FaultPlan::crash_at(SEED, k);
            let (dir, out) = fleet_log_pass("fleet-log-crash", &plan, &pts);
            assert!(plan.is_crashed(), "crash at op {k} never fired");
            let ctx = format!("{mode}: crash at op {k} ({op:?})");
            fleet_log_recover_check(&dir, &pts, &out, recovery, &ctx);
            // A few bytes, a point and a half, most of a frame.
            for truncate in [3usize, 8, 30] {
                let plan =
                    FaultPlan::new(SEED, Fault::TornWrite { at: k, truncate });
                let (dir, out) = fleet_log_pass("fleet-log-tear", &plan, &pts);
                assert!(plan.is_crashed(), "tear at op {k} never fired");
                let ctx =
                    format!("{mode}: op {k} ({op:?}) torn by {truncate} bytes");
                fleet_log_recover_check(&dir, &pts, &out, recovery, &ctx);
            }
        }
    }
}

/// Points the recovery of `dir` replayed from the fleet log, and the fleet.
fn fleet_log_replayed(
    config: EngineConfig,
    dir: &TempDir,
) -> (u64, MultiSeriesEngine) {
    let sink = RingBufferSink::new(4096);
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("reopen store"));
    let (engine, _) = MultiOpenOptions::new(config)
        .store(store)
        .durable_dir(dir.path("meta"))
        .observer(sink.clone())
        .open_or_recover()
        .expect("strict recovery");
    let replayed = sink
        .events()
        .iter()
        .map(|e| match e {
            Event::RecoveryStep {
                step: RecoveryStepKind::WalReplayed,
                items,
            } => *items,
            _ => 0,
        })
        .sum();
    (replayed, engine)
}

/// The shape of the torn-checkpoint scenarios: `π_s(16, 8)` over one-point
/// tables, so eight in-order points flush `C_seq` and the eighth such flush
/// — 64 points — is a horizon.
fn torn_checkpoint_config() -> EngineConfig {
    EngineConfig::new(Policy::separation(16, 8).expect("policy"))
        .with_sstable_points(1)
}

/// Sixty-five in-order points: eight batches of eight, each flushed by its
/// last point, and one more.
fn torn_checkpoint_points() -> Vec<DataPoint> {
    (0..8 * 8 + 1)
        .map(|i| DataPoint::new(i * 10, i * 10 + 1, i as f64))
        .collect()
}

/// How many of `frames` (their lengths, in write order) the first `kept`
/// bytes of their write hold whole.
fn whole_frames(frames: &[usize], kept: usize) -> usize {
    frames
        .iter()
        .scan(0, |end, frame| {
            *end += frame;
            Some(*end)
        })
        .take_while(|end| *end <= kept)
        .count()
}

/// One write of checkpoint frames to the fleet log, torn at every byte.
/// Series 0 takes [`torn_checkpoint_points`] in batches of eight, series 1
/// one point in each of the first seven batches, and series 0 its 65th
/// point at the end of the eighth, after that batch's flush: nine appends a
/// batch. The eighth batch's sync is the fleet's horizon, which queues one
/// checkpoint frame of series 0 per flushed range, each carrying nothing —
/// and letting go of the eight points the batch logged for series 0 before
/// they were ever written — so the batch's write is those eight frames and
/// a one-point points frame. Wholly there, a frame supersedes the eight
/// points of series 0 an earlier write holds; torn anywhere, range
/// included, it must not exist at all: those eight apply again and replay
/// returns *more*, never a mixture. Series 1's seven points replay
/// whatever survives of the write.
#[test]
fn a_torn_checkpoint_is_ignored_whole_and_only_ever_replays_more() {
    let series_0 = torn_checkpoint_points();
    let mut pts = Vec::new();
    for (batch, points) in series_0.chunks(8).take(8).enumerate() {
        if batch < 7 {
            let tg = batch as i64 * 10 + 5;
            pts.push((1, DataPoint::new(tg, tg + 1, 1.0)));
        }
        pts.extend(points.iter().map(|p| (0, *p)));
    }
    pts.push((0, series_0[64]));
    let pass = |tag: &str, plan: &Arc<FaultPlan>| {
        fleet_pass(torn_checkpoint_config(), 9, tag, plan, &pts)
    };
    let plan = FaultPlan::trace_only(SEED);
    let (dir, out) = pass("fleet-ckpt-trace", &plan);
    assert_eq!(out.synced.values().sum::<usize>(), 72, "trace pass");
    drop(dir);
    let trace = plan.trace();
    let eighth_write = trace
        .iter()
        .enumerate()
        .filter(|(_, op)| **op == IoOp::WalAppend)
        .nth(7)
        .map(|(at, _)| at)
        .expect("eight WAL writes");
    assert!(
        trace[..eighth_write].contains(&IoOp::ManifestSync),
        "the horizon precedes the write: {trace:?}"
    );
    let mut frames = vec![wal_layout::CHECKPOINT_FRAME as usize; 8];
    frames.push(wal_layout::points_frame(&series_0[64..]) as usize);
    let write: usize = frames.iter().sum();
    for truncate in 1..=write {
        let plan = FaultPlan::new(
            SEED,
            Fault::TornWrite {
                at: eighth_write as u64,
                truncate,
            },
        );
        let (dir, out) = pass("fleet-ckpt-tear", &plan);
        assert!(plan.is_crashed(), "tear never fired");
        let ctx = format!("checkpoint write torn by {truncate} of {write}");
        assert_eq!(
            (out.synced.get(&0), out.synced.get(&1)),
            (Some(&56), Some(&7)),
            "{ctx}: seven batches acknowledged"
        );
        let (replayed, engine) =
            fleet_log_replayed(torn_checkpoint_config(), &dir);
        check_fleet_contract(&engine, &pts, &out, &ctx);
        let whole = whole_frames(&frames, write - truncate);
        assert_eq!(replayed as usize, 7 + 56 - 8 * whole.min(7), "{ctx}");
    }
}

/// The same torn write in an engine's own log: eight batches of eight
/// in-order points, then one more, through an engine with a log and a
/// manifest, whose eighth flush runs its horizon before the batch's sync.
/// Wholly there, a frame supersedes the eight points of its batch an
/// earlier write holds (the eighth batch's own never reached the file:
/// flushed and checkpointed before their sync); torn anywhere, it must not
/// exist at all.
#[test]
fn an_engine_s_torn_checkpoint_is_ignored_whole_and_only_replays_more() {
    let config = torn_checkpoint_config();
    let pts = torn_checkpoint_points();
    let batches = [0, 8, 16, 24, 32, 40, 48, 56, 65];
    let pass = |tag: &str, plan: &Arc<FaultPlan>| {
        let dir = TempDir::new(tag);
        let store = FileStore::open(dir.path("tables"))
            .expect("store")
            .with_faults(Arc::clone(plan));
        let mut engine = OpenOptions::new(config.clone())
            .store(Arc::new(store))
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .faults(Arc::clone(plan))
            .open()
            .expect("open");
        let mut out = Outcome {
            attempted: 0,
            appended: 0,
            synced: 0,
        };
        for batch in batches.windows(2) {
            for p in &pts[batch[0]..batch[1]] {
                out.attempted += 1;
                if engine.append(*p).is_err() {
                    return (dir, out);
                }
                out.appended += 1;
            }
            if engine.sync_wal().is_err() {
                return (dir, out);
            }
            out.synced = out.appended;
        }
        (dir, out)
    };
    let replayed = |dir: &TempDir| {
        let sink = RingBufferSink::new(4096);
        let store: Arc<dyn TableStore> = Arc::new(
            FileStore::open(dir.path("tables")).expect("reopen store"),
        );
        let (engine, _) = OpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .observer(sink.clone())
            .open_or_recover()
            .expect("strict recovery");
        let replayed: u64 = sink
            .events()
            .iter()
            .map(|e| match e {
                Event::RecoveryStep {
                    step: RecoveryStepKind::WalReplayed,
                    items,
                } => *items,
                _ => 0,
            })
            .sum();
        (replayed as usize, engine)
    };
    let plan = FaultPlan::trace_only(SEED);
    let (dir, out) = pass("ckpt-trace", &plan);
    assert_eq!(out.synced, pts.len(), "trace pass must complete");
    drop(dir);
    let trace = plan.trace();
    let last_write = trace
        .iter()
        .rposition(|op| *op == IoOp::WalAppend)
        .expect("eight WAL writes");
    assert!(
        trace[..last_write].contains(&IoOp::ManifestSync),
        "the horizon precedes the write: {trace:?}"
    );
    let mut frames = vec![wal_layout::CHECKPOINT_FRAME as usize; 8];
    frames.push(wal_layout::points_frame(&pts[64..]) as usize);
    let write: usize = frames.iter().sum();
    for truncate in 1..=write {
        let plan = FaultPlan::new(
            SEED,
            Fault::TornWrite {
                at: last_write as u64,
                truncate,
            },
        );
        let (dir, out) = pass("ckpt-tear", &plan);
        assert!(plan.is_crashed(), "tear never fired");
        let ctx = format!("checkpoint write torn by {truncate} of {write}");
        assert_eq!(out.synced, 56, "{ctx}: seven batches acknowledged");
        let (replayed, engine) = replayed(&dir);
        check_contract(&engine.scan_all().expect("scan"), &pts, &out, &ctx);
        // The seven earlier batches replay their 56 points, less the eight
        // of every batch whose checkpoint is wholly there; the eighth
        // frame's range holds no logged point, and the points frame is
        // never whole.
        let whole = whole_frames(&frames, write - truncate);
        assert_eq!(replayed, 56 - 8 * whole.min(7), "{ctx}");
    }
}

/// The power cut a crash may come with: every `.sst` in `dir`'s tables
/// directory that its durable manifest does not name — published since the
/// last horizon and synced by one the crash cut short, or retired and not
/// yet deleted — is deleted or, every other one, torn to half its length.
/// (A table no horizon synced is in no file at all, or, when the crash cut
/// its sync short, under its tmp name, which the next open sweeps.)
fn power_cut(dir: &TempDir) {
    let (mut series, _) =
        seplsm::lsm::Manifest::replay(dir.path("manifest"), true)
            .expect("the durable manifest");
    let (run, l0) = series.remove(&None).unwrap_or_default();
    let named: HashSet<u64> = run.iter().chain(&l0).map(|m| m.id.0).collect();
    for entry in std::fs::read_dir(dir.path("tables")).expect("ls") {
        let path = entry.expect("entry").path();
        let Some(id) = path
            .file_name()
            .and_then(|name| name.to_str()?.strip_suffix(".sst"))
            .and_then(|stem| stem.parse::<u64>().ok())
        else {
            continue;
        };
        if named.contains(&id) {
            continue;
        }
        if id % 2 == 0 {
            std::fs::remove_file(&path).expect("lose a table");
        } else {
            let len = std::fs::metadata(&path).expect("stat").len();
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|file| file.set_len(len / 2))
                .expect("tear a table");
        }
    }
}

/// The horizon scenarios' shape: `π_c(8)` over one-point tables, a horizon
/// per 64 points flushed.
fn one_point_tables() -> EngineConfig {
    EngineConfig::new(Policy::conventional(8)).with_sstable_points(1)
}

/// A fresh inline engine of [`one_point_tables`] over `dir`, every op
/// counted by `plan`.
fn one_point_engine(dir: &TempDir, plan: &Arc<FaultPlan>) -> LsmEngine {
    let store = FileStore::open(dir.path("tables"))
        .expect("store")
        .with_faults(Arc::clone(plan));
    OpenOptions::new(one_point_tables())
        .store(Arc::new(store))
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .faults(Arc::clone(plan))
        .open()
        .expect("open")
}

/// A [`one_point_engine`] over a fresh directory, driven through `pts` with
/// a sync every [`SYNC_EVERY`] appends.
fn one_point_pass(
    tag: &str,
    plan: &Arc<FaultPlan>,
    pts: &[DataPoint],
) -> (TempDir, Outcome) {
    let dir = TempDir::new(tag);
    let mut engine = one_point_engine(&dir, plan);
    let out = drive(&mut engine, pts, LsmEngine::append, |e| e.sync_wal());
    (dir, out)
}

/// Recovers a [`one_point_pass`] directory in `recovery`'s mode — nothing
/// quarantined — checks the contract and the integrity audit, and returns
/// what it recovered.
fn one_point_recover_check(
    dir: &TempDir,
    pts: &[DataPoint],
    out: &Outcome,
    recovery: RecoveryOptions,
    ctx: &str,
) -> Vec<DataPoint> {
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("reopen store"));
    let (engine, report) = OpenOptions::new(one_point_tables())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(recovery)
        .open_or_recover()
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert!(report.quarantined.is_empty(), "{ctx}: {report:?}");
    let recovered = engine.scan_all().expect("scan");
    check_contract(&recovered, pts, out, ctx);
    engine
        .check_integrity()
        .unwrap_or_else(|e| panic!("{ctx}: integrity: {e}"));
    recovered
}

/// The durability horizon under a crash at every op and the power cut that
/// comes with it: an inline engine whose flushes cross two horizons mid-run
/// ([`one_point_tables`]), with merges retiring durable tables in between,
/// crashed at every I/O op of the run; before recovery every table file the
/// durable manifest does not name is lost or torn. Every acknowledged point
/// must come back — from the tables the manifest names and from the log —
/// in strict and salvage mode.
#[test]
fn an_lsm_engine_survives_a_power_cut_at_every_op_across_two_horizons() {
    let pts = workload(160);
    let plan = FaultPlan::trace_only(SEED);
    let (dir, out) = one_point_pass("cut-trace", &plan, &pts);
    assert_eq!(out.synced, pts.len(), "trace pass must complete");
    let trace = plan.trace();
    let count = |op| trace.iter().filter(|o| **o == op).count();
    assert_eq!(count(IoOp::ManifestSync), 2, "two horizons: {trace:?}");
    let second = trace
        .iter()
        .rposition(|op| *op == IoOp::ManifestSync)
        .expect("a horizon");
    assert!(
        trace[second..].contains(&IoOp::StoreDelete),
        "the second horizon deletes what merges retired: {trace:?}"
    );
    for (mode, recovery) in recovery_modes() {
        power_cut(&dir);
        one_point_recover_check(&dir, &pts, &out, recovery, mode);
    }
    drop(dir);
    for k in crash_points(&trace) {
        for (mode, recovery) in recovery_modes() {
            let plan = FaultPlan::crash_at(SEED, k);
            let (dir, out) = one_point_pass("cut-crash", &plan, &pts);
            assert!(plan.is_crashed(), "crash at op {k} never fired");
            let ctx =
                format!("{mode}: crash at op {k} ({:?})", trace[k as usize]);
            power_cut(&dir);
            one_point_recover_check(&dir, &pts, &out, recovery, &ctx);
        }
    }
}

/// A [`one_point_tables`] background engine over a fresh directory, with
/// synchronous flushes, driven through `pts` like [`one_point_pass`]; it is
/// dropped, its worker joined, before this returns.
fn one_point_tiered_pass(
    tag: &str,
    plan: &Arc<FaultPlan>,
    pts: &[DataPoint],
) -> (TempDir, Outcome) {
    let dir = TempDir::new(tag);
    let store = FileStore::open(dir.path("tables"))
        .expect("store")
        .with_faults(Arc::clone(plan));
    let mut engine = TieredOpenOptions::new(one_point_tables())
        .store(Arc::new(store))
        .sync_flush()
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .faults(Arc::clone(plan))
        .open()
        .expect("open");
    let out = drive(&mut engine, pts, TieredEngine::append, |e| e.sync_wal());
    (dir, out)
}

/// [`one_point_recover_check`] for a [`one_point_tiered_pass`] directory,
/// the audit at rest (see `tiered_recover_check`).
fn one_point_tiered_recover_check(
    dir: &TempDir,
    pts: &[DataPoint],
    out: &Outcome,
    recovery: RecoveryOptions,
    ctx: &str,
) {
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("reopen store"));
    let (mut engine, report) = TieredOpenOptions::new(one_point_tables())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(recovery)
        .open_or_recover()
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert!(report.quarantined.is_empty(), "{ctx}: {report:?}");
    check_contract(&engine.scan_all().expect("scan"), pts, out, ctx);
    engine
        .quiesce()
        .unwrap_or_else(|e| panic!("{ctx}: quiesce failed: {e}"));
    engine
        .check_integrity()
        .unwrap_or_else(|e| panic!("{ctx}: integrity: {e}"));
}

/// The tiered twin of
/// `an_lsm_engine_survives_a_power_cut_at_every_op_across_two_horizons`:
/// the background worker's flushes cross two of its horizons mid-run, its
/// L0 merges retiring durable tables in between; crashed at every I/O op,
/// with every table file the durable manifest does not name lost or torn
/// before recovery, it loses no acknowledged point, in strict and salvage
/// mode.
#[test]
fn a_tiered_engine_survives_a_power_cut_at_every_op_across_two_horizons() {
    let pts = workload(160);
    let plan = FaultPlan::trace_only(SEED);
    let (dir, out) = one_point_tiered_pass("bg-cut-trace", &plan, &pts);
    assert_eq!(out.synced, pts.len(), "trace pass must complete");
    let trace = plan.trace();
    let count = |op| trace.iter().filter(|o| **o == op).count();
    assert_eq!(count(IoOp::ManifestSync), 2, "two horizons: {trace:?}");
    let second = trace
        .iter()
        .rposition(|op| *op == IoOp::ManifestSync)
        .expect("a horizon");
    assert!(
        trace[second..].contains(&IoOp::StoreDelete),
        "the second horizon deletes what merges retired: {trace:?}"
    );
    for (mode, recovery) in recovery_modes() {
        power_cut(&dir);
        one_point_tiered_recover_check(&dir, &pts, &out, recovery, mode);
    }
    drop(dir);
    for k in crash_points(&trace) {
        for (mode, recovery) in recovery_modes() {
            let plan = FaultPlan::crash_at(SEED, k);
            let (dir, out) = one_point_tiered_pass("bg-cut-crash", &plan, &pts);
            assert!(plan.is_crashed(), "crash at op {k} never fired");
            let ctx =
                format!("{mode}: crash at op {k} ({:?})", trace[k as usize]);
            power_cut(&dir);
            one_point_tiered_recover_check(&dir, &pts, &out, recovery, &ctx);
        }
    }
}

/// A table write of a horizon torn — by one byte, by most of the table, or
/// whole — and the crash that comes with it, at every table write of the
/// power-cut scenario's two horizons. The torn prefix sits under its tmp
/// name, which the next open sweeps: no acknowledged point is lost and none
/// invented, in strict and salvage mode.
#[test]
fn a_torn_horizon_table_write_loses_no_acknowledged_point() {
    let pts = workload(160);
    let plan = FaultPlan::trace_only(SEED);
    drop(one_point_pass("torn-table-trace", &plan, &pts));
    let trace = plan.trace();
    let writes: Vec<usize> = (0..trace.len())
        .filter(|k| trace[*k] == IoOp::StoreWrite)
        .collect();
    assert!(writes.len() >= 2 * 64, "two horizons: {}", writes.len());
    for k in writes {
        // The horizon's writes so far, this one included, each left a tmp
        // file: the crash cleans nothing up.
        let written = trace[..=k]
            .iter()
            .rev()
            .take_while(|op| **op == IoOp::StoreWrite)
            .count();
        for truncate in [1, 64, usize::MAX] {
            let at = k as u64;
            let plan = FaultPlan::new(SEED, Fault::TornWrite { at, truncate });
            let (dir, out) = one_point_pass("torn-table", &plan, &pts);
            assert!(plan.is_crashed(), "tear at op {k} never fired");
            let tmp = file_names(&dir.path("tables"))
                .into_iter()
                .filter(|name| name.ends_with(".sst.tmp"))
                .count();
            assert_eq!(tmp, written, "op {k}");
            for (mode, recovery) in recovery_modes() {
                let ctx = format!("{mode}: table write {k} torn by {truncate}");
                one_point_recover_check(&dir, &pts, &out, recovery, &ctx);
            }
        }
    }
}

/// A horizon whose table write fails once, at each of its 64 writes in
/// turn: 128 in-order points over [`one_point_tables`], so that the 64th
/// point's flush makes the horizon due over the 64 tables eight flushes
/// staged. The failure fails that append; the sync leaves no tmp file
/// behind and keeps every table staged. The next flush, eight points later,
/// retries the horizon, which writes all 72 tables then staged from memory
/// — the ones written before the failure too — then syncs, renames and
/// records them. Recovery then finds every point exactly once.
#[test]
fn a_horizon_failing_at_any_table_write_rewrites_every_table_from_memory() {
    let pts: Vec<DataPoint> = (0..128i64)
        .map(|i| DataPoint::new(i * 10, i * 10 + 3, i as f64))
        .collect();
    let pass = |tag: &str, plan: &Arc<FaultPlan>| {
        let dir = TempDir::new(tag);
        let mut engine = one_point_engine(&dir, plan);
        let mut failed = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            if engine.append(*p).is_err() {
                failed.push(i);
                assert_eq!(
                    file_names(&dir.path("tables")),
                    Vec::<String>::new(),
                    "a failed horizon leaves no file behind"
                );
            }
        }
        engine.sync_wal().expect("sync");
        (dir, failed)
    };
    let trace_plan = FaultPlan::trace_only(SEED);
    let (_, failed) = pass("rewrite-trace", &trace_plan);
    assert!(failed.is_empty());
    let trace = trace_plan.trace();
    let writes: Vec<usize> = (0..trace.len())
        .filter(|k| trace[*k] == IoOp::StoreWrite)
        .collect();
    assert_eq!(writes.len(), 2 * 64, "two horizons: {trace:?}");
    let retry: Vec<IoOp> = [
        [IoOp::StoreWrite].repeat(64 + 8),
        [IoOp::StoreSync, IoOp::StoreRename].repeat(64 + 8),
        vec![IoOp::DirSync, IoOp::ManifestAppend, IoOp::ManifestSync],
    ]
    .concat();
    let out = Outcome {
        attempted: pts.len(),
        appended: pts.len(),
        synced: pts.len(),
    };
    for (j, &at) in writes[..64].iter().enumerate() {
        let plan = FaultPlan::new(SEED, Fault::FailOnce { at: at as u64 });
        let (dir, failed) = pass("rewrite", &plan);
        assert_eq!(failed, [63], "write {j}: the 64th append's horizon fails");
        let trace = plan.trace();
        assert_eq!(
            trace[at + 1..at + 1 + retry.len()],
            retry,
            "write {j}: the next flush's retry writes every table: {trace:?}"
        );
        for (mode, recovery) in recovery_modes() {
            let ctx = format!("{mode}: table write {j} failed");
            let recovered =
                one_point_recover_check(&dir, &pts, &out, recovery, &ctx);
            assert_eq!(recovered, pts, "{ctx}");
        }
    }
}

/// A horizon whose manifest fsync fails after its tables were synced
/// leaves its group in the manifest's write buffer, on its way to the file.
/// Under `π_c(8)` over one-point tables, 128 in-order points flush sixteen
/// times; the eighth flush's horizon records 64 tables, and the sixteenth's
/// fails at its `ManifestSync`. Eight stragglers between the 65th and the
/// 73rd point then merge seven of the tables it synced, and the merge's
/// release retries the horizon. The retry must rewrite the manifest —
/// appending its group behind the failed one would name the tables that
/// group added twice — and strict recovery must then find every table the
/// manifest names, once, and every point.
#[test]
fn an_engine_retries_a_horizon_that_failed_at_its_manifest_sync_as_a_rewrite() {
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(1);
    let in_order = (0..128i64).map(|i| i * 10);
    let stragglers = (64..72i64).map(|i| i * 10 + 5);
    let pts: Vec<DataPoint> = in_order
        .chain(stragglers)
        .enumerate()
        .map(|(i, tg)| DataPoint::new(tg, i as i64 * 10 + 3, i as f64))
        .collect();
    let pass = |tag: &str, plan: &Arc<FaultPlan>| {
        let dir = TempDir::new(tag);
        let store = FileStore::open(dir.path("tables"))
            .expect("store")
            .with_faults(Arc::clone(plan));
        let mut engine = OpenOptions::new(config.clone())
            .store(Arc::new(store))
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .faults(Arc::clone(plan))
            .open()
            .expect("open");
        let failed: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| engine.append(**p).is_err())
            .map(|(i, _)| i)
            .collect();
        engine.sync_wal().expect("sync");
        (dir, failed)
    };
    let trace_plan = FaultPlan::trace_only(SEED);
    let (_, failed) = pass("retry-trace", &trace_plan);
    assert!(failed.is_empty());
    let trace = trace_plan.trace();
    let manifest_sync = trace
        .iter()
        .enumerate()
        .filter(|(_, op)| **op == IoOp::ManifestSync)
        .nth(1)
        .map(|(at, _)| at)
        .expect("two horizons");
    let plan = FaultPlan::new(
        SEED,
        Fault::FailOnce {
            at: manifest_sync as u64,
        },
    );
    let (dir, failed) = pass("retry", &plan);
    assert_eq!(failed, [127], "the 128th append's horizon fails");
    let trace = plan.trace();
    let after = &trace[manifest_sync + 1..];
    let retry = after
        .iter()
        .position(|op| {
            matches!(op, IoOp::ManifestAppend | IoOp::ManifestRewrite)
        })
        .expect("a retry");
    assert_eq!(after[retry], IoOp::ManifestRewrite, "{trace:?}");
    assert!(
        after[..retry].contains(&IoOp::StoreWrite)
            && !after[..retry].contains(&IoOp::StoreDelete),
        "the merge retired what the failed horizon synced: {trace:?}"
    );
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("reopen store"));
    let (engine, report) = OpenOptions::new(config)
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(RecoveryOptions::strict().with_gc_orphans())
        .open_or_recover()
        .expect("strict recovery");
    assert!(report.quarantined.is_empty(), "{report:?}");
    engine.check_integrity().expect("integrity");
    let out = Outcome {
        attempted: pts.len(),
        appended: pts.len(),
        synced: pts.len(),
    };
    check_contract(&engine.scan_all().expect("scan"), &pts, &out, "retry");
}

/// `flush_all` / `finish`, then reopen: the log is its header, recovery
/// replays nothing from it, and leaves it that way.
#[test]
fn a_flushed_engine_leaves_an_empty_log_behind() {
    let dir = TempDir::new("at-rest");
    let pts = workload(WORKLOAD_POINTS);
    let at_rest = |wal: PathBuf| {
        assert_eq!(std::fs::metadata(wal).expect("stat").len(), WAL_HEADER);
    };
    let store = |name: &str| -> Arc<dyn TableStore> {
        Arc::new(FileStore::open(dir.path(name)).expect("store"))
    };
    {
        let mut engine = OpenOptions::new(config())
            .store(store("lsm-tables"))
            .wal(dir.path("lsm-wal"))
            .manifest(dir.path("lsm-manifest"))
            .open()
            .expect("open");
        drive(&mut engine, &pts, LsmEngine::append, |e| e.sync_wal());
        engine.flush_all().expect("flush");
    }
    at_rest(dir.path("lsm-wal"));
    let (engine, _) = OpenOptions::new(config())
        .store(store("lsm-tables"))
        .wal(dir.path("lsm-wal"))
        .manifest(dir.path("lsm-manifest"))
        .open_or_recover()
        .expect("recover");
    assert_eq!(engine.buffered_points(), 0);
    assert_eq!(engine.scan_all().expect("scan").len(), pts.len());
    at_rest(dir.path("lsm-wal"));

    let mut engine = TieredOpenOptions::new(config())
        .store(store("bg-tables"))
        .wal(dir.path("bg-wal"))
        .manifest(dir.path("bg-manifest"))
        .open()
        .expect("open");
    drive(&mut engine, &pts, TieredEngine::append, |e| e.sync_wal());
    engine.finish().expect("finish");
    at_rest(dir.path("bg-wal"));

    let fleet_pts = fleet_log_workload();
    let plan = FaultPlan::trace_only(SEED);
    let (fleet_dir, _) = fleet_log_pass("at-rest-fleet", &plan, &fleet_pts);
    let (replayed, engine) = fleet_log_replayed(fleet_log_config(), &fleet_dir);
    assert_eq!(replayed, 0);
    assert_eq!(engine.len(), 4);
    at_rest(fleet_dir.path("meta/fleet.wal"));
}

// ------------------------------------------------------------- Fleet commit

/// Appends per batch of the fleet-commit scenario: eight to each series.
const FLEET_COMMIT_BATCH: usize = 16;

/// The fleet-commit scenario's shape: `π_c(8)` over one-point tables, so
/// the fleet's horizon is due once its flushes took 64 points out of
/// memory.
fn fleet_commit_config() -> EngineConfig {
    EngineConfig::new(Policy::conventional(8)).with_sstable_points(1)
}

/// Two series, interleaved point by point, one round of eight points each
/// per batch: four rounds over the same eight generation times, then eight
/// stragglers between them. Each series flushes eight tables in the first
/// batch and merges them away, unsynced, in each of the next three, so the
/// fourth batch's sync — 64 points flushed — is a horizon carrying two
/// edit groups of eight adds. The stragglers' merges retire seven durable
/// tables per series, which the closing `flush_all`'s horizon records and
/// then deletes.
fn fleet_commit_workload() -> Vec<(u32, DataPoint)> {
    let mut pts = Vec::new();
    for round in 0..5i64 {
        let offset = if round < 4 { 0 } else { 5 };
        for i in 0..8i64 {
            for s in 0..2u32 {
                let arrival = pts.len() as i64 * 10 + 3;
                let value = f64::from(s) * 100.0 + round as f64;
                pts.push((s, DataPoint::new(i * 10 + offset, arrival, value)));
            }
        }
    }
    pts
}

fn fleet_commit_pass(
    tag: &str,
    plan: &Arc<FaultPlan>,
    pts: &[(u32, DataPoint)],
) -> (TempDir, FleetOutcome) {
    fleet_pass(fleet_commit_config(), FLEET_COMMIT_BATCH, tag, plan, pts)
}

/// The fleet contract, plus: every table file the recovered versions do
/// not reference — tables a horizon synced but never recorded, inputs a
/// horizon had not yet deleted — was swept.
fn fleet_commit_recover_check(
    dir: &TempDir,
    pts: &[(u32, DataPoint)],
    out: &FleetOutcome,
    recovery: RecoveryOptions,
    ctx: &str,
) {
    let (engine, report) = fleet_recover_check(
        fleet_commit_config(),
        dir,
        pts,
        out,
        recovery,
        ctx,
    );
    let live: usize = engine
        .series_ids()
        .into_iter()
        .map(|id| engine.engine(id).expect("series").run().len())
        .sum();
    let files = std::fs::read_dir(dir.path("tables"))
        .expect("ls")
        .filter(|e| {
            let path = e.as_ref().expect("entry").path();
            path.extension().is_some_and(|ext| ext == "sst")
        })
        .count();
    assert_eq!(
        files,
        live,
        "{ctx}: uncommitted outputs / undeleted inputs must be GC'd \
         ({} removed)",
        report.orphans_removed.len()
    );
}

/// The fleet's horizon, crashed at every op and torn at every byte. Its
/// order is the contract: the tables' fsyncs and the directory fsync before
/// the manifest group that names them, that group's fsync before any
/// checkpoint is queued or retired input deleted, all of it before the
/// log's write. Whatever prefix of it a crash leaves, the acknowledged
/// points survive and nothing is invented, in strict and salvage mode; a
/// manifest append torn anywhere applies only the series groups that are
/// wholly there.
#[test]
fn fleet_commit_survives_a_crash_or_a_torn_write_at_every_io_op() {
    /// Bytes of one manifest record.
    const RECORD: usize = 33;
    let pts = fleet_commit_workload();
    let plan = FaultPlan::trace_only(SEED);
    let (dir, out) = fleet_commit_pass("fleet-commit-trace", &plan, &pts);
    let trace = plan.trace();
    assert_eq!(out.synced.len(), 2, "trace pass must complete");
    // The scenario must contain what it claims to sweep: a horizon at a
    // sync that covers several series' publications, merges that drop their
    // never-synced inputs at once — which never reached the disk: no op
    // writes or deletes them — and a horizon that deletes retired durable
    // inputs after its record.
    let count = |op| trace.iter().filter(|o| **o == op).count();
    assert_eq!(count(IoOp::StoreWrite), 2 * (8 + 15), "{trace:?}");
    assert_eq!(count(IoOp::StoreSync), 2 * (8 + 15), "{trace:?}");
    assert_eq!(count(IoOp::StoreDelete), 2 * 7, "{trace:?}");
    assert_eq!(count(IoOp::ManifestAppend), 2, "{trace:?}");
    assert_eq!(count(IoOp::ManifestSync), 2, "{trace:?}");
    let first_append = trace
        .iter()
        .position(|op| *op == IoOp::ManifestAppend)
        .expect("append");
    // The fourth batch's sync is a horizon, and that is all it writes: the
    // checkpoints the horizon queues let go of every point the batch
    // logged, so the log owes the sync nothing. The stragglers' merges
    // write nothing either: their batch's log write comes next.
    assert_eq!(
        trace[first_append - 1..first_append + 3],
        [
            IoOp::DirSync,
            IoOp::ManifestAppend,
            IoOp::ManifestSync,
            IoOp::WalAppend
        ],
        "{trace:?}"
    );
    assert!(
        trace
            .windows(3)
            .any(|w| w
                == [IoOp::ManifestSync, IoOp::StoreDelete, IoOp::StoreDelete]),
        "{trace:?}"
    );
    for (mode, recovery) in recovery_modes() {
        fleet_commit_recover_check(&dir, &pts, &out, recovery, mode);
    }
    drop(dir);
    for k in 0..plan.ops() {
        let op = trace[k as usize];
        for (mode, recovery) in recovery_modes() {
            let plan = FaultPlan::crash_at(SEED, k);
            let (dir, out) =
                fleet_commit_pass("fleet-commit-crash", &plan, &pts);
            assert!(plan.is_crashed(), "crash at op {k} never fired");
            let ctx = format!("{mode}: crash at op {k} ({op:?})");
            fleet_commit_recover_check(&dir, &pts, &out, recovery, &ctx);
        }
        if op != IoOp::ManifestAppend {
            continue;
        }
        // The flushes' horizon (two groups of a header and eight adds) is
        // torn at every byte; the merges' (two of a header, seven removes
        // and fifteen adds) at and around every record boundary. Tearing
        // more than an append holds leaves nothing of it.
        let lengths: Vec<usize> = if k as usize == first_append {
            (1..=2 * 9 * RECORD).collect()
        } else {
            (0..2 * 23)
                .flat_map(|r| [1, RECORD / 2, RECORD].map(|x| r * RECORD + x))
                .collect()
        };
        for truncate in lengths {
            let (mode, recovery) = recovery_modes()[truncate % 2];
            let plan =
                FaultPlan::new(SEED, Fault::TornWrite { at: k, truncate });
            let (dir, out) =
                fleet_commit_pass("fleet-commit-tear", &plan, &pts);
            assert!(plan.is_crashed(), "tear at op {k} never fired");
            let ctx =
                format!("{mode}: manifest append at op {k} torn by {truncate}");
            fleet_commit_recover_check(&dir, &pts, &out, recovery, &ctx);
        }
    }
}

/// The fleet-commit scenario with its first horizon's manifest fsync
/// failing once, after the horizon synced its tables: the fourth batch's
/// sync fails, and its group stays in the manifest's write buffer, on its
/// way to the file. The stragglers' merges then consume seven of the tables
/// that horizon synced, and the fleet crashes before the next sync would
/// retry it. The merges must have retired those tables, not deleted them:
/// the group that reaches the file names them. Strict recovery finds them,
/// and every acknowledged point.
#[test]
fn a_merge_after_a_failed_fleet_horizon_keeps_what_that_horizon_synced() {
    let pts = fleet_commit_workload();
    let trace_plan = FaultPlan::trace_only(SEED);
    drop(fleet_commit_pass("fail-sync-trace", &trace_plan, &pts));
    let manifest_sync = trace_plan
        .trace()
        .iter()
        .position(|op| *op == IoOp::ManifestSync)
        .expect("a horizon");
    let plan = FaultPlan::new(
        SEED,
        Fault::FailOnce {
            at: manifest_sync as u64,
        },
    );
    let dir = TempDir::new("fail-sync");
    let out = {
        let store = FileStore::open(dir.path("tables"))
            .expect("store")
            .with_faults(Arc::clone(&plan));
        let mut engine = MultiOpenOptions::new(fleet_commit_config())
            .store(Arc::new(store))
            .durable_dir(dir.path("meta"))
            .faults(Arc::clone(&plan))
            .open()
            .expect("durable fleet");
        let mut out = FleetOutcome::default();
        for (batch, points) in pts.chunks(FLEET_COMMIT_BATCH).enumerate() {
            for (s, p) in points {
                engine.append(SeriesId(*s), *p).expect("append");
                out.appended.entry(*s).or_default().push(p.gen_time);
            }
            if batch == 4 {
                // The stragglers merged; crash before their sync.
                break;
            }
            match engine.sync_wal_all() {
                Ok(()) => out.acknowledge(),
                Err(e) => assert_eq!(batch, 3, "{e}"),
            }
        }
        out
    };
    assert_eq!(plan.injected_failures(), 1, "the horizon failed once");
    let trace = plan.trace();
    assert!(
        !trace[manifest_sync..].contains(&IoOp::StoreDelete),
        "nothing the failed horizon synced was deleted: {trace:?}"
    );
    for (mode, recovery) in recovery_modes() {
        fleet_commit_recover_check(&dir, &pts, &out, recovery, mode);
    }
}

// ------------------------------------------------------------------ Salvage

/// A crash can publish a table file whose data region hit disk but whose
/// v3 footer did not (torn tail). Strict recovery refuses the store;
/// salvage must quarantine the table and — thanks to the footer-based
/// probe — name the damage precisely instead of raising a generic CRC
/// error.
#[test]
fn salvage_names_a_torn_v3_table_by_its_missing_footer() {
    use seplsm_lsm::sstable::format::{sniff_version, VERSION_PRUNED};

    let dir = TempDir::new("salvage-torn-v3");
    let pts = workload(64);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        for p in &pts {
            engine.append(*p).expect("append");
        }
        engine.flush_all().expect("flush");
        engine.sync_wal().expect("sync");
    }
    let victim = std::fs::read_dir(dir.path("tables"))
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "sst"))
        .expect("at least one table");
    let bytes = std::fs::read(&victim).expect("read table");
    assert_eq!(
        sniff_version(&bytes),
        Some(VERSION_PRUNED),
        "FileStore must write v3 by default"
    );
    // Chop the tail: footer (and part of the metaindex) never hit disk.
    std::fs::write(&victim, &bytes[..bytes.len() - 25]).expect("tear table");

    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    assert!(
        OpenOptions::new(config())
            .store(Arc::clone(&store))
            .open_or_recover()
            .is_err(),
        "strict recovery must refuse a torn table"
    );
    let (engine, report) = OpenOptions::new(config())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(RecoveryOptions::salvage().with_gc_orphans())
        .open_or_recover()
        .expect("salvage recovery");
    assert_eq!(report.quarantined.len(), 1, "one torn table");
    assert!(
        report.quarantined[0].reason.contains("torn v3 write"),
        "probe must name the missing footer, got: {}",
        report.quarantined[0].reason
    );
    let recovered = engine.scan_all().expect("scan survivors");
    assert!(!recovered.is_empty(), "survivors must still be served");
    engine.check_integrity().expect("integrity after salvage");
}

/// A torn write can also land the other way round: the footer and
/// metaindex hit disk intact but an index sector holding the per-block
/// pre-aggregates was written garbled. The layout probe passes (the
/// footer chain is valid and the index CRC is re-sealed here to simulate
/// a coherent-but-lying sector), so only `probe_table`'s full decode —
/// which recomputes every block's aggregates and compares bitwise —
/// can catch the lie before a pushdown fold trusts it. Strict recovery
/// must refuse the store; salvage must quarantine the table.
#[test]
fn salvage_quarantines_a_v3_table_with_lying_index_pre_aggregates() {
    use seplsm_lsm::sstable::crc32::crc32;
    use seplsm_lsm::sstable::format::{
        parse_v3_footer, parse_v3_metaindex, sniff_version, VERSION_PRUNED,
    };

    let dir = TempDir::new("salvage-lying-agg");
    let pts = workload(64);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        for p in &pts {
            engine.append(*p).expect("append");
        }
        engine.flush_all().expect("flush");
        engine.sync_wal().expect("sync");
    }
    let victim = std::fs::read_dir(dir.path("tables"))
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "sst"))
        .expect("at least one table");
    let mut bytes = std::fs::read(&victim).expect("read table");
    assert_eq!(sniff_version(&bytes), Some(VERSION_PRUNED));
    let meta_span = parse_v3_footer(&bytes).expect("footer");
    let (index_span, _) = parse_v3_metaindex(
        &bytes[meta_span.offset as usize..meta_span.end() as usize],
    )
    .expect("metaindex");
    // First index entry: fixed index header is 24 bytes, the entry's
    // min-bits field sits at +28 (after first/last/count/offset/len).
    // Flipping a mantissa bit keeps the entry parseable — unlike a lying
    // agg_count, a lying min survives `parse_v3_index` — so only the
    // decode-time aggregate audit can refute it.
    let at = index_span.offset as usize + 24 + 28;
    bytes[at] ^= 0x01;
    // Re-seal the index CRC: the sector is internally coherent, it lies.
    let body_end = index_span.end() as usize - 4;
    let crc = crc32(&bytes[index_span.offset as usize..body_end]);
    bytes[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&victim, &bytes).expect("corrupt table");

    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    assert!(
        OpenOptions::new(config())
            .store(Arc::clone(&store))
            .open_or_recover()
            .is_err(),
        "strict recovery must refuse lying pre-aggregates"
    );
    let (engine, report) = OpenOptions::new(config())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(RecoveryOptions::salvage().with_gc_orphans())
        .open_or_recover()
        .expect("salvage recovery");
    assert_eq!(report.quarantined.len(), 1, "one lying table");
    assert!(
        report.quarantined[0]
            .reason
            .contains("aggregates disagree with index"),
        "probe must name the aggregate mismatch, got: {}",
        report.quarantined[0].reason
    );
    let recovered = engine.scan_all().expect("scan survivors");
    assert!(!recovered.is_empty(), "survivors must still be served");
    engine.check_integrity().expect("integrity after salvage");
    let quarantine = dir.path("tables").join("quarantine");
    assert_eq!(
        std::fs::read_dir(&quarantine)
            .expect("quarantine dir")
            .count(),
        1,
        "quarantine directory must hold the lying table"
    );
}

#[test]
fn salvage_recovery_quarantines_corruption_and_serves_survivors() {
    let dir = TempDir::new("salvage");
    let pts = workload(64);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        for p in &pts {
            engine.append(*p).expect("append");
        }
        engine.flush_all().expect("flush");
        engine.sync_wal().expect("sync");
    }
    // Deliberately corrupt one stored table.
    let victim = std::fs::read_dir(dir.path("tables"))
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "sst"))
        .expect("at least one table");
    let mut bytes = std::fs::read(&victim).expect("read table");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, &bytes).expect("corrupt table");

    // Strict recovery refuses the damaged store.
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    assert!(
        OpenOptions::new(config())
            .store(Arc::clone(&store))
            .open_or_recover()
            .is_err(),
        "strict recovery must refuse a corrupt table"
    );

    // Salvage recovery quarantines it and serves everything else.
    let (engine, report) = OpenOptions::new(config())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(RecoveryOptions::salvage().with_gc_orphans())
        .open_or_recover()
        .expect("salvage recovery");
    assert_eq!(report.quarantined.len(), 1, "exactly one table was damaged");
    assert_eq!(report.lost_ranges.len(), 1);
    assert!(!report.is_clean());
    assert!(!report.quarantined[0].reason.is_empty());
    let lost = report.lost_ranges[0];
    let recovered = engine.scan_all().expect("scan survivors");
    assert!(!recovered.is_empty(), "survivors must still be served");
    // Accounting: every point is either served or inside a reported loss.
    for p in &pts {
        let served = recovered.iter().any(|q| q.gen_time == p.gen_time);
        assert!(
            served || lost.contains(p.gen_time),
            "point {} neither recovered nor reported lost",
            p.gen_time
        );
    }
    engine.check_integrity().expect("integrity after salvage");
    // The damaged bytes moved aside for forensics, not deleted.
    let quarantine = dir.path("tables").join("quarantine");
    assert_eq!(
        std::fs::read_dir(&quarantine)
            .expect("quarantine dir")
            .count(),
        1,
        "quarantine directory must hold the damaged table"
    );
}
