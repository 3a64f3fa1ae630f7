//! Crash-schedule exploration. Each sweep runs its workload once, under a
//! probed [`FaultPlan`]: before every op it wants, the probe copies the
//! directory — what a crash at that op leaves, since a crashed plan touches
//! the disk no more — and notes what the workload had achieved. A torn
//! write's image is that copy plus a prefix of the op's payload at the end
//! of the file it writes. After the pass every image is recovered, on a
//! fresh copy and in every mode the sweep names, and must keep the recovery
//! contract:
//!
//! * every point acknowledged by a successful `sync` survives recovery;
//! * recovery never invents points (recovered ⊆ attempted) and never
//!   duplicates a generation time (the documented WAL window is deduplicated
//!   by the merge pipeline);
//! * the recovered engine passes the full integrity audit
//!   (`check_integrity`), and nothing panics anywhere on the way.
//!
//! `one_pass_images_equal_replayed_faults` proves the premise: over a
//! workload that crosses a horizon and a log cut, every image equals byte
//! for byte the directory a replayed `CrashAt` or `TornWrite` pass leaves.
//! What no image can stand for stays a replay: a transient fault, after
//! which the run goes on, a crashed fleet's own answers, and a proptest
//! driving `MultiSeriesEngine` through random workload/crash combinations.
//! A salvage test corrupts a stored table on purpose to check the degraded
//! recovery path end to end.
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

use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use seplsm::lsm::open::SingleSeries;
use seplsm::lsm::{Engine, EngineBuilder, Executor};
use seplsm::{
    DataPoint, EngineConfig, Event, Fault, FaultPlan, FileStore, IoOp,
    MultiOpenOptions, MultiSeriesEngine, OpenOptions, Policy, RecoveryOptions,
    RecoveryStepKind, RingBufferSink, SeriesId, TableStore, TieredOpenOptions,
    TimeRange,
};

/// Seed carried by every plan; derives nothing at runtime (determinism),
/// but names the schedule in failure messages.
const SEED: u64 = 0xB10C_5EED;
/// Points per engine workload. Sized so each engine sees well over a
/// hundred I/O ops (crash points).
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
#[derive(Clone, Default)]
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

/// What a pass has achieved so far, kept where the probe — on whichever
/// thread runs the op — can read it while the pass is blocked in that op.
type Shared<O> = Mutex<O>;

fn note<O>(out: &Shared<O>, f: impl FnOnce(&mut O)) {
    f(&mut out.lock().expect("outcome"));
}

/// Appends `pts`, syncing every [`SYNC_EVERY`] appends and once at the
/// end, and keeps `out` up to date; stops at the first failure. True when
/// the closing sync returned.
fn drive<X: Executor>(
    engine: &mut Engine<X>,
    pts: &[DataPoint],
    out: &Shared<Outcome>,
) -> bool {
    let acknowledge = |o: &mut Outcome| o.synced = o.appended;
    for (i, p) in pts.iter().enumerate() {
        note(out, |o| o.attempted += 1);
        if engine.append(*p).is_err() {
            return false;
        }
        note(out, |o| o.appended += 1);
        if (i + 1) % SYNC_EVERY == 0 {
            if engine.sync_wal().is_err() {
                return false;
            }
            note(out, acknowledge);
        }
    }
    let synced = engine.sync_wal().is_ok();
    if synced {
        note(out, acknowledge);
    }
    synced
}

/// `builder` over the store, log and manifest in `dir`, whose every op
/// `plan` counts. Faults attach only after `open` completes, so op
/// numbering starts at the first workload-driven disk touch.
fn faulty<K: SingleSeries>(
    builder: EngineBuilder<K>,
    dir: &TempDir,
    plan: &Arc<FaultPlan>,
) -> EngineBuilder<K> {
    let store = FileStore::open(dir.path("tables"))
        .expect("store")
        .with_faults(Arc::clone(plan));
    builder
        .store(Arc::new(store))
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .faults(Arc::clone(plan))
}

/// `builder` recovering, in `recovery`'s mode, what a pass left in `dir`.
fn reopen<K: SingleSeries>(
    builder: EngineBuilder<K>,
    dir: &TempDir,
    recovery: RecoveryOptions,
) -> EngineBuilder<K> {
    let store = FileStore::open(dir.path("tables")).expect("reopen store");
    builder
        .store(Arc::new(store))
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(recovery)
}

// ------------------------------------------------------------ Crash images

/// What a crash at op `at` leaves: the directory as the op found it, and
/// what the pass had achieved when the op began.
struct Image<O> {
    at: u64,
    op: IoOp,
    dir: TempDir,
    /// The file the op writes, relative to the pass's directory, and the
    /// payload: a torn write leaves a prefix of it at the end of that file.
    write: Option<(PathBuf, Vec<u8>)>,
    out: O,
}

impl<O> Image<O> {
    /// A fresh copy of the image to recover: torn by `torn` bytes off the
    /// op's write, or — `None`, or an op that writes nothing — crashed.
    fn restore(&self, torn: Option<usize>) -> TempDir {
        let dir = TempDir::new("restored");
        copy_dir(&self.dir.0, &dir.0);
        if let (Some(torn), Some((file, payload))) = (torn, &self.write) {
            let keep = payload.len().saturating_sub(torn);
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.0.join(file))
                .and_then(|mut f| f.write_all(&payload[..keep]))
                .expect("tear the op's write");
        }
        dir
    }
}

/// One probed pass of a workload and the crash images it recorded.
struct Sweep<O> {
    /// The directory the completed pass left.
    dir: TempDir,
    /// What the completed pass achieved.
    out: O,
    trace: Vec<IoOp>,
    /// One per op `want` asked for, in op order.
    images: Vec<Image<O>>,
}

/// Runs `pass` once over a fresh directory under a probed plan that
/// injects nothing. Before each op `want` asks for, on the thread that runs
/// it, the probe records an [`Image`]: a copy of the directory and the
/// outcome `pass` has published at that moment. Checks run afterwards, on
/// the caller's thread.
fn one_pass<O: Clone + Default + Send + 'static>(
    tag: &str,
    want: impl Fn(u64, IoOp) -> bool + Send + Sync + 'static,
    pass: impl FnOnce(&TempDir, &Arc<FaultPlan>, &Shared<O>),
) -> Sweep<O> {
    let dir = TempDir::new(tag);
    let out: Arc<Shared<O>> = Arc::default();
    let images = Arc::new(Mutex::new(Vec::new()));
    let plan = {
        let (root, tag) = (dir.0.clone(), tag.to_owned());
        let (out, images) = (Arc::clone(&out), Arc::clone(&images));
        FaultPlan::probed(SEED, move |at, op, write| {
            if !want(at, op) {
                return;
            }
            let dir = TempDir::new(&format!("{tag}-{at}"));
            copy_dir(&root, &dir.0);
            let write = write.map(|(file, payload)| {
                let file =
                    file.strip_prefix(&root).expect("a file of the pass");
                (file.to_path_buf(), payload.to_vec())
            });
            let out = out.lock().expect("outcome").clone();
            let image = Image {
                at,
                op,
                dir,
                write,
                out,
            };
            images.lock().expect("images").push(image);
        })
    };
    pass(&dir, &plan, &out);
    let out = out.lock().expect("outcome").clone();
    let images = std::mem::take(&mut *images.lock().expect("images"));
    Sweep {
        dir,
        out,
        trace: plan.trace(),
        images,
    }
}

/// Runs `pass` once over a fresh directory under `plan`: what a fault
/// that the run goes on after leaves, and what the pass achieved.
fn replay<O: Clone + Default>(
    tag: &str,
    plan: &Arc<FaultPlan>,
    pass: impl FnOnce(&TempDir, &Arc<FaultPlan>, &Shared<O>),
) -> (TempDir, O) {
    let dir = TempDir::new(tag);
    let out = Shared::default();
    pass(&dir, plan, &out);
    let out = out.into_inner().expect("outcome");
    (dir, out)
}

/// Recovers a fresh copy of every image — per tear of `tears` (`None`: the
/// crash itself) and per mode of `modes` — with `check`, which gets the
/// copy, what the pass had achieved, the mode and a context naming all of
/// it.
fn recover_each<O>(
    images: &[Image<O>],
    tears: &[Option<usize>],
    modes: &[(&str, RecoveryOptions)],
    check: impl Fn(&TempDir, &O, RecoveryOptions, &str),
) {
    for image in images {
        let (k, op) = (image.at, image.op);
        for &torn in tears {
            for &(mode, recovery) in modes {
                let ctx = match torn {
                    None => format!("{mode}: crash at op {k} ({op:?})"),
                    Some(t) => format!("{mode}: op {k} ({op:?}) torn by {t}"),
                };
                check(&image.restore(torn), &image.out, recovery, &ctx);
            }
        }
    }
}

/// The tears of a sweep that only crashes.
const CRASH: &[Option<usize>] = &[None];

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

// ------------------------------------------------------ Single-series engines

/// An inline engine of `config` over a pass's directory, driven through
/// `pts`.
fn inline_pass(
    config: EngineConfig,
    pts: &[DataPoint],
) -> impl Fn(&TempDir, &Arc<FaultPlan>, &Shared<Outcome>) + '_ {
    move |dir, plan, out| {
        let builder = faulty(OpenOptions::new(config.clone()), dir, plan);
        drive(&mut builder.open().expect("open"), pts, out);
    }
}

/// [`inline_pass`] on the background engine, with synchronous flushes:
/// a hand-off returns only once the worker is idle, its flush and the
/// horizon and L0 merge that made due done, so the writer's and the
/// worker's I/O never interleave (`a_tiered_pass_repeats_its_io_op_for_op`).
fn tiered_pass(
    config: EngineConfig,
    pts: &[DataPoint],
) -> impl Fn(&TempDir, &Arc<FaultPlan>, &Shared<Outcome>) + '_ {
    move |dir, plan, out| {
        let builder = TieredOpenOptions::new(config.clone()).sync_flush();
        drive(
            &mut faulty(builder, dir, plan).open().expect("open"),
            pts,
            out,
        );
    }
}

/// Recovers an inline engine of `config` from `dir` in `recovery`'s mode —
/// nothing quarantined: a crash only truncates — checks the contract and
/// the integrity audit, and returns what it recovered.
fn inline_recover_check(
    config: EngineConfig,
    dir: &TempDir,
    pts: &[DataPoint],
    out: &Outcome,
    recovery: RecoveryOptions,
    ctx: &str,
) -> Vec<DataPoint> {
    let (engine, report) = reopen(OpenOptions::new(config), dir, recovery)
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

/// [`inline_recover_check`] on the background engine. A lost checkpoint
/// replays a longer log, whose flushes can leave the worker merging L0 —
/// and retiring the tables an audit of the pre-merge version would still
/// look for: the audit runs at rest.
fn tiered_recover_check(
    config: EngineConfig,
    dir: &TempDir,
    pts: &[DataPoint],
    out: &Outcome,
    recovery: RecoveryOptions,
    ctx: &str,
) {
    let builder = TieredOpenOptions::new(config);
    let (mut engine, report) = reopen(builder, dir, recovery)
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

/// Strict recovery that sweeps orphans, the mode of the single-mode sweeps.
fn strict() -> RecoveryOptions {
    RecoveryOptions::strict().with_gc_orphans()
}

#[test]
fn lsm_engine_survives_a_crash_at_every_io_op() {
    let pts = workload(HORIZON_POINTS);
    let sweep = one_pass("lsm", |_, _| true, inline_pass(config(), &pts));
    assert_eq!(sweep.out.appended, pts.len(), "the pass must complete");
    assert_eq!(sweep.out.synced, pts.len());
    let check = |dir: &_, out: &Outcome, recovery, ctx: &_| {
        assert!(out.appended < pts.len() || out.synced < pts.len());
        inline_recover_check(config(), dir, &pts, out, recovery, ctx);
    };
    inline_recover_check(
        config(),
        &sweep.dir,
        &pts,
        &sweep.out,
        strict(),
        "at rest",
    );
    let total = sweep.images.len();
    assert!(
        total >= 100,
        "workload too small to be interesting: {total}"
    );
    recover_each(&sweep.images, CRASH, &[("strict", strict())], check);
}

#[test]
fn lsm_engine_survives_torn_writes() {
    let pts = workload(WORKLOAD_POINTS);
    let pass = inline_pass(config(), &pts);
    let sweep = one_pass("lsm-torn", |k, _| k % 5 == 0, pass);
    // Tear a little and a lot: 3 bytes clips a frame's last point, 64
    // takes several points off it (or more than some payloads hold);
    // either way the whole frame fails its CRC.
    let tears = [Some(3), Some(64)];
    recover_each(
        &sweep.images,
        &tears,
        &[("strict", strict())],
        |dir, out, recovery, ctx| {
            inline_recover_check(config(), dir, &pts, out, recovery, ctx);
        },
    );
}

/// [`inline_pass`] with a policy shrink in the middle: the first 30 points
/// go into buffers of `wide`, which `set_policy(narrow)` then re-routes
/// through buffers a quarter the size — several flushes inside one call,
/// each with the not yet re-routed points in no buffer at all, and a few
/// points left buffered at the end — and the rest of the workload follows
/// under `narrow`.
fn shrink_pass(
    (wide, narrow): (Policy, Policy),
    pts: &[DataPoint],
) -> impl Fn(&TempDir, &Arc<FaultPlan>, &Shared<Outcome>) + '_ {
    move |dir, plan, out| {
        let config = EngineConfig::new(wide).with_sstable_points(8);
        let builder = faulty(OpenOptions::new(config), dir, plan);
        let mut engine = builder.open().expect("open");
        // The second segment is one point and a sync: it puts the
        // checkpoints of the shrink on the disk while what the shrink left
        // buffered is still buffered.
        for (i, segment) in [&pts[..30], &pts[30..31], &pts[31..]]
            .into_iter()
            .enumerate()
        {
            if i == 1 && engine.set_policy(narrow).is_err() {
                break;
            }
            if !drive(&mut engine, segment, out) {
                break;
            }
        }
    }
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
        let sweep = one_pass("shrink", |_, _| true, shrink_pass(shrink, &pts));
        let check = |dir: &_, out: &_, recovery, ctx: &str| {
            let ctx = format!("{name}: shrink, {ctx}");
            inline_recover_check(config(), dir, &pts, out, recovery, &ctx);
        };
        let out = &sweep.out;
        assert_eq!(out.synced, pts.len(), "{name}: the pass must complete");
        check(&sweep.dir, out, strict(), "at rest");
        let total = sweep.images.len();
        assert!(
            total >= 60,
            "{name}: too few ops to be interesting: {total}"
        );
        recover_each(&sweep.images, CRASH, &[("strict", strict())], check);
    }
}

/// The premise of the tiered sweeps: two trace passes over the same points
/// do the same I/O in the same order, so a pass has one crash image per op.
#[test]
fn a_tiered_pass_repeats_its_io_op_for_op() {
    let pts = workload(HORIZON_POINTS);
    let trace = || {
        let plan = FaultPlan::trace_only(SEED);
        let (_, out): (_, Outcome) =
            replay("tiered-repeat", &plan, tiered_pass(config(), &pts));
        assert_eq!(out.appended, pts.len(), "trace pass must complete");
        plan.trace()
    };
    let (first, second) = (trace(), trace());
    let apart = first.iter().zip(&second).position(|(a, b)| a != b);
    assert_eq!(
        (apart, first.len()),
        (None, second.len()),
        "the passes part at the op numbered first"
    );
}

#[test]
fn tiered_engine_survives_a_crash_at_every_io_op() {
    let pts = workload(HORIZON_POINTS);
    let sweep = one_pass("tiered", |_, _| true, tiered_pass(config(), &pts));
    assert_eq!(sweep.out.appended, pts.len(), "the pass must complete");
    let check = |dir: &_, out: &_, recovery, ctx: &_| {
        tiered_recover_check(config(), dir, &pts, out, recovery, ctx);
    };
    check(&sweep.dir, &sweep.out, strict(), "at rest");
    let total = sweep.images.len();
    assert!(
        total >= 100,
        "workload too small to be interesting: {total}"
    );
    recover_each(&sweep.images, CRASH, &[("strict", strict())], check);
}

#[test]
fn tiered_engine_absorbs_one_transient_fault_per_op() {
    // FailOnce is not a crash: the worker's bounded retry must absorb it
    // wherever it lands on the flush path or in its horizon, and the
    // workload completes.
    let pts = workload(HORIZON_POINTS);
    let pass = tiered_pass(config(), &pts);
    let plan = FaultPlan::trace_only(SEED);
    let _: (_, Outcome) = replay("tiered-once-trace", &plan, &pass);
    let total = plan.ops();
    let mut absorbed = 0u64;
    for k in (0..total).step_by(11) {
        let plan = FaultPlan::new(SEED, Fault::FailOnce { at: k });
        let (dir, out): (_, Outcome) = replay("tiered-once", &plan, &pass);
        // The workload either completes (fault absorbed by a retry) or
        // fails cleanly on an unretried path (WAL/manifest appends are
        // writer-side and not retried) — never panics, and recovery holds
        // either way.
        if out.appended == pts.len() && plan.injected_failures() > 0 {
            absorbed += 1;
        }
        let ctx = format!("transient fault at op {k}");
        tiered_recover_check(config(), &dir, &pts, &out, strict(), &ctx);
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

#[derive(Clone, Copy, Debug)]
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

    /// `pts` driven through the engine, which then comes to rest: the WAL
    /// is cut to its header.
    fn pass(
        self,
        pts: &[DataPoint],
    ) -> impl Fn(&TempDir, &Arc<FaultPlan>, &Shared<Outcome>) + '_ {
        move |dir, plan, out| {
            if let Self::Tiered = self {
                let builder = TieredOpenOptions::new(self.config());
                let builder = faulty(builder.sync_flush(), dir, plan);
                let mut engine = builder.open().expect("open");
                drive(&mut engine, pts, out);
                let _ = engine.finish();
            } else {
                let builder =
                    faulty(OpenOptions::new(self.config()), dir, plan);
                let mut engine = builder.open().expect("open");
                drive(&mut engine, pts, out);
                let _ = engine.flush_all();
            }
        }
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
        let (recovered, live_tables, report) = if let Self::Tiered = self {
            let builder = TieredOpenOptions::new(self.config());
            let (mut engine, report) =
                reopen(builder, dir, recovery).open_or_recover().expect(ctx);
            // Audit at rest (see `tiered_recover_check`).
            engine.quiesce().expect(ctx);
            engine.check_integrity().expect(ctx);
            let recovered = engine.scan_all().expect("scan");
            // Stop the worker first, so the file count is not racing a
            // merge still retiring its inputs.
            let live = engine.finish().expect("finish").run_tables;
            (recovered, live, report)
        } else {
            let builder = OpenOptions::new(self.config());
            let (engine, report) =
                reopen(builder, dir, recovery).open_or_recover().expect(ctx);
            engine.check_integrity().expect(ctx);
            let live = engine.version().live_table_ids().len();
            (engine.scan_all().expect("scan"), live, report)
        };
        assert!(
            report.quarantined.is_empty(),
            "{ctx}: a crash only truncates, nothing is quarantined"
        );
        check_contract(&recovered, pts, out, ctx);
        assert_eq!(
            table_files(dir),
            live_tables,
            "{ctx}: uncommitted outputs / unretired inputs must be GC'd \
             ({} removed)",
            report.orphans_removed.len()
        );
    }
}

/// The `.sst` files in `dir`'s tables directory.
fn table_files(dir: &TempDir) -> usize {
    std::fs::read_dir(dir.path("tables"))
        .expect("ls")
        .filter(|e| {
            let path = e.as_ref().expect("entry").path();
            path.extension().is_some_and(|ext| ext == "sst")
        })
        .count()
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
    let sweep = one_pass(tag, |_, _| true, engine.pass(&pts));
    let (dir, out, trace) = (&sweep.dir, &sweep.out, &sweep.trace);
    assert_eq!(out.synced, pts.len(), "the pass must complete");
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
    let check = |dir: &_, out: &_, recovery, ctx: &_| {
        engine.recover_check(dir, &pts, out, recovery, ctx);
    };
    // Recovery is idempotent: the second mode reopens what the first one
    // left behind.
    for (mode, recovery) in recovery_modes() {
        check(dir, out, recovery, mode);
    }
    assert_eq!(sweep.images.len(), trace.len());
    recover_each(&sweep.images, CRASH, &recovery_modes(), check);
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

/// The files under `dir`, by path relative to it, with their contents.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("ls") {
        let path = entry.expect("entry").path();
        let name = PathBuf::from(path.file_name().expect("a name"));
        if path.is_dir() {
            let inner = tree(&path).into_iter();
            files.extend(inner.map(|(file, bytes)| (name.join(file), bytes)));
        } else {
            files.insert(name, std::fs::read(&path).expect("read"));
        }
    }
    files
}

/// The premise of the one-pass sweeps. An inline `π_c` engine and a
/// `sync_flush` background one run the grouped-commit scenario, which
/// ends in a horizon and a log cut, once under a probed plan and once more
/// per fault: a crash at every op, and a tear of every write by one byte,
/// by 64 and whole. Every replayed directory must equal — file names and
/// contents — the image the one pass recorded.
#[test]
fn one_pass_images_equal_replayed_faults() {
    let pts = group_workload();
    for engine in [GroupEngine::Conventional, GroupEngine::Tiered] {
        let sweep = one_pass("premise", |_, _| true, engine.pass(&pts));
        let trace = &sweep.trace;
        for op in [IoOp::ManifestSync, IoOp::WalRewrite] {
            assert!(trace.contains(&op), "{engine:?}: {trace:?}");
        }
        assert_eq!(sweep.images.len(), trace.len(), "{engine:?}");
        for image in &sweep.images {
            let at = image.at;
            let tears = [1, 64, usize::MAX].map(|truncate| {
                (Fault::TornWrite { at, truncate }, Some(truncate))
            });
            let tears = if image.write.is_some() {
                &tears[..]
            } else {
                &[]
            };
            for &(fault, torn) in
                [(Fault::CrashAt { at }, None)].iter().chain(tears)
            {
                let plan = FaultPlan::new(SEED, fault);
                let (replayed, _): (_, Outcome) =
                    replay("premise-replay", &plan, engine.pass(&pts));
                assert!(plan.is_crashed(), "{engine:?}: {fault:?}");
                assert!(
                    tree(&image.restore(torn).0) == tree(&replayed.0),
                    "{engine:?}: {fault:?} at {:?}",
                    image.op
                );
            }
        }
    }
}

/// A crash at a horizon's `ManifestSync` finds its group in the file,
/// unsynced; the crashed engine — inline or background — dropped, the
/// manifest is still what the crash found.
#[test]
fn a_crashed_engine_s_drop_leaves_its_manifest_as_the_crash_found_it() {
    let pts = workload(HORIZON_POINTS);
    for tiered in [false, true] {
        let pass = |dir: &_, plan: &_, out: &_| match tiered {
            true => tiered_pass(config(), &pts)(dir, plan, out),
            false => inline_pass(config(), &pts)(dir, plan, out),
        };
        let want = |_, op| op == IoOp::ManifestSync;
        let sweep = one_pass("drop", want, pass);
        let image = sweep.images.first().expect("a horizon");
        let manifest = |dir: &TempDir| std::fs::read(dir.path("manifest"));
        let found = manifest(&image.dir).expect("the manifest");
        assert!(!found.is_empty(), "tiered {tiered}: the group is in it");
        let plan = FaultPlan::crash_at(SEED, image.at);
        let (dir, _): (_, Outcome) = replay("drop-crash", &plan, pass);
        let left = manifest(&dir).expect("the manifest");
        assert!(left == found, "tiered {tiered}: the drop wrote to it");
    }
}

/// The first table write of a background engine's horizon, torn by one
/// byte: the worker retries the horizon — every attempt refused, the plan
/// has crashed — and the tmp file keeps the torn prefix.
#[test]
fn a_tiered_engine_s_torn_table_write_keeps_its_prefix_through_retries() {
    let pts = workload(160);
    let pass = tiered_pass(one_point_tables(), &pts);
    let sweep = one_pass("torn-retry", |_, op| op == IoOp::StoreWrite, &pass);
    let image = sweep.images.first().expect("a horizon writes tables");
    let (file, payload) = image.write.as_ref().expect("a write");
    let plan = FaultPlan::new(
        SEED,
        Fault::TornWrite {
            at: image.at,
            truncate: 1,
        },
    );
    let (dir, _) = replay("torn-retry-tear", &plan, &pass);
    assert!(plan.injected_failures() > 1, "the worker retried");
    let torn = std::fs::read(dir.0.join(file)).expect("the tmp file");
    assert!(
        torn[..] == payload[..payload.len() - 1],
        "{} B left",
        torn.len()
    );
}

/// Tears every WAL write of the scenario — `Points` frames, the
/// `Checkpoint` frames riding with them, under the tiered engine the
/// checkpoint carrying a whole hand-off — at every byte. A frame
/// that is not wholly there must not exist for replay: the acknowledged
/// prefix survives and nothing is invented, in strict and salvage mode.
#[test]
fn torn_wal_writes_never_lose_an_acknowledged_point() {
    let pts = group_workload();
    for engine in [
        GroupEngine::Conventional,
        GroupEngine::Separation,
        GroupEngine::Tiered,
    ] {
        let want = |_, op| op == IoOp::WalAppend;
        let sweep = one_pass("torn-wal", want, engine.pass(&pts));
        assert!(sweep.images.len() >= 4, "scenario syncs several batches");
        // The largest write here is a 16-point hand-off checkpoint plus a
        // batch, 86 bytes packed: every byte of it is a place to tear, and
        // cuts past a smaller write's length persist nothing.
        let tears: Vec<_> = (1..=88).map(Some).collect();
        recover_each(
            &sweep.images,
            &tears,
            &recovery_modes(),
            |dir, out, recovery, ctx| {
                engine.recover_check(dir, &pts, out, recovery, ctx);
            },
        );
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
    let pts = group_workload();
    for engine in [GroupEngine::Conventional, GroupEngine::Tiered] {
        let want = |_, op| op == IoOp::ManifestAppend;
        let sweep = one_pass("torn-grp", want, engine.pass(&pts));
        // The inline engine commits one group, at rest; the background
        // worker one per plan.
        assert!(!sweep.images.is_empty(), "scenario commits a group");
        // The largest group here is header + 4 removes + 8 adds (the inline
        // engine's at rest: header + 10 adds); cuts past a smaller group's
        // length persist nothing of it.
        let tears: Vec<_> = (0..14)
            .flat_map(|records| {
                [0, 1, RECORD / 2, RECORD - 1]
                    .map(|extra| Some(records * RECORD + extra))
            })
            .collect();
        recover_each(
            &sweep.images,
            &tears,
            &[("strict", strict())],
            |dir, out, recovery, ctx| {
                engine.recover_check(dir, &pts, out, recovery, ctx);
            },
        );
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

/// Copies the directory `from` — a checked-in fixture, a crash image — to
/// `to`.
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
#[derive(Clone, Default)]
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
/// appends and once at the end, and keeps `out` up to date; stops at the
/// first failure.
fn drive_fleet(
    engine: &mut MultiSeriesEngine,
    pts: &[(u32, DataPoint)],
    sync_every: usize,
    out: &Shared<FleetOutcome>,
) {
    for (i, (s, p)) in pts.iter().enumerate() {
        if engine.append(SeriesId(*s), *p).is_err() {
            return;
        }
        note(out, |o| o.appended.entry(*s).or_default().push(p.gen_time));
        if (i + 1) % sync_every == 0 {
            if engine.sync_wal_all().is_err() {
                return;
            }
            note(out, FleetOutcome::acknowledge);
        }
    }
    if engine.sync_wal_all().is_ok() {
        note(out, FleetOutcome::acknowledge);
    }
}

/// A durable fleet of `config` over `dir`, whose every op `plan` counts.
fn open_fleet(
    config: EngineConfig,
    dir: &TempDir,
    plan: &Arc<FaultPlan>,
) -> MultiSeriesEngine {
    let store = FileStore::open(dir.path("tables"))
        .expect("store")
        .with_faults(Arc::clone(plan));
    MultiOpenOptions::new(config)
        .store(Arc::new(store))
        .durable_dir(dir.path("meta"))
        .faults(Arc::clone(plan))
        .open()
        .expect("durable fleet")
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
        let plan = FaultPlan::crash_at(SEED, crash_at);
        let (dir, out) = replay(&format!("multi-{case}"), &plan, |dir, plan, out| {
            drive_fleet(&mut open_fleet(config(), dir, plan), &pts, 9, out);
        });
        fleet_recover_check(config(), &dir, &pts, &out, strict(), "random crash");
    }
}

/// The fleet crash schedule over a run that closes with `flush_all`, which
/// flushes the series one after another and then runs the horizon: at
/// crash points spread over the run's ops, as a trace-only pass of it
/// counts them, and at the first op of `flush_all` and its last, the fleet
/// must keep every series' engine, and recovery must uphold the same
/// contract (synced prefix survives, nothing is invented).
#[test]
fn a_crash_inside_the_fleet_s_flush_all_preserves_the_durability_contract() {
    let pts: Vec<(u32, DataPoint)> = workload(WORKLOAD_POINTS)
        .into_iter()
        .enumerate()
        .map(|(i, p)| ((i % 4) as u32, p))
        .collect();
    // Ops counted when the fleet was open and when `flush_all` began.
    let marks = std::cell::Cell::new((0, 0));
    let pass =
        |dir: &TempDir, plan: &Arc<FaultPlan>, out: &Shared<FleetOutcome>| {
            let mut engine = open_fleet(config(), dir, plan);
            let opened = plan.ops();
            drive_fleet(&mut engine, &pts, usize::MAX, out);
            marks.set((opened, plan.ops()));
            // May crash mid-flush; every series engine is retained either
            // way, and the fleet keeps answering for the survivors.
            if engine.flush_all().is_err() {
                let series = out.lock().expect("outcome").appended.len();
                assert_eq!(
                    engine.len(),
                    series,
                    "op {}: a failed flush_all lost series",
                    plan.ops()
                );
            }
            // Crash: dropped here.
        };
    let traced = FaultPlan::trace_only(SEED);
    let (dir, out) = replay("multi-flush-all", &traced, pass);
    fleet_recover_check(config(), &dir, &pts, &out, strict(), "at rest");
    let (opened, flush) = marks.get();
    let ops = traced.ops();
    assert!(opened < flush && flush < ops, "{opened} {flush} {ops}");
    let mut crash_points: Vec<u64> = (0..5)
        .map(|k| opened + k * (ops - opened) / 5)
        .chain([flush, ops - 1])
        .collect();
    crash_points.sort_unstable();
    crash_points.dedup();
    for crash_at in crash_points {
        let plan = FaultPlan::crash_at(SEED, crash_at);
        let tag = format!("multi-flush-all-{crash_at}");
        let (dir, out) = replay(&tag, &plan, pass);
        assert!(plan.is_crashed(), "crash at op {crash_at} of {ops}");
        let ctx = format!("flush_all, crash at op {crash_at} of {ops}");
        fleet_recover_check(config(), &dir, &pts, &out, strict(), &ctx);
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
    pts: &[(u32, DataPoint)],
) -> impl Fn(&TempDir, &Arc<FaultPlan>, &Shared<FleetOutcome>) + '_ {
    move |dir, plan, out| {
        let mut engine = open_fleet(config.clone(), dir, plan);
        drive_fleet(&mut engine, pts, batch, out);
        let _ = engine.flush_all();
    }
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
    pts: &[(u32, DataPoint)],
) -> impl Fn(&TempDir, &Arc<FaultPlan>, &Shared<FleetOutcome>) + '_ {
    fleet_pass(fleet_log_config(), FLEET_LOG_BATCH, pts)
}

#[test]
fn fleet_log_survives_a_crash_or_a_torn_write_at_every_io_op() {
    let pts = fleet_log_workload();
    let sweep = one_pass("fleet-log", |_, _| true, fleet_log_pass(&pts));
    let (dir, out, trace) = (&sweep.dir, &sweep.out, &sweep.trace);
    assert_eq!(out.synced.len(), 4, "the pass must complete");
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
    let check = |dir: &_, out: &_, recovery, ctx: &_| {
        fleet_recover_check(fleet_log_config(), dir, &pts, out, recovery, ctx);
    };
    for (mode, recovery) in recovery_modes() {
        check(dir, out, recovery, mode);
    }
    assert_eq!(sweep.images.len(), trace.len());
    // The crash, and a few bytes, a point and a half, most of a frame torn.
    let tears = [None, Some(3), Some(8), Some(30)];
    recover_each(&sweep.images, &tears, &recovery_modes(), check);
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
    (wal_replayed(&sink), engine)
}

/// Points a recovery observed by `sink` replayed from the log.
fn wal_replayed(sink: &RingBufferSink) -> u64 {
    let replayed = |e: &Event| match e {
        Event::RecoveryStep {
            step: RecoveryStepKind::WalReplayed,
            items,
        } => *items,
        _ => 0,
    };
    sink.events().iter().map(replayed).sum()
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
    let sweep = one_pass(
        "fleet-ckpt",
        |_, op| op == IoOp::WalAppend,
        fleet_pass(torn_checkpoint_config(), 9, &pts),
    );
    assert_eq!(sweep.out.synced.values().sum::<usize>(), 72, "the pass");
    let trace = &sweep.trace;
    let image = sweep.images.get(7).expect("eight WAL writes");
    let eighth_write = image.at as usize;
    assert!(
        trace[..eighth_write].contains(&IoOp::ManifestSync),
        "the horizon precedes the write: {trace:?}"
    );
    let mut frames = vec![wal_layout::CHECKPOINT_FRAME as usize; 8];
    frames.push(wal_layout::points_frame(&series_0[64..]) as usize);
    let write: usize = frames.iter().sum();
    let out = &image.out;
    for truncate in 1..=write {
        let ctx = format!("checkpoint write torn by {truncate} of {write}");
        assert_eq!(
            (out.synced.get(&0), out.synced.get(&1)),
            (Some(&56), Some(&7)),
            "{ctx}: seven batches acknowledged"
        );
        let dir = image.restore(Some(truncate));
        let (replayed, engine) =
            fleet_log_replayed(torn_checkpoint_config(), &dir);
        check_fleet_contract(&engine, &pts, out, &ctx);
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
    let pass = |dir: &TempDir, plan: &Arc<FaultPlan>, out: &Shared<_>| {
        let builder = faulty(OpenOptions::new(config.clone()), dir, plan);
        let mut engine = builder.open().expect("open");
        for batch in batches.windows(2) {
            for p in &pts[batch[0]..batch[1]] {
                note(out, |o: &mut Outcome| o.attempted += 1);
                if engine.append(*p).is_err() {
                    return;
                }
                note(out, |o| o.appended += 1);
            }
            if engine.sync_wal().is_err() {
                return;
            }
            note(out, |o| o.synced = o.appended);
        }
    };
    let replayed = |dir: &TempDir| {
        let sink = RingBufferSink::new(4096);
        let builder = OpenOptions::new(config.clone()).observer(sink.clone());
        let (engine, _) = reopen(builder, dir, RecoveryOptions::strict())
            .open_or_recover()
            .expect("strict recovery");
        (wal_replayed(&sink) as usize, engine)
    };
    let sweep = one_pass("ckpt", |_, op| op == IoOp::WalAppend, pass);
    assert_eq!(sweep.out.synced, pts.len(), "the pass must complete");
    let trace = &sweep.trace;
    let image = sweep.images.last().expect("eight WAL writes");
    let last_write = image.at as usize;
    assert!(
        trace[..last_write].contains(&IoOp::ManifestSync),
        "the horizon precedes the write: {trace:?}"
    );
    let mut frames = vec![wal_layout::CHECKPOINT_FRAME as usize; 8];
    frames.push(wal_layout::points_frame(&pts[64..]) as usize);
    let write: usize = frames.iter().sum();
    let out = &image.out;
    for truncate in 1..=write {
        let ctx = format!("checkpoint write torn by {truncate} of {write}");
        assert_eq!(out.synced, 56, "{ctx}: seven batches acknowledged");
        let dir = image.restore(Some(truncate));
        let (replayed, engine) = replayed(&dir);
        check_contract(&engine.scan_all().expect("scan"), &pts, out, &ctx);
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

/// The durability horizon under a crash at every op and the power cut that
/// comes with it: an engine whose flushes cross two horizons mid-run
/// ([`one_point_tables`]), with merges retiring durable tables in between,
/// crashed at the [`crash_points`] of the run; before recovery every table
/// file the durable manifest does not name is lost or torn. Every
/// acknowledged point must come back — from the tables the manifest names
/// and from the log — in strict and salvage mode, which `check` checks.
///
/// The crash points look one op ahead, so a first, traced run of `pass`
/// names them; the probed one does the same ops.
fn power_cut_at_every_op(
    tag: &str,
    pass: impl Fn(&TempDir, &Arc<FaultPlan>, &Shared<Outcome>),
    check: impl Fn(&TempDir, &Outcome, RecoveryOptions, &str),
) {
    let plan = FaultPlan::trace_only(SEED);
    let _: (_, Outcome) = replay(tag, &plan, &pass);
    let trace = plan.trace();
    let points: HashSet<u64> = crash_points(&trace).into_iter().collect();
    let sweep = one_pass(tag, move |k, _| points.contains(&k), pass);
    assert_eq!(sweep.trace, trace, "the pass repeats its ops");
    assert_eq!(sweep.out.synced, 160, "the pass must complete");
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
    let check = |dir: &TempDir, out: &_, recovery, ctx: &_| {
        power_cut(dir);
        check(dir, out, recovery, ctx);
    };
    for (mode, recovery) in recovery_modes() {
        check(&sweep.dir, &sweep.out, recovery, mode);
    }
    recover_each(&sweep.images, CRASH, &recovery_modes(), check);
}

#[test]
fn an_lsm_engine_survives_a_power_cut_at_every_op_across_two_horizons() {
    let pts = workload(160);
    let pass = inline_pass(one_point_tables(), &pts);
    power_cut_at_every_op("cut", pass, |dir, out, recovery, ctx| {
        inline_recover_check(one_point_tables(), dir, &pts, out, recovery, ctx);
    });
}

/// The tiered twin of
/// `an_lsm_engine_survives_a_power_cut_at_every_op_across_two_horizons`:
/// the background worker's flushes cross two of its horizons, its L0 merges
/// retiring durable tables in between.
#[test]
fn a_tiered_engine_survives_a_power_cut_at_every_op_across_two_horizons() {
    let pts = workload(160);
    let pass = tiered_pass(one_point_tables(), &pts);
    power_cut_at_every_op("bg-cut", pass, |dir, out, recovery, ctx| {
        tiered_recover_check(one_point_tables(), dir, &pts, out, recovery, ctx);
    });
}

/// A table write of a horizon torn — by one byte, by most of the table, or
/// whole — and the crash that comes with it, at every table write of the
/// power-cut scenario's two horizons. The torn prefix sits under its tmp
/// name, which the next open sweeps: no acknowledged point is lost and none
/// invented, in strict and salvage mode.
#[test]
fn a_torn_horizon_table_write_loses_no_acknowledged_point() {
    let pts = workload(160);
    let want = |_, op| op == IoOp::StoreWrite;
    let sweep =
        one_pass("torn-table", want, inline_pass(one_point_tables(), &pts));
    let (trace, writes) = (&sweep.trace, sweep.images.len());
    assert!(writes >= 2 * 64, "two horizons: {writes}");
    for image in &sweep.images {
        let k = image.at as usize;
        // The horizon's writes so far, this one included, each left a tmp
        // file: the crash cleans nothing up.
        let written = trace[..=k]
            .iter()
            .rev()
            .take_while(|op| **op == IoOp::StoreWrite)
            .count();
        let tears = [1, 64, usize::MAX].map(Some);
        recover_each(
            std::slice::from_ref(image),
            &tears,
            &recovery_modes(),
            |dir, out, recovery, ctx| {
                let tmp = file_names(&dir.path("tables"))
                    .into_iter()
                    .filter(|name| name.ends_with(".sst.tmp"))
                    .count();
                assert_eq!(tmp, written, "{ctx}");
                inline_recover_check(
                    one_point_tables(),
                    dir,
                    &pts,
                    out,
                    recovery,
                    ctx,
                );
            },
        );
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
        let builder = OpenOptions::new(one_point_tables());
        let mut engine = faulty(builder, &dir, plan).open().expect("open");
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
            let recovered = inline_recover_check(
                one_point_tables(),
                &dir,
                &pts,
                &out,
                recovery,
                &ctx,
            );
            assert_eq!(recovered, pts, "{ctx}");
        }
    }
}

/// A horizon whose manifest fsync fails after its tables were synced
/// leaves its group in the manifest's file, unsynced.
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
        let builder = faulty(OpenOptions::new(config.clone()), &dir, plan);
        let mut engine = builder.open().expect("open");
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
    let out = Outcome {
        attempted: pts.len(),
        appended: pts.len(),
        synced: pts.len(),
    };
    inline_recover_check(config, &dir, &pts, &out, strict(), "retry");
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
        drive(&mut engine, &pts, &Shared::default());
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
    drive(&mut engine, &pts, &Shared::default());
    engine.finish().expect("finish");
    at_rest(dir.path("bg-wal"));

    let fleet_pts = fleet_log_workload();
    let plan = FaultPlan::trace_only(SEED);
    let (fleet_dir, _) =
        replay("at-rest-fleet", &plan, fleet_log_pass(&fleet_pts));
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
    pts: &[(u32, DataPoint)],
) -> impl Fn(&TempDir, &Arc<FaultPlan>, &Shared<FleetOutcome>) + '_ {
    fleet_pass(fleet_commit_config(), FLEET_COMMIT_BATCH, pts)
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
    let config = fleet_commit_config();
    let (engine, report) =
        fleet_recover_check(config, dir, pts, out, recovery, ctx);
    let live: usize = engine
        .series_ids()
        .into_iter()
        .map(|id| engine.engine(id).expect("series").run().len())
        .sum();
    assert_eq!(
        table_files(dir),
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
    let sweep = one_pass("fleet-commit", |_, _| true, fleet_commit_pass(&pts));
    let (dir, out, trace) = (&sweep.dir, &sweep.out, &sweep.trace);
    assert_eq!(out.synced.len(), 2, "the pass must complete");
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
        fleet_commit_recover_check(dir, &pts, out, recovery, mode);
    }
    assert_eq!(sweep.images.len(), trace.len());
    let check = |dir: &_, out: &_, recovery, ctx: &_| {
        fleet_commit_recover_check(dir, &pts, out, recovery, ctx);
    };
    recover_each(&sweep.images, CRASH, &recovery_modes(), check);
    for image in &sweep.images {
        let (k, out) = (image.at, &image.out);
        if image.op != IoOp::ManifestAppend {
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
            let ctx =
                format!("{mode}: manifest append at op {k} torn by {truncate}");
            check(&image.restore(Some(truncate)), out, recovery, &ctx);
        }
    }
}

/// The fleet-commit scenario with its first horizon's manifest fsync
/// failing once, after the horizon synced its tables: the fourth batch's
/// sync fails, and its group is in the file, unsynced. The stragglers'
/// merges then consume seven of the tables that horizon synced, and the
/// fleet crashes before the next sync would retry it. The merges must have
/// retired those tables, not deleted them: the group in the file names
/// them. Strict recovery finds them,
/// and every acknowledged point.
#[test]
fn a_merge_after_a_failed_fleet_horizon_keeps_what_that_horizon_synced() {
    let pts = fleet_commit_workload();
    let trace_plan = FaultPlan::trace_only(SEED);
    let _: (_, FleetOutcome) =
        replay("fail-sync-trace", &trace_plan, fleet_commit_pass(&pts));
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
