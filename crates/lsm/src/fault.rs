//! Deterministic fault injection for every disk touch of the storage layer.
//!
//! A [`FaultPlan`] is a seeded, op-counting schedule of injected failures:
//! fail the Nth I/O op (once or persistently), tear a write by truncating
//! its last K bytes, or hard-crash at op N so that op and every later one
//! fails without touching the disk. Plans are attached to [`FileStore`],
//! [`Wal`](crate::Wal) and [`Manifest`](crate::Manifest), which call the
//! hooks below around each physical operation, and [`FaultStore`] wraps any
//! other [`TableStore`] at op granularity. The crash-schedule harness
//! (`tests/crash_schedules.rs`) records a trace with [`Fault::None`], then
//! replays every prefix with [`Fault::CrashAt`] and checks the recovery
//! contract.
//!
//! Everything here is deterministic: op numbering is the only "clock", the
//! seed is carried verbatim for workload derivation, and no wall-clock or
//! thread primitive is used (seplint rule R3 applies to this module).
//!
//! [`FileStore`]: crate::FileStore

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use seplsm_types::{DataPoint, Error, Result, TimeRange};

use crate::obs::{Event, ObserverHandle};
use crate::sstable::format::RangeRead;
use crate::sstable::{SsTableId, SsTableMeta};
use crate::store::TableStore;

/// One class of physical I/O operation, as counted and traced by a
/// [`FaultPlan`]. The variants mirror the call sites in `store.rs`,
/// `wal.rs` and `manifest.rs`, so a trace names exactly which disk touch a
/// crash point lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// `FileStore::put`/`put_batch`/`publish_batch` writing one encoded
    /// table to its tmp file.
    StoreWrite,
    /// `FileStore::sync_published` (and `put`/`put_batch`, which end in it)
    /// fsyncing one table's tmp file.
    StoreSync,
    /// `FileStore::sync_published` renaming one synced table tmp → final.
    StoreRename,
    /// `FileStore::get`/`get_range` reading a table.
    StoreRead,
    /// `FileStore::delete` (or `quarantine`) removing a table.
    StoreDelete,
    /// `FileStore::list` scanning the directory.
    StoreList,
    /// The WAL writing its pending frames with one `write` — at
    /// `Wal::sync`, or when the pending buffer is full.
    WalAppend,
    /// `Wal::sync` fsyncing the log.
    WalSync,
    /// `Wal::rewrite` (the cut) writing + fsyncing the tmp log — or, when
    /// nothing is live, truncating the live log to its header + fsyncing
    /// it in place.
    WalRewrite,
    /// `Wal::rewrite` renaming tmp → live.
    WalRename,
    /// `Manifest::commit` writing one edit group (or one bare record).
    ManifestAppend,
    /// `Manifest::commit` flush + fsync.
    ManifestSync,
    /// `Manifest::rewrite_levels` writing + fsyncing the tmp log.
    ManifestRewrite,
    /// `Manifest::rewrite_levels` renaming tmp → live.
    ManifestRename,
    /// A parent-directory fsync after a rename ([`crate::store::sync_dir`]).
    /// The last class: [`IoOp::COUNT`] counts up to it.
    DirSync,
}

impl IoOp {
    /// How many classes there are: the length of [`FaultPlan::counts`],
    /// which `op as usize` indexes.
    pub const COUNT: usize = IoOp::DirSync as usize + 1;
}

/// The failure a [`FaultPlan`] injects, positioned by global op index
/// (0-based, in [`FaultPlan::ops`] order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// Inject nothing; the plan only counts and traces ops.
    #[default]
    None,
    /// Op `at` fails once with a transient I/O error; later ops succeed.
    FailOnce {
        /// Index of the op that fails.
        at: u64,
    },
    /// Every op with index `>= from` fails (a device that died).
    FailPersistent {
        /// First failing op index.
        from: u64,
    },
    /// The write op at index `at` persists only its prefix — the last
    /// `truncate` bytes are dropped — and the plan then behaves like a
    /// crash: every later op fails without touching the disk.
    TornWrite {
        /// Index of the op that tears. If that op is not a write the plan
        /// degenerates to [`Fault::CrashAt`] semantics at the same index.
        at: u64,
        /// Bytes chopped off the end of the written payload (saturating;
        /// tearing more than the payload length persists nothing).
        truncate: usize,
    },
    /// Op `at` and every later op fail without touching the disk, modelling
    /// a hard power cut at that point in the schedule.
    CrashAt {
        /// Index of the first failed op.
        at: u64,
    },
}

/// What a write call site must do after [`FaultPlan::begin_write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteCheck {
    /// Perform the full write.
    Proceed,
    /// Write (and flush) only the first `keep` bytes of the payload, then
    /// fail the operation with [`injected_crash`].
    Torn {
        /// Prefix length to persist.
        keep: usize,
    },
}

/// Builds the error a torn or crashed op must surface. Recognisable by the
/// `"injected"` prefix so tests can tell injected failures from real ones.
pub fn injected_crash(op: IoOp, index: u64) -> Error {
    Error::Io(std::io::Error::other(format!(
        "injected fault at op {index} ({op:?})"
    )))
}

/// Returns true when `e` is an error produced by [`injected_crash`] (or the
/// transient variants), i.e. it came from a [`FaultPlan`] and not the OS.
pub fn is_injected(e: &Error) -> bool {
    matches!(e, Error::Io(io) if io.to_string().starts_with("injected "))
}

fn injected_transient(op: IoOp, index: u64) -> Error {
    Error::Io(std::io::Error::other(format!(
        "injected transient fault at op {index} ({op:?})"
    )))
}

/// A seeded, op-counting fault schedule. See the module docs.
///
/// The same plan instance may be shared (via `Arc`) by a store, a WAL and a
/// manifest so that all of an engine's disk touches share one op counter —
/// that global numbering is what makes crash-schedule exploration exhaustive.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    fault: Fault,
    ops: AtomicU64,
    /// `ops`, per [`IoOp`] class.
    counts: [AtomicU64; IoOp::COUNT],
    crashed: AtomicBool,
    injected: AtomicU64,
    trace: Mutex<Vec<IoOp>>,
    observer: Mutex<ObserverHandle>,
}

impl FaultPlan {
    /// Creates a plan injecting `fault`, carrying `seed` for workload
    /// derivation (the plan itself uses no randomness).
    pub fn new(seed: u64, fault: Fault) -> Arc<Self> {
        Arc::new(Self {
            seed,
            fault,
            ops: AtomicU64::new(0),
            counts: Default::default(),
            crashed: AtomicBool::new(false),
            injected: AtomicU64::new(0),
            trace: Mutex::new(Vec::new()),
            observer: Mutex::new(ObserverHandle::detached()),
        })
    }

    /// A plan that injects nothing — counts and traces ops only.
    pub fn trace_only(seed: u64) -> Arc<Self> {
        Self::new(seed, Fault::None)
    }

    /// A plan that hard-crashes at op `at`.
    pub fn crash_at(seed: u64, at: u64) -> Arc<Self> {
        Self::new(seed, Fault::CrashAt { at })
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Ops counted so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Ops counted so far per class, indexed by `op as usize`: what a
    /// tally of [`trace`](Self::trace) would give.
    pub fn counts(&self) -> [u64; IoOp::COUNT] {
        self.counts
            .each_ref()
            .map(|count| count.load(Ordering::Relaxed))
    }

    /// Failures injected so far (including every post-crash refusal).
    pub fn injected_failures(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// True once a [`Fault::CrashAt`] or [`Fault::TornWrite`] has fired;
    /// all subsequent ops fail.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The op trace so far, in execution order.
    pub fn trace(&self) -> Vec<IoOp> {
        self.trace.lock().clone()
    }

    /// Attaches an observer: every injected failure emits an
    /// [`Event::FaultInjected`]. Emission happens outside op numbering, so
    /// observing a plan never shifts its schedule.
    pub fn set_observer(&self, obs: ObserverHandle) {
        *self.observer.lock() = obs;
    }

    /// Counts one injection and reports it to the attached observer.
    fn note_injected(&self, op: IoOp, index: u64) {
        self.injected.fetch_add(1, Ordering::SeqCst);
        self.observer
            .lock()
            .emit(|| Event::FaultInjected { op, at: index });
    }

    /// Counts one non-write op: returns `Ok` if it may proceed, or the
    /// injected error it must surface.
    pub fn begin(&self, op: IoOp) -> Result<()> {
        self.begin_write(op, 0).map(|_| ())
    }

    /// Counts one op that writes `len` payload bytes. On
    /// [`WriteCheck::Torn`] the caller persists only the returned prefix
    /// and then fails with [`injected_crash`].
    pub fn begin_write(&self, op: IoOp, len: usize) -> Result<WriteCheck> {
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        self.counts[op as usize].fetch_add(1, Ordering::Relaxed);
        self.trace.lock().push(op);
        if self.crashed.load(Ordering::SeqCst) {
            self.note_injected(op, index);
            return Err(injected_crash(op, index));
        }
        match self.fault {
            Fault::None => Ok(WriteCheck::Proceed),
            Fault::FailOnce { at } if index == at => {
                self.note_injected(op, index);
                Err(injected_transient(op, index))
            }
            Fault::FailOnce { .. } => Ok(WriteCheck::Proceed),
            Fault::FailPersistent { from } if index >= from => {
                self.note_injected(op, index);
                Err(injected_transient(op, index))
            }
            Fault::FailPersistent { .. } => Ok(WriteCheck::Proceed),
            Fault::TornWrite { at, truncate } if index == at => {
                self.crashed.store(true, Ordering::SeqCst);
                self.note_injected(op, index);
                if len == 0 {
                    // Not a write op: degenerate to a plain crash.
                    Err(injected_crash(op, index))
                } else {
                    Ok(WriteCheck::Torn {
                        keep: len.saturating_sub(truncate),
                    })
                }
            }
            Fault::TornWrite { .. } => Ok(WriteCheck::Proceed),
            Fault::CrashAt { at } if index >= at => {
                self.crashed.store(true, Ordering::SeqCst);
                self.note_injected(op, index);
                Err(injected_crash(op, index))
            }
            Fault::CrashAt { .. } => Ok(WriteCheck::Proceed),
        }
    }
}

/// Counts one non-write op against an optional plan (no plan: always `Ok`).
pub(crate) fn hook(plan: Option<&Arc<FaultPlan>>, op: IoOp) -> Result<()> {
    match plan {
        Some(p) => p.begin(op),
        None => Ok(()),
    }
}

/// Writes `buf` to `w` as one write op counted against an optional plan.
/// `Ok(None)`: all of it was written. `Ok(Some(crash))`: the plan tore this
/// write — only the prefix a power cut would have left reached `w`; the
/// caller gets that prefix as far towards the disk as it would have got the
/// whole (a flush, an fsync) and fails with `crash`.
pub(crate) fn write_hooked(
    plan: Option<&Arc<FaultPlan>>,
    op: IoOp,
    w: &mut impl Write,
    buf: &[u8],
) -> Result<Option<Error>> {
    let check = match plan {
        Some(p) => p.begin_write(op, buf.len())?,
        None => WriteCheck::Proceed,
    };
    match check {
        WriteCheck::Proceed => {
            w.write_all(buf)?;
            Ok(None)
        }
        WriteCheck::Torn { keep } => {
            w.write_all(&buf[..keep.min(buf.len())])?;
            let index = plan.map_or(0, |p| p.ops().saturating_sub(1));
            Ok(Some(injected_crash(op, index)))
        }
    }
}

/// A [`TableStore`] wrapper that routes every call through a [`FaultPlan`]
/// at op granularity (one op per store call).
///
/// Use this to fault-inject a [`MemStore`](crate::MemStore) or any other
/// store without byte-level hooks. Do **not** wrap a
/// [`FileStore`](crate::FileStore) that already has a plan attached via
/// [`FileStore::with_faults`](crate::FileStore::with_faults) — each put
/// would then be counted both as one coarse op and as its four byte-level
/// ops, double-counting the schedule.
pub struct FaultStore<S: TableStore> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S: TableStore> FaultStore<S> {
    /// Wraps `inner` so every call consults `plan` first.
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }

    /// The shared fault plan.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TableStore> TableStore for FaultStore<S> {
    fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
        self.plan.begin(IoOp::StoreWrite)?;
        self.inner.put(points)
    }

    /// One op per table, all counted before the batch is forwarded, so a
    /// schedule numbers a batch exactly like the per-chunk puts it replaces
    /// while the inner store still sees one batch.
    fn put_batch(
        &self,
        chunks: &[&[DataPoint]],
    ) -> Result<Vec<(SsTableMeta, usize)>> {
        for _ in chunks {
            self.plan.begin(IoOp::StoreWrite)?;
        }
        self.inner.put_batch(chunks)
    }

    /// Numbered like [`put_batch`](TableStore::put_batch): one op per
    /// table.
    fn publish_batch(
        &self,
        chunks: &[&[DataPoint]],
    ) -> Result<Vec<(SsTableMeta, usize)>> {
        for _ in chunks {
            self.plan.begin(IoOp::StoreWrite)?;
        }
        self.inner.publish_batch(chunks)
    }

    /// Not an op of its own at this granularity: a `put_batch` is counted
    /// per table, its fsyncs included.
    fn sync_published(&self, ids: &[SsTableId]) -> Result<()> {
        self.inner.sync_published(ids)
    }

    fn note_retired(&self, id: SsTableId) {
        self.inner.note_retired(id);
    }

    fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
        self.plan.begin(IoOp::StoreRead)?;
        self.inner.get(id)
    }

    fn delete(&self, id: SsTableId) -> Result<()> {
        self.plan.begin(IoOp::StoreDelete)?;
        self.inner.delete(id)
    }

    fn list(&self) -> Result<Vec<SsTableId>> {
        self.plan.begin(IoOp::StoreList)?;
        self.inner.list()
    }

    fn get_range(&self, id: SsTableId, range: TimeRange) -> Result<RangeRead> {
        self.plan.begin(IoOp::StoreRead)?;
        self.inner.get_range(id, range)
    }

    fn read_raw(&self, id: SsTableId) -> Result<Option<bytes::Bytes>> {
        self.plan.begin(IoOp::StoreRead)?;
        self.inner.read_raw(id)
    }

    fn table_len(&self, id: SsTableId) -> Result<Option<u64>> {
        self.plan.begin(IoOp::StoreRead)?;
        self.inner.table_len(id)
    }

    fn read_span(
        &self,
        id: SsTableId,
        span: crate::sstable::format::ByteSpan,
    ) -> Result<Option<bytes::Bytes>> {
        self.plan.begin(IoOp::StoreRead)?;
        self.inner.read_span(id, span)
    }

    fn may_contain(
        &self,
        id: SsTableId,
        range: TimeRange,
    ) -> Result<Option<bool>> {
        // One coarse op: the pruning-metadata read. A crashed plan must
        // refuse it, or a post-crash query could silently "prune" tables
        // it can no longer read.
        self.plan.begin(IoOp::StoreRead)?;
        self.inner.may_contain(id, range)
    }

    fn quarantine(&self, id: SsTableId) -> Result<()> {
        self.plan.begin(IoOp::StoreDelete)?;
        self.inner.quarantine(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn pts(n: i64) -> Vec<DataPoint> {
        (0..n).map(|i| DataPoint::new(i, i, i as f64)).collect()
    }

    #[test]
    fn trace_only_counts_and_records() {
        let plan = FaultPlan::trace_only(7);
        let store = FaultStore::new(MemStore::new(), Arc::clone(&plan));
        let (meta, _) = store.put(&pts(4)).expect("put");
        store.get(meta.id).expect("get");
        store.list().expect("list");
        assert_eq!(plan.ops(), 3);
        assert_eq!(plan.seed(), 7);
        assert_eq!(
            plan.trace(),
            vec![IoOp::StoreWrite, IoOp::StoreRead, IoOp::StoreList]
        );
        let mut counts = [0; IoOp::COUNT];
        for op in plan.trace() {
            counts[op as usize] += 1;
        }
        assert_eq!(plan.counts(), counts);
        assert_eq!(counts.iter().sum::<u64>(), 3);
        assert_eq!(plan.injected_failures(), 0);
        assert!(!plan.is_crashed());
    }

    #[test]
    fn fail_once_fails_exactly_one_op() {
        let plan = FaultPlan::new(0, Fault::FailOnce { at: 1 });
        let store = FaultStore::new(MemStore::new(), Arc::clone(&plan));
        let (meta, _) = store.put(&pts(2)).expect("op 0 fine");
        let err = store.get(meta.id).expect_err("op 1 fails");
        assert!(is_injected(&err), "unexpected error: {err}");
        store.get(meta.id).expect("op 2 fine again");
        assert_eq!(plan.injected_failures(), 1);
        assert!(!plan.is_crashed());
    }

    #[test]
    fn crash_at_fails_everything_from_n() {
        let plan = FaultPlan::crash_at(0, 2);
        let store = FaultStore::new(MemStore::new(), Arc::clone(&plan));
        store.put(&pts(1)).expect("op 0");
        store.put(&pts(1)).expect("op 1");
        assert!(store.put(&pts(1)).is_err(), "op 2 crashes");
        assert!(plan.is_crashed());
        assert!(store.list().is_err(), "ops after the crash all fail");
        assert_eq!(plan.injected_failures(), 2);
    }

    #[test]
    fn fail_persistent_fails_all_later_ops() {
        let plan = FaultPlan::new(0, Fault::FailPersistent { from: 1 });
        let store = FaultStore::new(MemStore::new(), Arc::clone(&plan));
        store.put(&pts(1)).expect("op 0");
        assert!(store.put(&pts(1)).is_err());
        assert!(store.put(&pts(1)).is_err());
        assert!(!plan.is_crashed(), "persistent failure is not a crash");
    }

    #[test]
    fn torn_write_keeps_a_prefix_then_crashes() {
        let plan = FaultPlan::new(0, Fault::TornWrite { at: 0, truncate: 3 });
        match plan.begin_write(IoOp::WalAppend, 10).expect("torn check") {
            WriteCheck::Torn { keep } => assert_eq!(keep, 7),
            other => panic!("expected torn, got {other:?}"),
        }
        assert!(plan.is_crashed());
        assert!(plan.begin(IoOp::WalSync).is_err());
        // Saturating: tearing more than the payload persists nothing.
        let plan = FaultPlan::new(
            0,
            Fault::TornWrite {
                at: 0,
                truncate: 99,
            },
        );
        match plan.begin_write(IoOp::WalAppend, 10).expect("torn check") {
            WriteCheck::Torn { keep } => assert_eq!(keep, 0),
            other => panic!("expected torn, got {other:?}"),
        }
    }
}
