//! The two-level engine with background compaction — the production write
//! path of Apache IoTDB described in §V-C, used by the throughput experiment
//! (Table III) and by the query experiments (Figs. 12–14, 20).
//!
//! §V-C: when a MemTable is full it is flushed to a level-1 file; level-1
//! files *may overlap* each other; a background thread consumes them and
//! produces the non-overlapping level-2 run. Ingestion therefore never waits
//! for compaction — and queries must read every overlapping level-1 file,
//! which is precisely what makes the policies differ on the read path: under
//! `π_c` a single straggler gives its whole flushed file a huge key range
//! that every recent-window query then has to scan (the paper's Fig. 15),
//! while `π_s` keeps in-order flushes narrow.
//!
//! [`TieredEngine`] — [`Engine`] over the [`Background`] executor —
//! reproduces that on the shared storage kernel: the engine's front half
//! logs, classifies and buffers points exactly as it does for the inline
//! executor, and hands full MemTables to this one, which registers them as
//! flushing batches and queues them for a compaction worker over a bounded
//! channel; the worker stores them as L0 tables (committed as
//! [`VersionEdit::FlushToL0`]) and periodically merges L0 into the run —
//! both through the same [`plan_merge`] → `write_outputs` →
//! [`commit`](crate::compaction::commit) pipeline as the inline executor,
//! and made durable at the same horizon.
//!
//! # Write stalls and failures
//!
//! The flush queue is the one bound on the backlog: it holds
//! `CHANNEL_DEPTH` batches, and a hand-off that finds it full blocks until
//! the worker takes one — a write stall, witnessed by
//! `admission::stall` and reported by the append whose hand-off waited.
//! Since the worker merges all of L0 after every flush that leaves it
//! `L0_COMPACT_THRESHOLD` deep, that bounds L0 as well (DESIGN §14).
//! Nothing paces the worker's writes. A store operation failing with
//! [`Error::Io`] is retried at once, up to [`DEFAULT_RETRY_ATTEMPTS`]
//! attempts; when they are spent, or on any other error, the engine
//! degrades to read-only, and the writer learns it from the failed send.
//!
//! # Durability
//!
//! The worker's plans commit in memory and leave the rest to the engine's
//! [`Outbox`]: their tables wait unsynced, a consumed table no horizon
//! synced is deleted at once, a durable one is retired. After a plan that
//! makes one due the worker runs the horizon (`compaction::horizon`: the
//! waiting tables synced, one manifest group, the retired deleted), holding
//! the state lock only to take the outbox and the manifest out and to put
//! them back; coming to rest runs one more. A handed-off batch stays in the
//! log until a horizon has recorded the tables that hold its points: at
//! every hand-off the log is told the ranges of the batches that became
//! durable since the last one, and a cut of the log carries every other.
//! A crashed engine (dropped without [`TieredEngine::finish`]) is rebuilt
//! from both: the manifest restores the run and L0 as the last horizon left
//! them, the WAL replays every point since; the merge pipeline deduplicates
//! what both hold by generation time (freshest wins), so no point is lost
//! or double-counted in query results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender, TrySendError};
use parking_lot::{Condvar, Mutex};
use seplsm_types::{DataPoint, Error, Result, TimeRange, Timestamp};

use crate::admission::{self, AdmissionOutcome, AdmissionStats};
use crate::compaction::{self, plan_merge, Outbox, RunInput, Share, Written};
use crate::engine::{Batch, Engine, Executor, Front};
use crate::invariants;
use crate::iterator::merge_sorted;
use crate::manifest::Manifest;
use crate::metrics::Metrics;
use crate::obs::{
    DegradedOp, DegradedReason, DegradedState, Event, ObserverHandle,
};
use crate::open;
use crate::sstable::{SsTableId, SsTableMeta};
use crate::store::TableStore;
use crate::version::{Version, VersionEdit};

/// How many L0 tables accumulate before the worker merges them into the run.
const L0_COMPACT_THRESHOLD: usize = 4;
/// Flush-queue depth: a hand-off that finds it full is a write stall.
const CHANNEL_DEPTH: usize = 8;

/// Attempts the worker makes at a store operation before it degrades.
pub const DEFAULT_RETRY_ATTEMPTS: u32 = 3;

/// What the writer, the worker and queries share.
struct Shared {
    state: Mutex<TierState>,
    /// Signalled by the worker after each flush batch lands in L0, after
    /// every merge and horizon, and on its exit; [`TieredEngine::drain`]
    /// waits on it.
    flush_done: Condvar,
    /// Raised when the engine enters the degraded read-only state; the
    /// reason lives in [`TierState::degraded`]. Checked lock-free on the
    /// append fast path.
    degraded: AtomicBool,
}

impl Shared {
    /// Runs `attempt` up to [`DEFAULT_RETRY_ATTEMPTS`] times, retrying at
    /// once on [`Error::Io`] (the transient class — a torn network store,
    /// an injected fault); any other error class aborts after the attempt
    /// that raised it. Each retry is announced as [`Event::RetryBackoff`].
    /// A failure degrades the engine to read-only: the typed
    /// [`DegradedState`] names `op` and the attempts made, is reported to
    /// the observer and kept for [`TieredEngine::degraded_state`], and the
    /// lock-free flag the append path checks is raised.
    fn retry<T>(
        &self,
        obs: &ObserverHandle,
        op: DegradedOp,
        mut attempt: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut attempts = 1;
        let err = loop {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(Error::Io(_)) if attempts < DEFAULT_RETRY_ATTEMPTS => {
                    attempts += 1;
                    let attempt = u64::from(attempts);
                    obs.emit(|| Event::RetryBackoff { attempt });
                }
                Err(e) => break e,
            }
        };
        let degraded = DegradedState {
            reason: DegradedReason::StoreIo,
            op,
            attempts,
            detail: err.to_string(),
        };
        let mut state = self.state.lock();
        state.obs.emit(|| Event::DegradedTransition {
            state: degraded.clone(),
        });
        state.degraded = Some(degraded);
        drop(state);
        self.degraded.store(true, Ordering::Release);
        Err(err)
    }
}

/// What [`TieredEngine::pacer_stats`] reports: nothing paces the worker's
/// writes, so it is always the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacerStats {
    /// Writes that waited for I/O budget.
    pub waits: u64,
}

/// Counters reported when the engine is finished — a view over the kernel's
/// [`Metrics`] plus the final table contents.
#[derive(Debug, Clone, Default)]
pub struct TieredReport {
    /// Points the user wrote.
    pub user_points: u64,
    /// Points physically written (L0 flushes + run rewrites).
    pub disk_points_written: u64,
    /// L0→run merges that rewrote part of the run.
    pub compactions: u64,
    /// Tables remaining in the run at shutdown.
    pub run_tables: usize,
    /// All stored points, sorted by generation time (for verification).
    pub points: Vec<DataPoint>,
}

impl TieredReport {
    /// Overall write amplification (the shared §I-B definition).
    pub fn write_amplification(&self) -> f64 {
        crate::metrics::write_amplification(
            self.disk_points_written,
            self.user_points,
        )
    }
}

/// State shared between the writer, the worker, and queries: the versioned
/// table levels, the unified metrics, the (optional) manifest that mirrors
/// them and what waits for the next horizon.
struct TierState {
    version: Version,
    metrics: Metrics,
    manifest: Option<Manifest>,
    /// What the plans since the last horizon left to the next one.
    outbox: Outbox,
    /// The flush ranges a horizon made durable since
    /// [`Background::progress`] last asked.
    retired: Vec<TimeRange>,
    /// Why the engine is degraded (read-only), once the worker has exhausted
    /// its retries on a store failure. `None` while healthy.
    degraded: Option<DegradedState>,
    /// `true` while an L0→run merge is between its snapshot and its
    /// commit, or a horizon between taking the outbox out and putting it
    /// back: both run their store I/O with the state lock released, and
    /// this flag keeps a merge from planning against the same snapshot in
    /// that window. Cleared on every exit path and signalled on
    /// `flush_done`.
    compacting: bool,
    /// Set by the worker together with the commit of a flush that leaves it
    /// a horizon or a merge to run, until both have finished: nothing is
    /// flushing, yet the worker is not idle.
    busy: bool,
    /// The deepest backlog — L0 tables plus flushing batches — noted at a
    /// hand-off or a flush commit.
    max_depth: usize,
    /// Worker-side event sink (shared with the writer's handle).
    obs: ObserverHandle,
}

/// A horizon taken out of [`TierState`]: the outbox, the manifest it
/// records in and a snapshot of the version.
type Claimed = (Outbox, Option<Manifest>, Version);

impl TierState {
    /// The backlog — L0 tables plus flushing batches — noted into
    /// `max_depth`.
    fn note_depth(&mut self) -> usize {
        let depth = self.version.l0().len() + self.version.flushing().len();
        self.max_depth = self.max_depth.max(depth);
        depth
    }

    /// Claims the horizon when one is due under a pool of `budget` points
    /// — with `None`, whenever anything waits for one — and no merge or
    /// horizon is in flight: raises `compacting` and takes the outbox and
    /// the manifest out, for [`horizon`] to run with the lock released.
    fn claim(&mut self, budget: Option<usize>) -> Option<Claimed> {
        let due = budget
            .map_or(!self.outbox.is_empty(), |budget| self.outbox.due(budget));
        if !due || self.compacting {
            return None;
        }
        self.compacting = true;
        let outbox = std::mem::take(&mut self.outbox);
        Some((outbox, self.manifest.take(), self.version.clone()))
    }
}

/// Runs the horizon `claimed` ([`compaction::horizon`]) with the state
/// lock released — no plan commits meanwhile: merges wait on
/// `compacting`, and only the worker flushes — then, under the lock again,
/// puts the outbox and the manifest back, clears the flag and leaves the
/// flush ranges the horizon made durable for [`Background::progress`]. A
/// failed attempt leaves the outbox to the retry ([`Shared::retry`]),
/// which claims it again; with the attempts spent the engine degrades as
/// on a failed flush write.
fn horizon(
    shared: &Shared,
    store: &dyn TableStore,
    obs: &ObserverHandle,
    claimed: Claimed,
) -> Result<()> {
    let mut claimed = Some(claimed);
    shared.retry(obs, DegradedOp::FlushWrite, || {
        let claimed =
            claimed.take().or_else(|| shared.state.lock().claim(None));
        let Some((mut outbox, mut manifest, version)) = claimed else {
            return Ok(());
        };
        let mut share = Share {
            series: None,
            outbox: &mut outbox,
            version: &version,
        };
        let shares = std::slice::from_mut(&mut share);
        let durable = compaction::horizon(store, shares, manifest.as_mut());
        let mut state = shared.state.lock();
        debug_assert!(state.outbox.is_empty(), "a plan committed meanwhile");
        state.outbox = outbox;
        state.manifest = manifest;
        state.compacting = false;
        let durable = durable.map(|flushed| {
            state.retired.extend(flushed.into_iter().flatten());
        });
        drop(state);
        shared.flush_done.notify_all();
        durable
    })
}

/// The generation-time range of a non-empty batch.
fn span(batch: &[DataPoint]) -> Option<TimeRange> {
    Some(TimeRange::new(
        batch.first()?.gen_time,
        batch.last()?.gen_time,
    ))
}

/// Merges every L0 table plus the overlapping part of the run through the
/// shared compaction pipeline, holding the state lock only around the
/// snapshot and the commit — never across table-store I/O:
///
/// 1. **Snapshot** (locked): wait out any in-flight merge or horizon via
///    [`TierState::compacting`], then capture the L0 and overlapping-run
///    metadata and raise the flag.
/// 2. **Write** (unlocked): take the inputs from `written` (or read them),
///    plan, and publish the merged outputs (`compaction::write_outputs`).
/// 3. **Commit** (locked): apply the version edit and do the metric
///    accounting ([`compaction::commit`]), hand the outputs and the
///    consumed tables to the outbox ([`Outbox::defer`]), clear the flag,
///    and signal `flush_done`.
/// 4. **Delete** (unlocked): the consumed tables no horizon synced.
///
/// A failure in phase 2 leaves the version untouched (plus orphan output
/// tables for recovery-time GC) and clears the flag, so a
/// [`Shared::retry`]-driven re-invocation restarts cleanly from a fresh
/// snapshot, reading from the store what the failed attempt took out of
/// `written`. A failure in phase 4 leaves the committed version correct and
/// the undeleted inputs as orphans.
fn compact_l0_once(
    shared: &Shared,
    store: &dyn TableStore,
    written: &Written,
    sstable_points: usize,
    obs: &ObserverHandle,
) -> Result<()> {
    // Phase 1: snapshot the merge inputs under the lock.
    let mut state = shared.state.lock();
    while state.compacting {
        let (guard, _timed_out) = shared
            .flush_done
            .wait_timeout(state, Duration::from_millis(10));
        state = guard;
    }
    let l0: Vec<SsTableMeta> = state.version.l0().to_vec();
    let Some(range) = l0.iter().map(|m| m.range).reduce(|a, b| a.union(&b))
    else {
        return Ok(()); // L0 empty: nothing to merge.
    };
    let overlapping = state.version.run().overlapping(range);
    state.compacting = true;
    drop(state);

    // Phase 2: read inputs and publish outputs with the lock released.
    // Priority: newest L0 table first, then older L0, then the run.
    let prepared = (|| {
        let mut fresh = Vec::with_capacity(l0.len());
        for meta in l0.iter().rev() {
            fresh.push(written.take_or_read(store, meta.id)?);
        }
        let mut inputs = Vec::with_capacity(overlapping.len());
        for meta in overlapping {
            inputs.push(RunInput {
                meta,
                points: written.take_or_read(store, meta.id)?,
            });
        }
        let plan = plan_merge(fresh, inputs, sstable_points, None);
        compaction::write_outputs(plan, store, written, obs)
    })();

    // Phase 3: commit under the lock; the flag clears on every path out,
    // and waiters wake once the lock is released.
    let mut state = shared.state.lock();
    state.compacting = false;
    shared.flush_done.notify_all();
    let doomed = prepared.and_then(|prepared| {
        let TierState {
            version,
            metrics,
            outbox,
            obs,
            ..
        } = &mut *state;
        let drain_l0_into_run = |removed, added| VersionEdit::Replace {
            removed,
            added,
            drain_l0: true,
        };
        compaction::commit(
            &prepared,
            drain_l0_into_run,
            version,
            metrics,
            obs,
        )?;
        let l0_ids = l0.iter().map(|meta| meta.id);
        let consumed: Vec<SsTableId> =
            prepared.plan.inputs.iter().copied().chain(l0_ids).collect();
        Ok(outbox.defer(&prepared.added, &consumed, store))
    })?;
    let version_snapshot =
        cfg!(debug_assertions).then(|| state.version.clone());
    drop(state);

    // Phase 4: delete the consumed tables nothing durable names; readers
    // resolving the committed version no longer reference them (a query
    // snapshot taken before the commit retries on the missing table).
    for id in doomed {
        store.delete(id)?;
    }
    // Debug builds cross-check the committed version against what the
    // store actually holds, using the snapshot taken at commit time.
    if let Some(version) = version_snapshot {
        invariants::check_version_against_store(&version, store)?;
    }
    Ok(())
}

/// The executor whose flushes and compactions run on a background thread.
pub struct Background {
    tx: Option<Sender<Batch>>,
    handle: Option<JoinHandle<Result<()>>>,
    shared: Arc<Shared>,
    /// The batches handed to the flush pipeline whose points no horizon has
    /// made durable yet, oldest first (see [`Executor::progress`]).
    in_log: Vec<Batch>,
    /// Registered batches not yet queued for the worker.
    registered: Vec<Batch>,
    /// Largest generation time handed to the flush pipeline — the in-order
    /// classification pivot (it is "on disk" from the writer's perspective).
    flushed_max: Option<Timestamp>,
    /// When set, `append` waits for each flush to reach L0 before returning
    /// (deterministic on-disk state for query experiments).
    sync_flush: bool,
    /// The backlog at the last hand-off: what a write stall reports.
    depth: usize,
}

/// The engine whose flushes and compactions run on a background thread.
pub type TieredEngine = Engine<Background>;

impl Background {
    /// Starts the compaction worker over `version`; its flushes leave their
    /// tables in `written` for the merges of L0 that consume them, and it
    /// runs a horizon whenever a plan of its own makes one due under
    /// `written`'s budget.
    pub(crate) fn start(
        kind: open::Background,
        sstable_points: usize,
        store: &Arc<dyn TableStore>,
        written: &Written,
        version: Version,
        obs: &ObserverHandle,
    ) -> Result<Self> {
        let flushed_max = version.last_stored_gen_time();
        let shared = Arc::new(Shared {
            state: Mutex::new(TierState {
                version,
                metrics: Metrics::default(),
                manifest: None,
                outbox: Outbox::default(),
                retired: Vec::new(),
                degraded: None,
                compacting: false,
                busy: false,
                max_depth: 0,
                obs: obs.clone(),
            }),
            flush_done: Condvar::new(),
            degraded: AtomicBool::new(false),
        });
        let (tx, rx) = bounded::<Batch>(CHANNEL_DEPTH);
        let worker = Arc::clone(&shared);
        let store = Arc::clone(store);
        let written = written.clone();
        let obs = obs.clone();
        let handle = std::thread::Builder::new()
            .name("seplsm-compaction".into())
            .spawn(move || -> Result<()> {
                // Wake any drain() waiter when this thread exits, even on
                // an error path, so waiters fall back to the liveness check.
                struct NotifyOnExit(Arc<Shared>);
                impl Drop for NotifyOnExit {
                    fn drop(&mut self) {
                        self.0.flush_done.notify_all();
                    }
                }
                let _exit_guard = NotifyOnExit(Arc::clone(&worker));
                let store = store.as_ref();
                // compact_l0_once only commits its version edit after every
                // output table is published, so a failed attempt leaves
                // state consistent (plus orphan tables) and a retry restarts
                // from scratch.
                let compact = || {
                    let merge = || {
                        compact_l0_once(
                            &worker,
                            store,
                            &written,
                            sstable_points,
                            &obs,
                        )
                    };
                    worker.retry(&obs, DegradedOp::Compaction, merge).is_ok()
                };
                let durable = |claimed: Option<Claimed>| {
                    claimed.is_none_or(|claimed| {
                        horizon(&worker, store, &obs, claimed).is_ok()
                    })
                };
                for batch in rx {
                    // A flush is the merge plan with no inputs. Plan,
                    // encode and publish outside the lock; only the commit
                    // holds it.
                    let publish = || {
                        let plan = plan_merge(
                            vec![batch.to_vec()],
                            Vec::new(),
                            sstable_points,
                            None,
                        );
                        compaction::write_outputs(plan, store, &written, &obs)
                    };
                    // Retries exhausted, the engine is degraded: the batch
                    // stays a registered flushing MemTable (still
                    // queryable, still WAL-covered); any tables a failed
                    // attempt did publish are orphans for recovery-time GC.
                    let Ok(prepared) =
                        worker.retry(&obs, DegradedOp::FlushWrite, publish)
                    else {
                        return Ok(());
                    };
                    let mut state = worker.state.lock();
                    let TierState {
                        version,
                        metrics,
                        outbox,
                        ..
                    } = &mut *state;
                    // The batch lands in L0 and stops being a flushing
                    // MemTable in one atomic edit, so queries see the data
                    // in exactly one place; its tables wait for a horizon.
                    compaction::commit(
                        &prepared,
                        |_, tables| VersionEdit::FlushToL0 {
                            batch: Arc::clone(&batch),
                            tables,
                        },
                        version,
                        metrics,
                        &obs,
                    )?;
                    outbox.defer(&prepared.added, &[], store);
                    outbox.flushed.extend(span(&batch));
                    outbox.points += batch.len();
                    state.note_depth();
                    // Claimed with the commit, so the horizon a flush makes
                    // due runs before anything else plans.
                    let claimed = state.claim(Some(written.budget()));
                    let backlog =
                        state.version.l0().len() >= L0_COMPACT_THRESHOLD;
                    state.busy = backlog || claimed.is_some();
                    drop(state);
                    worker.flush_done.notify_all();
                    let mut healthy = durable(claimed);
                    if healthy && backlog {
                        healthy = compact() && {
                            let claimed = worker
                                .state
                                .lock()
                                .claim(Some(written.budget()));
                            durable(claimed)
                        };
                    }
                    worker.state.lock().busy = false;
                    worker.flush_done.notify_all();
                    if !healthy {
                        return Ok(());
                    }
                }
                // A merge that fails here has degraded the engine.
                compact();
                Ok(())
            })
            .map_err(|e| Error::Io(std::io::Error::other(e)))?;
        Ok(Self {
            tx: Some(tx),
            handle: Some(handle),
            shared,
            in_log: Vec::new(),
            registered: Vec::new(),
            flushed_max,
            sync_flush: kind.sync_flush,
            depth: 0,
        })
    }

    /// The typed degraded (read-only) state, if the worker has entered it:
    /// its attempts ([`DEFAULT_RETRY_ATTEMPTS`]) at a store operation are
    /// exhausted. Writes then fail with
    /// [`Error::Degraded`] while queries keep serving the surviving state.
    fn degraded_state(&self) -> Option<DegradedState> {
        if !self.shared.degraded.load(Ordering::Acquire) {
            return None;
        }
        self.shared.state.lock().degraded.clone()
    }

    /// Queues a registered batch for the worker; `true` when the queue was
    /// full and the writer waited for the worker to take a batch: a write
    /// stall (`admission::stall`).
    fn enqueue(&self, batch: Batch, front: &mut Front) -> Result<bool> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(Error::Io(std::io::Error::other(
                "flush after engine finished",
            )));
        };
        // A dead worker almost always died into the degraded state: surface
        // that reason rather than a generic channel error.
        let gone = || {
            self.writable().err().unwrap_or_else(|| {
                Error::Io(std::io::Error::other("compaction worker terminated"))
            })
        };
        let batch = match tx.try_send(batch) {
            Ok(()) => return Ok(false),
            Err(TrySendError::Full(batch)) => batch,
            Err(TrySendError::Disconnected(_)) => return Err(gone()),
        };
        let (metrics, obs) = (&mut front.metrics, &front.obs);
        admission::stall(self.depth, metrics, obs, || tx.send(batch))
            .map_err(|_| gone())?;
        Ok(true)
    }

    /// Waits (best effort) for the worker to drain the flush queue.
    fn drain(&mut self) {
        self.wait_while(|state| !state.version.flushing().is_empty());
    }

    /// Parks on `flush_done` while `busy` holds and the worker lives.
    fn wait_while(&mut self, busy: impl Fn(&TierState) -> bool) {
        let mut state = self.shared.state.lock();
        while busy(&state) {
            if self.handle.as_ref().is_none_or(JoinHandle::is_finished) {
                // Worker gone (finished or crashed): nothing will ever
                // retire the remaining batches, so don't wait for them.
                return;
            }
            // The timeout only covers the unlucky interleaving where the
            // worker exits between the liveness check and the wait; the
            // worker signals after every batch, after every merge of its
            // own and on exit.
            let (guard, _timed_out) = self
                .shared
                .flush_done
                .wait_timeout(state, Duration::from_millis(100));
            state = guard;
        }
    }
}

impl Executor for Background {
    type Kind = open::Background;

    fn with_version<T>(&self, f: impl FnOnce(&Version) -> T) -> T {
        f(&self.shared.state.lock().version)
    }

    fn with_manifest<T>(
        &mut self,
        f: impl FnOnce(&mut Option<Manifest>, &Version) -> T,
    ) -> T {
        let mut state = self.shared.state.lock();
        let TierState {
            version, manifest, ..
        } = &mut *state;
        f(manifest, version)
    }

    fn writable(&self) -> Result<()> {
        self.degraded_state()
            .map_or(Ok(()), |state| Err(Error::Degraded(state.to_string())))
    }

    fn pivot(&self) -> Option<Timestamp> {
        self.flushed_max
    }

    fn admission_stats(&self, writer: &Metrics) -> AdmissionStats {
        AdmissionStats::of(writer, self.shared.state.lock().max_depth)
    }

    /// First half of a hand-off: `points` leave the buffers for a flushing
    /// batch of the version (still queryable, still covered by the log).
    /// The second half — [`dispatch`](Self::dispatch), queueing it for the
    /// worker — waits until the log has been told what has retired.
    fn hand_off(
        &mut self,
        _front: &mut Front,
        points: Vec<DataPoint>,
        _merging: bool,
    ) -> Result<()> {
        let Some(last) = points.last() else {
            return Ok(());
        };
        // No degraded check here: `points` already left the buffers, so
        // they must reach the flushing list (queryable, WAL-covered) even
        // if the worker died since `append` last looked; the failed
        // channel send in `enqueue` then reports the degraded state.
        self.flushed_max = self.flushed_max.max(Some(last.gen_time));
        let batch = Arc::new(points);
        // Register as a flushing MemTable *before* handing it to the worker
        // so it never becomes invisible to queries; the WAL keeps covering it
        // until a horizon has made its tables durable.
        let mut state = self.shared.state.lock();
        state
            .version
            .apply(&[VersionEdit::RegisterFlushing(Arc::clone(&batch))])?;
        self.depth = state.note_depth();
        drop(state);
        self.in_log.push(Arc::clone(&batch));
        self.registered.push(batch);
        Ok(())
    }

    /// Second half of a hand-off: queues every registered batch for the
    /// worker — `Stalled` when one found the queue full and waited — and,
    /// on a `sync_flush` engine, waits for them to reach L0.
    fn dispatch(&mut self, front: &mut Front) -> Result<AdmissionOutcome> {
        let mut outcome = AdmissionOutcome::Admitted;
        for batch in std::mem::take(&mut self.registered) {
            if self.enqueue(batch, front)? {
                outcome = AdmissionOutcome::Stalled;
            }
        }
        if self.sync_flush {
            self.drain();
        }
        Ok(outcome)
    }

    /// A forced horizon, once the worker has settled; the due ones the
    /// worker runs itself, after the plans that make them due.
    fn commit(&mut self, front: &Front, force: bool) -> Result<()> {
        if !force {
            return Ok(());
        }
        self.settle();
        let claimed = self.shared.state.lock().claim(None);
        claimed.map_or(Ok(()), |claimed| {
            horizon(&self.shared, front.store.as_ref(), &front.obs, claimed)
        })
    }

    /// A batch has retired once a horizon has recorded the tables that hold
    /// its points; every other one is volatile, whether flushing or in L0.
    fn progress(&mut self) -> (Vec<TimeRange>, &[Batch]) {
        let retired = std::mem::take(&mut self.shared.state.lock().retired);
        for range in &retired {
            let durable =
                self.in_log.iter().position(|b| span(b) == Some(*range));
            if let Some(at) = durable {
                self.in_log.remove(at);
            }
        }
        (retired, &self.in_log)
    }

    fn disk_points_written(&self, _writer: &Metrics) -> u64 {
        self.shared.state.lock().metrics.disk_points_written
    }

    /// Lets the flushes in the pipeline land, and the horizon and the merge
    /// the last of them may have made due: a merge's outputs are published
    /// before they are committed, and a sweep in between would take them
    /// for orphans.
    fn settle(&mut self) {
        self.wait_while(|state| {
            !state.version.flushing().is_empty() || state.busy
        });
    }

    /// Closes the queue and joins the worker, which merges what is left of
    /// L0 into the run on its way out.
    fn rest(&mut self) -> Result<()> {
        drop(self.tx.take());
        let Some(handle) = self.handle.take() else {
            return Err(Error::Io(std::io::Error::other(
                "engine already finished",
            )));
        };
        handle.join().map_err(|_| {
            Error::Io(std::io::Error::other("worker panicked"))
        })??;
        // The worker reports retry exhaustion through the degraded state
        // rather than its join result: surface it as the typed error.
        self.writable()
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Engine<Background> {
    /// The typed degraded (read-only) state, if the engine is in it.
    pub fn degraded_state(&self) -> Option<DegradedState> {
        self.exec.degraded_state()
    }

    /// Snapshot of the unified kernel metrics: the worker's counters plus
    /// the writer's (user points, WA snapshots).
    pub fn metrics(&self) -> Metrics {
        let mut metrics = self.exec.shared.state.lock().metrics.clone();
        metrics.absorb(&self.front.metrics);
        metrics
    }

    /// Always [`PacerStats::default`]: nothing paces the worker's writes.
    pub fn pacer_stats(&self) -> PacerStats {
        PacerStats::default()
    }

    /// Snapshot of the on-disk table layout: `(level, range, points)` per
    /// table, L0 first (flush order), then the run. Used by the Fig. 15
    /// visualisation of SSTable spans.
    pub fn table_layout(&self) -> Vec<(&'static str, TimeRange, u32)> {
        self.exec.with_version(|version| {
            let l0 = version.l0().iter();
            let run = version.run().tables().iter();
            l0.map(|m| ("L0", m.range, m.count))
                .chain(run.map(|m| ("run", m.range, m.count)))
                .collect()
        })
    }

    /// Waits (best effort) for the background worker to drain the flush
    /// queue, leaving whatever L0 backlog naturally remains — the state the
    /// paper's historical-query experiment measures.
    pub fn drain(&mut self) {
        self.exec.drain();
    }

    /// Blocks until the flush queue is drained *and* L0 is merged into the
    /// run (for deterministic post-ingest queries).
    ///
    /// # Errors
    /// Storage failures from the forced compaction.
    pub fn quiesce(&mut self) -> Result<()> {
        self.exec.drain();
        compact_l0_once(
            &self.exec.shared,
            self.front.store.as_ref(),
            &self.front.written,
            self.front.config.sstable_points,
            &self.front.obs,
        )
    }

    /// Flushes buffers, stops the worker, and returns the final report.
    ///
    /// # Errors
    /// Worker-side storage failures.
    pub fn finish(mut self) -> Result<TieredReport> {
        self.rest()?;
        // The worker is joined, but the discipline is uniform: no guard
        // across store I/O.
        let run_metas = self
            .exec
            .with_version(|version| version.run().tables().to_vec());
        let mut sources = Vec::with_capacity(run_metas.len());
        for meta in &run_metas {
            sources.push(self.front.store.get(meta.id)?);
        }
        let metrics = self.metrics();
        Ok(TieredReport {
            user_points: metrics.user_points,
            disk_points_written: metrics.disk_points_written,
            compactions: metrics.compactions,
            run_tables: run_metas.len(),
            points: merge_sorted(sources),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests as shared;
    use crate::engine::EngineConfig;
    use crate::fault::{Fault, FaultPlan, FaultStore};
    use crate::obs::{Observer, RingBufferSink};
    use crate::open::TieredOpenOptions as OpenOptions;
    use crate::sstable::SsTableId;
    use crate::store::MemStore;
    use seplsm_types::Policy;

    fn tiny() -> EngineConfig {
        EngineConfig::new(Policy::conventional(4)).with_sstable_points(4)
    }

    #[test]
    fn preserves_all_points_conventional() {
        shared::check_no_loss_conventional::<Background>();
    }

    #[test]
    fn preserves_all_points_separation_with_stragglers() {
        shared::check_no_loss_separation_with_stragglers::<Background>();
    }

    #[test]
    fn duplicate_timestamps_keep_latest_write() {
        shared::check_duplicate_gen_time_keeps_latest_write::<Background>();
    }

    #[test]
    fn queries_see_buffered_flushed_and_compacted_data() {
        shared::check_queries_see_every_source::<Background>();
    }

    #[test]
    fn cached_tiered_engine_invalidates_and_serves_warm_queries() {
        shared::check_cached_reads_match_uncached::<Background>();
    }

    #[test]
    fn straggler_widens_pi_c_files_but_not_pi_s() {
        // The Fig. 15 mechanism: one straggler inside a pi_c flush gives the
        // whole file a huge range, so recent-window queries must read it.
        // Synchronous flushes and fewer L0 files than the worker's merge
        // threshold pin the layout: pi_c holds one 64-point file [5, 630],
        // pi_s three narrow 32-point ones, and no merge ever starts.
        let run = |policy: Policy| -> u64 {
            let mut e = OpenOptions::new(
                EngineConfig::new(policy).with_sstable_points(64),
            )
            .sync_flush()
            .open()
            .expect("engine");
            for i in 1..=100i64 {
                e.append(DataPoint::new(i * 10, i * 10, 0.0))
                    .expect("append");
                if i == 50 {
                    e.append(DataPoint::new(5, i * 10, -1.0))
                        .expect("straggler");
                }
            }
            let (_, stats) = e.query(TimeRange::new(500, 640)).expect("query");
            stats.disk_points_scanned
        };
        let scanned_c = run(Policy::conventional(64));
        let scanned_s = run(Policy::separation(64, 32).expect("policy"));
        assert!(
            scanned_c > scanned_s,
            "pi_c should scan more: c={scanned_c}, s={scanned_s}"
        );
    }

    #[test]
    fn in_flight_flushes_stay_queryable() {
        // A batch sitting in the flush queue must still be visible: the
        // writer registers it as a flushing MemTable before sending.
        let mut e = shared::open::<Background>(
            EngineConfig::new(Policy::conventional(8)).with_sstable_points(8),
        );
        for i in 0..64i64 {
            e.append(DataPoint::new(i * 10, i * 10, i as f64))
                .expect("append");
        }
        // Query immediately, racing the worker: every point must be found.
        let (pts, _) = e.query(TimeRange::new(0, 630)).expect("query");
        assert_eq!(pts.len(), 64, "points lost while flushing");
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.value, i as f64);
        }
    }

    #[test]
    fn empty_engine_finishes_cleanly() {
        let e = shared::open::<Background>(EngineConfig::new(
            Policy::conventional(8),
        ));
        let report = e.finish().expect("finish");
        assert_eq!(report.user_points, 0);
        assert!(report.points.is_empty());
        assert_eq!(report.write_amplification(), 0.0);
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let mut e = shared::open::<Background>(tiny());
        for i in 0..100i64 {
            e.append(DataPoint::new(i, i, 0.0)).expect("append");
        }
        drop(e);
    }

    #[test]
    fn transient_store_failure_is_absorbed_by_retry() {
        // Op 2 is a flush-path store write; FailOnce injects a single
        // failure there and the worker's bounded retry must absorb it.
        let plan = FaultPlan::new(7, Fault::FailOnce { at: 2 });
        let store =
            Arc::new(FaultStore::new(MemStore::new(), Arc::clone(&plan)));
        let mut e = OpenOptions::new(tiny())
            .store(store)
            .sync_flush()
            .open()
            .expect("engine");
        for i in 0..32i64 {
            e.append(DataPoint::new(i, i, i as f64)).expect("append");
        }
        assert!(e.degraded_state().is_none());
        let report = e.finish().expect("one transient failure is retried");
        assert_eq!(report.points.len(), 32);
        assert!(plan.injected_failures() >= 1, "fault must have fired");
    }

    #[test]
    fn persistent_store_failure_degrades_to_read_only() {
        let plan = FaultPlan::new(7, Fault::FailPersistent { from: 0 });
        let store = Arc::new(FaultStore::new(MemStore::new(), plan));
        let mut e = OpenOptions::new(tiny())
            .store(store)
            .open()
            .expect("engine");
        let mut appended = 0i64;
        let degraded = loop {
            if appended >= 10_000 {
                break false;
            }
            match e.append(DataPoint::new(appended, appended, 0.0)) {
                Ok(_) => appended += 1,
                Err(Error::Degraded(reason)) => {
                    assert!(!reason.is_empty());
                    break true;
                }
                Err(other) => panic!("expected Degraded, got {other}"),
            }
        };
        assert!(degraded, "persistent faults must degrade the engine");
        assert!(e.degraded_state().is_some());
        // A policy switch is refused before it touches anything.
        let before = (e.policy(), e.buffered_points());
        assert!(matches!(
            e.set_policy(Policy::conventional(1)),
            Err(Error::Degraded(_))
        ));
        assert_eq!((e.policy(), e.buffered_points()), before);
        // Reads still serve the surviving (buffered + flushing) data. The
        // point whose append *failed* may legally survive too: if it
        // triggered the hand-off, the batch was registered as a flushing
        // MemTable before the dead worker was discovered (the same
        // may-resurrect-the-last-attempted-point window the crash-schedule
        // contract allows).
        let (pts, _) =
            e.query(TimeRange::new(0, 20_000)).expect("degraded query");
        assert!(
            pts.len() == appended as usize
                || pts.len() == appended as usize + 1,
            "no accepted point lost (appended {appended}, saw {})",
            pts.len()
        );
        assert!(matches!(e.finish(), Err(Error::Degraded(_))));
    }

    #[test]
    fn a_hand_off_racing_degradation_keeps_its_points_queryable() {
        let mut e = shared::open::<Background>(tiny());
        for i in 0..3i64 {
            e.append(DataPoint::new(i, i, 0.0)).expect("append");
        }
        // The worker degrades after `append` checked and before the sealed
        // MemTable is handed off: the points are out of the buffers by then.
        e.exec.shared.degraded.store(true, Ordering::Release);
        let _ = e.rest();
        e.exec.shared.degraded.store(false, Ordering::Release);
        assert_eq!(e.buffered_points(), 0);
        let (pts, _) = e.query(TimeRange::new(0, 10)).expect("query");
        assert_eq!(pts.len(), 3, "sealed points dropped on the floor");
    }

    /// A store whose writes wait while the gate is shut: holds the worker
    /// still, so hand-offs pile up in the flush queue behind it.
    struct GatedStore {
        inner: MemStore,
        shut: Mutex<bool>,
        opened: Condvar,
    }

    impl GatedStore {
        fn set_shut(&self, shut: bool) {
            *self.shut.lock() = shut;
            self.opened.notify_all();
        }
    }

    impl TableStore for GatedStore {
        fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
            let mut shut = self.shut.lock();
            while *shut {
                shut = self.opened.wait(shut);
            }
            drop(shut);
            self.inner.put(points)
        }
        fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
            self.inner.get(id)
        }
        fn delete(&self, id: SsTableId) -> Result<()> {
            self.inner.delete(id)
        }
        fn list(&self) -> Result<Vec<SsTableId>> {
            self.inner.list()
        }
    }

    /// What a burst of `points` appends on an asynchronous `tiny()` engine
    /// left behind, every point in `finish`'s report: each append's outcome,
    /// the events, the admission stats and the metrics. With `gated`, the worker is held
    /// at its first write until a `WriteStallBegin` shows (or ten seconds
    /// pass without one).
    struct Burst {
        outcomes: Vec<AdmissionOutcome>,
        events: Vec<Event>,
        stats: AdmissionStats,
        metrics: Metrics,
    }

    fn burst(points: i64, gated: bool) -> Burst {
        let store = Arc::new(GatedStore {
            inner: MemStore::new(),
            shut: Mutex::new(gated),
            opened: Condvar::new(),
        });
        let ring = RingBufferSink::new(1 << 16);
        let mut e = OpenOptions::new(tiny())
            .store(Arc::clone(&store) as Arc<dyn TableStore>)
            .observer(Arc::clone(&ring) as Arc<dyn Observer>)
            .open()
            .expect("open");
        let opener = gated.then(|| {
            let (store, ring) = (Arc::clone(&store), Arc::clone(&ring));
            std::thread::spawn(move || {
                let stalled =
                    |e: &Event| matches!(e, Event::WriteStallBegin { .. });
                for _ in 0..10_000 {
                    if ring.count(stalled) > 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                store.set_shut(false);
            })
        });
        let outcomes = (0..points)
            .map(|i| e.append(DataPoint::new(i, i, 0.0)).expect("append"))
            .collect();
        let (stats, metrics) = (e.admission_stats(), e.metrics());
        if let Some(opener) = opener {
            opener.join().expect("opener");
        }
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), points as usize, "a point was lost");
        Burst {
            outcomes,
            events: ring.events(),
            stats,
            metrics,
        }
    }

    #[test]
    fn a_full_flush_queue_is_a_write_stall() {
        // Four-point MemTables: the tenth seal finds the worker holding the
        // first and the queue full of the next eight.
        let b = burst(64, true);
        let depths: Vec<u64> = b
            .events
            .iter()
            .filter_map(|e| match e {
                Event::WriteStallBegin { depth } => Some(*depth),
                _ => None,
            })
            .collect();
        let ticks: u64 = b
            .events
            .iter()
            .filter_map(|e| match e {
                Event::WriteStallEnd { ticks } => Some(*ticks),
                _ => None,
            })
            .sum();
        let ends = b
            .events
            .iter()
            .filter(|e| matches!(e, Event::WriteStallEnd { .. }))
            .count();
        let stalled = b
            .outcomes
            .iter()
            .filter(|o| **o == AdmissionOutcome::Stalled)
            .count();
        let stalls = depths.len() as u64;
        assert!(stalls >= 1, "the held worker never stalled a hand-off");
        assert_eq!(ends as u64, stalls);
        assert_eq!(b.metrics.write_stalls, stalls);
        assert_eq!(b.stats.stalls, stalls);
        assert_eq!(stalled as u64, stalls, "one seal per append");
        assert_eq!(b.metrics.stall_ticks, ticks);
        assert_eq!(b.stats.stall_ticks, ticks);
        assert_eq!(b.stats.admitted, 64);
        // A full queue holds eight batches, all flushing, plus the one
        // being handed off.
        assert!(
            depths.iter().all(|&d| d > CHANNEL_DEPTH as u64),
            "{depths:?}"
        );
    }

    #[test]
    fn the_backlog_stays_within_its_structural_bound() {
        // DESIGN §14: L0 stays below the merge threshold while the worker
        // flushes a batch, and holds at most that flush's tables more once
        // it commits. The queue and the batch being handed off are flushing
        // either way — plus, in the first case, the worker's batch, which
        // its one table or more outweighs. A held worker fills the queue.
        let config = tiny();
        let flush_tables = config
            .policy
            .total_capacity()
            .div_ceil(config.sstable_points);
        let bound = L0_COMPACT_THRESHOLD - 1 + flush_tables + CHANNEL_DEPTH + 1;
        for gated in [false, true] {
            let b = burst(4_000, gated);
            assert!(
                b.stats.max_depth <= bound,
                "gated {gated}: {} > {bound}",
                b.stats.max_depth
            );
            if gated {
                assert!(b.stats.max_depth > CHANNEL_DEPTH, "{:?}", b.stats);
            }
        }
    }

    #[test]
    fn a_transient_failure_is_retried_at_once() {
        let plan = FaultPlan::new(7, Fault::FailOnce { at: 2 });
        let store =
            Arc::new(FaultStore::new(MemStore::new(), Arc::clone(&plan)));
        let ring = RingBufferSink::new(1 << 12);
        let mut e = OpenOptions::new(tiny())
            .store(store)
            .observer(Arc::clone(&ring) as Arc<dyn Observer>)
            .sync_flush()
            .open()
            .expect("open");
        for i in 0..32i64 {
            e.append(DataPoint::new(i, i, i as f64)).expect("append");
        }
        let retries: Vec<Event> = ring
            .events()
            .into_iter()
            .filter(|ev| matches!(ev, Event::RetryBackoff { .. }))
            .collect();
        assert_eq!(retries, vec![Event::RetryBackoff { attempt: 2 }]);
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), 32);
        assert_eq!(plan.injected_failures(), 1);
    }

    #[test]
    fn degraded_state_counts_the_attempts_made() {
        // A store that refuses every table as corrupt: not the transient
        // class, so the first attempt is the last.
        struct CorruptStore(MemStore);
        impl TableStore for CorruptStore {
            fn put(&self, _: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
                Err(Error::Corrupt("refused".into()))
            }
            fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
                self.0.get(id)
            }
            fn delete(&self, id: SsTableId) -> Result<()> {
                self.0.delete(id)
            }
            fn list(&self) -> Result<Vec<SsTableId>> {
                self.0.list()
            }
        }
        let degrade = |store: Arc<dyn TableStore>| {
            let mut e = OpenOptions::new(tiny())
                .store(store)
                .sync_flush()
                .open()
                .expect("open");
            for i in 0..8i64 {
                let _ = e.append(DataPoint::new(i, i, 0.0));
            }
            e.degraded_state().expect("degraded")
        };
        let corrupt = degrade(Arc::new(CorruptStore(MemStore::new())));
        assert_eq!((corrupt.op, corrupt.attempts), (DegradedOp::FlushWrite, 1));
        let plan = FaultPlan::new(7, Fault::FailPersistent { from: 0 });
        let io = degrade(Arc::new(FaultStore::new(MemStore::new(), plan)));
        assert_eq!(
            (io.op, io.attempts),
            (DegradedOp::FlushWrite, DEFAULT_RETRY_ATTEMPTS)
        );
    }

    #[test]
    fn a_log_without_a_manifest_or_a_manifest_without_a_log_is_refused() {
        shared::check_half_durable_opens_are_refused::<Background>();
    }

    #[test]
    fn set_policy_reroutes_buffered_points() {
        shared::check_set_policy_reroutes_buffered_points::<Background>();
    }

    #[test]
    fn a_shrinking_set_policy_on_a_sync_flush_engine_returns_drained() {
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::conventional(64)).with_sstable_points(8),
        )
        .sync_flush()
        .open()
        .expect("engine");
        for i in 0..40i64 {
            e.append(DataPoint::new(i * 10, i * 10, 0.0))
                .expect("append");
        }
        e.set_policy(Policy::conventional(8)).expect("shrink");
        assert_eq!(e.buffered_points(), 0, "five MemTables sealed");
        assert!(e.exec.with_version(|v| v.flushing().is_empty()));
    }

    #[test]
    fn wa_snapshots_are_recorded() {
        let e = shared::check_wa_snapshots_are_recorded::<Background>();
        assert_eq!(e.metrics().wa_snapshots, e.front.metrics.wa_snapshots);
    }
}
