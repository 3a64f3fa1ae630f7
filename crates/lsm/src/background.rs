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
//! # One thread compacts
//!
//! While the worker lives no other thread plans a merge or runs a horizon.
//! Its queue carries jobs, taken in the order sent: flush batches, and the
//! calls the writer waits for — [`TieredEngine::quiesce`]'s merge, a
//! recovery's forced horizon, and a barrier, sent before an orphan sweep
//! and after every hand-off of a `sync_flush` engine. The writer waits for
//! the worker only through that queue: for room in it (a write stall) or
//! for the answer to a call. So a `sync_flush` append returns with the
//! worker idle, its flushes and the horizons and merges they made due
//! done. Once the worker is joined at rest, the writer runs the last
//! horizon itself.
//!
//! # Write stalls and failures
//!
//! The flush queue is the one bound on the backlog: a hand-off that finds
//! its `CHANNEL_DEPTH` slots full blocks until the worker takes a job — a
//! write stall, witnessed by `admission::stall` and reported by the append
//! whose hand-off waited. A call is a plain blocking send, not a stall, and
//! nothing else is sent until it is answered. Since the worker merges all
//! of L0 after every flush that leaves it `L0_COMPACT_THRESHOLD` deep, that
//! bounds L0 as well (DESIGN §14). Nothing paces the worker's writes. A
//! store operation failing with [`Error::Io`] is retried at once, up to
//! [`DEFAULT_RETRY_ATTEMPTS`] attempts; when they are spent, or on any
//! other error, the engine degrades to read-only and the worker exits: a
//! send or a call then fails with the degraded error.
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

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
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

/// Where the worker answers a call.
type Reply = Sender<Result<()>>;

/// What the writer queues for the worker, handled in the order sent: a
/// flush, or a call the writer waits for the answer to.
enum Job {
    /// A sealed MemTable, registered as a flushing batch, to store in L0.
    Flush(Batch),
    /// One [`Worker::compact_l0_once`] attempt: no retry, no degrade and
    /// no horizon after it ([`TieredEngine::quiesce`]).
    Merge(Reply),
    /// A horizon over whatever waits for one, with the worker's retries.
    Horizon(Reply),
    /// Nothing: answered once everything sent before it is done.
    Barrier(Reply),
}

/// Attempts the worker makes at a store operation before it degrades.
pub const DEFAULT_RETRY_ATTEMPTS: u32 = 3;

/// What the writer, the worker and queries share.
struct Shared {
    state: Mutex<TierState>,
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

    /// Runs the horizon ([`compaction::horizon`]) when one is due under a
    /// pool of `budget` points — with `None`, whenever anything waits for
    /// one. The outbox and the manifest are taken out of [`TierState`] and
    /// put back around it, so the store I/O runs with the state lock
    /// released; no plan commits meanwhile, since only the thread running
    /// this plans. The flush ranges it made durable are left for
    /// [`Background::progress`]. A failed attempt is retried over the same
    /// outbox ([`retry`](Self::retry)); with the attempts spent the engine
    /// degrades as on a failed flush write.
    fn horizon(
        &self,
        store: &dyn TableStore,
        obs: &ObserverHandle,
        budget: Option<usize>,
    ) -> Result<()> {
        let mut state = self.state.lock();
        let due = budget.map_or(!state.outbox.is_empty(), |budget| {
            state.outbox.due(budget)
        });
        if !due {
            return Ok(());
        }
        let mut outbox = std::mem::take(&mut state.outbox);
        let mut manifest = state.manifest.take();
        let version = state.version.clone();
        drop(state);
        let durable = self.retry(obs, DegradedOp::FlushWrite, || {
            let mut share = Share {
                series: None,
                outbox: &mut outbox,
                version: &version,
            };
            let shares = std::slice::from_mut(&mut share);
            compaction::horizon(store, shares, manifest.as_mut())
        });
        let mut state = self.state.lock();
        debug_assert!(state.outbox.is_empty(), "a plan committed meanwhile");
        state.outbox = outbox;
        state.manifest = manifest;
        durable
            .map(|flushed| state.retired.extend(flushed.into_iter().flatten()))
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
    /// The deepest backlog — L0 tables plus flushing batches — noted at a
    /// hand-off or a flush commit.
    max_depth: usize,
    /// Worker-side event sink (shared with the writer's handle).
    obs: ObserverHandle,
}

impl TierState {
    /// The backlog — L0 tables plus flushing batches — noted into
    /// `max_depth`.
    fn note_depth(&mut self) -> usize {
        let depth = self.version.l0().len() + self.version.flushing().len();
        self.max_depth = self.max_depth.max(depth);
        depth
    }
}

/// The generation-time range of a non-empty batch.
fn span(batch: &[DataPoint]) -> Option<TimeRange> {
    Some(TimeRange::new(
        batch.first()?.gen_time,
        batch.last()?.gen_time,
    ))
}

/// The compaction worker: while it lives, the one thread that plans a
/// flush or a merge or runs a horizon.
struct Worker {
    shared: Arc<Shared>,
    store: Arc<dyn TableStore>,
    written: Written,
    sstable_points: usize,
    obs: ObserverHandle,
}

impl Worker {
    /// Handles the jobs in the order they were sent until the writer
    /// closes the queue — then merges what is left of L0 — or the engine
    /// degrades.
    fn run(self, jobs: Receiver<Job>) -> Result<()> {
        let store = self.store.as_ref();
        let forced = || self.shared.horizon(store, &self.obs, None);
        for job in jobs {
            match job {
                Job::Flush(batch) => self.flush(&batch)?,
                Job::Merge(reply) => drop(reply.send(self.compact_l0_once())),
                Job::Horizon(reply) => drop(reply.send(forced())),
                Job::Barrier(reply) => drop(reply.send(Ok(()))),
            }
            // Every failure but a merge call's has degraded the engine.
            if self.shared.degraded.load(Ordering::Acquire) {
                return Ok(());
            }
        }
        // A merge that fails here has degraded the engine.
        let _ = self.merge();
        Ok(())
    }

    /// Stores `batch` in L0, then runs the horizon that made due and, once
    /// L0 is `L0_COMPACT_THRESHOLD` deep, the merge and the horizon that
    /// made due. Fails only when the commit does: a failed store operation
    /// degrades the engine.
    fn flush(&self, batch: &Batch) -> Result<()> {
        let store = self.store.as_ref();
        // A flush is the merge plan with no inputs. Plan, encode and
        // publish outside the lock; only the commit holds it.
        let publish = || {
            let plan = plan_merge(
                vec![batch.to_vec()],
                Vec::new(),
                self.sstable_points,
                None,
            );
            compaction::write_outputs(plan, store, &self.written, &self.obs)
        };
        // Retries exhausted, the engine is degraded: the batch stays a
        // registered flushing MemTable (still queryable, still WAL-covered);
        // any tables a failed attempt did publish are orphans for
        // recovery-time GC.
        let shared = &self.shared;
        let op = DegradedOp::FlushWrite;
        let Ok(prepared) = shared.retry(&self.obs, op, publish) else {
            return Ok(());
        };
        let mut state = shared.state.lock();
        let TierState {
            version,
            metrics,
            outbox,
            ..
        } = &mut *state;
        // The batch lands in L0 and stops being a flushing MemTable in one
        // atomic edit, so queries see the data in exactly one place; its
        // tables wait for a horizon.
        compaction::commit(
            &prepared,
            |_, tables| VersionEdit::FlushToL0 {
                batch: Arc::clone(batch),
                tables,
            },
            version,
            metrics,
            &self.obs,
        )?;
        outbox.defer(&prepared.added, &[], store);
        outbox.flushed.extend(span(batch));
        outbox.points += batch.len();
        state.note_depth();
        let backlog = state.version.l0().len() >= L0_COMPACT_THRESHOLD;
        drop(state);
        let budget = Some(self.written.budget());
        let horizon = || shared.horizon(store, &self.obs, budget);
        let _ = horizon().and_then(|()| {
            if !backlog {
                return Ok(());
            }
            self.merge()?;
            horizon()
        });
        Ok(())
    }

    /// [`compact_l0_once`](Self::compact_l0_once), retried as a store
    /// operation ([`Shared::retry`]).
    fn merge(&self) -> Result<()> {
        let op = DegradedOp::Compaction;
        self.shared.retry(&self.obs, op, || self.compact_l0_once())
    }

    /// Merges every L0 table plus the overlapping part of the run through
    /// the shared compaction pipeline, holding the state lock only around
    /// the snapshot and the commit — never across table-store I/O. Only the
    /// worker adds to L0 or the run, so the snapshot holds at the commit:
    ///
    /// 1. **Snapshot** (locked): the L0 and overlapping-run metadata.
    /// 2. **Write** (unlocked): take the inputs from `written` (or read
    ///    them), plan, and publish the outputs (`compaction::write_outputs`).
    /// 3. **Commit** (locked): apply the version edit and do the metric
    ///    accounting ([`compaction::commit`]) and hand the outputs and the
    ///    consumed tables to the outbox ([`Outbox::defer`]).
    /// 4. **Delete** (unlocked): the consumed tables no horizon synced.
    ///
    /// A failure in phase 2 leaves the version untouched (plus orphan output
    /// tables for recovery-time GC), so a retry ([`merge`](Self::merge))
    /// restarts cleanly from a fresh snapshot, reading from the store what
    /// the failed attempt took out of `written`. A failure in phase 4 leaves
    /// the committed version correct and the undeleted inputs as orphans.
    fn compact_l0_once(&self) -> Result<()> {
        let (store, written) = (self.store.as_ref(), &self.written);
        // Phase 1: snapshot the merge inputs under the lock.
        let state = self.shared.state.lock();
        let l0: Vec<SsTableMeta> = state.version.l0().to_vec();
        let Some(range) = l0.iter().map(|m| m.range).reduce(|a, b| a.union(&b))
        else {
            return Ok(()); // L0 empty: nothing to merge.
        };
        let overlapping = state.version.run().overlapping(range);
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
            let plan = plan_merge(fresh, inputs, self.sstable_points, None);
            compaction::write_outputs(plan, store, written, &self.obs)
        })();

        // Phase 3: commit under the lock.
        let mut state = self.shared.state.lock();
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
}

/// The executor whose flushes and compactions run on a background thread.
pub struct Background {
    tx: Option<Sender<Job>>,
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
    /// When set, a hand-off waits behind a barrier call until the worker
    /// is idle (deterministic on-disk state for query experiments).
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
    /// `written`'s budget, and whenever it is called for one.
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
                max_depth: 0,
                obs: obs.clone(),
            }),
            degraded: AtomicBool::new(false),
        });
        let (tx, rx) = bounded::<Job>(CHANNEL_DEPTH);
        let worker = Worker {
            shared: Arc::clone(&shared),
            store: Arc::clone(store),
            written: written.clone(),
            sstable_points,
            obs: obs.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("seplsm-compaction".into())
            .spawn(move || worker.run(rx))
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

    /// What a send to a departed (or joined) worker reports: almost always
    /// it died into the degraded state, so that reason rather than a
    /// generic channel error.
    fn gone(&self) -> Error {
        self.writable().err().unwrap_or_else(|| {
            Error::Io(std::io::Error::other("compaction worker terminated"))
        })
    }

    /// Queues a registered batch for the worker; `true` when the queue was
    /// full and the writer waited for the worker to take a job: a write
    /// stall (`admission::stall`).
    fn enqueue(&self, batch: Batch, front: &mut Front) -> Result<bool> {
        let tx = self.tx.as_ref().ok_or_else(|| self.gone())?;
        let job = match tx.try_send(Job::Flush(batch)) {
            Ok(()) => return Ok(false),
            Err(TrySendError::Full(job)) => job,
            Err(TrySendError::Disconnected(_)) => return Err(self.gone()),
        };
        let (metrics, obs) = (&mut front.metrics, &front.obs);
        admission::stall(self.depth, metrics, obs, || tx.send(job))
            .map_err(|_| self.gone())?;
        Ok(true)
    }

    /// Sends the `job` of a call to the worker and waits for the answer,
    /// which comes once everything queued before it is done. A degraded or
    /// departed worker answers with the degraded error.
    fn call(&self, job: fn(Reply) -> Job) -> Result<()> {
        self.writable()?;
        let tx = self.tx.as_ref().ok_or_else(|| self.gone())?;
        let (reply, outcome) = bounded(1);
        tx.send(job(reply)).map_err(|_| self.gone())?;
        outcome.recv().map_err(|_| self.gone())?
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
    /// on a `sync_flush` engine, waits behind a barrier call
    /// ([`settle`](Self::settle)) for them to land in L0, and for the
    /// horizons and merges they made due.
    fn dispatch(&mut self, front: &mut Front) -> Result<AdmissionOutcome> {
        let mut outcome = AdmissionOutcome::Admitted;
        for batch in std::mem::take(&mut self.registered) {
            if self.enqueue(batch, front)? {
                outcome = AdmissionOutcome::Stalled;
            }
        }
        if self.sync_flush {
            self.settle();
        }
        Ok(outcome)
    }

    /// A forced horizon: a call to the worker, which runs it after
    /// everything queued before it; the due ones the worker runs itself,
    /// after the plans that make them due. Once [`rest`](Self::rest) has
    /// joined the worker, the writer runs it.
    fn commit(&mut self, front: &Front, force: bool) -> Result<()> {
        if !force {
            return Ok(());
        }
        if self.tx.is_some() {
            return self.call(Job::Horizon);
        }
        self.shared.horizon(front.store.as_ref(), &front.obs, None)
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

    /// Waits behind a barrier call for the flushes in the queue to land,
    /// and for the horizons and merges they made due: a merge's outputs are
    /// published before they are committed, and a sweep in between would
    /// take them for orphans; a `sync_flush` hand-off waits the same way
    /// ([`dispatch`](Self::dispatch)). Best effort: a degraded worker does
    /// nothing more.
    fn settle(&mut self) {
        let _ = self.call(Job::Barrier);
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

    /// Blocks until the flush queue is drained *and* L0 is merged into the
    /// run (for deterministic post-ingest queries): a call to the worker,
    /// which handles every job queued before it — with the horizons and
    /// merges they make due — and then makes one merge attempt, with no
    /// retry and no horizon after it.
    ///
    /// # Errors
    /// [`Error::Degraded`] once the worker has given up, without touching
    /// a table; storage failures from the merge, which leave the engine
    /// writable.
    pub fn quiesce(&mut self) -> Result<()> {
        self.exec.call(Job::Merge)
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
    use crate::recovery::RecoveryOptions;
    use crate::sstable::SsTableId;
    use crate::store::MemStore;
    use parking_lot::Condvar;
    use seplsm_types::Policy;
    use std::time::Duration;

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

    /// A store that holds the first publish of more than one table — under
    /// `tiny()`, whose flushes publish one each, an L0 merge's — until the
    /// gate opens.
    struct MergeGate {
        inner: MemStore,
        /// `(a merge is held, the gate is open)`.
        gate: Mutex<(bool, bool)>,
        opened: Condvar,
    }

    impl TableStore for MergeGate {
        fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
            self.inner.put(points)
        }
        fn publish_batch(
            &self,
            chunks: &[&[DataPoint]],
        ) -> Result<Vec<(SsTableMeta, usize)>> {
            if chunks.len() > 1 {
                let mut gate = self.gate.lock();
                gate.0 = true;
                while !gate.1 {
                    gate = self.opened.wait(gate);
                }
            }
            self.inner.publish_batch(chunks)
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

    #[test]
    fn a_sync_flush_append_returns_after_the_merge_it_made_due() {
        let store = Arc::new(MergeGate {
            inner: MemStore::new(),
            gate: Mutex::new((false, false)),
            opened: Condvar::new(),
        });
        let mut e = OpenOptions::new(tiny())
            .store(Arc::clone(&store) as Arc<dyn TableStore>)
            .sync_flush()
            .open()
            .expect("open");
        let append = |e: &mut TieredEngine, points: std::ops::Range<i64>| {
            for i in points {
                e.append(DataPoint::new(i, i, 0.0)).expect("append");
            }
        };
        // Three flushes of one table each: L0 is one short of a merge.
        append(&mut e, 0..12);
        assert_eq!(e.table_layout().len(), L0_COMPACT_THRESHOLD - 1);
        // The gate opens 50 ms after the merge reaches it (or once ten
        // seconds passed without one): an append that does not wait for
        // the merge returns in that window, and is caught below.
        let opener = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    if store.gate.lock().0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(50));
                store.gate.lock().1 = true;
                store.opened.notify_all();
            })
        };
        // The fourth flush makes L0 `L0_COMPACT_THRESHOLD` deep.
        append(&mut e, 12..16);
        let (held, opened) = *store.gate.lock();
        opener.join().expect("opener");
        assert!(held, "no merge was held");
        assert!(opened, "the append returned while its merge was held");
        let layout = e.table_layout();
        assert!(
            layout.iter().all(|(level, ..)| *level == "run"),
            "{layout:?}"
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

    /// A store that notes the thread of every call that writes, makes
    /// durable or deletes a table.
    struct ThreadLog {
        inner: MemStore,
        calls: Mutex<Vec<(&'static str, Option<String>)>>,
    }

    impl ThreadLog {
        fn note(&self, call: &'static str) {
            let thread = std::thread::current().name().map(str::to_owned);
            self.calls.lock().push((call, thread));
        }

        /// The calls noted since the last look: `(made, made elsewhere
        /// than on the compaction worker)`.
        fn take(&self) -> (Vec<&'static str>, Vec<(&'static str, String)>) {
            let calls = std::mem::take(&mut *self.calls.lock());
            let stray = calls
                .iter()
                .filter(|(_, t)| t.as_deref() != Some("seplsm-compaction"))
                .map(|(call, t)| (*call, format!("{t:?}")))
                .collect();
            (calls.into_iter().map(|(call, _)| call).collect(), stray)
        }
    }

    impl TableStore for ThreadLog {
        fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
            self.note("put");
            self.inner.put(points)
        }
        fn publish_batch(
            &self,
            chunks: &[&[DataPoint]],
        ) -> Result<Vec<(SsTableMeta, usize)>> {
            self.note("publish_batch");
            self.inner.publish_batch(chunks)
        }
        fn sync_published(&self, ids: &[SsTableId]) -> Result<()> {
            self.note("sync_published");
            self.inner.sync_published(ids)
        }
        fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
            self.inner.get(id)
        }
        fn delete(&self, id: SsTableId) -> Result<()> {
            self.note("delete");
            self.inner.delete(id)
        }
        fn list(&self) -> Result<Vec<SsTableId>> {
            self.inner.list()
        }
    }

    #[test]
    fn only_the_worker_writes_syncs_or_deletes_a_table() {
        let dir = std::env::temp_dir()
            .join(format!("seplsm-tiered-one-thread-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store = Arc::new(ThreadLog {
            inner: MemStore::new(),
            calls: Mutex::new(Vec::new()),
        });
        let options = || {
            OpenOptions::new(tiny())
                .store(Arc::clone(&store) as Arc<dyn TableStore>)
                .wal(dir.join("wal"))
                .manifest(dir.join("manifest"))
        };
        // Every fourth point lands 35 below its place: the flushes overlap,
        // and L0 is merged into the run again and again.
        let point = |i: i64| {
            let late = if i % 4 == 3 { 35 } else { 0 };
            DataPoint::new(i * 10 - late, i * 10, 0.0)
        };
        let mut e = options().open().expect("open");
        for i in 0..200 {
            e.append(point(i)).expect("append");
        }
        e.quiesce().expect("quiesce");
        e.sync_wal().expect("sync");
        let (calls, stray) = store.take();
        assert!(calls.contains(&"delete"), "{calls:?}");
        assert_eq!(stray, [], "appends and quiesce");
        // Dropped between horizons: recovery replays all 200 points, and
        // its forced horizon makes what their flushes stored durable.
        drop(e);
        store.take();
        let (e, _) = options()
            .recovery(RecoveryOptions::strict())
            .open_or_recover()
            .expect("recover");
        let (calls, stray) = store.take();
        assert!(calls.contains(&"sync_published"), "{calls:?}");
        assert_eq!(stray, [], "recovery");
        let points: Vec<DataPoint> = (0..200).map(point).collect();
        let mut expected = points.clone();
        expected.sort_by_key(|p| p.gen_time);
        assert_eq!(e.scan_all().expect("scan"), expected);
        drop(e);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn quiesce_on_a_degraded_engine_touches_no_table() {
        let plan = FaultPlan::new(7, Fault::FailPersistent { from: 0 });
        let store = FaultStore::new(MemStore::new(), Arc::clone(&plan));
        let mut e = OpenOptions::new(tiny())
            .store(Arc::new(store))
            .sync_flush()
            .open()
            .expect("engine");
        for i in 0..8i64 {
            let _ = e.append(DataPoint::new(i, i, 0.0));
        }
        assert!(e.degraded_state().is_some());
        let ops = plan.ops();
        assert!(matches!(e.quiesce(), Err(Error::Degraded(_))));
        assert_eq!(plan.ops(), ops, "quiesce touched the store");
    }
}
