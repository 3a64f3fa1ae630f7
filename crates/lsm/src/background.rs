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
//! [`TieredEngine`] reproduces that on the shared storage kernel: the writer
//! thread classifies and buffers points in a
//! [`PolicyBuffers`](crate::buffer::PolicyBuffers) and hands full MemTables
//! to a compaction worker over a bounded channel; the worker stores them as
//! L0 tables (committed as [`VersionEdit::FlushToL0`]) and periodically
//! merges L0 into the run — both through the same
//! [`plan_merge`](crate::compaction::plan_merge) →
//! [`write_outputs`](crate::compaction::write_outputs) →
//! [`sync_outputs`](crate::compaction::sync_outputs) →
//! [`commit`](crate::compaction::commit) pipeline as the foreground
//! engine. The bounded channel back-pressures the writer if the worker
//! cannot keep up (realistic write-stall behaviour).
//!
//! # Durability
//!
//! With [`TieredOpenOptions::wal`] every appended point is logged before it
//! is buffered, and at every flush hand-off the log is told the generation
//! time ranges of the batches that have retired since the last one (a frame
//! queued in the log; the file itself is cut only when its dead bytes
//! outweigh the live ones, and at `finish`); with
//! [`TieredOpenOptions::manifest`] the worker records every L0 addition
//! and run replacement. A crashed engine (dropped
//! without [`TieredEngine::finish`]) is rebuilt by
//! [`TieredOpenOptions::open_or_recover`]: the manifest restores the run and
//! L0,
//! the WAL replays the buffered tail. The WAL is deliberately conservative
//! — a batch leaves it only after the *next* hand-off, so recovery may
//! re-buffer points that already reached L0; the merge pipeline
//! deduplicates them by generation time (freshest wins), so no point is
//! lost or double-counted in query results.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender, TrySendError};
use parking_lot::{Condvar, Mutex};
use seplsm_types::{DataPoint, Error, Policy, Result, TimeRange, Timestamp};

use crate::admission::{
    self, AdmissionController, AdmissionDepth, AdmissionOutcome,
    AdmissionStats, IoPacer, PaceDecision, PacerStats, RetryBackoff,
    StallTransition, Watermarks,
};
use crate::buffer::{FlushTrigger, PolicyBuffers};
use crate::compaction::{self, plan_merge, RunInput};
use crate::engine::EngineConfig;
use crate::fault::FaultPlan;
use crate::invariants::{self, InvariantChecker};
use crate::iterator::merge_sorted;
use crate::manifest::Manifest;
use crate::metrics::Metrics;
use crate::obs::{
    DegradedOp, DegradedReason, DegradedState, Event, ObserverHandle,
};
use crate::open::{self, Background, Kind, TieredOpenOptions};
use crate::query::{Agg, Bucket, QueryStats, ReadView};
use crate::recovery::{self, RecoveryReport};
use crate::sstable::{SsTableId, SsTableMeta};
use crate::store::TableStore;
use crate::version::{Version, VersionEdit};
use crate::wal::Wal;

/// How many L0 tables accumulate before the worker merges them into the run.
const L0_COMPACT_THRESHOLD: usize = 4;
/// Flush-queue depth before ingestion back-pressures.
const CHANNEL_DEPTH: usize = 8;

/// Retries `op` on [`Error::Io`] (the transient class — a torn network
/// store, an injected fault) under a bounded, exponentially growing
/// logical-tick backoff; any other error class aborts immediately. The
/// backoff is charged in ticks, never slept, so fault schedules stay
/// deterministic; each delayed reattempt is announced as
/// [`Event::RetryBackoff`] and counted in `Metrics::retry_backoffs`.
fn retry_store<T>(
    state: &Mutex<TierState>,
    obs: &ObserverHandle,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut backoff = RetryBackoff::default();
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e @ Error::Io(_)) => match backoff.next_delay() {
                Some((attempt, ticks)) => {
                    state.lock().metrics.retry_backoffs += 1;
                    obs.emit(|| Event::RetryBackoff {
                        attempt: u64::from(attempt),
                        ticks,
                    });
                }
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
}

/// Records the transition into the degraded read-only state: builds the
/// typed [`DegradedState`], reports it to the observer, stores it for
/// [`TieredEngine::degraded_state`], and raises the lock-free flag the
/// append path checks.
fn enter_degraded(
    state: &Mutex<TierState>,
    flag: &AtomicBool,
    op: DegradedOp,
    err: &Error,
) {
    let degraded = DegradedState {
        reason: DegradedReason::StoreIo,
        op,
        attempts: crate::admission::DEFAULT_RETRY_ATTEMPTS,
        detail: err.to_string(),
    };
    let mut state = state.lock();
    state.obs.emit(|| Event::DegradedTransition {
        state: degraded.clone(),
    });
    state.degraded = Some(degraded);
    drop(state);
    flag.store(true, Ordering::Release);
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
    fn from_metrics(
        metrics: &Metrics,
        run_tables: usize,
        points: Vec<DataPoint>,
    ) -> Self {
        Self {
            user_points: metrics.user_points,
            disk_points_written: metrics.disk_points_written,
            compactions: metrics.compactions,
            run_tables,
            points,
        }
    }

    /// Overall write amplification (the shared §I-B definition).
    pub fn write_amplification(&self) -> f64 {
        crate::metrics::write_amplification(
            self.disk_points_written,
            self.user_points,
        )
    }
}

/// State shared between the writer, the worker, and queries: the versioned
/// table levels, the unified metrics, and the (optional) manifest that
/// mirrors them.
struct TierState {
    version: Version,
    metrics: Metrics,
    manifest: Option<Manifest>,
    /// Debug-build temporal invariants, observed by the worker after every
    /// flush/compaction while the state lock is held.
    invariants: InvariantChecker,
    /// Why the engine is degraded (read-only), once the worker has exhausted
    /// its retries on a store failure. `None` while healthy.
    degraded: Option<DegradedState>,
    /// `true` while an L0→run merge is between its snapshot and its commit.
    /// [`compact_l0_once`] runs its store I/O with the state lock released;
    /// this flag keeps a second merge from planning against the same
    /// snapshot in that window. Cleared on every exit path and signalled on
    /// the engine's `flush_done` condvar.
    compacting: bool,
    /// Set by the worker together with the commit of a flush that leaves L0
    /// at its merge threshold, until the merge it then starts by itself has
    /// finished: nothing is flushing, yet the worker is not idle.
    merge_due: bool,
    /// Watermark-gated admission: consulted by the writer before every
    /// buffer insert against the combined L0 + pending-flush depth.
    admission: AdmissionController,
    /// Logical token bucket rate-limiting compaction output writes.
    pacer: IoPacer,
    /// Worker-side event sink (shared with the writer's handle).
    obs: ObserverHandle,
}

impl TierState {
    /// Runs the temporal invariant checks against the current state
    /// (no-op in release builds).
    fn check_invariants(&mut self) -> Result<()> {
        self.invariants
            .observe_metrics(&self.version, &self.metrics)
    }

    /// Closes the active stall episode without admitting anything: nothing
    /// will drain the backlog the stalled writer is waiting on.
    fn interrupt_stall(&mut self, depth: AdmissionDepth) {
        let ended = self
            .admission
            .interrupt_stall()
            .map(|ticks| StallTransition::Ended { ticks });
        admission::witness(
            ended,
            AdmissionOutcome::Stalled,
            depth,
            &mut self.metrics,
            &self.obs,
        );
    }
}

/// Merges every L0 table plus the overlapping part of the run through the
/// shared compaction pipeline, holding the state lock only around the
/// snapshot and the commit — never across table-store I/O:
///
/// 1. **Snapshot** (locked): wait out any in-flight merge via
///    [`TierState::compacting`], then capture the L0 and overlapping-run
///    metadata and raise the flag.
/// 2. **Write** (unlocked): read the inputs, plan, and store the merged
///    outputs ([`compaction::write_outputs`], [`compaction::sync_outputs`]).
/// 3. **Commit** (locked): apply the version edit, record the manifest, do
///    the metric accounting ([`compaction::commit`]), clear the flag, and
///    signal `flush_done`.
/// 4. **Retire** (unlocked): delete the consumed run and L0 tables.
///
/// A failure in phase 2 leaves the version untouched (plus orphan output
/// tables for recovery-time GC) and clears the flag, so a
/// [`retry_store`]-driven re-invocation restarts cleanly from a fresh
/// snapshot. A failure in phase 4 leaves the committed version correct and
/// the undeleted inputs as orphans.
fn compact_l0_once(
    state_mutex: &Mutex<TierState>,
    flush_done: &Condvar,
    store: &Arc<dyn TableStore>,
    sstable_points: usize,
    obs: &ObserverHandle,
) -> Result<()> {
    // Phase 1: snapshot the merge inputs under the lock.
    let mut state = state_mutex.lock();
    while state.compacting {
        let (guard, _timed_out) =
            flush_done.wait_timeout(state, Duration::from_millis(10));
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

    // Phase 2: read inputs and write outputs with the lock released.
    // Priority: newest L0 table first, then older L0, then the run.
    let prepared = (|| {
        let mut fresh = Vec::with_capacity(l0.len());
        for meta in l0.iter().rev() {
            fresh.push(store.get(meta.id)?);
        }
        let mut inputs = Vec::with_capacity(overlapping.len());
        for meta in overlapping {
            inputs.push(RunInput {
                meta,
                points: store.get(meta.id)?,
            });
        }
        let plan = plan_merge(fresh, inputs, sstable_points, None);
        // Pace the output write against the logical token budget before it
        // hits the store. Ticks are accounting only — nothing sleeps — so
        // fault schedules stay deterministic while the charge shows up in
        // `paced_ticks` for the bench/stats trajectory.
        let paced = {
            let mut state = state_mutex.lock();
            match state.pacer.grant(plan.merged_points) {
                PaceDecision::Proceed => None,
                PaceDecision::Wait { ticks } => {
                    state.metrics.paced_ticks += ticks;
                    Some(ticks)
                }
            }
        };
        if let Some(ticks) = paced {
            obs.emit(|| Event::CompactionPaced { ticks });
        }
        let prepared = compaction::write_outputs(plan, store.as_ref(), obs)?;
        compaction::sync_outputs(&prepared, store.as_ref())?;
        Ok(prepared)
    })();

    // Phase 3: commit under the lock; the flag clears on every path out.
    let mut state = state_mutex.lock();
    state.compacting = false;
    let committed = prepared.and_then(|prepared| {
        let TierState {
            version,
            metrics,
            manifest,
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
            manifest.as_mut(),
            metrics,
            obs,
        )?;
        Ok(prepared)
    });
    let committed = match committed {
        Ok(prepared) => prepared,
        Err(e) => {
            drop(state);
            flush_done.notify_all();
            return Err(e);
        }
    };
    state.check_invariants()?;
    let version_snapshot =
        cfg!(debug_assertions).then(|| state.version.clone());
    drop(state);
    flush_done.notify_all();

    // Phase 4: retire the consumed inputs; readers resolving the committed
    // version no longer reference them (a query snapshot taken before the
    // commit retries on the missing table).
    compaction::retire_inputs(&committed, store.as_ref())?;
    for meta in &l0 {
        store.delete(meta.id)?;
    }
    // Debug builds cross-check the committed version against what the
    // store actually holds, using the snapshot taken at commit time.
    if let Some(version) = version_snapshot {
        invariants::check_version_against_store(&version, store.as_ref())?;
    }
    Ok(())
}

/// A leveled engine whose flush and compaction run on a background thread.
pub struct TieredEngine {
    config: EngineConfig,
    buffers: PolicyBuffers,
    tx: Option<Sender<Arc<Vec<DataPoint>>>>,
    handle: Option<JoinHandle<Result<()>>>,
    store: Arc<dyn TableStore>,
    state: Arc<Mutex<TierState>>,
    /// Signalled by the worker after each flush batch lands in L0 (and on
    /// worker exit); [`TieredEngine::drain`] waits on it.
    flush_done: Arc<Condvar>,
    wal: Option<Wal>,
    /// The batches handed to the flush pipeline that the log has not been
    /// told have retired, oldest first (see
    /// [`compact_wal`](Self::compact_wal)).
    in_log: Vec<Arc<Vec<DataPoint>>>,
    /// Largest generation time handed to the flush pipeline — the in-order
    /// classification pivot (it is "on disk" from the writer's perspective).
    flushed_max: Option<Timestamp>,
    /// Largest generation time appended at all.
    max_gen_seen: Option<Timestamp>,
    user_points: u64,
    /// When set, `append` waits for each flush to reach L0 before returning
    /// (deterministic on-disk state for query experiments).
    sync_flush: bool,
    /// Raised by the worker when it enters the degraded read-only state; the
    /// reason lives in [`TierState::degraded`]. Checked lock-free on the
    /// append fast path.
    degraded: Arc<AtomicBool>,
    /// Writer-side event sink; the worker carries its own clone.
    obs: ObserverHandle,
}

impl Kind for Background {
    type Engine = TieredEngine;

    /// Fresh: an empty version, a truncated WAL, then the manifest.
    /// Recovering (manifest required — tiered recovery is manifest-driven):
    /// the manifest restores the run and L0 and is re-attached *before*
    /// the WAL replays through the normal append path, so flushes the
    /// replay triggers are journalled by the worker like any other.
    /// Replayed points re-enter the user-point counters; points that had
    /// already been flushed but were still in the conservative WAL are
    /// deduplicated by the merge pipeline.
    fn assemble(
        options: TieredOpenOptions,
        store: Arc<dyn TableStore>,
        recover: bool,
    ) -> Result<(TieredEngine, RecoveryReport)> {
        if recover && options.manifest.is_none() {
            return Err(Error::InvalidConfig(
                "tiered recovery is manifest-driven: configure \
                 OpenOptions::manifest"
                    .into(),
            ));
        }
        options.config.validate()?;
        let mut report = RecoveryReport::default();
        let obs = options.observer;
        let mode = options.recovery.mode;
        let version = if recover {
            recovery::rebuild_version(
                store.as_ref(),
                options.manifest.as_deref(),
                mode,
                true,
                &mut report,
                &obs,
            )?
        } else {
            Version::new()
        };
        let mut engine = TieredEngine::build(
            options.config,
            store,
            version,
            obs.clone(),
            options.watermarks,
            options.kind.pacer,
        )?;
        if let (Some(path), false) = (&options.wal, recover) {
            let mut wal = open::open_wal(path, &obs)?;
            // Initialization, not truncation: nothing is buffered yet, so
            // the survivor set of a fresh engine is empty.
            wal.rewrite(&[])?;
            engine.wal = Some(wal);
        }
        if let Some(path) = &options.manifest {
            let mut state = engine.state.lock();
            state.manifest =
                Some(open::open_manifest(path, &obs, &state.version)?);
        }
        if let (Some(path), true) = (&options.wal, recover) {
            engine.wal = Some(recovery::replay_wal(
                &mut engine,
                path,
                mode,
                &mut report,
                &obs,
                |e, _, p| e.append_internal(p, false).map(drop),
                |e| Ok(vec![(0, e.wal_survivors())]),
            )?);
        }
        if recover && options.recovery.gc_orphans {
            // Let replay-triggered flushes land first so the live set is
            // complete, and the merge the last of them may have made due:
            // its outputs are published before they are committed, and a
            // sweep in between would take them for orphans.
            engine.wait_while(|state| {
                !state.version.flushing().is_empty() || state.merge_due
            });
            recovery::gc_orphans(
                engine.store.as_ref(),
                &engine.live_table_ids(),
                &mut report,
                &obs,
            )?;
        }
        engine.sync_flush = options.kind.sync_flush;
        Ok((engine, report))
    }

    fn attach_faults(engine: &mut TieredEngine, plan: &Arc<FaultPlan>) {
        open::attach_faults(
            plan,
            engine.wal.as_mut(),
            engine.state.lock().manifest.as_mut(),
        );
    }
}

impl TieredEngine {
    /// Starts the engine and its compaction worker over `version`.
    fn build(
        config: EngineConfig,
        store: Arc<dyn TableStore>,
        version: Version,
        obs: ObserverHandle,
        watermarks: Watermarks,
        pacer: IoPacer,
    ) -> Result<Self> {
        let pivot = version.last_stored_gen_time();
        let invariants = InvariantChecker::seeded(&version);
        let worker_obs = obs.clone();
        let state = Arc::new(Mutex::new(TierState {
            version,
            metrics: Metrics::default(),
            manifest: None,
            invariants,
            degraded: None,
            compacting: false,
            merge_due: false,
            admission: AdmissionController::new(watermarks),
            pacer,
            obs: obs.clone(),
        }));
        let degraded = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded::<Arc<Vec<DataPoint>>>(CHANNEL_DEPTH);
        let flush_done = Arc::new(Condvar::new());
        let worker_store = Arc::clone(&store);
        let worker_state = Arc::clone(&state);
        let worker_flush_done = Arc::clone(&flush_done);
        let worker_degraded = Arc::clone(&degraded);
        let sstable_points = config.sstable_points;
        let handle = std::thread::Builder::new()
            .name("seplsm-compaction".into())
            .spawn(move || -> Result<()> {
                // Wake any drain() waiter when this thread exits, even on
                // an error path, so waiters fall back to the liveness check.
                struct NotifyOnExit(Arc<Condvar>);
                impl Drop for NotifyOnExit {
                    fn drop(&mut self) {
                        self.0.notify_all();
                    }
                }
                let _exit_guard = NotifyOnExit(Arc::clone(&worker_flush_done));
                // compact_l0_once only commits its version edit after every
                // output table is stored, so a failed attempt leaves state
                // consistent (plus orphan tables) and a retry restarts from
                // scratch; with the retries exhausted the engine degrades.
                let compact_or_degrade = || {
                    let merged =
                        retry_store(&worker_state, &worker_obs, || {
                            compact_l0_once(
                                &worker_state,
                                &worker_flush_done,
                                &worker_store,
                                sstable_points,
                                &worker_obs,
                            )
                        });
                    if let Err(e) = &merged {
                        enter_degraded(
                            &worker_state,
                            &worker_degraded,
                            DegradedOp::Compaction,
                            e,
                        );
                    }
                    merged.is_ok()
                };
                for batch in rx {
                    // A flush is the merge plan with no inputs. Plan,
                    // encode and store outside the lock; only the commit
                    // and the (infrequent) compaction hold it.
                    let prepared =
                        match retry_store(&worker_state, &worker_obs, || {
                            let plan = plan_merge(
                                vec![batch.to_vec()],
                                Vec::new(),
                                sstable_points,
                                None,
                            );
                            let prepared = compaction::write_outputs(
                                plan,
                                worker_store.as_ref(),
                                &worker_obs,
                            )?;
                            compaction::sync_outputs(
                                &prepared,
                                worker_store.as_ref(),
                            )?;
                            Ok(prepared)
                        }) {
                            Ok(prepared) => prepared,
                            Err(e) => {
                                // Retries exhausted: enter the degraded
                                // read-only state instead of panicking. The
                                // batch stays a registered flushing MemTable
                                // (still queryable, still WAL-covered); any
                                // tables a failed attempt did publish are
                                // orphans for recovery-time GC.
                                enter_degraded(
                                    &worker_state,
                                    &worker_degraded,
                                    DegradedOp::FlushWrite,
                                    &e,
                                );
                                return Ok(());
                            }
                        };
                    for meta in &prepared.added {
                        // A fresh L0 table is consumed by the next
                        // merge-compaction: cache its blocks with the weaker
                        // short-lived priority.
                        worker_store.note_short_lived(meta.id);
                    }
                    let mut state = worker_state.lock();
                    let TierState {
                        version,
                        metrics,
                        manifest,
                        ..
                    } = &mut *state;
                    // The batch lands in L0 and stops being a flushing
                    // MemTable in one atomic edit, so queries see the data
                    // in exactly one place.
                    compaction::commit(
                        &prepared,
                        |_, tables| VersionEdit::FlushToL0 {
                            batch: Arc::clone(&batch),
                            tables,
                        },
                        version,
                        manifest.as_mut(),
                        metrics,
                        &worker_obs,
                    )?;
                    let backlog =
                        state.version.l0().len() >= L0_COMPACT_THRESHOLD;
                    state.merge_due = backlog;
                    state.check_invariants()?;
                    drop(state);
                    worker_flush_done.notify_all();
                    if backlog {
                        let merged = compact_or_degrade();
                        worker_state.lock().merge_due = false;
                        worker_flush_done.notify_all();
                        if !merged {
                            return Ok(());
                        }
                    }
                }
                if !compact_or_degrade() {
                    return Ok(());
                }
                worker_state.lock().check_invariants()
            })
            .map_err(|e| Error::Io(std::io::Error::other(e)))?;
        Ok(Self {
            buffers: PolicyBuffers::for_policy(config.policy),
            config,
            tx: Some(tx),
            handle: Some(handle),
            store,
            state,
            flush_done,
            wal: None,
            in_log: Vec::new(),
            flushed_max: pivot,
            max_gen_seen: pivot,
            user_points: 0,
            sync_flush: false,
            degraded,
            obs,
        })
    }

    /// Ids of every table the current version references (run + L0).
    fn live_table_ids(&self) -> HashSet<SsTableId> {
        self.state.lock().version.live_table_ids()
    }

    /// Audits the full version (structural invariants plus a decode probe of
    /// every referenced table) against the store. Runs in release builds;
    /// used as the post-recovery acceptance check.
    ///
    /// # Errors
    /// [`Error::Corrupt`] describing the first violation.
    pub fn check_integrity(&self) -> Result<()> {
        // Audit a cloned snapshot so the state lock is not held across the
        // store probes; the audit sees one consistent version either way.
        let version = self.state.lock().version.clone();
        invariants::audit_version_against_store(&version, self.store.as_ref())
    }

    /// The typed degraded (read-only) state, if the engine is in it. Set by
    /// the background worker once its backed-off retries
    /// ([`crate::admission::DEFAULT_RETRY_ATTEMPTS`]) at a store operation
    /// are exhausted; once set, writes fail with [`Error::Degraded`] while
    /// queries keep serving the surviving state.
    pub fn degraded_state(&self) -> Option<DegradedState> {
        if !self.degraded.load(Ordering::Acquire) {
            return None;
        }
        self.state.lock().degraded.clone()
    }

    fn degraded_error(&self) -> Option<Error> {
        if !self.degraded.load(Ordering::Acquire) {
            return None;
        }
        let reason = match self.state.lock().degraded.clone() {
            Some(state) => state.to_string(),
            None => "background storage failure".to_string(),
        };
        Some(Error::Degraded(reason))
    }

    /// Hands one sealed MemTable to the worker: registered as a flushing
    /// batch (still queryable, still covered by the log), then the log is
    /// told what has retired since the last hand-off, then the batch is
    /// queued — which blocks while the queue is full.
    fn send(&mut self, points: Vec<DataPoint>) -> Result<()> {
        let Some(batch) = self.register(points)? else {
            return Ok(());
        };
        self.compact_wal()?;
        self.enqueue(batch)
    }

    /// First half of a hand-off: `points` leave the buffers for a flushing
    /// batch of the version. `None` for an empty MemTable.
    fn register(
        &mut self,
        points: Vec<DataPoint>,
    ) -> Result<Option<Arc<Vec<DataPoint>>>> {
        let Some(last) = points.last() else {
            return Ok(None);
        };
        // No degraded check here: `points` already left the buffers, so
        // they must reach the flushing list (queryable, WAL-covered) even
        // if the worker died since `append` last looked; the failed
        // channel send in `enqueue` then reports the degraded state.
        let sealed = points.len() as u64;
        self.obs.emit(|| Event::MemtableSealed { points: sealed });
        self.flushed_max = Some(
            self.flushed_max
                .map_or(last.gen_time, |m| m.max(last.gen_time)),
        );
        let batch = Arc::new(points);
        // Register as a flushing MemTable *before* handing it to the worker
        // so it never becomes invisible to queries; the WAL keeps covering it
        // until a later hand-off finds it durably retired.
        self.state
            .lock()
            .version
            .apply(&[VersionEdit::RegisterFlushing(Arc::clone(&batch))])?;
        self.in_log.push(Arc::clone(&batch));
        Ok(Some(batch))
    }

    /// Second half of a hand-off: queues a registered batch for the worker.
    fn enqueue(&mut self, batch: Arc<Vec<DataPoint>>) -> Result<()> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(Error::Io(std::io::Error::other(
                "flush after engine finished",
            )));
        };
        // Try the fast path first so a full queue is observable as a
        // backpressure stall before the writer blocks on it.
        let batch = match tx.try_send(batch) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(batch)) => {
                self.obs.emit(|| Event::BackpressureStall);
                batch
            }
            Err(TrySendError::Disconnected(batch)) => batch,
        };
        tx.send(batch).map_err(|_| {
            // A dead worker almost always died into the degraded state;
            // surface that reason rather than a generic channel error.
            match self.degraded_error() {
                Some(e) => e,
                None => Error::Io(std::io::Error::other(
                    "compaction worker terminated",
                )),
            }
        })
    }

    /// The points that may not be durable yet: every batch still in the
    /// flush pipeline plus the buffered points — what a cut of the log must
    /// carry over.
    fn wal_survivors(&self) -> Vec<DataPoint> {
        let mut survivors: Vec<DataPoint> = Vec::new();
        {
            let state = self.state.lock();
            for batch in state.version.flushing() {
                survivors.extend(batch.iter().copied());
            }
        }
        survivors.extend(self.buffers.snapshot_sorted());
        survivors
    }

    /// Tells the WAL which batches have retired — left the flush pipeline
    /// for L0, under a durable manifest record — since it was last told: one
    /// checkpoint frame per disjoint generation-time range they covered,
    /// carrying the points of the batches still in flight and of the buffers
    /// inside that range (a frame queued in the log, no I/O; nothing at all
    /// when no batch retired), and a cut of the file when its dead bytes
    /// have come to outweigh the live ones. Only call it while every
    /// volatile point is in a registered batch or in the buffers
    /// ([`Wal::checkpoint`]).
    fn compact_wal(&mut self) -> Result<()> {
        let (in_flight, retired): (Vec<_>, Vec<_>) =
            {
                let state = self.state.lock();
                let flushing = state.version.flushing();
                std::mem::take(&mut self.in_log).into_iter().partition(
                    |batch| flushing.iter().any(|f| Arc::ptr_eq(f, batch)),
                )
            };
        self.in_log = in_flight;
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        let ranges = compaction::coalesce(
            retired
                .iter()
                .filter_map(|batch| {
                    let (first, last) = (batch.first()?, batch.last()?);
                    Some(TimeRange::new(first.gen_time, last.gen_time))
                })
                .collect(),
        );
        let mut cut_due = false;
        for range in ranges {
            // Oldest first, the buffers last: the order they were written.
            let mut survivors: Vec<DataPoint> = self
                .in_log
                .iter()
                .flat_map(|batch| batch.iter())
                .filter(|p| range.contains(p.gen_time))
                .copied()
                .collect();
            survivors.extend(self.buffers.merged_scan(range));
            cut_due |= wal.checkpoint(0, range, &survivors)?;
        }
        if cut_due {
            let survivors = self.wal_survivors();
            if let Some(wal) = self.wal.as_mut() {
                wal.rewrite(&[(0, survivors)])?;
            }
        }
        Ok(())
    }

    /// Flushes and fsyncs the write-ahead log (no-op without a WAL).
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync_wal(&mut self) -> Result<()> {
        if let Some(wal) = self.wal.as_mut() {
            wal.sync()?;
        }
        Ok(())
    }

    /// Writes one point, reporting how admission treated it: `Admitted`
    /// below the slowdown watermark, `Delayed { ticks }` between slowdown
    /// and stop, `Stalled` when the append had to wait out a write stall
    /// (the point is still accepted once the backlog drains — durability
    /// is unchanged, only the outcome is typed). Also blocks if the flush
    /// queue is full.
    ///
    /// # Errors
    /// Worker-side failures surface here once the queue is gone.
    pub fn append(&mut self, p: DataPoint) -> Result<AdmissionOutcome> {
        self.append_internal(p, true)
    }

    /// Consults the admission controller against the combined L0 +
    /// pending-flush depth, blocking while the stop watermark is exceeded.
    /// A stalled writer parks on `flush_done` and re-consults on every
    /// wakeup; hysteresis ends the stall only once depth falls below the
    /// resume (slowdown) watermark. When the worker has nothing queued but
    /// L0 is still over the watermark, the writer merges L0 itself, so
    /// stalls always end even with an idle worker.
    fn admit(&mut self) -> Result<AdmissionOutcome> {
        let mut stalled_here = false;
        let mut state = self.state.lock();
        loop {
            let depth = AdmissionDepth {
                l0_tables: state.version.l0().len(),
                pending_flushes: state.version.flushing().len(),
            };
            let decision = state.admission.admit(depth);
            let TierState { metrics, obs, .. } = &mut *state;
            admission::witness(
                decision.transition,
                decision.outcome,
                depth,
                metrics,
                obs,
            );
            match decision.outcome {
                AdmissionOutcome::Admitted => {
                    // An append that waited out a stall reports it.
                    return Ok(if stalled_here {
                        AdmissionOutcome::Stalled
                    } else {
                        AdmissionOutcome::Admitted
                    });
                }
                AdmissionOutcome::Delayed { .. } => return Ok(decision.outcome),
                AdmissionOutcome::Stalled => {
                    stalled_here = true;
                    if let Some(degraded) = &state.degraded {
                        // A degraded worker will never drain the backlog:
                        // close the episode and surface the typed error.
                        let reason = degraded.to_string();
                        state.interrupt_stall(depth);
                        return Err(Error::Degraded(reason));
                    }
                    if state.version.flushing().is_empty() && !state.compacting
                    {
                        // Idle worker, over-watermark L0: drain it from
                        // this thread (compact_l0_once locks internally).
                        drop(state);
                        compact_l0_once(
                            &self.state,
                            &self.flush_done,
                            &self.store,
                            self.config.sstable_points,
                            &self.obs,
                        )?;
                        state = self.state.lock();
                        continue;
                    }
                    if self.handle.as_ref().is_none_or(JoinHandle::is_finished)
                    {
                        // Worker gone without degrading (shutdown race):
                        // nothing will retire the backlog, so don't wait
                        // for it.
                        state.interrupt_stall(depth);
                        return Ok(AdmissionOutcome::Stalled);
                    }
                    let (guard, _timed_out) = self
                        .flush_done
                        .wait_timeout(state, Duration::from_millis(10));
                    state = guard;
                }
            }
        }
    }

    fn append_internal(
        &mut self,
        p: DataPoint,
        log_wal: bool,
    ) -> Result<AdmissionOutcome> {
        if let Some(e) = self.degraded_error() {
            return Err(e);
        }
        let outcome = self.admit()?;
        if log_wal {
            if let Some(wal) = self.wal.as_mut() {
                wal.append(&p)?;
            }
        }
        self.user_points += 1;
        self.max_gen_seen =
            Some(self.max_gen_seen.map_or(p.gen_time, |m| m.max(p.gen_time)));
        let pivot = self.flushed_max;
        self.obs.emit(|| Event::PointClassified {
            in_order: pivot.is_none_or(|pv| p.gen_time > pv),
        });
        let trigger = self.buffers.insert(p, self.flushed_max);
        if trigger != FlushTrigger::None {
            let points = self.buffers.take(trigger);
            self.send(points)?;
            if self.sync_flush {
                self.drain();
            }
        }
        Ok(outcome)
    }

    /// Switches the buffering policy mid-stream through the shared
    /// [`PolicyBuffers::migrate`] path: buffered points are re-classified
    /// against the current pivot and re-buffered, flushing any set that
    /// fills. Does not count as new user traffic.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for degenerate policies; flush hand-off
    /// failures.
    pub fn set_policy(&mut self, policy: Policy) -> Result<()> {
        if policy.total_capacity() == 0 {
            return Err(Error::InvalidConfig(
                "memory budget must be >= 1 point".into(),
            ));
        }
        if policy == self.config.policy {
            return Ok(());
        }
        let buffered = self.buffers.migrate(policy);
        self.config.policy = policy;
        // Register every MemTable the re-routing fills, tell the log once,
        // then queue them: until the last point is back in a buffer the
        // tail of `buffered` is volatile and in no place a checkpoint
        // queued from inside the loop would look.
        let mut sealed = Vec::new();
        for p in buffered {
            let trigger = self.buffers.insert(p, self.flushed_max);
            if trigger != FlushTrigger::None {
                let points = self.buffers.take(trigger);
                sealed.extend(self.register(points)?);
            }
        }
        self.compact_wal()?;
        sealed.into_iter().try_for_each(|batch| self.enqueue(batch))
    }

    /// The active buffering policy.
    pub fn policy(&self) -> Policy {
        self.config.policy
    }

    /// Number of points the user has written.
    pub fn user_points(&self) -> u64 {
        self.user_points
    }

    /// Largest generation time appended so far.
    pub fn max_gen_time(&self) -> Option<Timestamp> {
        self.max_gen_seen
    }

    /// Snapshot of the unified kernel metrics (worker-side counters; the
    /// writer's `user_points` is folded in).
    pub fn metrics(&self) -> Metrics {
        let mut metrics = self.state.lock().metrics.clone();
        metrics.user_points = self.user_points;
        metrics
    }

    /// Snapshot of the admission controller's counters: admitted/delayed
    /// appends, stall episodes and ticks, and the peak combined
    /// L0 + pending-flush depth seen at admission time.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.state.lock().admission.stats()
    }

    /// Snapshot of the compaction I/O pacer's counters.
    pub fn pacer_stats(&self) -> PacerStats {
        self.state.lock().pacer.stats()
    }

    /// Runs `read` over a [`ReadView`] of `range`. The view is captured
    /// under the state lock but read without it, so a concurrent compaction
    /// can retire one of its tables mid-read. A read error against a stale
    /// view is not a failure — retry against a fresh one; a bounded number
    /// of retries keeps a pathological compaction storm from starving the
    /// reader.
    fn read<T>(
        &self,
        range: TimeRange,
        read: impl Fn(&mut ReadView<'_>) -> Result<T>,
    ) -> Result<T> {
        const SNAPSHOT_ATTEMPTS: usize = 8;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let mut view = ReadView::capture(
                self.store.as_ref(),
                &self.obs,
                self.config.block_reads,
                range,
                &self.buffers,
                &self.state.lock().version,
            );
            match read(&mut view) {
                Ok(out) => return Ok(out),
                Err(e) => {
                    if attempt >= SNAPSHOT_ATTEMPTS || !self.is_stale(&view) {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// `true` when any table of `view` has left the current version — i.e.
    /// a compaction committed since the view was captured, which is the
    /// benign explanation for a read error.
    fn is_stale(&self, view: &ReadView<'_>) -> bool {
        let live = self.live_table_ids();
        view.l0
            .iter()
            .chain(&view.run)
            .any(|meta| !live.contains(&meta.id))
    }

    /// Range query over generation time, merging MemTables, flushing
    /// batches, every overlapping L0 file and the run.
    ///
    /// Like IoTDB's chunk-granularity reads, overlapping files are read in
    /// full (or block by block with [`EngineConfig::block_reads`]);
    /// `QueryStats` counts the cost. Results reflect whatever the
    /// background worker has flushed/compacted at call time.
    ///
    /// # Errors
    /// Storage failures.
    pub fn query(
        &self,
        range: TimeRange,
    ) -> Result<(Vec<DataPoint>, QueryStats)> {
        self.read(range, |view| view.query())
    }

    /// Aggregates `range` over exactly the points [`query`](Self::query)
    /// would return; see [`LsmEngine::aggregate`](crate::LsmEngine::aggregate).
    /// Flushing batches and L0 tables are fresher than the run, so a run
    /// block folds from its pre-aggregates only when none of them has a
    /// point inside its span.
    ///
    /// # Errors
    /// Storage failures.
    pub fn aggregate(&self, range: TimeRange) -> Result<(Agg, QueryStats)> {
        self.read(range, |view| view.aggregate())
    }

    /// Downsamples `range` into `bucket_width`-sized buckets; see
    /// [`LsmEngine::downsample`](crate::LsmEngine::downsample).
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for a non-positive `bucket_width`; storage
    /// failures.
    pub fn downsample(
        &self,
        range: TimeRange,
        bucket_width: i64,
    ) -> Result<(Vec<Bucket>, QueryStats)> {
        self.read(range, |view| view.downsample(bucket_width))
    }

    /// Point lookup by generation time; the freshest source holding it
    /// (MemTable, flushing batch, L0 newest first, run) answers.
    ///
    /// # Errors
    /// Storage failures.
    pub fn get(&self, gen_time: Timestamp) -> Result<Option<DataPoint>> {
        self.read(TimeRange::new(gen_time, gen_time), |view| view.get())
    }

    /// Every stored point (buffered, flushing and on disk), sorted by
    /// generation time.
    ///
    /// # Errors
    /// Storage failures.
    pub fn scan_all(&self) -> Result<Vec<DataPoint>> {
        let range = TimeRange::new(Timestamp::MIN, Timestamp::MAX);
        Ok(self.query(range)?.0)
    }

    /// Snapshot of the on-disk table layout: `(level, range, points)` per
    /// table, L0 first (flush order), then the run. Used by the Fig. 15
    /// visualisation of SSTable spans.
    pub fn table_layout(&self) -> Vec<(&'static str, TimeRange, u32)> {
        let state = self.state.lock();
        let mut out = Vec::with_capacity(
            state.version.l0().len() + state.version.run().len(),
        );
        for meta in state.version.l0() {
            out.push(("L0", meta.range, meta.count));
        }
        for meta in state.version.run().tables() {
            out.push(("run", meta.range, meta.count));
        }
        out
    }

    /// Waits (best effort) for the background worker to drain the flush
    /// queue, leaving whatever L0 backlog naturally remains — the state the
    /// paper's historical-query experiment measures.
    pub fn drain(&mut self) {
        self.wait_while(|state| !state.version.flushing().is_empty());
    }

    /// Parks on `flush_done` while `busy` holds and the worker lives.
    fn wait_while(&mut self, busy: impl Fn(&TierState) -> bool) {
        let mut state = self.state.lock();
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
                .flush_done
                .wait_timeout(state, Duration::from_millis(100));
            state = guard;
        }
    }

    /// Blocks until the flush queue is drained *and* L0 is merged into the
    /// run (for deterministic post-ingest queries).
    ///
    /// # Errors
    /// Storage failures from the forced compaction.
    pub fn quiesce(&mut self) -> Result<()> {
        self.drain();
        compact_l0_once(
            &self.state,
            &self.flush_done,
            &self.store,
            self.config.sstable_points,
            &self.obs,
        )?;
        self.state.lock().check_invariants()
    }

    /// Flushes buffers, stops the worker, and returns the final report.
    ///
    /// # Errors
    /// Worker-side storage failures.
    pub fn finish(mut self) -> Result<TieredReport> {
        let drained = self.buffers.drain_all();
        self.send(drained.in_order)?;
        self.send(drained.merging)?;
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
        if let Some(e) = self.degraded_error() {
            return Err(e);
        }

        // Everything is durably in the run now; the WAL has nothing to cover.
        if let Some(wal) = self.wal.as_mut() {
            wal.rewrite(&[])?;
        }

        // Snapshot the report inputs under a short lock, then read the run
        // tables with the lock released (the worker is already joined, but
        // the discipline is uniform: no guard across store I/O).
        let (metrics, run_metas) = {
            let mut state = self.state.lock();
            // The engine comes to rest here: shed the manifest's dead
            // records.
            let TierState {
                version, manifest, ..
            } = &mut *state;
            if let Some(manifest) = manifest.as_mut() {
                version.compact_manifest(manifest)?;
            }
            state.metrics.user_points = self.user_points;
            (state.metrics.clone(), state.version.run().tables().to_vec())
        };
        let mut sources = Vec::with_capacity(run_metas.len());
        for meta in &run_metas {
            sources.push(self.store.get(meta.id)?);
        }
        let points = merge_sorted(sources);
        Ok(TieredReport::from_metrics(
            &metrics,
            run_metas.len(),
            points,
        ))
    }
}

impl Drop for TieredEngine {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    use crate::obs::Observer;
    use crate::open::TieredOpenOptions as OpenOptions;

    fn engine(config: EngineConfig) -> TieredEngine {
        OpenOptions::new(config).open().expect("engine")
    }

    #[test]
    fn preserves_all_points_conventional() {
        let mut e = engine(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
        );
        let mut tgs: Vec<i64> = (0..500).map(|i| (i * 37) % 500).collect();
        tgs.sort_unstable();
        tgs.dedup();
        let n = tgs.len();
        for &tg in &tgs {
            e.append(DataPoint::new(tg, tg + 3, tg as f64))
                .expect("append");
        }
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), n);
        assert!(report
            .points
            .windows(2)
            .all(|w| w[0].gen_time < w[1].gen_time));
        assert_eq!(report.user_points, n as u64);
        assert!(report.write_amplification() >= 1.0 - 1e-9);
    }

    #[test]
    fn preserves_all_points_separation_with_stragglers() {
        let mut e = engine(
            EngineConfig::new(Policy::separation(16, 8).expect("policy"))
                .with_sstable_points(8),
        );
        let mut expected = 0usize;
        for i in 0..400i64 {
            e.append(DataPoint::new(i * 10, i * 10, 0.0))
                .expect("append");
            expected += 1;
            if i % 5 == 4 {
                e.append(DataPoint::new(i * 10 - 35, i * 10, 1.0))
                    .expect("append straggler");
                expected += 1;
            }
        }
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), expected);
        assert!(report
            .points
            .windows(2)
            .all(|w| w[0].gen_time < w[1].gen_time));
        assert!(report.compactions > 0);
    }

    #[test]
    fn duplicate_timestamps_keep_latest_write() {
        let mut e = engine(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        );
        for i in 0..8i64 {
            e.append(DataPoint::new(i, i, 0.0)).expect("append");
        }
        e.append(DataPoint::new(3, 100, 42.0)).expect("overwrite");
        for i in 8..11i64 {
            e.append(DataPoint::new(i, i, 0.0)).expect("append");
        }
        let report = e.finish().expect("finish");
        let p3 = report
            .points
            .iter()
            .find(|p| p.gen_time == 3)
            .expect("present");
        assert_eq!(p3.value, 42.0);
        assert_eq!(report.points.len(), 11);
    }

    #[test]
    fn queries_see_buffered_flushed_and_compacted_data() {
        let mut e = engine(
            EngineConfig::new(Policy::conventional(8)).with_sstable_points(8),
        );
        for i in 0..100i64 {
            e.append(DataPoint::new(i * 10, i * 10, i as f64))
                .expect("append");
        }
        e.quiesce().expect("quiesce");
        // 96 points flushed (12 tables → compacted), 4 still in memory.
        let (pts, stats) = e.query(TimeRange::new(0, 2_000)).expect("query");
        assert_eq!(pts.len(), 100); // gen times 0..990: all 100
        assert!(stats.tables_read > 0);
        let (tail, _) = e.query(TimeRange::new(950, 990)).expect("tail query");
        assert_eq!(tail.len(), 5);
    }

    #[test]
    fn cached_tiered_engine_invalidates_and_serves_warm_queries() {
        let cache = crate::cache::BlockCache::with_capacity(64 * 1024);
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::conventional(8)).with_sstable_points(8),
        )
        .cache(Arc::clone(&cache))
        .open()
        .expect("open");
        for i in 0..100i64 {
            e.append(DataPoint::new(i * 10, i * 10, i as f64))
                .expect("append");
        }
        e.quiesce().expect("quiesce");
        let (cold, _) = e.query(TimeRange::new(0, 2_000)).expect("cold");
        let (warm, _) = e.query(TimeRange::new(0, 2_000)).expect("warm");
        assert_eq!(cold, warm);
        assert_eq!(warm.len(), 100);
        let stats = cache.stats();
        assert!(stats.hits > 0, "warm query must hit the cache: {stats:?}");
        assert!(
            stats.invalidated_blocks > 0,
            "background L0 compactions must invalidate consumed tables: \
             {stats:?}"
        );
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), 100);
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
        let mut e = engine(
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
        let e = engine(EngineConfig::new(Policy::conventional(8)));
        let report = e.finish().expect("finish");
        assert_eq!(report.user_points, 0);
        assert!(report.points.is_empty());
        assert_eq!(report.write_amplification(), 0.0);
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let mut e = engine(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        );
        for i in 0..100i64 {
            e.append(DataPoint::new(i, i, 0.0)).expect("append");
        }
        drop(e);
    }

    #[test]
    fn transient_store_failure_is_absorbed_by_retry() {
        use crate::fault::{Fault, FaultStore};
        // Op 2 is a flush-path store write; FailOnce injects a single
        // failure there and the worker's bounded retry must absorb it.
        let plan = FaultPlan::new(7, Fault::FailOnce { at: 2 });
        let store =
            Arc::new(FaultStore::new(MemStore::new(), Arc::clone(&plan)));
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        )
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
        use crate::fault::{Fault, FaultStore};
        let plan = FaultPlan::new(7, Fault::FailPersistent { from: 0 });
        let store = Arc::new(FaultStore::new(MemStore::new(), plan));
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        )
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
        let mut e = engine(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        );
        for i in 0..3i64 {
            e.append(DataPoint::new(i, i, 0.0)).expect("append");
        }
        // The worker degrades after `append` checked and before the sealed
        // MemTable is handed off: the points are out of the buffers by then.
        let sealed = e.buffers.drain_all().merging;
        e.degraded.store(true, Ordering::Release);
        let _ = e.send(sealed);
        e.degraded.store(false, Ordering::Release);
        let (pts, _) = e.query(TimeRange::new(0, 10)).expect("query");
        assert_eq!(pts.len(), 3, "sealed points dropped on the floor");
    }

    #[test]
    fn tight_watermarks_stall_and_resume() {
        // sync_flush drains the queue after every hand-off, so depth is L0
        // alone and fully deterministic: each 4-point seal adds one L0
        // table, so with stop=2 the third seal's successor append must
        // stall, self-compact L0 into the run, and resume.
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        )
        .admission(Watermarks::new(1, 2).expect("watermarks"))
        .sync_flush()
        .open()
        .expect("open");
        let mut outcomes = Vec::new();
        for i in 0..64i64 {
            outcomes.push(e.append(DataPoint::new(i, i, 0.0)).expect("append"));
        }
        let stats = e.admission_stats();
        assert!(stats.stalls >= 1, "stop watermark never reached: {stats:?}");
        assert!(stats.stall_ticks >= stats.stalls);
        assert!(!stats.currently_stalled, "stall must have ended");
        assert!(
            stats.max_depth <= 2,
            "depth exceeded the stop watermark: {stats:?}"
        );
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, AdmissionOutcome::Stalled)));
        let metrics = e.metrics();
        assert_eq!(metrics.write_stalls, stats.stalls);
        assert_eq!(metrics.stall_ticks, stats.stall_ticks);
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), 64, "stalled appends must not lose");
    }

    #[test]
    fn delayed_outcomes_between_watermarks() {
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        )
        .admission(Watermarks::new(1, 8).expect("watermarks"))
        .sync_flush()
        .open()
        .expect("open");
        let mut delayed = 0u64;
        for i in 0..32i64 {
            if let AdmissionOutcome::Delayed { ticks } =
                e.append(DataPoint::new(i, i, 0.0)).expect("append")
            {
                assert!(ticks >= 1);
                delayed += 1;
            }
        }
        assert!(delayed >= 1, "slowdown watermark never crossed");
        assert_eq!(e.admission_stats().delayed, delayed);
        assert_eq!(
            e.admission_stats().stalls,
            0,
            "depth stays under the stop watermark: nothing may stall"
        );
        assert_eq!(e.metrics().delayed_appends, delayed);
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), 32);
    }

    #[test]
    fn starved_pacer_charges_ticks_to_compactions() {
        // A 1-token bucket makes every compaction after the first wait for
        // a refill, so the paced-ticks counter must move.
        let mut options = OpenOptions::new(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        )
        .sync_flush();
        options.kind.pacer = IoPacer::new(1, 1).expect("pacer");
        let mut e = options.open().expect("open");
        for i in 0..64i64 {
            e.append(DataPoint::new(i, i, 0.0)).expect("append");
        }
        e.quiesce().expect("quiesce");
        // In-order L0→run merges commit as flushes (nothing is rewritten),
        // so the pacer counters are the evidence the merges were paced.
        assert!(
            e.metrics().paced_ticks >= 1,
            "starved pacer never charged: {:?}",
            e.metrics()
        );
        let pacer = e.pacer_stats();
        assert!(pacer.waits >= 1, "{pacer:?}");
        assert!(pacer.granted >= 2, "{pacer:?}");
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), 64);
    }

    #[test]
    fn transient_failures_back_off_before_retrying() {
        use crate::fault::{Fault, FaultStore};
        use crate::obs::AggregateSink;
        let plan = FaultPlan::new(7, Fault::FailOnce { at: 2 });
        let store =
            Arc::new(FaultStore::new(MemStore::new(), Arc::clone(&plan)));
        let sink = AggregateSink::with_logical_clock();
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        )
        .store(store)
        .observer(Arc::clone(&sink) as Arc<dyn Observer>)
        .sync_flush()
        .open()
        .expect("open");
        for i in 0..32i64 {
            e.append(DataPoint::new(i, i, i as f64)).expect("append");
        }
        assert!(e.metrics().retry_backoffs >= 1, "{:?}", e.metrics());
        let agg = sink.report();
        let backoff_kind = Event::RetryBackoff {
            attempt: 2,
            ticks: 1,
        }
        .kind();
        assert!(
            agg.counts[backoff_kind] >= 1,
            "RetryBackoff event not observed"
        );
        assert!(agg.backoff_ticks >= 1);
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), 32);
        assert!(plan.injected_failures() >= 1);
    }

    #[test]
    fn set_policy_reroutes_buffered_points() {
        let mut e = engine(
            EngineConfig::new(Policy::conventional(64)).with_sstable_points(8),
        );
        for i in 0..10i64 {
            e.append(DataPoint::new(i * 10, i * 10, 0.0))
                .expect("append");
        }
        e.set_policy(Policy::separation(64, 32).expect("policy"))
            .expect("switch");
        assert_eq!(e.user_points(), 10, "migration is not user traffic");
        for i in 10..20i64 {
            e.append(DataPoint::new(i * 10, i * 10, 0.0))
                .expect("append");
        }
        let report = e.finish().expect("finish");
        assert_eq!(report.points.len(), 20);
        assert!(report
            .points
            .windows(2)
            .all(|w| w[0].gen_time < w[1].gen_time));
    }
}
