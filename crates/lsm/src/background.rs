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
//! both through the same [`plan_merge`] →
//! `write_outputs` →
//! [`sync_outputs`](crate::compaction::sync_outputs) →
//! [`commit`](crate::compaction::commit) pipeline as the inline executor.
//! The bounded channel back-pressures the writer if the worker cannot keep
//! up (realistic write-stall behaviour).
//!
//! # Durability
//!
//! At every hand-off the log is told the generation-time ranges of the
//! batches that have retired since the last one; with a manifest the worker
//! records every L0 addition and run replacement. A crashed engine (dropped
//! without [`TieredEngine::finish`]) is rebuilt from both: the manifest
//! restores the run and L0, the WAL replays the buffered tail. The WAL is
//! deliberately conservative — a batch leaves it only after the *next*
//! hand-off, so recovery may re-buffer points that already reached L0; the
//! merge pipeline deduplicates them by generation time (freshest wins), so
//! no point is lost or double-counted in query results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Sender, TrySendError};
use parking_lot::{Condvar, Mutex};
use seplsm_types::{DataPoint, Error, Result, TimeRange, Timestamp};

use crate::admission::{
    self, AdmissionController, AdmissionDepth, AdmissionOutcome,
    AdmissionStats, IoPacer, PaceDecision, PacerStats, RetryBackoff,
    StallTransition, Watermarks,
};
use crate::compaction::{self, plan_merge, RunInput, Written};
use crate::engine::{Batch, Engine, Executor, Front};
use crate::invariants::{self, InvariantChecker};
use crate::iterator::merge_sorted;
use crate::manifest::Manifest;
use crate::metrics::Metrics;
use crate::obs::{
    DegradedOp, DegradedReason, DegradedState, Event, ObserverHandle,
};
use crate::open;
use crate::sstable::SsTableMeta;
use crate::store::TableStore;
use crate::version::{Version, VersionEdit};

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
/// 2. **Write** (unlocked): take the inputs from `written` (or read them),
///    plan, and store the merged outputs (`compaction::write_outputs`,
///    [`compaction::sync_outputs`]).
/// 3. **Commit** (locked): apply the version edit, record the manifest, do
///    the metric accounting ([`compaction::commit`]), clear the flag, and
///    signal `flush_done`.
/// 4. **Retire** (unlocked): delete the consumed run and L0 tables.
///
/// A failure in phase 2 leaves the version untouched (plus orphan output
/// tables for recovery-time GC) and clears the flag, so a
/// [`retry_store`]-driven re-invocation restarts cleanly from a fresh
/// snapshot, reading from the store what the failed attempt took out of
/// `written`. A failure in phase 4 leaves the committed version correct and
/// the undeleted inputs as orphans.
fn compact_l0_once(
    state_mutex: &Mutex<TierState>,
    flush_done: &Condvar,
    store: &Arc<dyn TableStore>,
    written: &Written,
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
            fresh.push(written.take_or_read(store.as_ref(), meta.id)?);
        }
        let mut inputs = Vec::with_capacity(overlapping.len());
        for meta in overlapping {
            inputs.push(RunInput {
                meta,
                points: written.take_or_read(store.as_ref(), meta.id)?,
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
        let prepared =
            compaction::write_outputs(plan, store.as_ref(), written, obs)?;
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

/// The executor whose flushes and compactions run on a background thread.
pub struct Background {
    tx: Option<Sender<Batch>>,
    handle: Option<JoinHandle<Result<()>>>,
    state: Arc<Mutex<TierState>>,
    /// Signalled by the worker after each flush batch lands in L0 (and on
    /// worker exit); [`TieredEngine::drain`] waits on it.
    flush_done: Arc<Condvar>,
    /// The batches handed to the flush pipeline that the log has not been
    /// told have retired, oldest first (see [`Executor::progress`]).
    in_log: Vec<Batch>,
    /// Registered batches not yet queued for the worker.
    registered: Vec<Batch>,
    /// Largest generation time handed to the flush pipeline — the in-order
    /// classification pivot (it is "on disk" from the writer's perspective).
    flushed_max: Option<Timestamp>,
    /// When set, `append` waits for each flush to reach L0 before returning
    /// (deterministic on-disk state for query experiments).
    sync_flush: bool,
    /// Raised by the worker when it enters the degraded read-only state; the
    /// reason lives in [`TierState::degraded`]. Checked lock-free on the
    /// append fast path.
    degraded: Arc<AtomicBool>,
}

/// The engine whose flushes and compactions run on a background thread.
pub type TieredEngine = Engine<Background>;

impl Background {
    /// Starts the compaction worker over `version`; its flushes leave their
    /// tables in `written` for the merges of L0 that consume them.
    pub(crate) fn start(
        kind: open::Background,
        sstable_points: usize,
        store: &Arc<dyn TableStore>,
        written: &Arc<Written>,
        version: Version,
        watermarks: Watermarks,
        obs: &ObserverHandle,
    ) -> Result<Self> {
        let flushed_max = version.last_stored_gen_time();
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
            pacer: kind.pacer,
            obs: obs.clone(),
        }));
        let degraded = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded::<Batch>(CHANNEL_DEPTH);
        let flush_done = Arc::new(Condvar::new());
        let worker_store = Arc::clone(store);
        let worker_written = Arc::clone(written);
        let worker_state = Arc::clone(&state);
        let worker_flush_done = Arc::clone(&flush_done);
        let worker_degraded = Arc::clone(&degraded);
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
                                &worker_written,
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
                                &worker_written,
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
                        // merge-compaction (out of `written`): whatever
                        // queries cache of it gets the weaker short-lived
                        // priority.
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
            tx: Some(tx),
            handle: Some(handle),
            state,
            flush_done,
            in_log: Vec::new(),
            registered: Vec::new(),
            flushed_max,
            sync_flush: kind.sync_flush,
            degraded,
        })
    }

    /// The typed degraded (read-only) state, if the worker has entered it:
    /// its backed-off retries ([`crate::admission::DEFAULT_RETRY_ATTEMPTS`])
    /// at a store operation are exhausted. Writes then fail with
    /// [`Error::Degraded`] while queries keep serving the surviving state.
    fn degraded_state(&self) -> Option<DegradedState> {
        if !self.degraded.load(Ordering::Acquire) {
            return None;
        }
        self.state.lock().degraded.clone()
    }

    /// Queues a registered batch for the worker.
    fn enqueue(&mut self, batch: Batch, obs: &ObserverHandle) -> Result<()> {
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
                obs.emit(|| Event::BackpressureStall);
                batch
            }
            Err(TrySendError::Disconnected(batch)) => batch,
        };
        tx.send(batch).map_err(|_| {
            // A dead worker almost always died into the degraded state;
            // surface that reason rather than a generic channel error.
            self.writable().err().unwrap_or_else(|| {
                Error::Io(std::io::Error::other("compaction worker terminated"))
            })
        })
    }

    /// Waits (best effort) for the worker to drain the flush queue.
    fn drain(&mut self) {
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
}

impl Executor for Background {
    type Kind = open::Background;

    fn with_version<T>(&self, f: impl FnOnce(&Version) -> T) -> T {
        f(&self.state.lock().version)
    }

    fn with_manifest<T>(
        &mut self,
        f: impl FnOnce(&mut Option<Manifest>, &Version) -> T,
    ) -> T {
        let mut state = self.state.lock();
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

    /// Consults the admission controller against the combined L0 +
    /// pending-flush depth, blocking while the stop watermark is exceeded.
    /// A stalled writer parks on `flush_done` and re-consults on every
    /// wakeup; hysteresis ends the stall only once depth falls below the
    /// resume (slowdown) watermark. When the worker has nothing queued but
    /// L0 is still over the watermark, the writer merges L0 itself, so
    /// stalls always end even with an idle worker.
    fn admit(&mut self, front: &mut Front) -> Result<AdmissionOutcome> {
        let mut stalled_here = false;
        let mut state = self.state.lock();
        loop {
            let TierState {
                admission,
                version,
                metrics,
                obs,
                ..
            } = &mut *state;
            let (decision, depth) =
                admission::consult(admission, version, metrics, obs);
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
                            &front.store,
                            &front.written,
                            front.config.sstable_points,
                            &front.obs,
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

    fn admission_stats(&self) -> AdmissionStats {
        self.state.lock().admission.stats()
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
        // until a later hand-off finds it durably retired.
        self.state
            .lock()
            .version
            .apply(&[VersionEdit::RegisterFlushing(Arc::clone(&batch))])?;
        self.in_log.push(Arc::clone(&batch));
        self.registered.push(batch);
        Ok(())
    }

    /// Second half of a hand-off: queues every registered batch for the
    /// worker — which blocks while the queue is full — and, on a
    /// `sync_flush` engine, waits for them to reach L0.
    fn dispatch(&mut self, front: &mut Front) -> Result<()> {
        for batch in std::mem::take(&mut self.registered) {
            self.enqueue(batch, &front.obs)?;
        }
        if self.sync_flush {
            self.drain();
        }
        Ok(())
    }

    /// A batch has retired once it has left the flush pipeline for L0,
    /// under a durable manifest record; the ones still registered as
    /// flushing are in flight.
    fn progress(&mut self) -> (Vec<TimeRange>, &[Batch]) {
        let mut retired = Vec::new();
        let state = self.state.lock();
        let flushing = state.version.flushing();
        self.in_log.retain(|batch| {
            let in_flight = flushing.iter().any(|f| Arc::ptr_eq(f, batch));
            if let (false, Some(first), Some(last)) =
                (in_flight, batch.first(), batch.last())
            {
                retired.push(TimeRange::new(first.gen_time, last.gen_time));
            }
            in_flight
        });
        drop(state);
        (retired, &self.in_log)
    }

    fn disk_points_written(&self, _writer: &Metrics) -> u64 {
        self.state.lock().metrics.disk_points_written
    }

    /// Lets the flushes in the pipeline land, and the merge the last of
    /// them may have made due: its outputs are published before they are
    /// committed, and a sweep in between would take them for orphans.
    fn settle(&mut self) {
        self.wait_while(|state| {
            !state.version.flushing().is_empty() || state.merge_due
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

    /// Number of points the user has written.
    pub fn user_points(&self) -> u64 {
        self.front.metrics.user_points
    }

    /// Snapshot of the unified kernel metrics: the worker's counters plus
    /// the writer's (user points, WA snapshots).
    pub fn metrics(&self) -> Metrics {
        let mut metrics = self.exec.state.lock().metrics.clone();
        metrics.absorb(&self.front.metrics);
        metrics
    }

    /// Snapshot of the compaction I/O pacer's counters.
    pub fn pacer_stats(&self) -> PacerStats {
        self.exec.state.lock().pacer.stats()
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
            &self.exec.state,
            &self.exec.flush_done,
            &self.front.store,
            &self.front.written,
            self.front.config.sstable_points,
            &self.front.obs,
        )?;
        self.exec.state.lock().check_invariants()
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
    use crate::obs::{AggregateSink, Observer};
    use crate::open::TieredOpenOptions as OpenOptions;
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
        e.exec.degraded.store(true, Ordering::Release);
        let _ = e.rest();
        e.exec.degraded.store(false, Ordering::Release);
        assert_eq!(e.buffered_points(), 0);
        let (pts, _) = e.query(TimeRange::new(0, 10)).expect("query");
        assert_eq!(pts.len(), 3, "sealed points dropped on the floor");
    }

    #[test]
    fn tight_watermarks_stall_and_resume() {
        // sync_flush drains the queue after every hand-off, so depth is L0
        // alone and fully deterministic: each 4-point seal adds one L0
        // table, so with stop=2 the third seal's successor append must
        // stall, self-compact L0 into the run, and resume.
        let mut e = OpenOptions::new(tiny())
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
        let mut e = OpenOptions::new(tiny())
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
        let mut options = OpenOptions::new(tiny()).sync_flush();
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
        let plan = FaultPlan::new(7, Fault::FailOnce { at: 2 });
        let store =
            Arc::new(FaultStore::new(MemStore::new(), Arc::clone(&plan)));
        let sink = AggregateSink::with_logical_clock();
        let mut e = OpenOptions::new(tiny())
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
