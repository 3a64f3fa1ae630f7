//! The single-series engine: one front half, [`Engine`], over one of two
//! back halves, its [`Executor`].
//!
//! This is the storage substrate the paper's experiments run on: a
//! single-series leveled LSM-tree whose level-1 run holds non-overlapping
//! SSTables of (by default) 512 points, ingesting points in arrival order
//! under either policy:
//!
//! * **`π_c`** — one MemTable `C0`; when full, its contents are merged with
//!   every SSTable overlapping the buffered generation-time range and the
//!   result is re-split into fresh SSTables (a *compaction*; the rewritten
//!   points are what write amplification counts).
//! * **`π_s`** — points are classified against the pivot (Definition 3):
//!   in-order points go to `C_seq`, whose flush is the same merge with an
//!   empty overlap set — its tables land after the run tail and nothing is
//!   rewritten; out-of-order points go to `C_nonseq`, whose filling
//!   triggers the merge-compaction of `π_c` (one per *phase*, §IV).
//!
//! Which MemTable a point enters and when one is sealed is the front half,
//! written once here: the log, classification and buffering
//! ([`PolicyBuffers`]), the policy switch, the log checkpoint and the read
//! path ([`query`](crate::query)). *Where a sealed MemTable goes and who
//! waits for it* — write stalls included — is the executor: [`Inline`]
//! merges it into the run before `append` returns, so it never stalls, and
//! makes it durable at its next horizon (`compaction::horizon`;
//! [`LsmEngine`], every write-amplification figure);
//! [`Background`](crate::background::Background) queues it for a worker
//! thread that keeps an L0 in front of the run and runs the same horizon
//! ([`TieredEngine`](crate::TieredEngine), §V-C: Table III and the query
//! figures). The engine is instrumented for every quantity the paper
//! measures: write amplification, per-compaction subsequent-point counts
//! (Fig. 5), windowed WA snapshots (Fig. 10), and per-query read statistics
//! (Figs. 12–14).

use std::path::Path;
use std::sync::Arc;

use seplsm_types::{DataPoint, Error, Policy, Result, TimeRange, Timestamp};

use crate::admission::{AdmissionOutcome, AdmissionStats};
use crate::buffer::{FlushTrigger, PolicyBuffers};
use crate::compaction::{self, Outbox, RunInput, Share, Written};
use crate::fault::FaultPlan;
use crate::invariants;
use crate::level::Run;
use crate::manifest::{Manifest, ManifestStats};
use crate::metrics::{Metrics, WaSnapshot};
use crate::obs::{Event, ObserverHandle};
use crate::open::{self, EngineBuilder, SingleSeries};
use crate::query::{Agg, Bucket, QueryStats, ReadView};
use crate::recovery::{self, RecoveryReport};
use crate::store::TableStore;
use crate::version::Version;
use crate::wal::{Wal, WalStats};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Buffering policy (`π_c` or `π_s(n_seq)`).
    pub policy: Policy,
    /// Target SSTable size in points (the paper uses 512).
    pub sstable_points: usize,
    /// If set, record a WA snapshot every this many user points (Fig. 10).
    pub wa_snapshot_every: Option<u64>,
    /// If `true`, count the subsequent data points on disk at the start of
    /// every merge (the Fig. 5 probe). Reads nothing: it counts from table
    /// metadata and from the merge's own inputs. Off by default.
    /// Only the inline merge can answer it — it runs against the run its
    /// points were classified against — so `TieredOpenOptions` rejects it.
    pub record_subsequent: bool,
    /// If `true`, range queries read SSTables block-by-block through
    /// [`TableStore::get_range`] instead of decoding whole tables (a v1
    /// table is a single block, so it gains nothing). Off by default,
    /// which matches IoTDB's chunk-granularity reads that the paper
    /// measures.
    pub block_reads: bool,
}

impl EngineConfig {
    /// The paper's default SSTable size, in points.
    pub const DEFAULT_SSTABLE_POINTS: usize = 512;

    /// Configuration with the given policy and paper-default table size.
    ///
    /// This is the one constructor: the *policy* (the paper knob —
    /// [`Policy::conventional`], [`Policy::separation`]) is chosen first
    /// and passed in; `EngineConfig` itself only adds engine mechanics
    /// (table size, snapshots, probes) on top of it, and the adaptive
    /// controller layers (`AdaptiveConfig` in `seplsm-core`) sit entirely
    /// above both.
    pub fn new(policy: Policy) -> Self {
        Self {
            policy,
            sstable_points: Self::DEFAULT_SSTABLE_POINTS,
            wa_snapshot_every: None,
            record_subsequent: false,
            block_reads: false,
        }
    }

    /// Enables block-granular query reads (see [`EngineConfig::block_reads`]).
    pub fn with_block_reads(mut self) -> Self {
        self.block_reads = true;
        self
    }

    /// Sets the target SSTable size in points.
    pub fn with_sstable_points(mut self, points: usize) -> Self {
        self.sstable_points = points;
        self
    }

    /// Enables windowed WA snapshots every `every` user points.
    pub fn with_wa_snapshots(mut self, every: u64) -> Self {
        self.wa_snapshot_every = Some(every);
        self
    }

    /// Enables the per-compaction subsequent-point probe.
    pub fn with_subsequent_probe(mut self) -> Self {
        self.record_subsequent = true;
        self
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.sstable_points == 0 {
            return Err(Error::InvalidConfig(
                "sstable_points must be >= 1".into(),
            ));
        }
        check_budget(self.policy)
    }
}

/// A policy has to buffer at least one point.
fn check_budget(policy: Policy) -> Result<()> {
    if policy.total_capacity() == 0 {
        return Err(Error::InvalidConfig(
            "memory budget must be >= 1 point".into(),
        ));
    }
    Ok(())
}

/// A sealed MemTable, as an executor keeps it readable while in flight.
pub type Batch = Arc<Vec<DataPoint>>;

/// The back half of an [`Engine`]: where a sealed MemTable goes and who
/// waits for it. Implemented by [`Inline`] and
/// [`Background`](crate::background::Background) and by nothing else; the
/// engine calls these in the order its own methods document.
pub trait Executor: Sized {
    /// The builder kind whose settings start this executor.
    type Kind: SingleSeries<Engine = Engine<Self>>;

    /// Runs `f` over the current version (a snapshot: whatever lock guards
    /// it is released when this returns).
    fn with_version<T>(&self, f: impl FnOnce(&Version) -> T) -> T;

    /// Runs `f` over the manifest slot and the version it mirrors.
    fn with_manifest<T>(
        &mut self,
        f: impl FnOnce(&mut Option<Manifest>, &Version) -> T,
    ) -> T;

    /// Whether the executor still takes MemTables; the error says why not.
    fn writable(&self) -> Result<()> {
        Ok(())
    }

    /// The Definition 3 pivot: the largest generation time that is "on
    /// disk" from the writer's point of view.
    fn pivot(&self) -> Option<Timestamp>;

    /// Snapshot of the admission counters, `writer` being the counters of
    /// the appending thread, which counts the write stalls: without a
    /// backlog there are none, and no depth.
    fn admission_stats(&self, writer: &Metrics) -> AdmissionStats {
        AdmissionStats::of(writer, 0)
    }

    /// Takes a sealed MemTable (`merging`: from `C0` / `C_nonseq`, the
    /// buffers whose flushes the Fig. 5 probe counts). When this returns
    /// the points are readable through [`with_version`](Self::with_version)
    /// and no longer in the buffers; an empty MemTable is a no-op.
    fn hand_off(
        &mut self,
        front: &mut Front,
        points: Vec<DataPoint>,
        merging: bool,
    ) -> Result<()>;

    /// Called once the log has been told of the hand-offs so far: starts
    /// on whatever `hand_off` only took note of — `Stalled` when that had
    /// to wait for room in the executor's backlog.
    fn dispatch(&mut self, _front: &mut Front) -> Result<AdmissionOutcome> {
        Ok(AdmissionOutcome::Admitted)
    }

    /// Runs the executor's durability horizon when one is due — with
    /// `force`, whenever anything waits for one: what it published synced,
    /// the manifest told, what it retired deleted
    /// (`compaction::horizon`); [`progress`](Self::progress) then reports
    /// the flushes it made durable. The background worker runs the due ones
    /// itself, and a forced one as a job this sends it and waits for; only
    /// once [`rest`](Self::rest) has joined the worker does one run here.
    fn commit(&mut self, _front: &Front, _force: bool) -> Result<()> {
        Ok(())
    }

    /// The generation-time ranges of the handed-off MemTables that a
    /// horizon has made durable since this was last asked, and the
    /// MemTables handed off that no horizon has: the volatile points
    /// outside the buffers, oldest first.
    fn progress(&mut self) -> (Vec<TimeRange>, &[Batch]);

    /// Points written into SSTables so far, `writer` being the counters
    /// of the appending thread.
    fn disk_points_written(&self, writer: &Metrics) -> u64;

    /// Waits until every table the executor will publish for what it has
    /// been handed is in its version (what an orphan sweep must see): the
    /// background executor queues a barrier behind it for its worker.
    fn settle(&mut self) {}

    /// Comes to rest: when this returns everything handed off is in the
    /// run and the executor does nothing by itself any more; a forced
    /// [`commit`](Self::commit) then leaves all of it durable.
    fn rest(&mut self) -> Result<()> {
        Ok(())
    }
}

/// What an executor sees of the front half that drives it.
pub struct Front {
    pub(crate) config: EngineConfig,
    pub(crate) store: Arc<dyn TableStore>,
    /// The store's pool of written tables, where merge inputs are taken
    /// from first.
    pub(crate) written: Written,
    /// Typed event sink; detached unless set through
    /// [`EngineBuilder::observer`].
    pub(crate) obs: ObserverHandle,
    /// The appending thread's counters: all of them under [`Inline`], the
    /// user points and WA snapshots under a background executor.
    pub(crate) metrics: Metrics,
}

/// A single-series leveled LSM engine over the executor `X`; use it as
/// [`LsmEngine`] or [`TieredEngine`](crate::TieredEngine).
pub struct Engine<X: Executor> {
    pub(crate) front: Front,
    buffers: PolicyBuffers,
    wal: Option<Wal>,
    /// Largest generation time ever appended (memory or disk), used by
    /// recent-data query workloads.
    max_gen_seen: Option<Timestamp>,
    pub(crate) exec: X,
}

/// The engine whose flushes and merge-compactions run inline in `append`.
pub type LsmEngine = Engine<Inline>;

impl<X: Executor> std::fmt::Debug for Engine<X> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("policy", &self.front.config.policy)
            .field("run_tables", &self.exec.with_version(|v| v.run().len()))
            .field("buffered", &self.buffers.buffered_points())
            .finish()
    }
}

/// Every volatile point: the in-flight batches oldest first, the buffers
/// last — the order they were written.
fn volatile(in_flight: &[Batch], buffers: &PolicyBuffers) -> Vec<DataPoint> {
    let mut points: Vec<DataPoint> =
        in_flight.iter().flat_map(|b| b.iter().copied()).collect();
    points.extend(buffers.snapshot_sorted());
    points
}

/// The checkpoint rule, the same for every owner of a log: per disjoint
/// range of `retired` (the generation-time ranges flushes took out of
/// memory and made durable), one [`Wal::checkpoint`] of `series` carrying
/// whatever is still volatile inside it — the points of `in_flight` and of
/// `buffers` (in steady state nothing: `C_nonseq` lies below every `C_seq`
/// flush and the other way round). Frames queued in the log, no I/O.
/// Returns whether any of them said a cut of the file now pays; the owner
/// then hands [`Wal::rewrite`] every volatile point of every series.
pub(crate) fn checkpoint_retired(
    wal: &mut Wal,
    series: u32,
    retired: Vec<TimeRange>,
    in_flight: &[Batch],
    buffers: &PolicyBuffers,
) -> Result<bool> {
    let mut cut_due = false;
    for range in compaction::coalesce(retired) {
        let mut survivors: Vec<DataPoint> = in_flight
            .iter()
            .flat_map(|batch| batch.iter())
            .filter(|p| range.contains(p.gen_time))
            .copied()
            .collect();
        survivors.extend(buffers.merged_scan(range));
        cut_due |= wal.checkpoint(series, range, &survivors)?;
    }
    Ok(cut_due)
}

impl<X: Executor> Engine<X> {
    /// The assembly steps every kind agrees on, over the executor its
    /// [`Kind`](open::Kind) started on a fresh or recovered version: the
    /// manifest is attached and re-seeded with that version first. Fresh:
    /// the log is cut to its header. Recovering: the log is replayed
    /// through the append path before it is attached — nothing is logged
    /// twice, flushes can trigger — the flushes it triggered are made
    /// durable by a forced horizon, the log is re-seeded with what is still
    /// volatile, and the orphan sweep comes last. Replayed points re-enter
    /// the user-point counters: metrics restart from the recovered memory
    /// state.
    pub(crate) fn assemble(
        options: EngineBuilder<X::Kind>,
        store: Arc<dyn TableStore>,
        exec: X,
        recovering: Option<RecoveryReport>,
    ) -> Result<(Self, RecoveryReport)> {
        let EngineBuilder {
            config,
            wal,
            manifest,
            recovery,
            observer: obs,
            written,
            ..
        } = options;
        let mut engine = Engine {
            buffers: PolicyBuffers::for_policy(config.policy),
            wal: None,
            max_gen_seen: exec.with_version(Version::last_stored_gen_time),
            front: Front {
                config,
                store,
                written,
                obs,
                metrics: Metrics::default(),
            },
            exec,
        };
        let recover = recovering.is_some();
        let mut report = recovering.unwrap_or_default();
        engine.attach_manifest(manifest.as_deref())?;
        if let Some(path) = &wal {
            let obs = engine.front.obs.clone();
            engine.wal = Some(if recover {
                recovery::replay_wal(
                    &mut engine,
                    path,
                    recovery.mode,
                    &mut report,
                    &obs,
                    |e, _, p| e.append_internal(p).map(drop),
                    |e| {
                        e.exec.commit(&e.front, true)?;
                        let (_, in_flight) = e.exec.progress();
                        Ok(vec![(0, volatile(in_flight, &e.buffers))])
                    },
                )?
            } else {
                let mut wal = open::open_wal(path, &obs)?;
                // Initialization, not truncation: a fresh engine buffers
                // nothing, so whatever the file held belongs to no one.
                wal.rewrite(&[])?;
                wal
            });
        }
        if recover && recovery.gc_orphans {
            engine.exec.settle();
            recovery::gc_orphans(
                engine.front.store.as_ref(),
                &engine.exec.with_version(Version::live_table_ids),
                &mut report,
                &engine.front.obs,
            )?;
        }
        Ok((engine, report))
    }

    /// Opens the manifest at `path` (when one is configured), re-seeded
    /// with the executor's current version.
    fn attach_manifest(&mut self, path: Option<&Path>) -> Result<()> {
        let Some(path) = path else {
            return Ok(());
        };
        let obs = &self.front.obs;
        self.exec.with_manifest(|manifest, version| {
            let live = [version.series_tables(None)];
            *manifest = Some(open::open_manifest(path, obs, &live)?);
            Ok(())
        })
    }

    /// Routes the log's and the manifest's writes through `plan`.
    pub(crate) fn attach_faults(&mut self, plan: &Arc<FaultPlan>) {
        let wal = self.wal.as_mut();
        self.exec.with_manifest(|manifest, _| {
            open::attach_faults(plan, wal, manifest.as_mut());
        });
    }

    /// Full integrity audit: structural version invariants plus a complete
    /// decode of every referenced table against its metadata. Runs in
    /// release builds too (unlike the per-edit debug checks) — this is the
    /// post-recovery acceptance test of the crash-schedule harness.
    ///
    /// # Errors
    /// [`Error::Corrupt`] (or a store read error) on the first violation.
    pub fn check_integrity(&self) -> Result<()> {
        // A cloned snapshot: no executor lock is held across the store
        // probes, and the audit sees one consistent version either way.
        let version = self.exec.with_version(Version::clone);
        let store = self.front.store.as_ref();
        invariants::audit_version_against_store(&version, store)
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.front.config
    }

    /// The active buffering policy.
    pub fn policy(&self) -> Policy {
        self.front.config.policy
    }

    /// Largest generation time ever appended (buffered or on disk).
    pub fn max_gen_time(&self) -> Option<Timestamp> {
        self.max_gen_seen
    }

    /// Number of points currently buffered in MemTables.
    pub fn buffered_points(&self) -> usize {
        self.buffers.buffered_points()
    }

    /// Snapshot of the admission counters: every append admitted, and the
    /// background executor's write stalls and deepest backlog.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.exec.admission_stats(&self.front.metrics)
    }

    /// Size and history of the write-ahead log, when one is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// Writes one point, reporting how admission treated it: `Admitted`,
    /// or `Stalled` when the MemTable it sealed found the background
    /// executor's flush queue full and the append waited for the worker to
    /// take a batch (the point is accepted all the same — only the outcome
    /// is typed). Nothing is consulted before the point goes to the log;
    /// the inline executor has no backlog and always admits.
    ///
    /// # Errors
    /// Storage or WAL failures — the engine state stays consistent (the
    /// point may be buffered even if a triggered flush failed) — and
    /// [`Error::Degraded`] once a background worker has given up.
    pub fn append(&mut self, p: DataPoint) -> Result<AdmissionOutcome> {
        self.append_internal(p)
    }

    /// The one append path: log → count → classify → insert → seal and
    /// hand off → checkpoint → dispatch → WA snapshot.
    fn append_internal(&mut self, p: DataPoint) -> Result<AdmissionOutcome> {
        self.exec.writable()?;
        if let Some(wal) = self.wal.as_mut() {
            wal.append(&p)?;
        }
        self.front.metrics.user_points += 1;
        self.max_gen_seen = self.max_gen_seen.max(Some(p.gen_time));
        let pivot = self.emit_classified(&p);
        let trigger = self.buffers.insert(p, pivot);
        let mut outcome = AdmissionOutcome::Admitted;
        if self.seal(trigger)? {
            outcome = self.release()?;
        }
        let cadence = self.front.config.wa_snapshot_every;
        if cadence
            .is_some_and(|every| self.front.metrics.user_points % every == 0)
        {
            // Only now does a background executor take its state lock.
            let disk_points_written =
                self.exec.disk_points_written(&self.front.metrics);
            self.front.metrics.wa_snapshots.push(WaSnapshot {
                user_points: self.front.metrics.user_points,
                disk_points_written,
            });
        }
        Ok(outcome)
    }

    /// Classifies `p` against the executor's pivot, witnessed by one
    /// [`Event::PointClassified`], and returns the pivot.
    fn emit_classified(&self, p: &DataPoint) -> Option<Timestamp> {
        let pivot = self.exec.pivot();
        self.front.obs.emit(|| Event::PointClassified {
            in_order: pivot.is_none_or(|pv| p.gen_time > pv),
        });
        pivot
    }

    /// Seals the MemTable `trigger` names and hands it to the executor;
    /// `false` when there was nothing to seal. The log is not told here —
    /// see [`release`](Self::release).
    fn seal(&mut self, trigger: FlushTrigger) -> Result<bool> {
        if trigger == FlushTrigger::None {
            return Ok(false);
        }
        let points = self.buffers.take(trigger);
        self.front.obs.emit(|| Event::MemtableSealed {
            points: points.len() as u64,
        });
        self.exec
            .hand_off(&mut self.front, points, trigger.is_merge())?;
        Ok(true)
    }

    /// Follows the hand-offs of one call: runs the executor's horizon if
    /// one is due, tells the log what has become durable
    /// ([`checkpoint_retired`]), cuts the file when that said it pays, and
    /// only then lets the executor start on what it was handed, returning
    /// whether that stalled. Only call it while every volatile point is in
    /// the buffers or with the executor ([`Wal::checkpoint`]); a fleet
    /// series has no log: its owner does this.
    fn release(&mut self) -> Result<AdmissionOutcome> {
        self.exec.commit(&self.front, false)?;
        let (retired, in_flight) = self.exec.progress();
        if let Some(wal) = self.wal.as_mut() {
            if checkpoint_retired(wal, 0, retired, in_flight, &self.buffers)? {
                wal.rewrite(&[(0, volatile(in_flight, &self.buffers))])?;
            }
        }
        self.exec.dispatch(&mut self.front)
    }

    /// Flushes and fsyncs the write-ahead log (no-op without a WAL). Call
    /// after a batch of appends to make buffered points durable without
    /// forcing SSTable flushes.
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync_wal(&mut self) -> Result<()> {
        self.wal.as_mut().map_or(Ok(()), Wal::sync)
    }

    /// Forces all buffered points to disk (`C_seq` first, while it still
    /// lies past the pivot, then the merging buffer), brings the executor
    /// to rest and runs its horizon. Nothing is volatile then: the log is
    /// cut to its header, which stands in for every checkpoint still owed,
    /// and the manifest sheds its dead records.
    pub(crate) fn rest(&mut self) -> Result<()> {
        let drained = self.buffers.drain_all();
        let (exec, front) = (&mut self.exec, &mut self.front);
        exec.hand_off(front, drained.in_order, false)?;
        exec.hand_off(front, drained.merging, true)?;
        exec.dispatch(front)?;
        exec.rest()?;
        exec.commit(front, true)?;
        exec.progress();
        if let Some(wal) = self.wal.as_mut() {
            wal.rewrite(&[])?;
        }
        self.exec.with_manifest(|manifest, version| {
            let live = [version.series_tables(None)];
            manifest.as_mut().map_or(Ok(()), |m| m.compact(&live))
        })
    }

    /// Switches the buffering policy without touching the disk: buffered
    /// points are re-routed through [`PolicyBuffers::migrate`] into the new
    /// MemTable set, sealing and handing off any that fills on the way (the
    /// new buffers may be smaller). Does not count as new user traffic.
    /// Used by the adaptive tuner and, per series, by `MultiSeriesEngine`.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for degenerate policies;
    /// [`Error::Degraded`], before anything is touched, once a background
    /// worker has given up; storage failures from triggered flushes.
    pub fn set_policy(&mut self, policy: Policy) -> Result<()> {
        check_budget(policy)?;
        if policy == self.front.config.policy {
            return Ok(());
        }
        self.exec.writable()?;
        let buffered = self.buffers.migrate(policy);
        self.front.config.policy = policy;
        let mut sealed = false;
        for p in buffered {
            // Re-routed, not appended: classified and buffered like any
            // point, but neither admitted, logged nor counted again.
            let pivot = self.emit_classified(&p);
            let trigger = self.buffers.insert(p, pivot);
            sealed |= self.seal(trigger)?;
        }
        // One checkpoint, and only now: until the last point is back in a
        // buffer the tail of `buffered` is volatile and in no place a
        // checkpoint queued from inside the loop would look.
        if sealed {
            self.release()?;
        }
        Ok(())
    }

    /// Runs `read` over a [`ReadView`] of `range`. The view is captured
    /// from the executor's version but read without it, so a concurrent
    /// compaction can retire one of its tables mid-read: a read error
    /// against a view with a table that has since left the version is
    /// retried against a fresh one, a bounded number of times. The inline
    /// version cannot move under `&self`: its views are never stale.
    fn read<T>(
        &self,
        range: TimeRange,
        read: impl Fn(&mut ReadView<'_>) -> Result<T>,
    ) -> Result<T> {
        const SNAPSHOT_ATTEMPTS: usize = 8;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let mut view = self.exec.with_version(|version| {
                ReadView::capture(
                    self.front.store.as_ref(),
                    &self.front.obs,
                    self.front.config.block_reads,
                    range,
                    &self.buffers,
                    version,
                )
            });
            match read(&mut view) {
                Ok(out) => return Ok(out),
                Err(e) => {
                    let live = self.exec.with_version(Version::live_table_ids);
                    let stale = view
                        .l0
                        .iter()
                        .chain(&view.run)
                        .any(|meta| !live.contains(&meta.id));
                    if attempt >= SNAPSHOT_ATTEMPTS || !stale {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Range query over generation time, merging MemTables and the run
    /// and, under a background executor, flushing batches and every
    /// overlapping L0 file, as far as its worker has come at call time.
    ///
    /// Overlapping SSTables are read in full (chunk-granularity reads, as in
    /// IoTDB), which is what the read-amplification experiments measure —
    /// or block by block with [`EngineConfig::block_reads`]. v3 tables whose
    /// pruning filter rules the range out are skipped without a seek.
    ///
    /// # Errors
    /// Storage failures.
    pub fn query(
        &self,
        range: TimeRange,
    ) -> Result<(Vec<DataPoint>, QueryStats)> {
        self.read(range, |view| view.query())
    }

    /// Aggregates `range`: min/max/sum/count over exactly the points
    /// [`query`](Self::query) would return, answered where possible from v3
    /// index pre-aggregates without decoding data blocks — see the
    /// [fold rule](crate::query#the-fold-rule) for when a block folds and
    /// how exact the result is. Every fresher source shadows a run block:
    /// MemTable points, flushing batches, L0 tables.
    ///
    /// # Errors
    /// Storage failures.
    pub fn aggregate(&self, range: TimeRange) -> Result<(Agg, QueryStats)> {
        self.read(range, |view| view.aggregate())
    }

    /// Downsamples `range` into fixed-width buckets: one [`Agg`] per
    /// `bucket_width`-sized window (bucket key = `tg.div_euclid(width) *
    /// width`), in ascending bucket order; empty buckets are omitted. Same
    /// pushdown as [`aggregate`](Self::aggregate); a block's pre-aggregates
    /// are only usable when the whole block falls inside a single bucket.
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
}

/// The executor that merges a sealed MemTable into the run on the
/// appending thread: when `append` returns, the flush is committed in
/// memory, and it is durable once its horizon has run.
pub struct Inline {
    version: Version,
    manifest: Option<Manifest>,
    /// What the plans since the last horizon left to the next one.
    outbox: Outbox,
    /// The engine is one series of a durable fleet, whose owner runs the
    /// horizons over all of its series; otherwise it runs its own.
    owner_commits: bool,
    /// The ranges a horizon made durable since the engine's own log was
    /// last told.
    retired: Vec<TimeRange>,
}

impl Inline {
    /// An executor over `version` that runs its own horizons, or leaves
    /// them to its owner (`owner_commits`).
    pub(crate) fn new(version: Version, owner_commits: bool) -> Self {
        Self {
            version,
            manifest: None,
            outbox: Outbox::default(),
            owner_commits,
            retired: Vec::new(),
        }
    }
}

impl Executor for Inline {
    type Kind = open::Inline;

    fn with_version<T>(&self, f: impl FnOnce(&Version) -> T) -> T {
        f(&self.version)
    }

    fn with_manifest<T>(
        &mut self,
        f: impl FnOnce(&mut Option<Manifest>, &Version) -> T,
    ) -> T {
        f(&mut self.manifest, &self.version)
    }

    /// `LAST(R).t_g`: the latest generation time in the run.
    fn pivot(&self) -> Option<Timestamp> {
        self.version.run().last_gen_time()
    }

    /// The one flush: plan the merge of `points` with every run table
    /// overlapping their range (pure; the tables mostly come out of the pool
    /// of written tables, not the store), then execute the plan against
    /// store/version/metrics, leaving its durability to the outbox. A
    /// `C_seq` buffer lies
    /// strictly past the run tail, so it finds no overlap and its plan
    /// commits as a flush that rewrites nothing. The range of `points` is
    /// what a checkpoint of the engine's log, or of its owner's, then
    /// supersedes.
    fn hand_off(
        &mut self,
        front: &mut Front,
        points: Vec<DataPoint>,
        merging: bool,
    ) -> Result<()> {
        let (Some(first), Some(last)) = (points.first(), points.last()) else {
            return Ok(());
        };
        let flushed = TimeRange::new(first.gen_time, last.gen_time);
        let taken = points.len();
        let run = self.version.run();
        let overlapping = run.overlapping(flushed);
        let subsequent_base = (merging && front.config.record_subsequent)
            .then(|| run.points_in_tables_above(first.gen_time));
        let mut inputs = Vec::with_capacity(overlapping.len());
        for meta in overlapping {
            inputs.push(RunInput {
                meta,
                points: front
                    .written
                    .take_or_read(front.store.as_ref(), meta.id)?,
            });
        }
        let plan = compaction::plan_merge(
            vec![points],
            inputs,
            front.config.sstable_points,
            subsequent_base,
        );
        compaction::execute(
            plan,
            front.store.as_ref(),
            &front.written,
            &mut self.version,
            &mut self.outbox,
            &mut front.metrics,
            &front.obs,
        )?;
        self.outbox.flushed.push(flushed);
        self.outbox.points += taken;
        Ok(())
    }

    /// The horizon over this engine alone, the unnamed series of its own
    /// manifest if it keeps one, when one is due — unless its owner runs
    /// them.
    fn commit(&mut self, front: &Front, force: bool) -> Result<()> {
        let due = force || self.outbox.due(front.written.budget());
        if self.owner_commits || !due {
            return Ok(());
        }
        let mut share = Share {
            series: None,
            outbox: &mut self.outbox,
            version: &self.version,
        };
        let flushed = compaction::horizon(
            front.store.as_ref(),
            std::slice::from_mut(&mut share),
            self.manifest.as_mut(),
        )?;
        self.retired.extend(flushed.into_iter().flatten());
        Ok(())
    }

    /// A flush is committed before its hand-off returns: none is in flight.
    fn progress(&mut self) -> (Vec<TimeRange>, &[Batch]) {
        (std::mem::take(&mut self.retired), &[])
    }

    fn disk_points_written(&self, writer: &Metrics) -> u64 {
        writer.disk_points_written
    }
}

impl Engine<Inline> {
    /// What the engine's plans left to its next horizon.
    pub(crate) fn outbox(&self) -> &Outbox {
        &self.exec.outbox
    }

    /// The engine's part in a horizon its owner runs, as series `series`.
    pub(crate) fn share(&mut self, series: u32) -> Share<'_> {
        Share {
            series: Some(series),
            outbox: &mut self.exec.outbox,
            version: &self.exec.version,
        }
    }

    /// The MemTables: what the owner's checkpoint of this series looks
    /// into ([`checkpoint_retired`]).
    pub(crate) fn buffers(&self) -> &PolicyBuffers {
        &self.buffers
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.front.metrics
    }

    /// The level-1 run.
    pub fn run(&self) -> &Run {
        self.exec.version.run()
    }

    /// The table-level state (run + edit history head).
    pub fn version(&self) -> &Version {
        &self.exec.version
    }

    /// `LAST(R).t_g`: the latest generation time on disk.
    pub fn last_disk_gen_time(&self) -> Option<Timestamp> {
        self.exec.pivot()
    }

    /// All currently buffered points, sorted by generation time.
    pub fn buffered_snapshot(&self) -> Vec<DataPoint> {
        self.buffers.snapshot_sorted()
    }

    /// Size and history of the manifest, when one is attached.
    pub fn manifest_stats(&self) -> Option<ManifestStats> {
        self.exec.manifest.as_ref().map(Manifest::stats)
    }

    /// Forces all buffered points to disk and makes them durable (a
    /// horizon), cuts the log to its header and sheds the manifest's dead
    /// records.
    ///
    /// # Errors
    /// Storage failures.
    pub fn flush_all(&mut self) -> Result<()> {
        self.rest()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cache::BlockCache;
    use crate::metrics::write_amplification;
    use crate::obs::{Observer, RingBufferSink};
    use crate::open::OpenOptions;
    use crate::sstable::EncodeOptions;
    use crate::store::MemStore;

    /// A fresh in-memory engine over either executor.
    pub(crate) fn open<X: Executor>(config: EngineConfig) -> Engine<X> {
        EngineBuilder::<X::Kind>::new(config)
            .open()
            .expect("engine")
    }

    /// [`open`] with a sink attached, and a count of its events matching
    /// `kind`.
    fn observed<X: Executor>(
        config: EngineConfig,
    ) -> (Engine<X>, Arc<RingBufferSink>) {
        let sink = RingBufferSink::new(1 << 16);
        let options = EngineBuilder::<X::Kind>::new(config)
            .observer(sink.clone() as Arc<dyn Observer>);
        (options.open().expect("engine"), sink)
    }

    fn count(sink: &RingBufferSink, kind: fn(&Event) -> bool) -> usize {
        sink.events().iter().filter(|e| kind(e)).count()
    }

    /// No loss, no duplication under `π_c`, whatever the arrival order:
    /// read wherever the executor has the points, and again at rest.
    pub(crate) fn check_no_loss_conventional<X: Executor>() {
        let mut e = open::<X>(
            EngineConfig::new(Policy::conventional(7)).with_sstable_points(5),
        );
        // A deterministic permutation of 0..200.
        for tg in (0..200i64).map(|i| (i * 73) % 200) {
            e.append(DataPoint::new(tg, 10_000 + tg, tg as f64))
                .expect("append");
        }
        let all = e.scan_all().expect("scan");
        assert_eq!(all.len(), 200);
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.gen_time, i as i64);
        }
        e.rest().expect("rest");
        assert_eq!(e.scan_all().expect("scan"), all);
        assert_eq!(e.buffered_points(), 0);
        assert_eq!(e.front.metrics.user_points, 200);
        let written = e.exec.disk_points_written(&e.front.metrics);
        assert!(write_amplification(written, 200) >= 1.0 - 1e-9);
    }

    /// No loss under `π_s` with a straggler every fifth point, and the
    /// stragglers do force merge-compactions.
    pub(crate) fn check_no_loss_separation_with_stragglers<X: Executor>() {
        let (mut e, sink) = observed::<X>(
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
        e.rest().expect("rest");
        let all = e.scan_all().expect("scan");
        assert_eq!(all.len(), expected);
        assert!(all.windows(2).all(|w| w[0].gen_time < w[1].gen_time));
        let merged = |e: &Event| matches!(e, Event::CompactionExecuted { .. });
        assert!(count(&sink, merged) > 0);
    }

    /// Last writer wins per generation time: in the MemTable, once the
    /// overwrite has been flushed, and at rest.
    pub(crate) fn check_duplicate_gen_time_keeps_latest_write<X: Executor>() {
        let mut e = open::<X>(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        );
        for p in in_order_points(8) {
            e.append(p).expect("append");
        }
        // Overwrite tg=30 (already handed off) with a new value.
        e.append(DataPoint::new(30, 999, 123.0)).expect("append");
        let (hits, _) = e.query(TimeRange::new(30, 30)).expect("query");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value, 123.0, "memtable version must win");
        // Force it out of the MemTable and re-check.
        for tg in [200i64, 210, 220] {
            e.append(DataPoint::new(tg, tg, 0.0)).expect("append");
        }
        let (hits, _) = e.query(TimeRange::new(30, 30)).expect("query");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value, 123.0, "flushed version must win");
        assert_eq!(e.scan_all().expect("scan").len(), 11);
        e.rest().expect("rest");
        let all = e.scan_all().expect("scan");
        assert_eq!(all.len(), 11);
        let p30 = all.iter().find(|p| p.gen_time == 30).expect("present");
        assert_eq!(p30.value, 123.0, "compacted version must win");
    }

    /// A policy switch re-routes what is buffered — one `PointClassified`
    /// per point, like an append — without counting it as user traffic or
    /// losing any of it, to a wider split, back and to a narrower budget,
    /// and ingest carries on under the new policy.
    pub(crate) fn check_set_policy_reroutes_buffered_points<X: Executor>() {
        let (mut e, sink) = observed::<X>(
            EngineConfig::new(Policy::conventional(100)).with_sstable_points(8),
        );
        for p in in_order_points(10) {
            e.append(p).expect("append");
        }
        e.set_policy(Policy::separation(100, 50).expect("policy"))
            .expect("switch");
        assert_eq!(e.front.metrics.user_points, 10, "not user traffic");
        assert_eq!(e.buffered_points(), 10);
        assert_eq!(e.scan_all().expect("scan").len(), 10);
        // Switch back while data is buffered, then shrink: two MemTables
        // fill and are handed off from inside the call.
        e.set_policy(Policy::conventional(100))
            .expect("switch back");
        e.set_policy(Policy::conventional(4)).expect("shrink");
        assert_eq!(e.buffered_points(), 2);
        assert_eq!(e.scan_all().expect("scan").len(), 10);
        let classified = |e: &Event| matches!(e, Event::PointClassified { .. });
        assert_eq!(
            count(&sink, classified),
            10 + 3 * 10,
            "appended + re-routed"
        );
        for i in 10..20i64 {
            e.append(DataPoint::new(i * 10, i * 10, 0.0))
                .expect("append");
        }
        e.rest().expect("rest");
        let all = e.scan_all().expect("scan");
        assert_eq!(all.len(), 20);
        assert!(all.windows(2).all(|w| w[0].gen_time < w[1].gen_time));
    }

    /// One query sees buffered points and points the executor has flushed
    /// and compacted: 96 of 100 in-order points in tables, 4 in memory.
    pub(crate) fn check_queries_see_every_source<X: Executor>() {
        let mut e = open::<X>(
            EngineConfig::new(Policy::conventional(8)).with_sstable_points(8),
        );
        for i in 0..100i64 {
            e.append(DataPoint::new(i * 10, i * 10, i as f64))
                .expect("append");
        }
        e.exec.settle();
        assert_eq!(e.buffered_points(), 4);
        let (pts, stats) = e.query(TimeRange::new(0, 2_000)).expect("query");
        assert_eq!(pts.len(), 100); // gen times 0..990: all 100
        assert!(stats.tables_read > 0);
        assert_eq!(stats.mem_points_scanned, 4);
        let (tail, _) = e.query(TimeRange::new(950, 990)).expect("tail query");
        assert_eq!(tail.len(), 5);
    }

    /// `EngineConfig::with_wa_snapshots` on either executor: one snapshot
    /// per cadence, taken on the appending thread.
    pub(crate) fn check_wa_snapshots_are_recorded<X: Executor>() -> Engine<X> {
        let mut e = open::<X>(
            EngineConfig::new(Policy::conventional(4))
                .with_sstable_points(4)
                .with_wa_snapshots(10),
        );
        for p in in_order_points(35) {
            e.append(p).expect("append");
        }
        let snapshots = &e.front.metrics.wa_snapshots;
        assert_eq!(snapshots.len(), 3);
        assert_eq!(snapshots[0].user_points, 10);
        assert_eq!(snapshots[2].user_points, 30);
        assert!(snapshots[2].disk_points_written <= 28, "sealed by then");
        e
    }

    /// A block cache changes neither what reads return nor what is written;
    /// a repeated read hits it, and compactions invalidate what they consume.
    pub(crate) fn check_cached_reads_match_uncached<X: Executor>() {
        let run = |cache: Option<Arc<BlockCache>>| {
            let store = Arc::new(MemStore::new());
            let mut opts = EngineBuilder::<X::Kind>::new(
                EngineConfig::new(Policy::separation(16, 8).expect("config"))
                    .with_sstable_points(16),
            )
            .store(store);
            if let Some(cache) = cache {
                opts = opts.cache(cache);
            }
            let mut e = opts.open().expect("engine");
            for i in 0..200i64 {
                let tg = if i % 5 == 0 { i * 10 - 45 } else { i * 10 };
                e.append(DataPoint::new(tg, i * 10 + 3, i as f64))
                    .expect("append");
            }
            e.exec.settle();
            let cold = e.scan_all().expect("cold");
            let warm = e.scan_all().expect("warm");
            assert_eq!(cold, warm);
            e.rest().expect("rest");
            assert_eq!(e.scan_all().expect("scan"), cold);
            (cold, e.exec.disk_points_written(&e.front.metrics))
        };
        let cache = BlockCache::with_capacity(8 * 1024);
        let (cached_points, cached_written) = run(Some(Arc::clone(&cache)));
        let (plain_points, plain_written) = run(None);
        assert_eq!(cached_points.len(), 200);
        assert_eq!(cached_points, plain_points);
        assert_eq!(
            cached_written, plain_written,
            "the cache must not change write behaviour"
        );
        let stats = cache.stats();
        assert!(stats.hits > 0, "warm query must hit the cache: {stats:?}");
        assert!(
            stats.invalidated_blocks > 0,
            "compactions must invalidate consumed tables: {stats:?}"
        );
    }

    /// Crash durability needs a log and a manifest: an open, fresh or
    /// recovering, that configures one without the other is refused before
    /// it touches either file.
    pub(crate) fn check_half_durable_opens_are_refused<X: Executor>() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-half-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        for (wal, manifest) in [(true, false), (false, true)] {
            let options = || {
                let mut options = EngineBuilder::<X::Kind>::new(
                    EngineConfig::new(Policy::conventional(8)),
                );
                if wal {
                    options = options.wal(dir.join("wal"));
                }
                if manifest {
                    options = options.manifest(dir.join("manifest"));
                }
                options
            };
            let refused = |opened: Result<()>| {
                matches!(opened, Err(Error::InvalidConfig(_)))
            };
            assert!(refused(options().open().map(drop)), "{wal} {manifest}");
            let recovered = options().open_or_recover().map(drop);
            assert!(refused(recovered), "{wal} {manifest}");
        }
        assert!(!dir.exists());
    }

    fn on_store(config: EngineConfig, store: Arc<dyn TableStore>) -> LsmEngine {
        OpenOptions::new(config)
            .store(store)
            .open()
            .expect("engine")
    }

    fn in_order_points(n: i64) -> Vec<DataPoint> {
        (0..n)
            .map(|i| DataPoint::new(i * 10, i * 10, i as f64))
            .collect()
    }

    #[test]
    fn in_order_ingest_under_pi_c_has_wa_one() {
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
        );
        for p in in_order_points(160) {
            e.append(p).expect("append");
        }
        // Every flush lands after the run tail: no rewrites.
        assert_eq!(e.metrics().rewritten_points, 0);
        assert!((e.metrics().write_amplification() - 1.0).abs() < 1e-12);
        assert_eq!(e.metrics().user_points, 160);
        e.run().check_invariants().expect("run invariant");
    }

    #[test]
    fn an_inline_engine_admits_every_append_replay_included() {
        let admitted_all = |e: &LsmEngine| AdmissionStats {
            admitted: e.metrics().user_points,
            ..AdmissionStats::default()
        };
        let dir = std::env::temp_dir().join(format!(
            "seplsm-engine-admit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store: Arc<dyn TableStore> = Arc::new(MemStore::new());
        let config =
            EngineConfig::new(Policy::conventional(8)).with_sstable_points(4);
        let options = || {
            OpenOptions::new(config.clone())
                .store(Arc::clone(&store))
                .wal(dir.join("wal"))
                .manifest(dir.join("manifest"))
        };
        let mut e = options().open().expect("open");
        for p in in_order_points(20) {
            assert_eq!(
                e.append(p).expect("append"),
                AdmissionOutcome::Admitted
            );
        }
        e.sync_wal().expect("sync");
        assert_eq!(e.metrics().user_points, 20);
        assert_eq!(e.admission_stats(), admitted_all(&e));
        drop(e);
        // The replayed tail goes through the same append path, admitted.
        let (e, _) = options().open_or_recover().expect("recover");
        assert_eq!(e.buffered_points(), 4);
        assert!(e.metrics().user_points >= 4, "{:?}", e.metrics());
        assert_eq!(e.admission_stats(), admitted_all(&e));
        assert_eq!(e.scan_all().expect("scan"), in_order_points(20));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn out_of_order_ingest_under_pi_c_rewrites() {
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        );
        // Fill the run with [0..40), then insert stragglers below it.
        for p in in_order_points(8) {
            e.append(p).expect("append");
        }
        let before = e.metrics().disk_points_written;
        for tg in [5i64, 15, 25, 35] {
            e.append(DataPoint::new(tg, 1000 + tg, 0.0))
                .expect("append");
        }
        assert!(
            e.metrics().rewritten_points > 0,
            "straggler merge must rewrite"
        );
        assert!(e.metrics().disk_points_written > before + 4);
        assert_eq!(e.metrics().compactions, 1);
        e.run().check_invariants().expect("run invariant");
    }

    #[test]
    fn no_points_are_lost_or_duplicated() {
        check_no_loss_conventional::<Inline>();
    }

    #[test]
    fn preserves_all_points_separation_with_stragglers() {
        check_no_loss_separation_with_stragglers::<Inline>();
    }

    #[test]
    fn separation_routes_by_last_disk_gen_time() {
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::separation(8, 4).expect("policy"))
                .with_sstable_points(4),
        );
        // First 4 in-order points fill C_seq and flush: disk max = 30.
        for p in in_order_points(4) {
            e.append(p).expect("append");
        }
        assert_eq!(e.last_disk_gen_time(), Some(30));
        assert_eq!(e.metrics().flushes, 1);
        assert_eq!(e.metrics().compactions, 0);
        // A point below 30 is out of order: buffered in C_nonseq, no flush.
        e.append(DataPoint::new(15, 100, 0.0)).expect("append");
        assert_eq!(e.buffered_points(), 1);
        assert_eq!(e.metrics().compactions, 0);
        // Points above 30 are in order again.
        for tg in [40i64, 50, 60, 70] {
            e.append(DataPoint::new(tg, tg, 0.0)).expect("append");
        }
        assert_eq!(e.metrics().flushes, 2);
        // Fill C_nonseq (capacity 4): triggers exactly one compaction.
        for tg in [16i64, 17, 18] {
            e.append(DataPoint::new(tg, 200, 0.0)).expect("append");
        }
        assert_eq!(e.metrics().compactions, 1);
        assert_eq!(e.buffered_points(), 0);
        let all = e.scan_all().expect("scan");
        assert_eq!(all.len(), 12);
        e.run().check_invariants().expect("run invariant");
    }

    #[test]
    fn seq_flush_never_rewrites() {
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::separation(64, 32).expect("policy"))
                .with_sstable_points(8),
        );
        for p in in_order_points(320) {
            e.append(p).expect("append");
        }
        assert_eq!(e.metrics().rewritten_points, 0);
        assert_eq!(e.metrics().compactions, 0);
        assert!((e.metrics().write_amplification() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn duplicate_gen_time_upserts_latest_value() {
        check_duplicate_gen_time_keeps_latest_write::<Inline>();
    }

    #[test]
    fn query_stats_count_tables_and_points() {
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::conventional(8)).with_sstable_points(8),
        );
        for p in in_order_points(32) {
            e.append(p).expect("append");
        }
        // Run now holds 4 tables of 8 points: [0..70], [80..150], …
        let (hits, stats) = e.query(TimeRange::new(60, 90)).expect("query");
        assert_eq!(hits.len(), 4); // 60, 70, 80, 90
        assert_eq!(stats.tables_read, 2);
        assert_eq!(stats.disk_points_scanned, 16);
        assert_eq!(stats.points_returned, 4);
        assert_eq!(stats.read_amplification(), Some(4.0));
        // A probe between two generation times overlaps one table's range,
        // but its v3 filter rules the probe out: pruned, nothing read.
        let (hits, stats) = e.query(TimeRange::new(35, 35)).expect("query");
        assert!(hits.is_empty());
        assert_eq!((stats.tables_pruned, stats.tables_read), (1, 0));
    }

    #[test]
    fn query_sees_buffered_points() {
        let mut e =
            open::<Inline>(EngineConfig::new(Policy::conventional(100)));
        e.append(DataPoint::new(5, 5, 1.0)).expect("append");
        let (hits, stats) = e.query(TimeRange::new(0, 10)).expect("query");
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.tables_read, 0);
        assert_eq!(stats.mem_points_scanned, 1);
    }

    #[test]
    fn flush_all_persists_everything() {
        let mut e = open::<Inline>(EngineConfig::new(
            Policy::separation(100, 50).expect("policy"),
        ));
        for p in in_order_points(10) {
            e.append(p).expect("append");
        }
        e.append(DataPoint::new(-5, 100, 0.0)).expect("append");
        assert!(e.buffered_points() > 0);
        e.flush_all().expect("flush");
        assert_eq!(e.buffered_points(), 0);
        assert_eq!(e.scan_all().expect("scan").len(), 11);
        e.run().check_invariants().expect("run invariant");
    }

    #[test]
    fn set_policy_reroutes_buffered_points() {
        check_set_policy_reroutes_buffered_points::<Inline>();
    }

    #[test]
    fn queries_see_buffered_flushed_and_compacted_data() {
        check_queries_see_every_source::<Inline>();
    }

    #[test]
    fn wa_snapshots_are_recorded() {
        check_wa_snapshots_are_recorded::<Inline>();
    }

    #[test]
    fn subsequent_probe_counts_points_above_buffer_min() {
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::conventional(4))
                .with_sstable_points(4)
                .with_subsequent_probe(),
        );
        for p in in_order_points(8) {
            e.append(p).expect("append");
        }
        // Disk: [0..30], [40..70]. Buffer 4 stragglers in (30, 40).
        for tg in [31i64, 32, 33, 34] {
            e.append(DataPoint::new(tg, 500, 0.0)).expect("append");
        }
        // At that compaction, subsequent points were the 4 points of [40..70].
        let counts = &e.metrics().subsequent_counts;
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[2], 4, "counts: {counts:?}");
    }

    #[test]
    fn subsequent_probe_skips_in_order_flushes_under_separation() {
        // Fig. 5 counts subsequent points per *merging-buffer* flush: a
        // `C_seq` flush plans with no inputs and records nothing.
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::separation(8, 4).expect("policy"))
                .with_sstable_points(4)
                .with_subsequent_probe(),
        );
        for p in in_order_points(8) {
            e.append(p).expect("append");
        }
        assert_eq!(e.metrics().flushes, 2);
        assert!(e.metrics().subsequent_counts.is_empty());
        // C_nonseq (capacity 4) fills with stragglers around 30: its merge
        // rewrites [0..30] and sees 30 and the 4 points of [40..70] above
        // its minimum.
        for tg in [25i64, 32, 33, 34] {
            e.append(DataPoint::new(tg, 500, 0.0)).expect("append");
        }
        assert_eq!(e.metrics().compactions, 1);
        assert_eq!(e.metrics().subsequent_counts, vec![5]);
        // The closing flush_all flushes both buffers (35 falls in a gap of
        // the run: a flush, not a merge) and probes the merging one only.
        e.append(DataPoint::new(80, 80, 0.0)).expect("append");
        e.append(DataPoint::new(35, 600, 0.0)).expect("append");
        e.flush_all().expect("flush");
        assert_eq!(e.metrics().flushes, 4);
        assert_eq!(e.metrics().subsequent_counts, vec![5, 5]);
    }

    #[test]
    fn point_get_finds_buffered_and_flushed_points() {
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::separation(8, 4).expect("policy"))
                .with_sstable_points(4),
        );
        for p in in_order_points(10) {
            e.append(p).expect("append");
        }
        // tg=30 flushed, tg=90 buffered, tg=35 absent.
        assert_eq!(e.get(30).expect("get").expect("hit").value, 3.0);
        assert_eq!(e.get(90).expect("get").expect("hit").value, 9.0);
        assert!(e.get(35).expect("get").is_none());
        // An upsert is visible immediately.
        e.append(DataPoint::new(30, 1_000, -1.0)).expect("upsert");
        assert_eq!(e.get(30).expect("get").expect("hit").value, -1.0);
    }

    #[test]
    fn block_reads_scan_fewer_points_on_compressed_stores() {
        let run = |block_reads: bool| {
            let mut config = EngineConfig::new(Policy::conventional(128))
                .with_sstable_points(128);
            if block_reads {
                config = config.with_block_reads();
            }
            let store = Arc::new(MemStore::with_options(EncodeOptions {
                block_points: 16,
            }));
            let mut e = on_store(config, store);
            for p in in_order_points(256) {
                e.append(p).expect("append");
            }
            // Query 8 points out of one 128-point table.
            let (hits, stats) =
                e.query(TimeRange::new(100, 170)).expect("query");
            assert_eq!(hits.len(), 8);
            stats
        };
        let whole = run(false);
        let blocked = run(true);
        assert_eq!(whole.disk_points_scanned, 128);
        assert_eq!(whole.blocks_read, 0);
        assert!(blocked.blocks_read >= 1);
        assert!(
            blocked.disk_points_scanned < whole.disk_points_scanned,
            "block reads must scan less: {} vs {}",
            blocked.disk_points_scanned,
            whole.disk_points_scanned
        );
    }

    #[test]
    fn cache_invalidation_under_compaction() {
        // A consumed table's blocks must never serve a post-merge query:
        // fill the run in order, warm the cache with queries, then force
        // merge-compactions that delete the warmed tables and check that
        // queries see the merged truth, not stale cached blocks.

        let cache = BlockCache::with_capacity(64 * 1024);
        let store = Arc::new(MemStore::with_options(EncodeOptions {
            block_points: 16,
        }));
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(32),
        )
        .store(store)
        .cache(Arc::clone(&cache))
        .open()
        .expect("engine");
        for p in in_order_points(128) {
            e.append(p).expect("append");
        }
        // Warm the cache over the whole run.
        let (before, _) = e.query(TimeRange::new(0, 1280)).expect("warm");
        assert_eq!(before.len(), 128);
        assert!(cache.stats().resident_blocks > 0);
        // Straggler points overlap existing tables: each full buffer now
        // merges with (and deletes) warmed tables.
        for tg in (0..64).map(|i| i * 20 + 5) {
            e.append(DataPoint::new(tg, 10_000 + tg, -1.0))
                .expect("append straggler");
        }
        assert!(e.metrics().compactions > 0, "merges must have happened");
        assert!(
            cache.stats().invalidated_blocks > 0,
            "consumed tables must have been invalidated"
        );
        let (after, _) = e.query(TimeRange::new(0, 1280)).expect("query");
        assert_eq!(after.len(), 128 + 64);
        // The merged view contains every straggler — stale cached blocks
        // would be missing them.
        for tg in (0..64).map(|i| i * 20 + 5) {
            assert!(
                after.iter().any(|p| p.gen_time == tg && p.value == -1.0),
                "straggler {tg} lost: stale cache served a dead table"
            );
        }
        let scan = e.scan_all().expect("scan");
        assert_eq!(scan.len(), 192);
    }

    #[test]
    fn cached_engine_matches_uncached_results() {
        check_cached_reads_match_uncached::<Inline>();
    }

    #[test]
    fn engine_round_trips_on_compressed_store() {
        let store = Arc::new(MemStore::new());
        let mut e = on_store(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
            store,
        );
        let mut tgs: Vec<i64> = (0..300).map(|i| (i * 91) % 300).collect();
        tgs.dedup();
        for &tg in &tgs {
            e.append(DataPoint::new(tg, tg + 5, tg as f64))
                .expect("append");
        }
        let all = e.scan_all().expect("scan");
        assert_eq!(all.len(), 300);
        assert!(all.windows(2).all(|w| w[0].gen_time < w[1].gen_time));
    }

    #[test]
    fn a_log_without_a_manifest_or_a_manifest_without_a_log_is_refused() {
        check_half_durable_opens_are_refused::<Inline>();
    }

    #[test]
    fn rejects_degenerate_configs() {
        let tableless =
            EngineConfig::new(Policy::conventional(8)).with_sstable_points(0);
        assert!(OpenOptions::new(tableless).open().is_err());
        // Only the inline merge can answer the Fig. 5 probe.
        let probing =
            EngineConfig::new(Policy::conventional(8)).with_subsequent_probe();
        assert!(matches!(
            crate::TieredOpenOptions::new(probing).open(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(Policy::separation(8, 0).is_err());
        assert!(Policy::separation(8, 8).is_err());
    }

    #[test]
    fn aggregate_folds_fully_covered_blocks() {
        // 64 in-order points flush into 8 single-block v3 tables; a query
        // covering the whole run is answered purely from index
        // pre-aggregates: no data block is decoded.
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
        );
        for p in in_order_points(64) {
            e.append(p).expect("append");
        }
        assert_eq!(e.buffered_points(), 0);
        let (agg, stats) =
            e.aggregate(TimeRange::new(0, 630)).expect("aggregate");
        assert_eq!(agg.count, 64);
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, 63.0);
        assert_eq!(agg.sum, (0..64).sum::<i64>() as f64);
        assert_eq!(agg.mean(), Some(agg.sum / 64.0));
        assert_eq!(stats.blocks_folded, 8);
        assert_eq!(stats.agg_fallback_blocks, 0);
        assert_eq!(stats.disk_points_scanned, 0);
        assert_eq!(stats.blocks_read, 0);
        assert_eq!(stats.tables_read, 8);
        assert_eq!(stats.points_returned, 64);
        // Read amplification of a fully folded aggregate is 0.
        assert_eq!(stats.read_amplification(), Some(0.0));

        // A range that cuts into the first and last tables decodes exactly
        // those straddled blocks and folds the middle six.
        let (agg, stats) =
            e.aggregate(TimeRange::new(5, 615)).expect("aggregate");
        assert_eq!(agg.count, 61); // tgs 10..=610
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 61.0);
        assert_eq!(stats.blocks_folded, 6);
        assert_eq!(stats.agg_fallback_blocks, 2);
        assert!(stats.disk_points_scanned > 0);
    }

    #[test]
    fn buffered_overlap_forces_agg_fallback() {
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
        );
        for p in in_order_points(64) {
            e.append(p).expect("append");
        }
        // A buffered straggler inside the first table's span poisons that
        // block's pre-aggregates; the other seven still fold.
        e.append(DataPoint::new(35, 1_000, 500.0)).expect("append");
        let (agg, stats) =
            e.aggregate(TimeRange::new(0, 630)).expect("aggregate");
        assert_eq!(agg.count, 65);
        assert_eq!(agg.max, 500.0);
        assert_eq!(stats.blocks_folded, 7);
        assert_eq!(stats.agg_fallback_blocks, 1);
        assert_eq!(stats.mem_points_scanned, 1);

        // An upsert of an on-disk tg must count once, with the MemTable
        // value winning (last-writer-wins, same as `query`).
        e.append(DataPoint::new(130, 2_000, -9.0)).expect("append");
        let (agg, stats) =
            e.aggregate(TimeRange::new(0, 630)).expect("aggregate");
        assert_eq!(agg.count, 65);
        assert_eq!(agg.min, -9.0);
        assert_eq!(stats.blocks_folded, 6);
        assert_eq!(stats.agg_fallback_blocks, 2);
    }

    #[test]
    fn downsample_folds_only_blocks_within_one_bucket() {
        let mut e = open::<Inline>(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
        );
        for p in in_order_points(64) {
            e.append(p).expect("append");
        }
        // Bucket width 80 == one table's span: every block folds and each
        // bucket holds exactly one table's 8 points.
        let (buckets, stats) = e
            .downsample(TimeRange::new(0, 630), 80)
            .expect("downsample");
        assert_eq!(buckets.len(), 8);
        assert_eq!(stats.blocks_folded, 8);
        assert_eq!(stats.agg_fallback_blocks, 0);
        for (i, (start, agg)) in buckets.iter().enumerate() {
            assert_eq!(*start, i as i64 * 80);
            assert_eq!(agg.count, 8);
            assert_eq!(agg.min, (i * 8) as f64);
            assert_eq!(agg.max, (i * 8 + 7) as f64);
        }
        // Width 50 straddles every block across bucket boundaries: the
        // pushdown degrades to a full decode but the answer still matches
        // a per-point reference fold.
        let (narrow, stats) = e
            .downsample(TimeRange::new(0, 630), 50)
            .expect("downsample");
        assert_eq!(stats.blocks_folded, 0);
        assert_eq!(stats.agg_fallback_blocks, 8);
        let total: u64 = narrow.iter().map(|(_, a)| a.count).sum();
        assert_eq!(total, 64);
        assert!(e.downsample(TimeRange::new(0, 10), 0).is_err());
    }

    #[test]
    fn folded_aggregate_faults_no_data_blocks_into_cache() {
        // A fully folded aggregate plans from the cached index alone: the
        // block cache sees no data-block traffic at all (no hits, no
        // misses, no new residents), while a point query over the same
        // range does fault blocks.
        let cache = BlockCache::with_capacity(64 * 1024);
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::separation(8, 4).expect("policy"))
                .with_sstable_points(8),
        )
        .store(Arc::new(crate::store::MemStore::default()))
        .cache(Arc::clone(&cache))
        .open()
        .expect("engine");
        for p in in_order_points(64) {
            e.append(p).expect("append");
        }
        let before = cache.stats();
        let (agg, stats) =
            e.aggregate(TimeRange::new(0, 630)).expect("aggregate");
        assert_eq!(agg.count, 64);
        // C_seq capacity is 4 (n_seq of π_s(8, 4)): 16 appended tables.
        assert_eq!(stats.blocks_folded, 16);
        let after = cache.stats();
        assert_eq!(
            (after.hits, after.misses, after.resident_blocks),
            (before.hits, before.misses, before.resident_blocks),
            "a folded pushdown must not touch data blocks"
        );
        let (hits, _) = e.query(TimeRange::new(0, 630)).expect("query");
        assert_eq!(hits.len(), 64);
        assert!(cache.stats().hits + cache.stats().misses > before.misses);
    }

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(32)
        )]

        /// The pushdown correctness anchor: `aggregate` and `downsample`
        /// are bit-identical to folding over `query` results on arbitrary
        /// out-of-order histories (mixed fold/decode plans).
        /// Integer-valued samples keep the f64 sum associative, so even
        /// `sum` is exact. Tables of older dialects, which carry no
        /// pre-aggregates and always take the decode path, get the same
        /// property in `tests/sstable_v3.rs`.
        #[test]
        fn pushdown_matches_query_fold(
            raw in proptest::collection::vec(
                (-50i64..400, -1_000i32..1_000),
                1..150,
            ),
            bounds in (-100i64..500, -100i64..500),
            width in 1i64..64,
        ) {
            let range = TimeRange::new(
                bounds.0.min(bounds.1),
                bounds.0.max(bounds.1),
            );
            let mut e = on_store(
                EngineConfig::new(Policy::conventional(7))
                    .with_sstable_points(5),
                Arc::new(MemStore::new()),
            );
            for &(tg, v) in &raw {
                e.append(DataPoint::new(tg, tg, f64::from(v)))
                    .expect("append");
            }
            let (pts, _) = e.query(range).expect("query");
            let mut want = crate::query::Agg::default();
            for p in &pts {
                want.merge_point(p.value);
            }
            let (got, _) = e.aggregate(range).expect("aggregate");
            proptest::prop_assert!(
                got.bits_eq(&want),
                "aggregate mismatch: {:?} vs {:?}",
                got,
                want
            );
            let mut reference = std::collections::BTreeMap::<
                Timestamp,
                crate::query::Agg,
            >::new();
            for p in &pts {
                reference
                    .entry(p.gen_time.div_euclid(width) * width)
                    .or_default()
                    .merge_point(p.value);
            }
            let (buckets, _) =
                e.downsample(range, width).expect("downsample");
            proptest::prop_assert_eq!(buckets.len(), reference.len());
            for ((got_tg, got_agg), (want_tg, want_agg)) in
                buckets.iter().zip(reference.iter())
            {
                proptest::prop_assert_eq!(got_tg, want_tg);
                proptest::prop_assert!(
                    got_agg.bits_eq(want_agg),
                    "bucket {} mismatch: {:?} vs {:?}",
                    got_tg,
                    got_agg,
                    want_agg
                );
            }
        }
    }
}
