//! The foreground leveled LSM engine — a thin composition of the kernel.
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
//! * **`π_s`** — points are classified against `LAST(R).t_g` (Definition 3):
//!   in-order points go to `C_seq`, whose flush is the same merge with an
//!   empty overlap set — its tables land after the run tail and nothing is
//!   rewritten; out-of-order points go to `C_nonseq`, whose filling
//!   triggers the merge-compaction of `π_c` (one per *phase*, §IV).
//!
//! All of that behaviour now lives in the storage kernel and this engine
//! only composes it: classification and buffering in
//! [`PolicyBuffers`](crate::buffer::PolicyBuffers), merge planning in
//! [`compaction::plan_merge`], plan execution and metric accounting in
//! [`compaction::execute`], and table-level state in
//! [`Version`](crate::version::Version). The engine is instrumented for
//! every quantity the paper measures: write amplification, per-compaction
//! subsequent-point counts (Fig. 5), windowed WA snapshots (Fig. 10), and
//! per-query read statistics (Figs. 12–14).

use std::sync::Arc;

use seplsm_types::{DataPoint, Error, Policy, Result, TimeRange, Timestamp};

use crate::admission::{
    self, AdmissionController, AdmissionDepth, AdmissionOutcome,
    AdmissionStats, StallTransition,
};
use crate::buffer::{FlushTrigger, PolicyBuffers};
use crate::compaction::{self, Journal, Outbox, RunInput};
use crate::fault::FaultPlan;
use crate::invariants::{self, InvariantChecker};
use crate::level::Run;
use crate::manifest::{Manifest, ManifestStats};
use crate::metrics::{Metrics, WaSnapshot};
use crate::obs::{Event, ObserverHandle};
use crate::open::{self, Inline, Kind, OpenOptions};
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
    /// every merge (the Fig. 5 probe). Costs extra reads; off by default.
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
        if self.policy.total_capacity() == 0 {
            return Err(Error::InvalidConfig(
                "memory budget must be >= 1 point".into(),
            ));
        }
        Ok(())
    }
}

/// A single-series leveled LSM engine.
pub struct LsmEngine {
    config: EngineConfig,
    store: Arc<dyn TableStore>,
    version: Version,
    buffers: PolicyBuffers,
    metrics: Metrics,
    wal: Option<Wal>,
    manifest: Option<Manifest>,
    /// Set when the engine's owner keeps the log and the manifest for it (a
    /// durable fleet's series): flushes commit in memory and leave what
    /// makes them durable here, for the owner's next commit point.
    outbox: Option<Outbox>,
    /// Largest generation time ever appended (memory or disk), used by
    /// recent-data query workloads.
    max_gen_seen: Option<Timestamp>,
    /// Debug-build temporal invariants (counter monotonicity, pivot
    /// no-regression); no-op in release builds.
    invariants: InvariantChecker,
    /// Watermark-gated admission, consulted before every buffer insert.
    /// The synchronous engine drains inline, so depth rarely leaves zero —
    /// but the outcome contract and counters are shared with the tiered
    /// engines.
    admission: AdmissionController,
    /// Typed event sink; detached unless set through
    /// [`OpenOptions::observer`].
    obs: ObserverHandle,
}

impl std::fmt::Debug for LsmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmEngine")
            .field("policy", &self.config.policy)
            .field("run_tables", &self.version.run().len())
            .field("buffered", &self.buffers.buffered_points())
            .finish()
    }
}

impl Kind for Inline {
    type Engine = LsmEngine;

    /// Fresh: an empty version, then the WAL and manifest attach.
    /// Recovering: the version is rebuilt first (manifest, else store
    /// scan), the WAL is replayed into the buffers — flushes it triggers
    /// are not journalled one by one — and only then is the manifest
    /// re-seeded from the resulting run. Replayed points re-enter the
    /// user-point counters, so metrics restart from the recovered memory
    /// state rather than the historical total.
    fn assemble(
        options: OpenOptions,
        store: Arc<dyn TableStore>,
        recover: bool,
    ) -> Result<(LsmEngine, RecoveryReport)> {
        options.config.validate()?;
        let mut report = RecoveryReport::default();
        let obs = options.observer;
        let mode = options.recovery.mode;
        let version = match (recover, options.kind.levels) {
            (false, _) => Version::new(),
            (true, Some(levels)) => recovery::version_from_levels(
                store.as_ref(),
                levels,
                true,
                mode,
                false,
                &mut report,
                &obs,
            )?,
            (true, None) => recovery::rebuild_version(
                store.as_ref(),
                options.manifest.as_deref(),
                mode,
                false,
                &mut report,
                &obs,
            )?,
        };
        let mut engine = LsmEngine {
            buffers: PolicyBuffers::for_policy(options.config.policy),
            config: options.config,
            store,
            max_gen_seen: version.run().last_gen_time(),
            invariants: InvariantChecker::seeded(&version),
            version,
            metrics: Metrics::default(),
            wal: None,
            manifest: None,
            outbox: options.kind.owner_commits.then(Outbox::default),
            admission: AdmissionController::new(options.watermarks),
            obs,
        };
        if let Some(path) = &options.wal {
            let obs = engine.obs.clone();
            engine.wal = Some(if recover {
                recovery::replay_wal(
                    &mut engine,
                    path,
                    mode,
                    &mut report,
                    &obs,
                    |e, _, p| e.append_internal(p, false).map(drop),
                    |e| Ok(vec![(0, e.buffered_snapshot())]),
                )?
            } else {
                open::open_wal(path, &obs)?
            });
        }
        if let Some(path) = &options.manifest {
            engine.manifest =
                Some(open::open_manifest(path, &engine.obs, &engine.version)?);
        }
        if recover {
            if options.recovery.gc_orphans {
                recovery::gc_orphans(
                    engine.store.as_ref(),
                    &engine.version.live_table_ids(),
                    &mut report,
                    &engine.obs,
                )?;
            }
            // A fresh controller: recovery never resumes into a stalled
            // state.
            engine.admission = AdmissionController::new(options.watermarks);
        }
        Ok((engine, report))
    }

    fn attach_faults(engine: &mut LsmEngine, plan: &Arc<FaultPlan>) {
        open::attach_faults(
            plan,
            engine.wal.as_mut(),
            engine.manifest.as_mut(),
        );
    }
}

impl LsmEngine {
    /// Replaces the event sink of the engine while a fleet flush worker
    /// drives it (a fleet series has no log or manifest of its own).
    pub(crate) fn set_observer(&mut self, obs: ObserverHandle) {
        self.obs = obs;
    }

    /// What the engine's owner has yet to make durable for it; `None` for
    /// an engine that commits its own flushes.
    pub(crate) fn outbox(&self) -> Option<&Outbox> {
        self.outbox.as_ref()
    }

    /// Hands the outbox's contents to the owner, leaving it empty.
    pub(crate) fn take_outbox(&mut self) -> Outbox {
        self.outbox.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Full integrity audit: structural version invariants plus a complete
    /// decode of every referenced table against its metadata. Runs in
    /// release builds too (unlike the per-edit debug checks) — this is the
    /// post-recovery acceptance test of the crash-schedule harness.
    ///
    /// # Errors
    /// [`Error::Corrupt`] (or a store read error) on the first violation.
    pub fn check_integrity(&self) -> Result<()> {
        invariants::audit_version_against_store(
            &self.version,
            self.store.as_ref(),
        )
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The active buffering policy.
    pub fn policy(&self) -> Policy {
        self.config.policy
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The level-1 run.
    pub fn run(&self) -> &Run {
        self.version.run()
    }

    /// The table-level state (run + edit history head).
    pub fn version(&self) -> &Version {
        &self.version
    }

    /// `LAST(R).t_g`: the latest generation time on disk.
    pub fn last_disk_gen_time(&self) -> Option<Timestamp> {
        self.version.run().last_gen_time()
    }

    /// Largest generation time ever appended (buffered or on disk).
    pub fn max_gen_time(&self) -> Option<Timestamp> {
        self.max_gen_seen
    }

    /// Number of points currently buffered in MemTables.
    pub fn buffered_points(&self) -> usize {
        self.buffers.buffered_points()
    }

    /// All currently buffered points, sorted by generation time.
    pub fn buffered_snapshot(&self) -> Vec<DataPoint> {
        self.buffers.snapshot_sorted()
    }

    /// The buffered points with a generation time in `range`, sorted: what
    /// a log checkpoint of that range has to carry.
    pub(crate) fn buffered_in(&self, range: TimeRange) -> Vec<DataPoint> {
        self.buffers.merged_scan(range)
    }

    /// Writes one point, reporting how admission treated it. The
    /// synchronous engine flushes inline, so its backlog depth rarely
    /// leaves zero and appends are almost always `Admitted`; the typed
    /// outcome exists so all three engines share one admission contract.
    ///
    /// # Errors
    /// Storage or WAL failures; the engine state stays consistent (the point
    /// may be buffered even if a triggered flush failed).
    pub fn append(&mut self, p: DataPoint) -> Result<AdmissionOutcome> {
        self.append_internal(p, true)
    }

    /// Consults the admission controller against the version's L0 +
    /// flushing depth. A `Stalled` verdict drains inline via
    /// [`LsmEngine::flush_all`] and closes the episode immediately — the
    /// synchronous engine has no background worker to wait on.
    fn admit(&mut self) -> Result<AdmissionOutcome> {
        let depth = AdmissionDepth {
            l0_tables: self.version.l0().len(),
            pending_flushes: self.version.flushing().len(),
        };
        let decision = self.admission.admit(depth);
        admission::witness(
            decision.transition,
            decision.outcome,
            depth,
            &mut self.metrics,
            &self.obs,
        );
        if decision.outcome == AdmissionOutcome::Stalled {
            self.flush_all()?;
            admission::witness(
                self.admission
                    .interrupt_stall()
                    .map(|ticks| StallTransition::Ended { ticks }),
                decision.outcome,
                depth,
                &mut self.metrics,
                &self.obs,
            );
        }
        Ok(decision.outcome)
    }

    /// Snapshot of the admission controller's counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    fn append_internal(
        &mut self,
        p: DataPoint,
        log_wal: bool,
    ) -> Result<AdmissionOutcome> {
        let outcome = self.admit()?;
        if log_wal {
            if let Some(wal) = self.wal.as_mut() {
                wal.append(&p)?;
            }
        }
        self.metrics.user_points += 1;
        self.max_gen_seen =
            Some(self.max_gen_seen.map_or(p.gen_time, |m| m.max(p.gen_time)));

        // Definition 3 pivot: `LAST(R).t_g`.
        let pivot = self.version.run().last_gen_time();
        self.obs.emit(|| Event::PointClassified {
            in_order: pivot.is_none_or(|pv| p.gen_time > pv),
        });
        let trigger = self.buffers.insert(p, pivot);
        let flushed = self.flush(trigger)?;
        self.compact_wal(flushed)?;

        if let Some(every) = self.config.wa_snapshot_every {
            if self.metrics.user_points % every == 0 {
                self.metrics.wa_snapshots.push(WaSnapshot {
                    user_points: self.metrics.user_points,
                    disk_points_written: self.metrics.disk_points_written,
                });
            }
        }
        Ok(outcome)
    }

    /// Seals the MemTable `trigger` names into the run and returns the
    /// generation-time range it took out of memory (`None`: nothing to
    /// flush). The log is not told here — see
    /// [`compact_wal`](Self::compact_wal).
    fn flush(&mut self, trigger: FlushTrigger) -> Result<Option<TimeRange>> {
        if trigger == FlushTrigger::None {
            return Ok(None);
        }
        let points = self.buffers.take(trigger);
        self.obs.emit(|| Event::MemtableSealed {
            points: points.len() as u64,
        });
        let flushed = self.flush_into_run(points, trigger.is_merge())?;
        // Temporal invariants after every flush/compaction; the store
        // cross-check already ran inside the plan executor.
        self.invariants
            .observe_metrics(&self.version, &self.metrics)?;
        Ok(flushed)
    }

    /// The one flush: plan the merge of `points` with every run table
    /// overlapping their range (pure), then execute the plan against
    /// store/version/metrics. A `C_seq` buffer lies strictly past the run
    /// tail, so it finds no overlap and its plan commits as a flush that
    /// rewrites nothing; `merging` marks the buffers (`C0`, `C_nonseq`) whose
    /// flushes the Fig. 5 probe counts. Returns the range of `points` — what
    /// a log checkpoint of this flush supersedes — which an engine whose
    /// owner commits also leaves in its outbox.
    fn flush_into_run(
        &mut self,
        points: Vec<DataPoint>,
        merging: bool,
    ) -> Result<Option<TimeRange>> {
        let (Some(first), Some(last)) = (points.first(), points.last()) else {
            return Ok(None);
        };
        let flushed = TimeRange::new(first.gen_time, last.gen_time);
        let run = self.version.run();
        let overlapping = run.overlapping(flushed);
        let subsequent_base = (merging && self.config.record_subsequent)
            .then(|| run.points_in_tables_above(first.gen_time));
        let mut inputs = Vec::with_capacity(overlapping.len());
        for meta in overlapping {
            inputs.push(RunInput {
                meta,
                points: self.store.get(meta.id)?,
            });
        }
        let plan = compaction::plan_merge(
            vec![points],
            inputs,
            self.config.sstable_points,
            subsequent_base,
        );
        let journal = match self.outbox.as_mut() {
            Some(outbox) => Journal::Owner(outbox),
            None => Journal::Own(self.manifest.as_mut()),
        };
        compaction::execute(
            plan,
            self.store.as_ref(),
            &mut self.version,
            journal,
            &mut self.metrics,
            &self.obs,
        )?;
        if let Some(outbox) = self.outbox.as_mut() {
            outbox.flushed.push(flushed);
        }
        Ok(Some(flushed))
    }

    /// Checkpoints the WAL after flushes that took `flushed` committed — a
    /// frame queued in the log, no I/O, carrying whatever is still buffered
    /// inside that range (in steady state nothing: `C_nonseq` lies below
    /// every `C_seq` flush and the other way round) — and cuts the file when
    /// its dead bytes have come to outweigh the live ones. Only call it
    /// while every volatile point is in the buffers ([`Wal::checkpoint`]).
    /// An engine without a log of its own (a fleet series) has nothing to
    /// do: its owner checkpoints it once the outbox is durable.
    fn compact_wal(&mut self, flushed: Option<TimeRange>) -> Result<()> {
        let (Some(wal), Some(flushed)) = (self.wal.as_mut(), flushed) else {
            return Ok(());
        };
        if wal.checkpoint(0, flushed, &self.buffers.merged_scan(flushed))? {
            wal.rewrite(&[(0, self.buffers.snapshot_sorted())])?;
        }
        Ok(())
    }

    /// Size and history of the write-ahead log, when one is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// Size and history of the manifest, when one is attached.
    pub fn manifest_stats(&self) -> Option<ManifestStats> {
        self.manifest.as_ref().map(Manifest::stats)
    }

    /// Flushes and fsyncs the write-ahead log (no-op without a WAL). Call
    /// after a batch of appends to make buffered points durable without
    /// forcing SSTable flushes.
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync_wal(&mut self) -> Result<()> {
        if let Some(wal) = self.wal.as_mut() {
            wal.sync()?;
        }
        Ok(())
    }

    /// Forces all buffered points to disk (`C_seq` first, while it still
    /// lies past the run tail, then the merging buffer).
    ///
    /// # Errors
    /// Storage failures.
    pub fn flush_all(&mut self) -> Result<()> {
        let drained = self.buffers.drain_all();
        self.flush_into_run(drained.in_order, false)?;
        self.flush_into_run(drained.merging, true)?;
        // The engine comes to rest here: nothing is buffered, so the log is
        // cut to its header (which stands in for the two checkpoints), and
        // the manifest sheds its dead records.
        if let Some(wal) = self.wal.as_mut() {
            wal.rewrite(&[])?;
        }
        if let Some(manifest) = self.manifest.as_mut() {
            self.version.compact_manifest(manifest)?;
        }
        self.invariants
            .observe_metrics(&self.version, &self.metrics)
    }

    /// Switches the buffering policy without touching the disk: buffered
    /// points are re-routed through [`PolicyBuffers::migrate`] into the new
    /// MemTable set (which may trigger flushes if the new buffers are
    /// smaller). Used by the adaptive tuner; `MultiSeriesEngine` and
    /// `TieredEngine` go through the same migration path.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for degenerate policies; storage failures
    /// from triggered flushes.
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
        let mut flushed: Option<TimeRange> = None;
        for p in buffered {
            // Re-routed, not appended: classified and buffered like any
            // point, but neither admitted, logged nor counted again.
            let pivot = self.version.run().last_gen_time();
            self.obs.emit(|| Event::PointClassified {
                in_order: pivot.is_none_or(|pv| p.gen_time > pv),
            });
            let trigger = self.buffers.insert(p, pivot);
            if let Some(range) = self.flush(trigger)? {
                flushed = Some(flushed.map_or(range, |f| f.union(&range)));
            }
        }
        // One checkpoint, and only now: until the last point is back in a
        // buffer the tail of `buffered` is volatile and in neither MemTable,
        // so a checkpoint queued from inside the loop would not carry it.
        self.compact_wal(flushed)
    }

    /// The engine's read view of `range`: MemTables and the run (this
    /// engine has no flushing batches and no L0).
    fn view(&self, range: TimeRange) -> ReadView<'_> {
        ReadView::capture(
            self.store.as_ref(),
            &self.obs,
            self.config.block_reads,
            range,
            &self.buffers,
            &self.version,
        )
    }

    /// Range query over generation time, merging MemTables and the run.
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
        self.view(range).query()
    }

    /// Aggregates `range`: min/max/sum/count over exactly the points
    /// [`query`](Self::query) would return, answered where possible from v3
    /// index pre-aggregates without decoding data blocks — see the
    /// [fold rule](crate::query#the-fold-rule) for when a block folds and
    /// how exact the result is. In this engine the run holds
    /// non-overlapping tables, so buffered MemTable points are the only
    /// fresher source that can shadow a block.
    ///
    /// # Errors
    /// Storage failures.
    pub fn aggregate(&self, range: TimeRange) -> Result<(Agg, QueryStats)> {
        self.view(range).aggregate()
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
        self.view(range).downsample(bucket_width)
    }

    /// Point lookup by generation time: MemTables first (freshest wins),
    /// then the one run table whose range contains it.
    ///
    /// # Errors
    /// Storage failures.
    pub fn get(&self, gen_time: Timestamp) -> Result<Option<DataPoint>> {
        self.view(TimeRange::new(gen_time, gen_time)).get()
    }

    /// Every stored point (buffered + on disk), sorted by generation time.
    ///
    /// # Errors
    /// Storage failures.
    pub fn scan_all(&self) -> Result<Vec<DataPoint>> {
        let range = TimeRange::new(Timestamp::MIN, Timestamp::MAX);
        Ok(self.query(range)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_memory(config: EngineConfig) -> Result<LsmEngine> {
        OpenOptions::new(config).open()
    }

    fn on_store(
        config: EngineConfig,
        store: Arc<dyn TableStore>,
    ) -> Result<LsmEngine> {
        OpenOptions::new(config).store(store).open()
    }

    fn in_order_points(n: i64) -> Vec<DataPoint> {
        (0..n)
            .map(|i| DataPoint::new(i * 10, i * 10, i as f64))
            .collect()
    }

    #[test]
    fn in_order_ingest_under_pi_c_has_wa_one() {
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
        )
        .expect("engine");
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
    fn out_of_order_ingest_under_pi_c_rewrites() {
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        )
        .expect("engine");
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
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(7)).with_sstable_points(5),
        )
        .expect("engine");
        // Deterministic shuffled-ish order.
        let mut tgs: Vec<i64> = (0..200).map(|i| (i * 73) % 200).collect();
        tgs.dedup();
        for &tg in &tgs {
            e.append(DataPoint::new(tg, 10_000 + tg, tg as f64))
                .expect("append");
        }
        let all = e.scan_all().expect("scan");
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0].gen_time < w[1].gen_time));
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.gen_time, i as i64);
        }
    }

    #[test]
    fn separation_routes_by_last_disk_gen_time() {
        let mut e = in_memory(
            EngineConfig::new(Policy::separation(8, 4).expect("policy"))
                .with_sstable_points(4),
        )
        .expect("engine");
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
        let mut e = in_memory(
            EngineConfig::new(Policy::separation(64, 32).expect("policy"))
                .with_sstable_points(8),
        )
        .expect("engine");
        for p in in_order_points(320) {
            e.append(p).expect("append");
        }
        assert_eq!(e.metrics().rewritten_points, 0);
        assert_eq!(e.metrics().compactions, 0);
        assert!((e.metrics().write_amplification() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn duplicate_gen_time_upserts_latest_value() {
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
        )
        .expect("engine");
        for p in in_order_points(8) {
            e.append(p).expect("append");
        }
        // Overwrite tg=30 (already on disk) with a new value.
        e.append(DataPoint::new(30, 999, 123.0)).expect("append");
        let (hits, _) = e.query(TimeRange::new(30, 30)).expect("query");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value, 123.0, "memtable version must win");
        // Force it to disk and re-check.
        for tg in [200i64, 210, 220] {
            e.append(DataPoint::new(tg, tg, 0.0)).expect("append");
        }
        let (hits, _) = e.query(TimeRange::new(30, 30)).expect("query");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value, 123.0, "compacted version must win");
        assert_eq!(e.scan_all().expect("scan").len(), 11);
    }

    #[test]
    fn query_stats_count_tables_and_points() {
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(8)).with_sstable_points(8),
        )
        .expect("engine");
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
        let mut e = in_memory(EngineConfig::new(Policy::conventional(100)))
            .expect("engine");
        e.append(DataPoint::new(5, 5, 1.0)).expect("append");
        let (hits, stats) = e.query(TimeRange::new(0, 10)).expect("query");
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.tables_read, 0);
        assert_eq!(stats.mem_points_scanned, 1);
    }

    #[test]
    fn flush_all_persists_everything() {
        let mut e = in_memory(EngineConfig::new(
            Policy::separation(100, 50).expect("policy"),
        ))
        .expect("engine");
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
        let mut e = in_memory(EngineConfig::new(Policy::conventional(100)))
            .expect("engine");
        for p in in_order_points(10) {
            e.append(p).expect("append");
        }
        let user_before = e.metrics().user_points;
        e.set_policy(Policy::separation(100, 50).expect("policy"))
            .expect("switch");
        assert_eq!(e.metrics().user_points, user_before);
        assert_eq!(e.buffered_points(), 10);
        assert_eq!(e.scan_all().expect("scan").len(), 10);
        // Switch back while data is buffered.
        e.set_policy(Policy::conventional(100))
            .expect("switch back");
        assert_eq!(e.scan_all().expect("scan").len(), 10);
    }

    #[test]
    fn wa_snapshots_are_recorded() {
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(4))
                .with_sstable_points(4)
                .with_wa_snapshots(10),
        )
        .expect("engine");
        for p in in_order_points(35) {
            e.append(p).expect("append");
        }
        assert_eq!(e.metrics().wa_snapshots.len(), 3);
        assert_eq!(e.metrics().wa_snapshots[0].user_points, 10);
        assert_eq!(e.metrics().wa_snapshots[2].user_points, 30);
    }

    #[test]
    fn subsequent_probe_counts_points_above_buffer_min() {
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(4))
                .with_sstable_points(4)
                .with_subsequent_probe(),
        )
        .expect("engine");
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
        let mut e = in_memory(
            EngineConfig::new(Policy::separation(8, 4).expect("policy"))
                .with_sstable_points(4)
                .with_subsequent_probe(),
        )
        .expect("engine");
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
        let mut e = in_memory(
            EngineConfig::new(Policy::separation(8, 4).expect("policy"))
                .with_sstable_points(4),
        )
        .expect("engine");
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
        use crate::sstable::EncodeOptions;
        use crate::store::MemStore;
        use std::sync::Arc;

        let run = |block_reads: bool| {
            let mut config = EngineConfig::new(Policy::conventional(128))
                .with_sstable_points(128);
            if block_reads {
                config = config.with_block_reads();
            }
            let store = Arc::new(MemStore::with_options(EncodeOptions {
                compression: crate::sstable::Compression::TimeSeries,
                block_points: 16,
            }));
            let mut e = on_store(config, store).expect("engine");
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
        use crate::cache::BlockCache;
        use crate::sstable::EncodeOptions;
        use crate::store::MemStore;
        use std::sync::Arc;

        let cache = BlockCache::with_capacity(64 * 1024);
        let store = Arc::new(MemStore::with_options(EncodeOptions {
            compression: crate::sstable::Compression::TimeSeries,
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
        use crate::cache::BlockCache;
        use crate::sstable::EncodeOptions;
        use crate::store::MemStore;
        use std::sync::Arc;

        let run = |cache: Option<Arc<BlockCache>>| {
            let store =
                Arc::new(MemStore::with_options(EncodeOptions::compressed()));
            let mut opts = OpenOptions::new(
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
            let points = e.scan_all().expect("scan");
            (points, e.metrics().clone())
        };
        let cache = BlockCache::with_capacity(8 * 1024);
        let (cached_points, cached_metrics) = run(Some(Arc::clone(&cache)));
        let (plain_points, plain_metrics) = run(None);
        assert_eq!(cached_points, plain_points);
        assert_eq!(
            cached_metrics.disk_points_written,
            plain_metrics.disk_points_written,
            "the cache must not change write behaviour"
        );
        assert!(cache.stats().hits + cache.stats().misses > 0);
    }

    #[test]
    fn engine_round_trips_on_compressed_store() {
        use crate::sstable::EncodeOptions;
        use crate::store::MemStore;
        use std::sync::Arc;

        let store =
            Arc::new(MemStore::with_options(EncodeOptions::compressed()));
        let mut e = on_store(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
            store,
        )
        .expect("engine");
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
    fn rejects_degenerate_configs() {
        assert!(in_memory(
            EngineConfig::new(Policy::conventional(8)).with_sstable_points(0)
        )
        .is_err());
        assert!(Policy::separation(8, 0).is_err());
        assert!(Policy::separation(8, 8).is_err());
    }

    #[test]
    fn aggregate_folds_fully_covered_blocks() {
        // 64 in-order points flush into 8 single-block v3 tables; a query
        // covering the whole run is answered purely from index
        // pre-aggregates: no data block is decoded.
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
        )
        .expect("engine");
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
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
        )
        .expect("engine");
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
        let mut e = in_memory(
            EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
        )
        .expect("engine");
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
        use crate::cache::BlockCache;
        use std::sync::Arc;

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
        /// out-of-order histories, on v3 stores (mixed fold/decode plans)
        /// and on v2 stores, where tables carry no pre-aggregates and
        /// always take the decode path. Integer-valued samples keep the
        /// f64 sum associative, so even `sum` is exact.
        #[test]
        fn pushdown_matches_query_fold(
            raw in proptest::collection::vec(
                (-50i64..400, -1_000i32..1_000),
                1..150,
            ),
            bounds in (-100i64..500, -100i64..500),
            width in 1i64..64,
        ) {
            use crate::sstable::EncodeOptions;
            use crate::store::MemStore;
            use std::sync::Arc;

            let range = TimeRange::new(
                bounds.0.min(bounds.1),
                bounds.0.max(bounds.1),
            );
            for v3 in [true, false] {
                let options = if v3 {
                    EncodeOptions::pruned()
                } else {
                    EncodeOptions::compressed()
                };
                let store = Arc::new(MemStore::with_options(options));
                let mut e = on_store(
                    EngineConfig::new(Policy::conventional(7))
                        .with_sstable_points(5),
                    store,
                )
                .expect("engine");
                for &(tg, v) in &raw {
                    e.append(DataPoint::new(tg, tg, f64::from(v)))
                        .expect("append");
                }
                let (pts, _) = e.query(range).expect("query");
                let mut want = crate::query::Agg::default();
                for p in &pts {
                    want.merge_point(p.value);
                }
                let (got, stats) = e.aggregate(range).expect("aggregate");
                proptest::prop_assert!(
                    got.bits_eq(&want),
                    "aggregate mismatch (v3={}): {:?} vs {:?}",
                    v3,
                    got,
                    want
                );
                if !v3 {
                    proptest::prop_assert_eq!(stats.blocks_folded, 0);
                }
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
                        "bucket {} mismatch (v3={}): {:?} vs {:?}",
                        got_tg,
                        v3,
                        got_agg,
                        want_agg
                    );
                }
            }
        }
    }
}
