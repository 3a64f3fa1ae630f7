//! Multi-series management: one logical store, many independent series.
//!
//! The paper's industrial setting (§VI) records *thousands* of time series
//! per vehicle, each with its own delay behaviour — IoTDB buffers and tunes
//! them independently. [`MultiSeriesEngine`] provides that shape: each
//! [`SeriesId`] gets its own MemTables, level-1 run and metrics (so policies
//! can differ per series), while all series share one [`TableStore`] — and
//! the one pool of tables lately written to it, which their merges take
//! their inputs from before they read the store.
//!
//! With [`MultiOpenOptions::durable_dir`] the collection is durable: one
//! write-ahead log (`fleet.wal`, every frame tagged with its series) and one
//! manifest (`fleet.manifest`, every edit group tagged with its series) for
//! the whole fleet, inside one metadata directory. The series' engines keep
//! neither: the fleet logs a point before handing it to its series' engine,
//! and a flush there only publishes its tables unsynced, switches the
//! series' in-memory version over (reads see the new tables at once;
//! consumed inputs that no horizon synced are deleted, durable ones stay on
//! disk) and notes what is left to do in the engine's outbox.
//!
//! # The horizon
//!
//! What the outboxes hold becomes durable together, on the caller's thread,
//! in ascending series order, at the fleet's *horizon*: the one of the
//! `compaction` module docs, run over every series at once. It is due once
//! the series' flushes have taken the fleet's pool budget of points
//! (`Written::TABLES` tables' worth) out of memory since the last one —
//! checked at [`MultiSeriesEngine::sync_wal_all`] — or once more than
//! `MAX_UNCOMMITTED_TABLES` live tables wait unsynced — checked there and
//! after every append — and it runs at each wave barrier of
//! [`MultiSeriesEngine::flush_all`] and at the end of recovery:
//!
//! 1. one fsync per table that is still live and unsynced, in every series;
//! 2. one fsync of the tables directory;
//! 3. one append and one fsync of `fleet.manifest`, carrying one edit group
//!    per series that changed: its net change since the durable version;
//! 4. the deletion of the durable inputs the series retired;
//! 5. only then is each of those series checkpointed in the log — one queued
//!    frame per disjoint generation-time range its flushes took, carrying
//!    what the series has buffered inside that range since; a log cut, if
//!    it has become due, comes after all of them.
//!
//! Between horizons a batch costs the log's one write and one fsync, however
//! many series it touched or flushed; a batch that reaches a horizon pays
//! Σk + 3 for the Σk tables still live. A crash before step 3 completes
//! recovers the old versions — their durable inputs were never deleted, the
//! unsynced tables are swept with the store's tmp files — and replays
//! everything the flushes had taken out of memory, because no checkpoint
//! covering it was ever queued. A crash after it finds the new versions and
//! a log that may still hold superseded frames: replay returns more, never
//! less.
//!
//! [`MultiOpenOptions::open_or_recover`] replays `fleet.manifest` once,
//! rebuilds every series' version from its share, folds in what an older
//! layout left behind (`series-<n>.manifest`, `series-<n>.wal`) and removes
//! those files, and then replays the log, handing each frame's points to
//! the series it names. New and recovered series alike are opened through
//! the single-series [`OpenOptions`].

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use seplsm_types::{DataPoint, Error, Policy, Result, TimeRange};

use crate::admission::AdmissionOutcome;
use crate::arbiter::{Arbiter, ArbiterStats, Rebalance};
use crate::compaction::{self, Record, Written, MAX_UNCOMMITTED_TABLES};
use crate::engine::{checkpoint_retired, EngineConfig, LsmEngine};
use crate::fault::FaultPlan;
use crate::manifest::{Levels, Manifest, ManifestStats, SeriesTables};
use crate::metrics::Metrics;
use crate::obs::{Event, Observer, ObserverHandle};
use crate::open::{self, Fleet, Kind, MultiOpenOptions, OpenOptions};
use crate::query::{Agg, Bucket, QueryStats};
use crate::recovery::{self, RecoveryMode, RecoveryOptions, RecoveryReport};
use crate::sstable::SsTableId;
use crate::store::{sync_dir, TableStore};
use crate::wal::{Wal, WalStats};

/// Identifier of one time series (e.g. one sensor channel of one vehicle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u32);

impl std::fmt::Display for SeriesId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "series-{}", self.0)
    }
}

/// Aggregate write counters across all series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiMetrics {
    /// Series hosted.
    pub series: usize,
    /// Total user points across series.
    pub user_points: u64,
    /// Total points physically written.
    pub disk_points_written: u64,
    /// Total flushes.
    pub flushes: u64,
    /// Total merge compactions.
    pub compactions: u64,
}

impl MultiMetrics {
    /// Builds the aggregate view from a summed kernel [`Metrics`].
    pub fn from_metrics(series: usize, metrics: &Metrics) -> Self {
        Self {
            series,
            user_points: metrics.user_points,
            disk_points_written: metrics.disk_points_written,
            flushes: metrics.flushes,
            compactions: metrics.compactions,
        }
    }

    /// Fleet-wide write amplification (the shared §I-B definition).
    pub fn write_amplification(&self) -> f64 {
        crate::metrics::write_amplification(
            self.disk_points_written,
            self.user_points,
        )
    }
}

/// A collection of independently-buffered series over one shared store.
pub struct MultiSeriesEngine {
    store: Arc<dyn TableStore>,
    /// The pool of written tables over `store`, shared like the store: a
    /// merge of one series finds the tables that series wrote whoever
    /// wrote last.
    written: Arc<Written>,
    template: EngineConfig,
    series: HashMap<SeriesId, LsmEngine>,
    /// When set, the fleet log and the fleet manifest live under this
    /// directory.
    durable_dir: Option<PathBuf>,
    /// The fleet's one write-ahead log (`durable_dir/fleet.wal`). Only the
    /// thread that owns the engine ever touches it.
    wal: Option<Wal>,
    /// The fleet's one manifest (`durable_dir/fleet.manifest`), written
    /// only at horizons, by the thread that owns the engine.
    fleet_manifest: Option<Manifest>,
    /// Event sink cloned into every series engine (current and future).
    obs: ObserverHandle,
    /// Upper bound on flush worker threads (1 = sequential, no spawning).
    workers: usize,
    /// At most this many series are outstanding in the flush pool at once.
    flush_queue_depth: usize,
    /// Cumulative flush waves (and inline fallbacks) that had to wait on
    /// the depth-bounded queue — the fleet-level `Delayed` count.
    fleet_delayed_waves: u64,
    /// The fleet memory arbiter, when opened with
    /// [`MultiOpenOptions::arbiter`]. Behind a `Mutex` only because the
    /// (read-only) query path records heat; the lock is always dropped
    /// before any engine I/O, and rebalances run exclusively on the
    /// `&mut self` append path.
    arbiter: Option<Mutex<Arbiter>>,
    /// Cumulative online policy switches applied through
    /// [`MultiSeriesEngine::retune`].
    fleet_retunes: u64,
}

impl Kind for Fleet {
    type Engine = MultiSeriesEngine;

    /// Fresh: an empty collection (the durable directory, the fleet log
    /// and an empty fleet manifest are created if a directory is
    /// configured). Recovering: `fleet.manifest` rebuilds every series'
    /// version through the single-series path, then the fleet log is
    /// replayed into the series its frames name, and the reports are
    /// folded into one. Orphan GC (when requested) runs once, *after* every
    /// series has recovered, against the union of all series' live tables
    /// — the shared store makes any per-series sweep unsound.
    fn assemble(
        options: MultiOpenOptions,
        store: Arc<dyn TableStore>,
        recover: bool,
    ) -> Result<(MultiSeriesEngine, RecoveryReport)> {
        let fleet = options.kind;
        if recover && fleet.durable_dir.is_none() {
            return Err(Error::InvalidConfig(
                "multi-series recovery scans the durable directory: \
                 configure OpenOptions::durable_dir"
                    .into(),
            ));
        }
        if let Some(dir) = &fleet.durable_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut engine = MultiSeriesEngine {
            store,
            written: options.written,
            template: options.config,
            series: HashMap::new(),
            durable_dir: fleet.durable_dir,
            wal: None,
            fleet_manifest: None,
            obs: options.observer,
            workers: fleet.workers,
            flush_queue_depth: fleet.flush_queue_depth,
            fleet_delayed_waves: 0,
            arbiter: None,
            fleet_retunes: 0,
        };
        let mut report = RecoveryReport::default();
        if recover {
            engine.recover_series(options.recovery, &mut report)?;
        } else if let Some(dir) = engine.durable_dir.clone() {
            engine.wal =
                Some(open::open_wal(&dir.join(FLEET_WAL), &engine.obs)?);
            engine.fleet_manifest = Some(engine.open_manifest(&dir)?);
        }
        // Series already hosted (the recovery path) stay at their recovered
        // capacity until their first post-open append admits them into
        // arbitration.
        if let Some(config) = fleet.arbiter {
            engine.arbiter = Some(Mutex::new(Arbiter::new(config)?));
        }
        Ok((engine, report))
    }

    /// The fleet log and the fleet manifest: the series' engines write
    /// neither.
    fn attach_faults(engine: &mut MultiSeriesEngine, plan: &Arc<FaultPlan>) {
        open::attach_faults(
            plan,
            engine.wal.as_mut(),
            engine.fleet_manifest.as_mut(),
        );
    }
}

/// The fleet log's file name inside the durable directory.
const FLEET_WAL: &str = "fleet.wal";
/// The fleet manifest's file name inside the durable directory.
const FLEET_MANIFEST: &str = "fleet.manifest";

/// The `series-<n><suffix>` files an older layout left in `dir`, in
/// ascending series order. Only the spelling that layout wrote counts —
/// `series-007.wal` or `series-+7.wal` would otherwise name series 7 a
/// second time and silently replace what `series-7.wal` held: such a file
/// is [`Error::Corrupt`] in strict mode and skipped, and reported, in
/// salvage mode.
fn legacy_files(
    dir: &Path,
    suffix: &str,
    options: RecoveryOptions,
    report: &mut RecoveryReport,
) -> Result<Vec<(SeriesId, PathBuf)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(stem) = name
            .to_str()
            .and_then(|n| n.strip_prefix("series-")?.strip_suffix(suffix))
        else {
            continue;
        };
        match stem.parse::<u32>() {
            Ok(n) if n.to_string() == stem => {
                files.push((SeriesId(n), entry.path()));
            }
            _ if options.mode == RecoveryMode::Salvage => {
                report.files_skipped.push(entry.path());
            }
            _ => {
                return Err(Error::Corrupt(format!(
                    "{} is not a series file name this layout ever wrote",
                    entry.path().display()
                )))
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Folds the per-series logs of the older layout (`old`: one fixed-record
/// `series-<n>.wal` per series) into the fleet log at `fleet_wal`; the
/// caller removes them. Safe to repeat: a crash before the removal is
/// durable folds the same points in again, behind their first copies.
fn fold_series_logs(
    fleet_wal: &Path,
    old: &[(SeriesId, PathBuf)],
    options: RecoveryOptions,
    report: &mut RecoveryReport,
) -> Result<()> {
    if old.is_empty() {
        return Ok(());
    }
    let salvage = options.mode == RecoveryMode::Salvage;
    let (mut wal, _) = Wal::recover(fleet_wal, !salvage)?;
    for (series, path) in old {
        let replay = if salvage {
            Wal::replay_salvage(path)?
        } else {
            Wal::replay(path)?
        };
        if salvage {
            report.wal_records_dropped += replay.dropped;
        }
        // A one-series log knows its points only as series 0.
        for p in replay.series.values().flatten() {
            wal.append_for(series.0, p)?;
        }
    }
    wal.sync()
}

/// Every series' live tables, in ascending series order: what a rewrite of
/// the fleet manifest records.
fn live_tables(series: &HashMap<SeriesId, LsmEngine>) -> Vec<SeriesTables<'_>> {
    let mut live: Vec<SeriesTables<'_>> = series
        .iter()
        .map(|(id, engine)| SeriesTables {
            series: id.0,
            run: engine.version().run().tables(),
            l0: engine.version().l0(),
        })
        .collect();
    live.sort_by_key(|tables| tables.series);
    live
}

impl MultiSeriesEngine {
    /// The builder one series of this collection opens through: the
    /// template configuration over the shared store and the store's pool of
    /// written tables, reporting to the collection's observer, with neither
    /// log nor manifest — a durable collection keeps both for it and
    /// commits its flushes, and hands a recovering series the `levels` its
    /// manifest holds for it.
    fn series_options(&self, levels: Option<Levels>) -> OpenOptions {
        let mut options = OpenOptions::new(self.template.clone())
            .store(Arc::clone(&self.store));
        options.written = Arc::clone(&self.written);
        options.observer = self.obs.clone();
        options.kind.owner_commits = self.durable_dir.is_some();
        options.kind.levels = levels;
        options
    }

    /// Opens `dir/fleet.manifest`, reporting to the fleet's observer, and
    /// re-seeds it with the levels of every series hosted so far, so it is
    /// authoritative for them from its first record on.
    fn open_manifest(&self, dir: &Path) -> Result<Manifest> {
        let mut manifest = Manifest::open(dir.join(FLEET_MANIFEST))?;
        manifest.attach_observer(self.obs.clone());
        manifest.rewrite_fleet(&live_tables(&self.series))?;
        Ok(manifest)
    }

    /// The engine of `series`, opened fresh on first use.
    fn series_mut(&mut self, series: SeriesId) -> Result<&mut LsmEngine> {
        if !self.series.contains_key(&series) {
            let engine = self.series_options(None).open()?;
            self.series.insert(series, engine);
        }
        self.series
            .get_mut(&series)
            .ok_or(Error::UnknownSeries(series.0))
    }

    /// What every series left to the next horizon: the points their
    /// flushes took out of memory and the live tables waiting.
    fn waiting(&self) -> (usize, usize) {
        self.series.values().map(LsmEngine::outbox).fold(
            (0, 0),
            |(points, tables), outbox| {
                (points + outbox.points, tables + outbox.waiting())
            },
        )
    }

    /// Every series' still-buffered points, in ascending series order: what
    /// a cut of the fleet log must carry over.
    fn wal_survivors(&self) -> Vec<(u32, Vec<DataPoint>)> {
        let mut survivors: Vec<(u32, Vec<DataPoint>)> = self
            .series
            .iter()
            .map(|(id, engine)| (id.0, engine.buffered_snapshot()))
            .collect();
        survivors.sort_by_key(|(series, _)| *series);
        survivors
    }

    /// The horizon (see the module docs): makes everything the series'
    /// flushes left in their outboxes durable — their live tables synced,
    /// one directory fsync, one manifest append + fsync, their retired
    /// inputs deleted ([`compaction::horizon`]) — and only then checkpoints
    /// those series in the log and, when a checkpoint says it pays, cuts
    /// the log. A no-op for a fleet that is not durable or has nothing
    /// waiting.
    ///
    /// # Errors
    /// A failure up to the manifest fsync leaves every outbox for the next
    /// horizon to retry (see [`compaction::horizon`]); one after it leaves
    /// at worst undeleted inputs (orphans) and unqueued checkpoints (a
    /// crash replays more).
    fn commit_pending(&mut self) -> Result<()> {
        let Some(fleet_manifest) = self.fleet_manifest.as_mut() else {
            return Ok(());
        };
        let mut engines: Vec<(&SeriesId, &mut LsmEngine)> =
            self.series.iter_mut().collect();
        engines.sort_by_key(|(id, _)| **id);
        let mut shares: Vec<_> = engines
            .into_iter()
            .map(|(id, engine)| engine.share(id.0))
            .collect();
        let flushed = compaction::horizon(
            self.store.as_ref(),
            Record::Fleet(&mut shares, fleet_manifest),
        )?;
        let mut cut_due = false;
        for (series, ranges) in flushed {
            if let (Some(wal), Some(engine)) =
                (self.wal.as_mut(), self.series.get(&SeriesId(series)))
            {
                // What the series buffers inside a flushed range arrived
                // after the flush: everything volatile is in its MemTables.
                cut_due |= checkpoint_retired(
                    wal,
                    series,
                    ranges,
                    &[],
                    engine.buffers(),
                )?;
            }
        }
        if cut_due {
            let survivors = self.wal_survivors();
            if let Some(wal) = self.wal.as_mut() {
                wal.rewrite(&survivors)?;
            }
        }
        Ok(())
    }

    /// Restores every series `fleet.manifest` names (and every series an
    /// older layout left a `series-<n>.manifest` for, which replaces what
    /// the fleet manifest says about it), makes the fleet manifest
    /// authoritative for all of them, removes the older layout's files,
    /// then replays the fleet log over the series (one known only to the
    /// log is created).
    fn recover_series(
        &mut self,
        options: RecoveryOptions,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let Some(dir) = self.durable_dir.clone() else {
            return Ok(());
        };
        let salvage = options.mode == RecoveryMode::Salvage;
        // GC is deferred to the fleet-wide sweep below; a per-series sweep
        // would delete the other series' tables.
        let per_series = RecoveryOptions {
            gc_orphans: false,
            ..options
        };
        let (mut levels, dropped) =
            Manifest::replay_fleet(dir.join(FLEET_MANIFEST), !salvage)?;
        if salvage {
            report.manifest_records_dropped += dropped;
        }
        let old_manifests = legacy_files(&dir, ".manifest", options, report)?;
        for (id, path) in &old_manifests {
            let folded = recovery::replay_manifest(path, options.mode, report)?;
            levels.insert(id.0, folded);
        }
        for (id, levels) in levels {
            let (engine, series_report) = self
                .series_options(Some(levels))
                .recovery(per_series)
                .open_or_recover()?;
            report.merge(series_report);
            self.series.insert(SeriesId(id), engine);
        }
        // The fold: rewritten from the recovered versions, the fleet
        // manifest now holds what the per-series manifests held. Repeating
        // it after a crash short of the removal below changes nothing.
        self.fleet_manifest = Some(self.open_manifest(&dir)?);
        let fleet_wal = dir.join(FLEET_WAL);
        let old_logs = legacy_files(&dir, ".wal", options, report)?;
        fold_series_logs(&fleet_wal, &old_logs, options, report)?;
        if !(old_manifests.is_empty() && old_logs.is_empty()) {
            for (_, path) in old_manifests.iter().chain(&old_logs) {
                std::fs::remove_file(path)?;
            }
            // A removed file that came back after a crash would be folded
            // in again later, over newer state the fleet's own files have
            // since let go of.
            sync_dir(&dir)?;
        }
        let obs = self.obs.clone();
        let wal = recovery::replay_wal(
            self,
            &fleet_wal,
            options.mode,
            report,
            &obs,
            |fleet, series, p| {
                fleet.series_mut(SeriesId(series))?.append(p).map(drop)
            },
            // Flushes the replay triggered are committed before the cut
            // lets go of their points (no log is attached yet: the cut
            // itself stands in for their checkpoints).
            |fleet| {
                fleet.commit_pending()?;
                Ok(fleet.wal_survivors())
            },
        )?;
        self.wal = Some(wal);
        if options.gc_orphans {
            let mut live: HashSet<SsTableId> = HashSet::new();
            for e in self.series.values() {
                live.extend(e.version().live_table_ids());
            }
            recovery::gc_orphans(
                self.store.as_ref(),
                &live,
                report,
                &self.obs,
            )?;
        }
        Ok(())
    }

    /// Audits every series' version and tables against the shared store.
    ///
    /// # Errors
    /// [`Error::Corrupt`] (or a store read error) on the first violation in
    /// any series.
    pub fn check_integrity(&self) -> Result<()> {
        for engine in self.series.values() {
            engine.check_integrity()?;
        }
        Ok(())
    }

    /// Number of series hosted so far.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` before the first append.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The hosted series ids, in ascending order.
    pub fn series_ids(&self) -> Vec<SeriesId> {
        let mut ids: Vec<SeriesId> = self.series.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The engine behind `series`, if it exists.
    pub fn engine(&self, series: SeriesId) -> Option<&LsmEngine> {
        self.series.get(&series)
    }

    /// Writes one point into `series` (creating the series on first write)
    /// and reports the admission outcome observed by that series' engine.
    ///
    /// With an [`MultiOpenOptions::arbiter`] configured the append first ticks
    /// the arbiter (admitting a new series at the floor, or erroring when
    /// the budget cannot host it), and any due [`Rebalance`] plan is
    /// applied — and its events emitted — right after the point lands,
    /// still on this single-threaded path, so seeded traces stay
    /// byte-identical across worker counts. Past
    /// `MAX_UNCOMMITTED_TABLES` live tables waiting unsynced the append
    /// runs the fleet's horizon.
    ///
    /// # Errors
    /// Arbiter budget exhaustion for a brand-new series; storage failures.
    pub fn append(
        &mut self,
        series: SeriesId,
        p: DataPoint,
    ) -> Result<AdmissionOutcome> {
        let fresh = !self.series.contains_key(&series);
        let mut plan = None;
        let mut admitted = None;
        if let Some(arb) = self.arbiter.as_mut() {
            let arb = arb.get_mut();
            plan = arb.record_append(series.0)?;
            if fresh {
                admitted = arb.capacity_of(series.0);
            }
        }
        let engine = self.series_mut(series)?;
        if let Some(capacity) = admitted {
            // A freshly admitted series starts at its arbiter-assigned
            // capacity, keeping the template policy's shape.
            let policy = engine.policy().resized(capacity as usize)?;
            engine.set_policy(policy)?;
        }
        if let Some(wal) = self.wal.as_mut() {
            wal.append_for(series.0, &p)?;
        }
        let outcome = self.series_mut(series)?.append(p)?;
        if let Some(plan) = plan {
            self.apply_rebalance(&plan)?;
        }
        if self.waiting().1 > MAX_UNCOMMITTED_TABLES {
            self.commit_pending()?;
        }
        Ok(outcome)
    }

    /// Applies one arbiter [`Rebalance`]: every decayed heat is sampled as
    /// an [`Event::HeatSample`] (ascending series id), each resized series
    /// migrates to its rescaled policy through the normal
    /// [`LsmEngine::set_policy`] path, and one [`Event::ArbiterRebalance`]
    /// closes the round. However many series a shrink flushes, their
    /// tables wait for the next horizon together.
    fn apply_rebalance(&mut self, plan: &Rebalance) -> Result<()> {
        for &(series, heat) in &plan.heats {
            self.obs.emit(|| Event::HeatSample {
                series: u64::from(series),
                heat,
            });
        }
        let mut resized = 0u64;
        for assignment in &plan.assignments {
            let id = SeriesId(assignment.series);
            if let Some(engine) = self.series.get_mut(&id) {
                let policy =
                    engine.policy().resized(assignment.capacity as usize)?;
                engine.set_policy(policy)?;
                resized += 1;
            }
        }
        self.obs.emit(|| Event::ArbiterRebalance {
            round: plan.round,
            resized,
            cache_share: plan.cache_share,
        });
        Ok(())
    }

    /// The engine a read of `series` goes to, heating the series when an
    /// arbiter is configured (its lock is released before any engine I/O).
    fn reader(&self, series: SeriesId) -> Result<&LsmEngine> {
        let engine = self
            .series
            .get(&series)
            .ok_or(Error::UnknownSeries(series.0))?;
        if let Some(arb) = &self.arbiter {
            arb.lock().record_query(series.0);
        }
        Ok(engine)
    }

    /// Range query against one series. With an arbiter configured the
    /// query also heats the series; rebalances still fire only from the
    /// append path.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for an unknown series; storage failures.
    pub fn query(
        &self,
        series: SeriesId,
        range: TimeRange,
    ) -> Result<(Vec<DataPoint>, QueryStats)> {
        self.reader(series)?.query(range)
    }

    /// Aggregation pushdown against one series: delegates to
    /// [`LsmEngine::aggregate`], folding v3 index pre-aggregates where the
    /// plan allows and decoding the rest. Heats the series exactly like
    /// [`query`](Self::query) — a pushed-down aggregate is still a read
    /// for the memory arbiter.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] for an unknown series; storage failures.
    pub fn aggregate(
        &self,
        series: SeriesId,
        range: TimeRange,
    ) -> Result<(Agg, QueryStats)> {
        self.reader(series)?.aggregate(range)
    }

    /// Downsampling pushdown against one series: delegates to
    /// [`LsmEngine::downsample`] with the same arbiter heating as
    /// [`query`](Self::query).
    ///
    /// # Errors
    /// [`Error::UnknownSeries`], a non-positive `bucket_width`, or storage
    /// failures.
    pub fn downsample(
        &self,
        series: SeriesId,
        range: TimeRange,
        bucket_width: i64,
    ) -> Result<(Vec<Bucket>, QueryStats)> {
        self.reader(series)?.downsample(range, bucket_width)
    }

    /// Switches the buffering policy of one series (e.g. after a per-series
    /// tuning decision): [`LsmEngine::set_policy`] on its engine.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`], degenerate policies, or storage failures.
    pub fn set_policy(
        &mut self,
        series: SeriesId,
        policy: Policy,
    ) -> Result<()> {
        self.series
            .get_mut(&series)
            .ok_or(Error::UnknownSeries(series.0))?
            .set_policy(policy)
    }

    /// An *online* policy switch decided by a per-series tuner: exactly
    /// [`MultiSeriesEngine::set_policy`], plus the fleet-level retune
    /// counter and one [`Event::PolicyRetuned`] witness (`n_seq` is 0 for
    /// `π_c`). The adaptive fleet controller in `seplsm-core` calls this
    /// whenever drift makes Algorithm 1 pick a new policy for a series.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`], degenerate policies, or storage failures.
    pub fn retune(&mut self, series: SeriesId, policy: Policy) -> Result<()> {
        self.set_policy(series, policy)?;
        self.fleet_retunes += 1;
        self.obs.emit(|| Event::PolicyRetuned {
            series: u64::from(series.0),
            separation: policy.is_separation(),
            n_seq: match policy {
                Policy::Separation { seq_capacity, .. } => seq_capacity as u64,
                Policy::Conventional { .. } => 0,
            },
        });
        Ok(())
    }

    /// Cumulative online policy switches applied through
    /// [`MultiSeriesEngine::retune`].
    pub fn retunes(&self) -> u64 {
        self.fleet_retunes
    }

    /// The arbiter's counters, when one is configured.
    pub fn arbiter_stats(&self) -> Option<ArbiterStats> {
        self.arbiter.as_ref().map(|a| a.lock().stats())
    }

    /// The arbiter-assigned MemTable capacity of `series`, when an
    /// arbiter is configured and the series has been admitted.
    pub fn series_capacity(&self, series: SeriesId) -> Option<u64> {
        self.arbiter
            .as_ref()
            .and_then(|a| a.lock().capacity_of(series.0))
    }

    /// The configured flush worker bound (1 = sequential).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Cumulative flush waves (and inline fallbacks) that waited on the
    /// depth-bounded queue since open — the fleet-level `Delayed` count.
    pub fn fleet_delayed_waves(&self) -> u64 {
        self.fleet_delayed_waves
    }

    /// Flushes every series in ascending [`SeriesId`] order, admitting at
    /// most [`DEFAULT_FLUSH_QUEUE_DEPTH`](crate::admission::DEFAULT_FLUSH_QUEUE_DEPTH)
    /// series into the flush queue
    /// per *wave*. Each wave drains completely before the next is admitted;
    /// every wave after the first counts one logical tick of backpressure,
    /// emits [`Event::AdmissionDelayed`], and turns the returned outcome
    /// into [`AdmissionOutcome::Delayed`] — callers observe queue pressure
    /// as typed admission feedback, never as silent inline degradation.
    ///
    /// With [`MultiOpenOptions::workers`] above 1 (and more than one series to
    /// flush) the series of a wave fan out across a bounded pool of
    /// short-lived worker threads. Each series is still flushed by exactly
    /// one thread, and each worker emits into a private per-series capture
    /// that the wave barrier replays in ascending id order, so the wave
    /// schedule, per-series contents, summed metrics *and the emitted
    /// event trace* are identical for every worker count, durable fleet or
    /// not; only wall-clock changes. With the default of 1 worker no thread
    /// is ever spawned.
    ///
    /// The fleet log and the fleet manifest never enter the pool: each wave
    /// barrier is a horizon on this thread, and once every wave has drained
    /// the log is cut to its header and the manifest sheds its dead
    /// records.
    ///
    /// # Errors
    /// Storage failures. Every series of every wave gets its flush attempt
    /// and what succeeded is committed, whatever the worker count; the
    /// error returned is the first one met — within a wave that of the
    /// lowest failing [`SeriesId`] — and the log is then left uncut.
    pub fn flush_all(&mut self) -> Result<AdmissionOutcome> {
        let ids = self.series_ids();
        let pooled = self.workers > 1 && ids.len() > 1;
        let mut delayed = 0u64;
        let mut first_error: Option<Error> = None;
        for (w, wave) in ids.chunks(self.flush_queue_depth.max(1)).enumerate() {
            if w > 0 {
                // The queue is full: this wave waited for the previous one
                // to drain. One logical tick per extra wave, emitted from
                // the single-threaded dispatcher so the trace position is
                // the same for every worker count.
                delayed += 1;
                self.fleet_delayed_waves += 1;
                self.obs.emit(|| Event::AdmissionDelayed { ticks: 1 });
            }
            let flushed = if pooled {
                self.flush_wave_pooled(wave, &mut delayed)
            } else {
                self.flush_wave(wave)
            };
            let committed = self.commit_pending();
            for outcome in [flushed, committed] {
                if let (None, Err(err)) = (&first_error, outcome) {
                    first_error = Some(err);
                }
            }
        }
        if let Some(err) = first_error {
            return Err(err);
        }
        // The fleet comes to rest here: the manifest sheds its dead
        // records and, nothing being buffered any more, the log is cut to
        // its header.
        if let Some(fleet_manifest) = self.fleet_manifest.as_mut() {
            fleet_manifest.compact_fleet(&live_tables(&self.series))?;
        }
        if let Some(wal) = self.wal.as_mut() {
            wal.rewrite(&[])?;
        }
        if delayed > 0 {
            Ok(AdmissionOutcome::Delayed { ticks: delayed })
        } else {
            Ok(AdmissionOutcome::Admitted)
        }
    }

    /// The single-worker arm of one [`MultiSeriesEngine::flush_all`] wave:
    /// every series of the wave is flushed on this thread, in ascending id
    /// order, whether or not an earlier one failed.
    fn flush_wave(&mut self, wave: &[SeriesId]) -> Result<()> {
        let mut first_error = None;
        for id in wave {
            if let Some(Err(err)) =
                self.series.get_mut(id).map(LsmEngine::flush_all)
            {
                first_error.get_or_insert(err);
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// The multi-worker arm of one [`MultiSeriesEngine::flush_all`] wave:
    /// the wave's engines are borrowed from the map and dealt round-robin,
    /// in ascending id order, to `min(workers, wave)` scoped threads
    /// (`seplsm-fleet-<w>`); leaving the scope is the wave barrier. A
    /// worker that could not be spawned leaves its series unflushed: each
    /// surfaces as one `Delayed` tick (with an [`Event::AdmissionDelayed`])
    /// and is flushed on the caller thread, so no backpressure goes
    /// unreported.
    fn flush_wave_pooled(
        &mut self,
        wave: &[SeriesId],
        delayed: &mut u64,
    ) -> Result<()> {
        let capturing = self.obs.is_attached();
        // Per series: id, engine, the private capture its worker emits into
        // (replayed in ascending id order below, so the observed trace
        // never depends on thread scheduling) and the flush outcome.
        let mut slots: Vec<_> =
            self.series
                .iter_mut()
                .filter(|(id, _)| wave.contains(id))
                .map(|(id, engine)| {
                    let capture = capturing.then(|| {
                        let capture = Arc::new(CaptureSink::default());
                        engine.front.obs = ObserverHandle::attached(
                            Arc::clone(&capture) as Arc<dyn Observer>,
                        );
                        capture
                    });
                    (*id, engine, capture, None::<Result<()>>)
                })
                .collect();
        slots.sort_by_key(|slot| slot.0);
        let worker_count = self.workers.min(slots.len());
        std::thread::scope(|scope| {
            let mut shares: Vec<Vec<_>> =
                (0..worker_count).map(|_| Vec::new()).collect();
            for (i, slot) in slots.iter_mut().enumerate() {
                shares[i % worker_count].push(slot);
            }
            for (w, share) in shares.into_iter().enumerate() {
                // A failed spawn drops its share with no outcome recorded.
                let _ = std::thread::Builder::new()
                    .name(format!("seplsm-fleet-{w}"))
                    .spawn_scoped(scope, move || {
                        for (_, engine, _, outcome) in share {
                            *outcome = Some(engine.flush_all());
                        }
                    });
            }
        });
        for (_, engine, _, outcome) in &mut slots {
            if outcome.is_none() {
                *delayed += 1;
                self.fleet_delayed_waves += 1;
                self.obs.emit(|| Event::AdmissionDelayed { ticks: 1 });
                *outcome = Some(engine.flush_all());
            }
        }
        let mut first_error = None;
        for (_, engine, capture, outcome) in slots {
            if let Some(capture) = capture {
                engine.front.obs = self.obs.clone();
                capture.replay_into(&self.obs);
            }
            if let (None, Some(Err(err))) = (&first_error, outcome) {
                first_error = Some(err);
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Writes and fsyncs the fleet log (no-op for a non-durable fleet):
    /// after this, every acknowledged point of every series survives a
    /// crash. One log write + fsync, however many series the batch touched
    /// or flushed — preceded by the fleet's horizon when one is due (see the
    /// module docs).
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync_wal_all(&mut self) -> Result<()> {
        let (points, tables) = self.waiting();
        if compaction::due(points, tables, self.written.budget()) {
            self.commit_pending()?;
        }
        match self.wal.as_mut() {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Size and history of the fleet log, for a durable fleet.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// Size and history of the fleet manifest, for a durable fleet.
    pub fn manifest_stats(&self) -> Option<ManifestStats> {
        self.fleet_manifest.as_ref().map(Manifest::stats)
    }

    /// Aggregated counters across all series — a [`MultiMetrics`] view over
    /// the summed kernel metrics.
    pub fn metrics(&self) -> MultiMetrics {
        MultiMetrics::from_metrics(self.series.len(), &self.combined_metrics())
    }

    /// The full kernel [`Metrics`] summed across every series
    /// ([`Metrics::absorb`], in ascending series order: the per-engine
    /// series follow one another, so `windowed_wa` of the sum means
    /// nothing), plus the fleet-level flush-queue delays (which belong to
    /// no single series) folded into `delayed_appends`/`stall_ticks`.
    pub fn combined_metrics(&self) -> Metrics {
        let mut sum = Metrics::default();
        for id in self.series_ids() {
            if let Some(engine) = self.series.get(&id) {
                sum.absorb(engine.metrics());
            }
        }
        sum.delayed_appends += self.fleet_delayed_waves;
        sum.stall_ticks += self.fleet_delayed_waves;
        sum
    }
}

/// Buffers one series' kernel events while a flush worker owns its engine;
/// the wave barrier replays them into the shared sink in ascending
/// [`SeriesId`] order, making pooled flush traces independent of thread
/// scheduling and worker count.
#[derive(Default)]
struct CaptureSink {
    events: Mutex<Vec<Event>>,
}

impl CaptureSink {
    /// Drains the captured events into `obs`, preserving emission order.
    fn replay_into(&self, obs: &ObserverHandle) {
        let events = std::mem::take(&mut *self.events.lock());
        for event in events {
            obs.emit(move || event);
        }
    }
}

impl Observer for CaptureSink {
    fn observe(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterConfig;
    use crate::open::MultiOpenOptions as OpenOptions;

    fn config() -> EngineConfig {
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(8)
    }

    fn in_memory() -> MultiSeriesEngine {
        OpenOptions::new(config()).open().expect("open")
    }

    #[test]
    fn series_are_created_lazily_and_isolated() {
        let mut m = in_memory();
        assert!(m.is_empty());
        for i in 0..20i64 {
            m.append(SeriesId(1), DataPoint::new(i * 10, i * 10, 1.0))
                .expect("append");
            m.append(SeriesId(2), DataPoint::new(i * 10, i * 10, 2.0))
                .expect("append");
        }
        assert_eq!(m.len(), 2);
        assert_eq!(m.series_ids(), vec![SeriesId(1), SeriesId(2)]);
        let (a, _) =
            m.query(SeriesId(1), TimeRange::new(0, 200)).expect("query");
        assert_eq!(a.len(), 20);
        assert!(
            a.iter().all(|p| p.value == 1.0),
            "series 1 must not see series 2"
        );
    }

    #[test]
    fn unknown_series_is_an_error() {
        let m = in_memory();
        assert!(m.query(SeriesId(9), TimeRange::new(0, 10)).is_err());
    }

    #[test]
    fn per_series_policies_can_differ() {
        let mut m = in_memory();
        m.append(SeriesId(1), DataPoint::new(0, 0, 0.0))
            .expect("append");
        m.append(SeriesId(2), DataPoint::new(0, 0, 0.0))
            .expect("append");
        m.set_policy(SeriesId(2), Policy::separation(8, 4).expect("policy"))
            .expect("switch");
        assert!(!m.engine(SeriesId(1)).expect("s1").policy().is_separation());
        assert!(m.engine(SeriesId(2)).expect("s2").policy().is_separation());
        assert!(m.set_policy(SeriesId(3), Policy::conventional(8)).is_err());
    }

    #[test]
    fn fleet_aggregate_and_downsample_push_down_per_series() {
        let mut m = in_memory();
        for i in 0..32i64 {
            m.append(SeriesId(1), DataPoint::new(i * 10, i * 10, i as f64))
                .expect("append");
            m.append(SeriesId(2), DataPoint::new(i * 10, i * 10, -1.0))
                .expect("append");
        }
        let range = TimeRange::new(0, 310);
        let (agg, stats) = m.aggregate(SeriesId(1), range).expect("agg");
        assert_eq!(agg.count, 32);
        assert_eq!(agg.max, 31.0);
        assert!(stats.blocks_folded > 0, "flushed v3 tables must fold");
        // Series isolation holds on the pushdown path too.
        let (other, _) = m.aggregate(SeriesId(2), range).expect("agg");
        assert_eq!((other.min, other.max), (-1.0, -1.0));
        let (buckets, _) =
            m.downsample(SeriesId(1), range, 80).expect("downsample");
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].0, 0);
        assert_eq!(buckets[0].1.count, 8);
        assert!(matches!(
            m.aggregate(SeriesId(9), range),
            Err(Error::UnknownSeries(9))
        ));
        assert!(matches!(
            m.downsample(SeriesId(9), range, 10),
            Err(Error::UnknownSeries(9))
        ));
    }

    #[test]
    fn unknown_series_errors_are_typed() {
        let mut m = in_memory();
        m.append(SeriesId(1), DataPoint::new(0, 0, 0.0))
            .expect("append");
        let q = m.query(SeriesId(9), TimeRange::new(0, 10));
        assert!(matches!(q, Err(Error::UnknownSeries(9))));
        let s = m.set_policy(SeriesId(9), Policy::conventional(8));
        assert!(matches!(s, Err(Error::UnknownSeries(9))));
        let r = m.retune(SeriesId(9), Policy::conventional(8));
        assert!(matches!(r, Err(Error::UnknownSeries(9))));
    }

    #[test]
    fn retune_switches_policy_and_emits_a_witness() {
        let ring = crate::obs::RingBufferSink::new(1 << 12);
        let mut m = OpenOptions::new(config())
            .observer(ring.clone())
            .open()
            .expect("open");
        m.append(SeriesId(4), DataPoint::new(0, 0, 0.0))
            .expect("append");
        assert_eq!(m.retunes(), 0);
        m.retune(SeriesId(4), Policy::separation(8, 5).expect("policy"))
            .expect("retune");
        assert!(m.engine(SeriesId(4)).expect("s4").policy().is_separation());
        assert_eq!(m.retunes(), 1);
        m.retune(SeriesId(4), Policy::conventional(8))
            .expect("retune back");
        assert_eq!(m.retunes(), 2);
        let retuned: Vec<(u64, bool, u64)> = ring
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::PolicyRetuned {
                    series,
                    separation,
                    n_seq,
                } => Some((series, separation, n_seq)),
                _ => None,
            })
            .collect();
        assert_eq!(retuned, vec![(4, true, 5), (4, false, 0)]);
    }

    #[test]
    fn arbiter_grows_hot_series_and_shrinks_cold_ones() {
        let ring = crate::obs::RingBufferSink::new(1 << 16);
        let mut m = OpenOptions::new(config())
            .observer(ring.clone())
            .arbiter(
                ArbiterConfig::new(256)
                    .with_floor(8)
                    .with_rebalance_every(64),
            )
            .open()
            .expect("open");
        // Two series, then a heavily skewed append stream onto series 0.
        m.append(SeriesId(0), DataPoint::new(0, 0, 0.0))
            .expect("append");
        m.append(SeriesId(1), DataPoint::new(0, 0, 1.0))
            .expect("append");
        for i in 1..400i64 {
            m.append(SeriesId(0), DataPoint::new(i * 10, i * 10, 0.0))
                .expect("append");
            if i % 20 == 0 {
                m.append(SeriesId(1), DataPoint::new(i * 10, i * 10, 1.0))
                    .expect("append");
            }
        }
        let hot = m.series_capacity(SeriesId(0)).expect("hot");
        let cold = m.series_capacity(SeriesId(1)).expect("cold");
        assert!(hot > cold, "hot={hot} cold={cold}");
        // The engines' actual buffer policies track the assignments.
        assert_eq!(
            m.engine(SeriesId(0)).expect("s0").policy().total_capacity() as u64,
            hot
        );
        assert_eq!(
            m.engine(SeriesId(1)).expect("s1").policy().total_capacity() as u64,
            cold
        );
        let stats = m.arbiter_stats().expect("stats");
        assert!(stats.rounds >= 1);
        // Budget partition: capacities + cache share = budget.
        assert_eq!(hot + cold + stats.cache_share, 256);
        // The rounds were witnessed by typed events, heat samples first.
        let events = ring.events();
        let rebalances = events
            .iter()
            .filter(|e| matches!(e, Event::ArbiterRebalance { .. }))
            .count() as u64;
        assert_eq!(rebalances, stats.rounds);
        assert!(events.iter().any(|e| matches!(e, Event::HeatSample { .. })));
        // Data is intact after the policy migrations.
        let (pts, _) = m
            .query(SeriesId(0), TimeRange::new(0, 4_000))
            .expect("query");
        assert_eq!(pts.len(), 400);
    }

    #[test]
    fn arbiter_rejects_series_beyond_the_budget() {
        let mut m = OpenOptions::new(config())
            .arbiter(ArbiterConfig::new(16).with_floor(8))
            .open()
            .expect("open");
        m.append(SeriesId(0), DataPoint::new(0, 0, 0.0))
            .expect("append");
        m.append(SeriesId(1), DataPoint::new(0, 0, 0.0))
            .expect("append");
        let err = m
            .append(SeriesId(2), DataPoint::new(0, 0, 0.0))
            .expect_err("third series must not fit");
        assert!(err.to_string().contains("budget exhausted"));
        // The over-budget series was never created.
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn aggregate_metrics_sum_across_series() {
        let mut m = in_memory();
        for s in 0..4u32 {
            for i in 0..50i64 {
                m.append(SeriesId(s), DataPoint::new(i * 10, i * 10, 0.0))
                    .expect("append");
            }
        }
        let agg = m.metrics();
        assert_eq!(agg.series, 4);
        assert_eq!(agg.user_points, 200);
        assert!(agg.disk_points_written >= 4 * 48);
        assert!((agg.write_amplification() - 1.0).abs() < 0.25);
    }

    #[test]
    fn durable_series_survive_crash_and_recover() {
        use crate::store::FileStore;

        let dir = std::env::temp_dir().join(format!(
            "seplsm-multi-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store: Arc<dyn TableStore> =
                Arc::new(FileStore::open(dir.join("tables")).expect("store"));
            let mut m = OpenOptions::new(config())
                .store(store)
                .durable_dir(dir.join("meta"))
                .open()
                .expect("durable");
            for s in 0..3u32 {
                // 20 points per series: some flushed, the tail buffered.
                for i in 0..20i64 {
                    m.append(
                        SeriesId(s),
                        DataPoint::new(i * 10, i * 10, s as f64),
                    )
                    .expect("append");
                }
            }
            m.sync_wal_all().expect("sync");
            // Crash: dropped without flushing the buffers.
        }
        let store: Arc<dyn TableStore> =
            Arc::new(FileStore::open(dir.join("tables")).expect("store"));
        let (m, _report) = OpenOptions::new(config())
            .store(store)
            .durable_dir(dir.join("meta"))
            .open_or_recover()
            .expect("recover");
        assert_eq!(m.len(), 3);
        for s in 0..3u32 {
            let (pts, _) = m
                .query(SeriesId(s), TimeRange::new(0, 1_000))
                .expect("query");
            assert_eq!(pts.len(), 20, "series {s} lost points");
            assert!(pts.iter().all(|p| p.value == s as f64));
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Builds a fleet with `workers` flush workers and feeds it the same
    /// deterministic out-of-order workload, then flushes.
    fn flushed_fleet(
        workers: usize,
        points: &[(u32, i64)],
    ) -> MultiSeriesEngine {
        let mut m = OpenOptions::new(config())
            .workers(workers)
            .open()
            .expect("open");
        for &(series, tg) in points {
            m.append(SeriesId(series), DataPoint::new(tg, tg + 3, tg as f64))
                .expect("append");
        }
        m.flush_all().expect("flush");
        m
    }

    /// Like [`flushed_fleet`] but with an explicit queue depth and a ring
    /// observer — durable under `dir` when one is given: returns the fleet
    /// plus the full emitted event trace.
    fn traced_fleet(
        dir: Option<&Path>,
        workers: usize,
        depth: usize,
        points: &[(u32, i64)],
    ) -> (MultiSeriesEngine, Vec<Event>) {
        let ring = crate::obs::RingBufferSink::new(1 << 16);
        let mut options = OpenOptions::new(config())
            .workers(workers)
            .observer(ring.clone());
        if let Some(dir) = dir {
            options = options.durable_dir(dir);
        }
        options.kind.flush_queue_depth = depth;
        let mut m = options.open().expect("open");
        for &(series, tg) in points {
            m.append(SeriesId(series), DataPoint::new(tg, tg + 3, tg as f64))
                .expect("append");
        }
        m.flush_all().expect("flush");
        (m, ring.events())
    }

    /// Like [`traced_fleet`] but with the memory arbiter enabled at a
    /// cadence the workloads actually reach, so rebalances land inside
    /// the traced window.
    fn traced_arbiter_fleet(
        workers: usize,
        depth: usize,
        points: &[(u32, i64)],
    ) -> (MultiSeriesEngine, Vec<Event>) {
        let ring = crate::obs::RingBufferSink::new(1 << 16);
        let mut options = OpenOptions::new(config())
            .workers(workers)
            .observer(ring.clone())
            .arbiter(
                ArbiterConfig::new(512)
                    .with_floor(8)
                    .with_rebalance_every(16),
            );
        options.kind.flush_queue_depth = depth;
        let mut m = options.open().expect("open");
        for &(series, tg) in points {
            m.append(SeriesId(series), DataPoint::new(tg, tg + 3, tg as f64))
                .expect("append");
        }
        m.flush_all().expect("flush");
        (m, ring.events())
    }

    /// A store whose first table write holding points of `victim` — points
    /// here carry their series as their value — fails, once, after
    /// [`FailOnce::arm`]: which series' flush fails does not depend on
    /// which thread gets to the store first.
    struct FailOnce {
        inner: crate::store::MemStore,
        victim: f64,
        armed: std::sync::atomic::AtomicBool,
    }

    impl FailOnce {
        fn arm(&self) {
            self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl TableStore for FailOnce {
        fn put(
            &self,
            points: &[DataPoint],
        ) -> Result<(crate::sstable::SsTableMeta, usize)> {
            let hit = points.first().is_some_and(|p| p.value == self.victim);
            if hit
                && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                return Err(Error::Io(std::io::Error::other(
                    "injected StoreWrite failure",
                )));
            }
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
        fn read_raw(&self, id: SsTableId) -> Result<Option<bytes::Bytes>> {
            self.inner.read_raw(id)
        }
    }

    /// Like [`traced_fleet`], over a [`FailOnce`] store armed just before
    /// the closing `flush_all`: returns what that call returned, as text,
    /// next to what the fleet then holds and the trace.
    fn traced_failing_fleet(
        workers: usize,
        depth: usize,
        points: &[(u32, i64)],
        victim: u32,
    ) -> (String, MultiSeriesEngine, Vec<Event>) {
        let ring = crate::obs::RingBufferSink::new(1 << 16);
        let store = Arc::new(FailOnce {
            inner: crate::store::MemStore::new(),
            victim: f64::from(victim),
            armed: std::sync::atomic::AtomicBool::new(false),
        });
        let mut options = OpenOptions::new(config())
            .store(Arc::clone(&store) as Arc<dyn TableStore>)
            .workers(workers)
            .observer(ring.clone());
        options.kind.flush_queue_depth = depth;
        let mut m = options.open().expect("open");
        for &(series, tg) in points {
            let p = DataPoint::new(tg, tg + 3, f64::from(series));
            m.append(SeriesId(series), p).expect("append");
        }
        store.arm();
        let outcome = match m.flush_all() {
            Ok(outcome) => format!("{outcome:?}"),
            Err(err) => err.to_string(),
        };
        (outcome, m, ring.events())
    }

    /// A mixed-order workload across `series_count` series: mostly
    /// ascending with every 7th point a straggler, unique per series.
    fn pool_workload(series_count: u32, per_series: i64) -> Vec<(u32, i64)> {
        let mut points = Vec::new();
        for s in 0..series_count {
            for i in 0..per_series {
                let tg = if i % 7 == 3 { i * 10 - 25 } else { i * 10 };
                points.push((s, tg + i64::from(s)));
            }
        }
        points
    }

    fn fleet_scans(m: &MultiSeriesEngine) -> Vec<(SeriesId, Vec<DataPoint>)> {
        m.series_ids()
            .into_iter()
            .map(|id| {
                let pts =
                    m.engine(id).expect("series").scan_all().expect("scan");
                (id, pts)
            })
            .collect()
    }

    #[test]
    fn pooled_flush_matches_sequential_flush() {
        let points = pool_workload(8, 40);
        let sequential = flushed_fleet(1, &points);
        let pooled = flushed_fleet(4, &points);
        assert_eq!(pooled.worker_count(), 4);
        assert_eq!(
            pooled.combined_metrics(),
            sequential.combined_metrics(),
            "summed kernel metrics must not depend on worker count"
        );
        assert_eq!(fleet_scans(&pooled), fleet_scans(&sequential));
        for id in pooled.series_ids() {
            assert_eq!(
                pooled.engine(id).expect("series").buffered_points(),
                0,
                "{id} left points buffered"
            );
        }
    }

    #[test]
    fn more_workers_than_series_is_fine() {
        let points = pool_workload(2, 12);
        let wide = flushed_fleet(16, &points);
        let narrow = flushed_fleet(1, &points);
        assert_eq!(fleet_scans(&wide), fleet_scans(&narrow));
    }

    #[test]
    fn deep_fleets_flush_in_bounded_waves() {
        // 10 series against a queue depth of 4: three waves, two of which
        // wait on the queue and surface as typed `Delayed` backpressure.
        let points = pool_workload(10, 12);
        let mut options = OpenOptions::new(config()).workers(3);
        options.kind.flush_queue_depth = 4;
        let mut m = options.open().expect("open");
        for &(series, tg) in &points {
            m.append(SeriesId(series), DataPoint::new(tg, tg + 3, tg as f64))
                .expect("append");
        }
        let outcome = m.flush_all().expect("flush");
        assert_eq!(outcome, AdmissionOutcome::Delayed { ticks: 2 });
        assert_eq!(m.fleet_delayed_waves(), 2);
        let combined = m.combined_metrics();
        assert_eq!(combined.delayed_appends, 2);
        assert_eq!(combined.stall_ticks, 2);
        for id in m.series_ids() {
            assert_eq!(
                m.engine(id).expect("series").buffered_points(),
                0,
                "{id} left points buffered"
            );
        }
        // The wave schedule depends only on the series set and the depth
        // bound: a sequential fleet reports identical backpressure.
        let mut options = OpenOptions::new(config()).workers(1);
        options.kind.flush_queue_depth = 4;
        let mut seq = options.open().expect("open");
        for &(series, tg) in &points {
            seq.append(SeriesId(series), DataPoint::new(tg, tg + 3, tg as f64))
                .expect("append");
        }
        assert_eq!(
            seq.flush_all().expect("flush"),
            AdmissionOutcome::Delayed { ticks: 2 }
        );
        assert_eq!(seq.combined_metrics(), m.combined_metrics());
    }

    #[test]
    fn pooled_flush_traces_match_sequential_traces() {
        // Capture-replay at the wave barrier makes the emitted event trace
        // a pure function of the workload — thread scheduling and worker
        // count must be invisible in it. 29 points leave every series a
        // partial buffer, so the pooled `flush_all` has flushes to trace.
        let points = pool_workload(10, 29);
        let (seq, seq_trace) = traced_fleet(None, 1, 4, &points);
        let (pooled, pooled_trace) = traced_fleet(None, 4, 4, &points);
        assert!(!seq_trace.is_empty(), "workload emitted no events");
        assert_eq!(
            pooled_trace, seq_trace,
            "pooled flush trace diverged from the sequential trace"
        );
        assert_eq!(fleet_scans(&pooled), fleet_scans(&seq));

        // A durable fleet journals every flush; the manifests' events must
        // go through the per-series captures too.
        let dir = std::env::temp_dir().join(format!(
            "seplsm-multi-durable-trace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let traced = |workers: usize| {
            let _ = std::fs::remove_dir_all(&dir);
            let (_, trace) = traced_fleet(Some(&dir), workers, 4, &points);
            trace
        };
        let seq_trace = traced(1);
        assert!(
            seq_trace
                .iter()
                .any(|e| matches!(e, Event::ManifestRecord { .. })),
            "durable fleet journalled nothing"
        );
        assert_eq!(
            traced(4),
            seq_trace,
            "pooled durable flush trace diverged from the sequential trace"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn single_series_never_enters_the_pool() {
        // One series short-circuits to the sequential path even with a
        // large worker bound; the observable outcome is identical.
        let points = pool_workload(1, 20);
        let m = flushed_fleet(8, &points);
        assert_eq!(m.len(), 1);
        assert_eq!(m.engine(SeriesId(0)).expect("series").buffered_points(), 0);
    }

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(16)
        )]

        /// Worker count is unobservable: any fleet workload flushed with N
        /// workers yields the same per-series points, summed metrics *and
        /// byte-identical event trace* as the sequential path, even when
        /// the depth-bounded queue forces multiple waves.
        #[test]
        fn worker_count_is_unobservable(
            raw in proptest::collection::vec(
                (0u32..5, 0i64..400),
                1..120,
            ),
            workers in 2usize..6,
        ) {
            // Dedupe (series, gen_time) pairs: engines require unique
            // generation times within one series.
            let mut seen = HashSet::new();
            let points: Vec<(u32, i64)> = raw
                .into_iter()
                .filter(|p| seen.insert(*p))
                .collect();
            // Depth 3 against up to 5 series exercises multi-wave flushes.
            let (sequential, seq_trace) = traced_fleet(None, 1, 3, &points);
            let (pooled, pooled_trace) = traced_fleet(None, workers, 3, &points);
            proptest::prop_assert_eq!(
                pooled.combined_metrics(),
                sequential.combined_metrics()
            );
            proptest::prop_assert_eq!(
                fleet_scans(&pooled),
                fleet_scans(&sequential)
            );
            proptest::prop_assert_eq!(pooled_trace, seq_trace);
            // With the arbiter rebalancing mid-workload the trace (heat
            // samples, rebalances, migrations) must still be a pure
            // function of the workload, never of the worker count.
            let (arb_seq, arb_seq_trace) =
                traced_arbiter_fleet(1, 3, &points);
            let (arb_pooled, arb_pooled_trace) =
                traced_arbiter_fleet(workers, 3, &points);
            proptest::prop_assert_eq!(
                arb_pooled.combined_metrics(),
                arb_seq.combined_metrics()
            );
            proptest::prop_assert_eq!(
                fleet_scans(&arb_pooled),
                fleet_scans(&arb_seq)
            );
            proptest::prop_assert_eq!(arb_pooled_trace, arb_seq_trace);
            proptest::prop_assert_eq!(
                arb_pooled.arbiter_stats(),
                arb_seq.arbiter_stats()
            );
            // Nor on the failure path: when one series' table write fails
            // inside `flush_all`, every other series of every wave is still
            // flushed, and the error, the contents, the counters and the
            // trace are those of the sequential fleet.
            let victim = points[0].0;
            let (seq_outcome, failed_seq, failed_seq_trace) =
                traced_failing_fleet(1, 3, &points, victim);
            let (pooled_outcome, failed_pooled, failed_pooled_trace) =
                traced_failing_fleet(workers, 3, &points, victim);
            proptest::prop_assert_eq!(pooled_outcome, seq_outcome);
            proptest::prop_assert_eq!(
                failed_pooled.combined_metrics(),
                failed_seq.combined_metrics()
            );
            proptest::prop_assert_eq!(
                fleet_scans(&failed_pooled),
                fleet_scans(&failed_seq)
            );
            proptest::prop_assert_eq!(failed_pooled_trace, failed_seq_trace);
            for id in failed_seq.series_ids() {
                let engine = failed_seq.engine(id).expect("series");
                proptest::prop_assert_eq!(engine.buffered_points(), 0);
            }
        }
    }

    #[test]
    fn a_failing_series_does_not_keep_the_others_from_flushing() {
        // Series 1 of 0..5 fails in the first wave of two: series 2–4 are
        // flushed all the same, by one worker or three.
        let points = pool_workload(5, 12);
        for workers in [1, 3] {
            let (outcome, m, _) = traced_failing_fleet(workers, 3, &points, 1);
            assert!(outcome.contains("injected"), "{workers}: {outcome}");
            for id in m.series_ids() {
                let engine = m.engine(id).expect("series");
                assert_eq!(engine.buffered_points(), 0, "{workers}: {id}");
                let flushed = if id == SeriesId(1) { 8 } else { 12 };
                assert_eq!(
                    engine.run().total_points(),
                    flushed,
                    "{workers}: {id}"
                );
            }
        }
    }

    #[test]
    fn legacy_series_files_count_only_in_the_spelling_they_were_written_in() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-multi-legacy-names-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for name in ["series-7.wal", "series-12.wal", "series-3.manifest"] {
            std::fs::write(dir.join(name), b"").expect("touch");
        }
        // Not this layout's: ignored.
        for name in ["fleet.wal", "series-7.wal.tmp", "series-.txt"] {
            std::fs::write(dir.join(name), b"").expect("touch");
        }
        let mut report = RecoveryReport::default();
        let strict = RecoveryOptions::strict();
        let logs = legacy_files(&dir, ".wal", strict, &mut report).expect("ls");
        let ids: Vec<u32> = logs.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![7, 12], "ascending by id, not by name");
        // A second spelling of series 7 would replace the first's contents.
        for alias in ["series-007.wal", "series-+7.wal", "series-.wal"] {
            std::fs::write(dir.join(alias), b"").expect("touch");
            let err = legacy_files(&dir, ".wal", strict, &mut report)
                .expect_err("strict refuses an alias");
            assert!(matches!(err, Error::Corrupt(_)), "{alias}: {err}");
            let mut report = RecoveryReport::default();
            let salvaged = legacy_files(
                &dir,
                ".wal",
                RecoveryOptions::salvage(),
                &mut report,
            )
            .expect("salvage skips it");
            assert_eq!(salvaged, logs, "{alias}");
            assert_eq!(report.files_skipped, vec![dir.join(alias)]);
            assert!(!report.is_clean(), "a skipped file is reported");
            std::fs::remove_file(dir.join(alias)).expect("rm");
        }
        // The same rule holds on the way in through recovery.
        std::fs::remove_dir_all(&dir).expect("reset");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("series-007.manifest"), b"").expect("touch");
        let recover = |options: RecoveryOptions| {
            OpenOptions::new(config())
                .durable_dir(&dir)
                .recovery(options)
                .open_or_recover()
        };
        assert!(matches!(recover(strict), Err(Error::Corrupt(_))));
        let (m, report) = recover(RecoveryOptions::salvage()).expect("salvage");
        assert!(m.is_empty());
        assert_eq!(report.files_skipped, vec![dir.join("series-007.manifest")]);
        assert!(dir.join("series-007.manifest").exists(), "left untouched");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn flush_all_drains_every_series() {
        let mut m = in_memory();
        for s in 0..3u32 {
            m.append(SeriesId(s), DataPoint::new(5, 5, 0.0))
                .expect("append");
        }
        m.flush_all().expect("flush");
        for s in 0..3u32 {
            assert_eq!(
                m.engine(SeriesId(s)).expect("series").buffered_points(),
                0
            );
            let (pts, _) =
                m.query(SeriesId(s), TimeRange::new(0, 10)).expect("query");
            assert_eq!(pts.len(), 1);
        }
    }
}
