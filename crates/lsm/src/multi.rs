//! Multi-series management: one logical store, many independent series.
//!
//! The paper's industrial setting (§VI) records *thousands* of time series
//! per vehicle, each with its own delay behaviour — IoTDB buffers and tunes
//! them independently. [`MultiSeriesEngine`] provides that shape: each
//! [`SeriesId`] gets its own MemTables, level-1 run and metrics (so policies
//! can differ per series), while all series share one [`TableStore`] — and
//! the one pool of tables lately written to it, which their merges take
//! their inputs from before they read the store. Each series keeps its
//! tables there under its own key, and while the pool is over budget the
//! series holding the most points gives up its oldest table: a hot series
//! pays for its own surplus, not with a cold series' run tail.
//!
//! Everything runs on the caller's thread: a series flushes inside the
//! append that fills its MemTables, and [`MultiSeriesEngine::flush_all`]
//! flushes every series in ascending id order.
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
//! after every append — and it runs once at the end of
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

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use seplsm_types::{DataPoint, Error, Policy, Result, TimeRange};

use crate::admission::AdmissionOutcome;
use crate::arbiter::{Arbiter, ArbiterStats, Rebalance};
use crate::compaction::{self, Written, MAX_UNCOMMITTED_TABLES};
use crate::engine::{checkpoint_retired, EngineConfig, LsmEngine};
use crate::fault::FaultPlan;
use crate::manifest::{Levels, Manifest, ManifestStats, SeriesTables};
use crate::metrics::Metrics;
use crate::obs::{Event, ObserverHandle};
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

/// A collection of independently-buffered series over one shared store.
pub struct MultiSeriesEngine {
    store: Arc<dyn TableStore>,
    /// The pool of written tables over `store`, shared like the store;
    /// each series keeps its tables through `Written::for_series`, so a
    /// merge of one series finds the tables that series wrote lately
    /// however much the others wrote since.
    written: Written,
    template: EngineConfig,
    /// Every series' engine, in ascending id order.
    series: BTreeMap<SeriesId, LsmEngine>,
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
            series: BTreeMap::new(),
            durable_dir: fleet.durable_dir,
            wal: None,
            fleet_manifest: None,
            obs: options.observer,
            arbiter: None,
            fleet_retunes: 0,
        };
        let mut report = RecoveryReport::default();
        if recover {
            engine.recover_series(options.recovery, &mut report)?;
        } else if let Some(dir) = engine.durable_dir.clone() {
            engine.wal =
                Some(open::open_wal(&dir.join(FLEET_WAL), &engine.obs)?);
            engine.fleet_manifest = Some(open::open_manifest(
                &dir.join(FLEET_MANIFEST),
                &engine.obs,
                &live_tables(&engine.series),
            )?);
        }
        // Series already hosted (the recovery path) stay at their recovered
        // capacity until their first post-open append admits them into
        // arbitration and resizes them to the capacity admitted.
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
fn live_tables(
    series: &BTreeMap<SeriesId, LsmEngine>,
) -> Vec<SeriesTables<'_>> {
    series
        .iter()
        .map(|(id, engine)| engine.version().series_tables(Some(id.0)))
        .collect()
}

impl MultiSeriesEngine {
    /// The builder `series` of this collection opens through: the template
    /// configuration over the shared store and the series' handle on the
    /// store's pool of written tables, reporting to the collection's
    /// observer, with neither log nor manifest — a durable collection keeps
    /// both for it and commits its flushes, and hands a recovering series
    /// the `levels` its manifest holds for it.
    fn series_options(
        &self,
        series: SeriesId,
        levels: Option<Levels>,
    ) -> OpenOptions {
        let mut options = OpenOptions::new(self.template.clone())
            .store(Arc::clone(&self.store));
        options.written = self.written.for_series(series.0);
        options.observer = self.obs.clone();
        options.kind.owner_commits = self.durable_dir.is_some();
        options.kind.levels = levels;
        options
    }

    /// The engine of `series`, opened fresh on first use.
    fn series_mut(&mut self, series: SeriesId) -> Result<&mut LsmEngine> {
        if !self.series.contains_key(&series) {
            let engine = self.series_options(series, None).open()?;
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
        self.series
            .iter()
            .map(|(id, engine)| (id.0, engine.buffered_snapshot()))
            .collect()
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
        let ids: Vec<SeriesId> = self.series.keys().copied().collect();
        let mut shares: Vec<_> = self
            .series
            .iter_mut()
            .map(|(id, engine)| engine.share(id.0))
            .collect();
        let flushed = compaction::horizon(
            self.store.as_ref(),
            &mut shares,
            Some(fleet_manifest),
        )?;
        let mut cut_due = false;
        for (id, ranges) in ids.into_iter().zip(flushed) {
            if let (Some(wal), Some(engine)) =
                (self.wal.as_mut(), self.series.get(&id))
            {
                // What the series buffers inside a flushed range arrived
                // after the flush: everything volatile is in its MemTables.
                cut_due |= checkpoint_retired(
                    wal,
                    id.0,
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
        let (replayed, dropped) =
            Manifest::replay(dir.join(FLEET_MANIFEST), !salvage)?;
        if salvage {
            report.manifest_records_dropped += dropped;
        }
        let mut levels = BTreeMap::new();
        for (series, tables) in replayed {
            let Some(id) = series else {
                return Err(Error::Corrupt(
                    "the fleet manifest holds records of an unnamed series: \
                     an engine's own log"
                        .into(),
                ));
            };
            levels.insert(id, tables);
        }
        let old_manifests = legacy_files(&dir, ".manifest", options, report)?;
        for (id, path) in &old_manifests {
            let folded = recovery::replay_manifest(path, options.mode, report)?;
            levels.insert(id.0, folded);
        }
        for (id, levels) in levels {
            let (engine, series_report) = self
                .series_options(SeriesId(id), Some(levels))
                .recovery(per_series)
                .open_or_recover()?;
            report.merge(series_report);
            self.series.insert(SeriesId(id), engine);
        }
        // The fold: rewritten from the recovered versions, the fleet
        // manifest now holds what the per-series manifests held. Repeating
        // it after a crash short of the removal below changes nothing.
        self.fleet_manifest = Some(open::open_manifest(
            &dir.join(FLEET_MANIFEST),
            &self.obs,
            &live_tables(&self.series),
        )?);
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
        self.series.keys().copied().collect()
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
    /// applied — and its events emitted — right after the point lands.
    /// A series the arbiter admits — new, or rebuilt by recovery and
    /// appended to for the first time since the open — moves to its
    /// admitted capacity first, keeping the template policy's shape. Past
    /// `MAX_UNCOMMITTED_TABLES` live tables waiting unsynced the append
    /// runs the fleet's horizon.
    ///
    /// # Errors
    /// Arbiter budget exhaustion for a series it does not host yet; storage
    /// failures.
    pub fn append(
        &mut self,
        series: SeriesId,
        p: DataPoint,
    ) -> Result<AdmissionOutcome> {
        let mut plan = None;
        let mut admitted = None;
        if let Some(arb) = self.arbiter.as_mut() {
            let arb = arb.get_mut();
            let hosted = arb.capacity_of(series.0).is_some();
            plan = arb.record_append(series.0)?;
            if !hosted {
                admitted = arb.capacity_of(series.0);
            }
        }
        let engine = self.series_mut(series)?;
        if let Some(capacity) = admitted {
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

    /// Always 0: `flush_all` flushes every series in one pass, and no
    /// series' flush waits for another's.
    pub fn fleet_delayed_waves(&self) -> u64 {
        0
    }

    /// Flushes every series on the caller's thread, in ascending id
    /// order, then runs the fleet's horizon once; the log is then cut to
    /// its header and the manifest sheds its dead records.
    ///
    /// # Errors
    /// Storage failures. Every series gets its flush attempt and what
    /// succeeded is committed; the error returned is that of the lowest
    /// failing [`SeriesId`], else the horizon's, and the log is then left
    /// uncut.
    pub fn flush_all(&mut self) -> Result<AdmissionOutcome> {
        // `and` keeps the first error, and every series still flushes.
        let mut flushed = Ok(());
        for engine in self.series.values_mut() {
            flushed = flushed.and(engine.flush_all());
        }
        let committed = self.commit_pending();
        flushed.and(committed)?;
        // The fleet comes to rest here: the manifest sheds its dead
        // records and, nothing being buffered any more, the log is cut to
        // its header.
        if let Some(fleet_manifest) = self.fleet_manifest.as_mut() {
            fleet_manifest.compact(&live_tables(&self.series))?;
        }
        if let Some(wal) = self.wal.as_mut() {
            wal.rewrite(&[])?;
        }
        Ok(AdmissionOutcome::Admitted)
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

    /// The full kernel [`Metrics`] summed across every series
    /// ([`Metrics::absorb`], in ascending series order: the per-engine
    /// series follow one another, so `windowed_wa` of the sum means
    /// nothing).
    pub fn combined_metrics(&self) -> Metrics {
        let mut sum = Metrics::default();
        for engine in self.series.values() {
            sum.absorb(engine.metrics());
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterConfig;
    use crate::open::MultiOpenOptions as OpenOptions;
    use std::collections::BTreeSet;

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
        assert!(hot + cold <= 256, "hot={hot} cold={cold}");
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
    fn an_arbiter_hands_its_series_the_whole_budget() {
        let mut m = OpenOptions::new(config())
            .arbiter(
                ArbiterConfig::new(256)
                    .with_floor(8)
                    .with_rebalance_every(64),
            )
            .open()
            .expect("open");
        // Four series at uneven rates, through several splits.
        for i in 0..400i64 {
            for s in 0..4u32 {
                if i % (i64::from(s) + 1) == 0 {
                    m.append(SeriesId(s), DataPoint::new(i * 10, i * 10, 0.0))
                        .expect("append");
                }
            }
        }
        assert!(m.arbiter_stats().expect("stats").rounds >= 2);
        let ids = m.series_ids();
        let mut held = 0;
        for &id in &ids {
            let capacity = m.series_capacity(id).expect("admitted");
            let engine = m.engine(id).expect("series");
            assert_eq!(engine.policy().total_capacity() as u64, capacity);
            held += capacity;
        }
        // All of it but the split's division remainders, one short of a
        // point per series at most.
        assert!(held <= 256 && 256 - held < ids.len() as u64, "held {held}");
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
        let agg = m.combined_metrics();
        assert_eq!(m.len(), 4);
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

    /// A store that hands the series of every table write to `hook` first
    /// — points here carry their series as their value — and fails the
    /// write when the hook does.
    struct Hooked<F> {
        inner: crate::store::MemStore,
        hook: F,
    }

    impl<F: Fn(u32) -> Result<()> + Send + Sync> TableStore for Hooked<F> {
        fn put(
            &self,
            points: &[DataPoint],
        ) -> Result<(crate::sstable::SsTableMeta, usize)> {
            if let Some(p) = points.first() {
                (self.hook)(p.value as u32)?;
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

    /// Opens `options` over a [`Hooked`] store, feeds it `points` and runs
    /// `arm` just before the closing `flush_all`: returns what that call
    /// returned, as text, next to the fleet.
    fn hooked_fleet(
        options: OpenOptions,
        points: &[(u32, i64)],
        hook: impl Fn(u32) -> Result<()> + Send + Sync + 'static,
        arm: impl FnOnce(),
    ) -> (String, MultiSeriesEngine) {
        let store = Arc::new(Hooked {
            inner: crate::store::MemStore::new(),
            hook,
        });
        let mut m = options.store(store).open().expect("open");
        for &(series, tg) in points {
            let p = DataPoint::new(tg, tg + 3, f64::from(series));
            m.append(SeriesId(series), p).expect("append");
        }
        arm();
        let outcome = match m.flush_all() {
            Ok(outcome) => format!("{outcome:?}"),
            Err(err) => err.to_string(),
        };
        (outcome, m)
    }

    /// A mixed-order workload across `series_count` series: mostly
    /// ascending with every 7th point a straggler, unique per series.
    fn mixed_workload(series_count: u32, per_series: i64) -> Vec<(u32, i64)> {
        let mut points = Vec::new();
        for s in 0..series_count {
            for i in 0..per_series {
                let tg = if i % 7 == 3 { i * 10 - 25 } else { i * 10 };
                points.push((s, tg + i64::from(s)));
            }
        }
        points
    }

    #[test]
    fn a_failing_series_does_not_keep_the_others_from_flushing() {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        // The first table write of series 1 of 0..5 in the closing
        // `flush_all` fails: series 2–4 are flushed all the same.
        let armed = Arc::new(AtomicBool::new(false));
        let trip = Arc::clone(&armed);
        let hook = move |series| {
            if series == 1 && trip.swap(false, SeqCst) {
                return Err(Error::Io(std::io::Error::other(
                    "injected StoreWrite failure",
                )));
            }
            Ok(())
        };
        let (outcome, m) = hooked_fleet(
            OpenOptions::new(config()),
            &mixed_workload(5, 12),
            hook,
            || armed.store(true, SeqCst),
        );
        assert!(outcome.contains("injected"), "{outcome}");
        for id in m.series_ids() {
            let engine = m.engine(id).expect("series");
            assert_eq!(engine.buffered_points(), 0, "{id}");
            let flushed = if id == SeriesId(1) { 8 } else { 12 };
            assert_eq!(engine.run().total_points(), flushed, "{id}");
        }
    }

    /// The current thread's name, or its id when it has none.
    fn thread_name() -> String {
        let here = std::thread::current();
        here.name()
            .map_or_else(|| format!("{:?}", here.id()), String::from)
    }

    #[test]
    fn flush_all_runs_on_the_caller_s_thread() {
        // `workers` is kept as a setter and changes nothing: every table
        // write of the closing `flush_all` comes from the caller's thread.
        let writers = Arc::new(Mutex::new(None::<BTreeSet<(u32, String)>>));
        let log = Arc::clone(&writers);
        let hook = move |series| {
            if let Some(writers) = log.lock().as_mut() {
                writers.insert((series, thread_name()));
            }
            Ok(())
        };
        let (outcome, _) = hooked_fleet(
            OpenOptions::new(config()).workers(3),
            &mixed_workload(6, 29),
            hook,
            || *writers.lock() = Some(BTreeSet::new()),
        );
        assert_eq!(outcome, "Admitted");
        let caller = thread_name();
        let expected = (0..6).map(|s| (s, caller.clone())).collect();
        assert_eq!(writers.lock().take(), Some(expected));
    }

    #[test]
    fn a_recovered_series_takes_its_admitted_capacity() {
        use crate::store::FileStore;

        let dir = std::env::temp_dir().join(format!(
            "seplsm-multi-recovered-capacity-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = |recover: bool| {
            let store: Arc<dyn TableStore> =
                Arc::new(FileStore::open(dir.join("tables")).expect("store"));
            let options =
                OpenOptions::new(EngineConfig::new(Policy::conventional(64)))
                    .store(store)
                    .durable_dir(dir.join("meta"))
                    .arbiter(
                        ArbiterConfig::new(256)
                            .with_floor(8)
                            .with_rebalance_every(1000),
                    );
            if recover {
                options.open_or_recover().expect("recover").0
            } else {
                options.open().expect("open")
            }
        };
        {
            let mut m = open(false);
            for s in 0..2u32 {
                m.append(SeriesId(s), DataPoint::new(0, 0, 0.0))
                    .expect("append");
            }
            m.sync_wal_all().expect("sync");
            // Crash: dropped without flushing the buffers.
        }
        let mut m = open(true);
        // Recovery rebuilt both series at the template's capacity.
        let engine = m.engine(SeriesId(0)).expect("recovered");
        assert_eq!(engine.policy().total_capacity(), 64);
        m.append(SeriesId(0), DataPoint::new(10, 10, 0.0))
            .expect("append");
        assert_eq!(m.series_capacity(SeriesId(0)), Some(8));
        let engine = m.engine(SeriesId(0)).expect("recovered");
        assert_eq!(engine.policy().total_capacity(), 8);
        let (pts, _) =
            m.query(SeriesId(0), TimeRange::new(0, 100)).expect("query");
        assert_eq!(pts.len(), 2);
        std::fs::remove_dir_all(&dir).expect("cleanup");
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
