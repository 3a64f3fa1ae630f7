//! Recovery modes and the salvage report.
//!
//! Strict recovery (the default, and the only behaviour before this module
//! existed) aborts on the first unreadable table, torn log, or metadata
//! disagreement. Salvage recovery instead *degrades*: unreadable tables are
//! moved into the store's quarantine area
//! ([`TableStore::quarantine`](crate::store::TableStore::quarantine)), the
//! longest valid prefix of a damaged WAL or manifest is used, and the
//! returned [`RecoveryReport`] names every lost time range so operators know
//! exactly what the surviving data set is missing. Either mode can also
//! garbage-collect orphan `.sst` files leaked by a crash mid-compaction
//! (opt-in: see [`RecoveryOptions::gc_orphans`]).

use std::path::{Path, PathBuf};

use seplsm_types::{DataPoint, Error, Result, TimeRange};

use crate::invariants::probe_table;
use crate::level::Run;
use crate::manifest::{Levels, Manifest};
use crate::obs::{Event, ObserverHandle, RecoveryStepKind};
use crate::sstable::{SsTableId, SsTableMeta};
use crate::store::TableStore;
use crate::version::Version;
use crate::wal::Wal;

/// How recovery reacts to damage it finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Abort with an error on the first unreadable table or corrupt log
    /// record (beyond the always-tolerated torn tail).
    #[default]
    Strict,
    /// Quarantine unreadable tables, use the longest valid prefix of
    /// damaged logs, and report the losses instead of aborting.
    Salvage,
}

/// Options for `open_or_recover` on any of the three builders.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOptions {
    /// Strict or salvage handling of damage.
    pub mode: RecoveryMode,
    /// Delete stored tables that the recovered version does not reference
    /// (debris leaked by a crash between writing a compaction's outputs and
    /// logging the result). Opt-in because it is only safe when the
    /// recovered version(s) cover *everything* live in the store — a
    /// multi-series engine must union all series before sweeping, and a
    /// store shared beyond that must never be swept.
    pub gc_orphans: bool,
}

impl RecoveryOptions {
    /// Strict recovery, no GC — the pre-existing behaviour.
    pub fn strict() -> Self {
        Self::default()
    }

    /// Salvage-mode recovery, no GC.
    pub fn salvage() -> Self {
        Self {
            mode: RecoveryMode::Salvage,
            ..Self::default()
        }
    }

    /// Enables orphan-table garbage collection.
    pub fn with_gc_orphans(mut self) -> Self {
        self.gc_orphans = true;
        self
    }
}

/// One table salvage removed from the live set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedTable {
    /// The table's id (its bytes now live under `quarantine/`).
    pub id: SsTableId,
    /// The time range the metadata claimed, when any metadata existed.
    pub range: Option<TimeRange>,
    /// Why the table was unusable.
    pub reason: String,
}

/// What recovery found and did. Strict recovery returns a clean report or
/// no engine at all; salvage recovery returns the damage inventory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Tables moved out of the live set, in quarantine order.
    pub quarantined: Vec<QuarantinedTable>,
    /// Time ranges the surviving data set no longer covers (one per
    /// quarantined table with known metadata; overlapping entries are not
    /// merged).
    pub lost_ranges: Vec<TimeRange>,
    /// Logged points lost past the log's last valid prefix, as far as they
    /// can be counted (salvage only): one for the damaged frame — its own
    /// count can no longer be trusted — plus the points of every frame
    /// behind it whose length and CRC still hold; for a log of the oldest,
    /// fixed-record format, the whole records that fit. A lower bound.
    pub wal_records_dropped: u64,
    /// Whole manifest records dropped past the last valid prefix.
    pub manifest_records_dropped: u64,
    /// Orphan tables deleted by [`RecoveryOptions::gc_orphans`].
    pub orphans_removed: Vec<SsTableId>,
    /// Per-series files of an older fleet layout whose names are not the
    /// spelling that layout wrote (`series-007.wal`): left where they are,
    /// their contents not recovered (salvage only — strict mode refuses
    /// the directory).
    pub files_skipped: Vec<PathBuf>,
}

impl RecoveryReport {
    /// True when recovery found no damage at all (orphan GC alone still
    /// counts as clean — orphans are invisible to readers).
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.lost_ranges.is_empty()
            && self.wal_records_dropped == 0
            && self.manifest_records_dropped == 0
            && self.files_skipped.is_empty()
    }

    /// Folds another report (e.g. one series of a multi-series recovery)
    /// into this one.
    pub fn merge(&mut self, other: RecoveryReport) {
        self.quarantined.extend(other.quarantined);
        self.lost_ranges.extend(other.lost_ranges);
        self.wal_records_dropped += other.wal_records_dropped;
        self.manifest_records_dropped += other.manifest_records_dropped;
        self.orphans_removed.extend(other.orphans_removed);
        self.files_skipped.extend(other.files_skipped);
    }

    fn note_quarantine(
        &mut self,
        meta: &SsTableMeta,
        reason: impl Into<String>,
    ) {
        self.quarantined.push(QuarantinedTable {
            id: meta.id,
            range: Some(meta.range),
            reason: reason.into(),
        });
        self.lost_ranges.push(meta.range);
    }
}

/// Rebuilds the table-level state a stopped engine left behind — the one
/// routine every engine recovers its [`Version`] through.
///
/// With a `manifest` the levels are replayed from it in O(metadata);
/// without one the run is reconstructed by reading every stored table.
/// Strict mode aborts on the first damage; salvage mode uses the longest
/// valid manifest prefix and hands the levels to [`version_from_levels`].
///
/// # Errors
/// Strict mode: any damage. Salvage mode: see [`version_from_levels`].
pub(crate) fn rebuild_version(
    store: &dyn TableStore,
    manifest: Option<&Path>,
    mode: RecoveryMode,
    allow_l0: bool,
    report: &mut RecoveryReport,
    obs: &ObserverHandle,
) -> Result<Version> {
    let salvage = mode == RecoveryMode::Salvage;
    let levels = match manifest {
        Some(path) => replay_manifest(path, mode, report)?,
        None => (scan_store(store, salvage, report, obs)?, Vec::new()),
    };
    let replayed = manifest.is_some();
    version_from_levels(store, levels, replayed, mode, allow_l0, report, obs)
}

/// Replays the single-engine manifest at `path`: strict mode refuses
/// damage in front of valid records, salvage mode uses the longest valid
/// prefix and counts what it dropped in `report`.
pub(crate) fn replay_manifest(
    path: &Path,
    mode: RecoveryMode,
    report: &mut RecoveryReport,
) -> Result<Levels> {
    if mode == RecoveryMode::Strict {
        return Manifest::replay_levels(path);
    }
    let (run, l0, dropped) = Manifest::replay_levels_salvage(path)?;
    report.manifest_records_dropped += dropped;
    Ok((run, l0))
}

/// Turns `(run, l0)` levels — `replayed` from an engine's own manifest or
/// from one series' share of a fleet's, else found by a store scan — into
/// a [`Version`]. Salvage mode quarantines tables that are unreadable, empty or disagree
/// with their metadata, resolves run overlaps in favour of the newer table
/// (a crashed merge can leave both an old table and the table that re-wrote
/// it), and names every loss in `report`.
///
/// `allow_l0` is the caller's layout: an engine with an L0 keeps the
/// manifest's L0 tables (probed only — L0 tables overlap by design); an
/// engine without one rejects a manifest that has any, in either mode,
/// because that is a different engine's manifest, not damage.
///
/// # Errors
/// Strict mode: a run that overlaps. Salvage mode: store failures while
/// quarantining, or a run that still overlaps after resolution.
pub(crate) fn version_from_levels(
    store: &dyn TableStore,
    (mut run, mut l0): Levels,
    replayed: bool,
    mode: RecoveryMode,
    allow_l0: bool,
    report: &mut RecoveryReport,
    obs: &ObserverHandle,
) -> Result<Version> {
    if !allow_l0 && !l0.is_empty() {
        return Err(Error::Corrupt(
            "manifest contains L0 records; recover with TieredEngine".into(),
        ));
    }
    if mode == RecoveryMode::Salvage {
        run = salvage_tables(store, run, report, obs)?;
        if allow_l0 {
            l0 = probe_tables(store, l0, report, obs)?;
        }
    }
    if replayed {
        let items = (run.len() + l0.len()) as u64;
        obs.emit(|| Event::RecoveryStep {
            step: RecoveryStepKind::ManifestReplayed,
            items,
        });
    }
    Ok(Version::from_levels(Run::from_tables(run)?, l0))
}

/// The manifest-less fallback of [`rebuild_version`]: describes every
/// stored table by decoding it. An unreadable or empty table is an error
/// in strict mode and is quarantined (range unknown) in salvage mode.
fn scan_store(
    store: &dyn TableStore,
    salvage: bool,
    report: &mut RecoveryReport,
    obs: &ObserverHandle,
) -> Result<Vec<SsTableMeta>> {
    let mut metas = Vec::new();
    let mut scanned = 0u64;
    for id in store.list()? {
        scanned += 1;
        let err = match store.get(id) {
            Ok(points) if !points.is_empty() => {
                metas.push(SsTableMeta::describe(id, &points));
                continue;
            }
            Ok(_) => Error::Corrupt(format!("table {id} is empty")),
            Err(err) => err,
        };
        if !salvage {
            return Err(err);
        }
        store.quarantine(id)?;
        obs.emit(|| Event::Quarantine { table: id.0 });
        report.quarantined.push(QuarantinedTable {
            id,
            range: None,
            reason: err.to_string(),
        });
    }
    obs.emit(|| Event::RecoveryStep {
        step: RecoveryStepKind::StoreScanned,
        items: scanned,
    });
    Ok(metas)
}

/// Replays the write-ahead log at `path` into `engine`'s buffers, then
/// re-seeds it: every surviving point (strict: all of them or an error;
/// salvage: the longest valid prefix, the rest counted in `report`) goes
/// through `reinsert` with the series it was logged for — the engine's own
/// append path minus the logging, so a replay can trigger flushes — and
/// the log is then cut down to `settle(engine)`, per series the points
/// still volatile after that; an engine whose flushes wait on a commit of
/// its own makes it there, before the cut lets go of their points.
/// Returns the opened log for the engine to keep appending to.
///
/// # Errors
/// A damaged log in strict mode; whatever `reinsert` or `settle` fails
/// with; I/O failures opening or cutting the log.
pub(crate) fn replay_wal<E>(
    engine: &mut E,
    path: &Path,
    mode: RecoveryMode,
    report: &mut RecoveryReport,
    obs: &ObserverHandle,
    reinsert: impl Fn(&mut E, u32, DataPoint) -> Result<()>,
    settle: impl FnOnce(&mut E) -> Result<Vec<(u32, Vec<DataPoint>)>>,
) -> Result<Wal> {
    let salvage = mode == RecoveryMode::Salvage;
    let (mut wal, replay) = Wal::recover(path, !salvage)?;
    wal.attach_observer(obs.clone());
    if salvage {
        report.wal_records_dropped += replay.dropped;
    }
    obs.emit(|| Event::RecoveryStep {
        step: RecoveryStepKind::WalReplayed,
        items: replay.points() as u64,
    });
    for (series, points) in replay.series {
        for p in points {
            reinsert(engine, series, p)?;
        }
    }
    wal.rewrite(&settle(engine)?)?;
    Ok(wal)
}

/// Probes every candidate table against the store and quarantines the ones
/// that are unreadable or disagree with their metadata, then resolves any
/// range overlaps among the survivors (a salvaged metadata set can pair an
/// old table with the newer table that re-wrote it — the newer one, a
/// superset, wins). Returns the surviving metadata; `report` accumulates
/// the losses.
///
/// # Errors
/// Only store-level failures while *quarantining* propagate; unreadable
/// tables themselves are handled, not raised.
pub(crate) fn salvage_tables(
    store: &dyn TableStore,
    candidates: Vec<SsTableMeta>,
    report: &mut RecoveryReport,
    obs: &ObserverHandle,
) -> Result<Vec<SsTableMeta>> {
    let survivors = probe_tables(store, candidates, report, obs)?;
    resolve_overlaps(store, survivors, report, obs)
}

/// Probe-only variant of [`salvage_tables`] for levels whose tables may
/// legitimately overlap (L0): unreadable tables are quarantined, but no
/// overlap resolution is applied.
///
/// # Errors
/// Store-level failures while quarantining.
pub(crate) fn probe_tables(
    store: &dyn TableStore,
    candidates: Vec<SsTableMeta>,
    report: &mut RecoveryReport,
    obs: &ObserverHandle,
) -> Result<Vec<SsTableMeta>> {
    let probed = candidates.len() as u64;
    let mut survivors = Vec::with_capacity(candidates.len());
    for meta in candidates {
        match probe_table(store, &meta) {
            Ok(()) => survivors.push(meta),
            Err(e) => {
                store.quarantine(meta.id)?;
                obs.emit(|| Event::Quarantine { table: meta.id.0 });
                report.note_quarantine(&meta, e.to_string());
            }
        }
    }
    obs.emit(|| Event::RecoveryStep {
        step: RecoveryStepKind::TablesProbed,
        items: probed,
    });
    Ok(survivors)
}

/// Drops the older table of every overlapping pair until the set is
/// non-overlapping (the newer table of a pair produced by a crashed merge
/// contains the older one's points).
fn resolve_overlaps(
    store: &dyn TableStore,
    mut tables: Vec<SsTableMeta>,
    report: &mut RecoveryReport,
    obs: &ObserverHandle,
) -> Result<Vec<SsTableMeta>> {
    tables.sort_by_key(|m| (m.range.start, m.range.end, m.id));
    loop {
        let mut clash = None;
        for i in 1..tables.len() {
            if tables[i].range.start <= tables[i - 1].range.end {
                // Quarantine the older (lower-id) table of the pair.
                clash = Some(if tables[i].id < tables[i - 1].id {
                    i
                } else {
                    i - 1
                });
                break;
            }
        }
        let Some(idx) = clash else {
            return Ok(tables);
        };
        let meta = tables.remove(idx);
        store.quarantine(meta.id)?;
        obs.emit(|| Event::Quarantine { table: meta.id.0 });
        report.note_quarantine(&meta, "overlaps a newer recovered table");
    }
}

/// Deletes every stored table not in `live`, recording the removals.
///
/// # Errors
/// Store list/delete failures propagate.
pub(crate) fn gc_orphans(
    store: &dyn TableStore,
    live: &std::collections::HashSet<SsTableId>,
    report: &mut RecoveryReport,
    obs: &ObserverHandle,
) -> Result<()> {
    let mut swept = 0u64;
    for id in store.list()? {
        if !live.contains(&id) {
            store.delete(id)?;
            report.orphans_removed.push(id);
            swept += 1;
        }
    }
    obs.emit(|| Event::RecoveryStep {
        step: RecoveryStepKind::OrphansSwept,
        items: swept,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use seplsm_types::DataPoint;

    use super::*;
    use crate::store::MemStore;

    fn stored(store: &MemStore, range: std::ops::Range<i64>) -> SsTableMeta {
        let points: Vec<DataPoint> =
            range.map(|i| DataPoint::new(i, i, i as f64)).collect();
        store.put(&points).expect("put").0
    }

    #[test]
    fn salvage_keeps_readable_tables_and_reports_the_rest() {
        let store = MemStore::new();
        let ok = stored(&store, 0..10);
        let mut missing = stored(&store, 20..30);
        store.delete(missing.id).expect("delete"); // unreadable now
        missing.count = 10;
        let mut report = RecoveryReport::default();
        let survivors = salvage_tables(
            &store,
            vec![ok, missing],
            &mut report,
            &ObserverHandle::detached(),
        )
        .expect("salvage");
        assert_eq!(survivors, vec![ok]);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].id, missing.id);
        assert_eq!(report.lost_ranges, vec![missing.range]);
        assert!(!report.is_clean());
    }

    #[test]
    fn overlap_resolution_prefers_the_newer_table() {
        let store = MemStore::new();
        // A crashed merge: the old table and the wider table that re-wrote
        // it both survive on disk.
        let old = stored(&store, 5..10);
        let merged = stored(&store, 0..15);
        let mut report = RecoveryReport::default();
        let survivors = salvage_tables(
            &store,
            vec![old, merged],
            &mut report,
            &ObserverHandle::detached(),
        )
        .expect("salvage");
        assert_eq!(survivors, vec![merged], "newer superset table wins");
        assert_eq!(report.quarantined[0].id, old.id);
    }

    #[test]
    fn torn_v3_write_is_quarantined_with_a_precise_reason() {
        use crate::store::FileStore;
        let dir = std::env::temp_dir().join(format!(
            "seplsm-recovery-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let store = FileStore::open(&dir).expect("open");
        let points: Vec<DataPoint> =
            (0..64).map(|i| DataPoint::new(i, i, i as f64)).collect();
        let (meta, size) = store.put(&points).expect("put");
        // Tear the file: the data region reached disk, the footer did not.
        let path = dir.join(format!("{:08}.sst", meta.id.0));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("reopen table");
        file.set_len(size as u64 - 10).expect("truncate");
        let mut report = RecoveryReport::default();
        let survivors = salvage_tables(
            &store,
            vec![meta],
            &mut report,
            &ObserverHandle::detached(),
        )
        .expect("salvage");
        assert!(survivors.is_empty());
        assert_eq!(report.quarantined.len(), 1);
        assert!(
            report.quarantined[0].reason.contains("torn v3 write"),
            "probe must name the torn footer, got: {}",
            report.quarantined[0].reason
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_removes_only_unreferenced_tables() {
        let store = MemStore::new();
        let live_meta = stored(&store, 0..5);
        let orphan = stored(&store, 100..105);
        let mut report = RecoveryReport::default();
        let live = std::collections::HashSet::from([live_meta.id]);
        gc_orphans(&store, &live, &mut report, &ObserverHandle::detached())
            .expect("gc");
        assert_eq!(report.orphans_removed, vec![orphan.id]);
        assert!(store.get(live_meta.id).is_ok());
        assert!(store.get(orphan.id).is_err());
        assert!(report.is_clean(), "orphan GC alone is still clean");
    }
}
