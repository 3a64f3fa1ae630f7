//! Debug-build invariant checker for the storage kernel.
//!
//! Every [`VersionEdit`](crate::version::VersionEdit) application re-checks
//! the *structural* invariants ([`check_version`]), and every executed
//! [`CompactionPlan`](crate::compaction::CompactionPlan) additionally
//! cross-checks the version metadata against the actual store contents
//! ([`check_version_against_store`]). The engines own an
//! [`InvariantChecker`] that layers *temporal* invariants on top: the WA
//! counters of [`Metrics`] are monotone and agree with
//! [`metrics::write_amplification`](crate::metrics::write_amplification)
//! recomputed from first principles (the paper's §I-B definition behind
//! Eq. 2–3), and the `π_s` classification pivot (`LAST(R).t_g`,
//! Definition 3) never moves backwards.
//!
//! All checks compile to no-ops without `debug_assertions`, so release
//! builds (the benchmarked configuration) pay nothing while every test and
//! proptest run doubles as a model-checking pass. Violations surface as
//! [`Error::Corrupt`] rather than panics — the library crates are
//! panic-free by lint (clippy `unwrap_used`/`expect_used`/`panic`, `seplint`
//! R4).

use seplsm_types::{Error, Result, Timestamp};

use crate::metrics::{self, Metrics};
use crate::store::TableStore;
use crate::version::Version;

/// How many run-tail tables [`check_version_against_store`] fully decodes;
/// older run tables are checked by metadata only. Bounds the per-compaction
/// cost so the proptest suites stay fast.
const DECODED_TAIL_TABLES: usize = 8;

fn corrupt(what: impl Into<String>) -> Error {
    Error::Corrupt(what.into())
}

/// Structural invariants of a [`Version`]: the run is sorted and
/// non-overlapping, and every table (run and L0) has a well-formed,
/// non-empty metadata record. Called after every edit application.
///
/// # Errors
/// [`Error::Corrupt`] describing the first violation. No-op in release
/// builds.
pub fn check_version(version: &Version) -> Result<()> {
    if !cfg!(debug_assertions) {
        return Ok(());
    }
    check_version_always(version)
}

/// The ungated body of [`check_version`], shared with the recovery-time
/// audit ([`audit_version_against_store`]), which must run in release
/// builds too.
pub(crate) fn check_version_always(version: &Version) -> Result<()> {
    version.run().check_invariants()?;
    for meta in version.run().tables().iter().chain(version.l0()) {
        if meta.count == 0 {
            return Err(corrupt(format!("table {} is empty", meta.id)));
        }
        if meta.range.start > meta.range.end {
            return Err(corrupt(format!(
                "table {} has inverted range [{} .. {}]",
                meta.id, meta.range.start, meta.range.end
            )));
        }
        if meta.range.start == meta.range.end && meta.count > 1 {
            return Err(corrupt(format!(
                "table {} claims {} points in a single-instant range",
                meta.id, meta.count
            )));
        }
    }
    for batch in version.flushing() {
        if batch.is_empty() {
            return Err(corrupt("registered flushing batch is empty"));
        }
    }
    Ok(())
}

/// Cross-checks version metadata against the store: every L0 table and the
/// [`DECODED_TAIL_TABLES`] newest run tables are decoded and must agree
/// with their metadata (point count and range endpoints). The check is
/// deliberately bounded: compactions only ever touch the region around the
/// fresh points, and older run tables get re-validated the moment a merge
/// consumes them, so scanning the whole run here would be O(n²) across a
/// workload for no additional coverage. Called after every executed
/// compaction plan.
///
/// # Errors
/// [`Error::Corrupt`] on any disagreement. No-op in release builds.
pub fn check_version_against_store(
    version: &Version,
    store: &dyn TableStore,
) -> Result<()> {
    if !cfg!(debug_assertions) {
        return Ok(());
    }
    check_version(version)?;
    let run = version.run().tables();
    let decode_from = run.len().saturating_sub(DECODED_TAIL_TABLES);
    for meta in run[decode_from..].iter().chain(version.l0()) {
        probe_table(store, meta)?;
    }
    Ok(())
}

/// Decodes one table and checks it agrees with its metadata (point count
/// and range endpoints). Always on: this is the readability probe salvage
/// recovery uses to decide whether a table must be quarantined.
///
/// # Errors
/// [`Error::Corrupt`] (or the store's read error) on any disagreement.
pub fn probe_table(
    store: &dyn TableStore,
    meta: &crate::sstable::SsTableMeta,
) -> Result<()> {
    probe_v3_layout(store, meta)?;
    let points = store.get(meta.id)?;
    if points.len() as u64 != u64::from(meta.count) {
        return Err(corrupt(format!(
            "table {} stores {} points but metadata says {}",
            meta.id,
            points.len(),
            meta.count
        )));
    }
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return Err(corrupt(format!("table {} decoded empty", meta.id)));
    };
    if first.gen_time != meta.range.start || last.gen_time != meta.range.end {
        return Err(corrupt(format!(
            "table {} spans [{} .. {}] but metadata says [{} .. {}]",
            meta.id,
            first.gen_time,
            last.gen_time,
            meta.range.start,
            meta.range.end
        )));
    }
    Ok(())
}

/// Checks a v3 table's self-describing layout before the full decode: a
/// file that *starts* as v3 (header magic + version) but whose tail is not
/// a valid footer is a torn write — the writer crashed after the data
/// region hit disk but before the footer did. Naming that precisely beats
/// the generic CRC error the full decode would raise. Stores without
/// byte-range reads (spans unsupported) skip straight to the full decode,
/// which still catches every torn layout, just with a coarser message.
fn probe_v3_layout(
    store: &dyn TableStore,
    meta: &crate::sstable::SsTableMeta,
) -> Result<()> {
    use crate::sstable::format::{
        sniff_version, v3_footer, ByteSpan, V3_FOOTER, VERSION_PRUNED,
    };
    let Some(len) = store.table_len(meta.id)? else {
        return Ok(());
    };
    let head = ByteSpan {
        offset: 0,
        len: len.min(6),
    };
    let Some(head) = store.read_span(meta.id, head)? else {
        return Ok(());
    };
    if sniff_version(&head) != Some(VERSION_PRUNED) {
        return Ok(());
    }
    if len < V3_FOOTER as u64 {
        return Err(corrupt(format!(
            "table {} is a torn v3 write: {len} bytes is too short \
             for a footer",
            meta.id
        )));
    }
    let fetch = |span| {
        store
            .read_span(meta.id, span)?
            .ok_or_else(|| corrupt("store lost span support mid-probe"))
    };
    match v3_footer(len, fetch) {
        Err(e @ Error::Corrupt(_)) => Err(corrupt(format!(
            "table {} is a torn v3 write: {e}",
            meta.id
        ))),
        other => other.map(|_| ()),
    }
}

/// Recovery-time audit: the structural checks plus a complete decode of
/// *every* table (run and L0) against its metadata. Unlike the per-edit
/// checks this also runs in release builds — recovery is rare, so the
/// O(data) cost buys certainty that a recovered version serves only
/// readable, consistent tables.
///
/// # Errors
/// [`Error::Corrupt`] (or a store read error) on the first violation.
pub fn audit_version_against_store(
    version: &Version,
    store: &dyn TableStore,
) -> Result<()> {
    check_version_always(version)?;
    for meta in version.run().tables().iter().chain(version.l0()) {
        probe_table(store, meta)?;
    }
    Ok(())
}

/// Temporal invariants carried across observations: WA counters only grow
/// and stay self-consistent, and the classification pivot never regresses.
///
/// Owned by each engine (one per series); all methods are no-ops in
/// release builds.
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    last_user_points: u64,
    last_disk_points_written: u64,
    last_flushes: u64,
    last_compactions: u64,
    last_rewritten_points: u64,
    /// Last observed `LAST(R).t_g` over all stored tables (run + L0).
    last_pivot: Option<Timestamp>,
}

impl InvariantChecker {
    /// A checker with no history (fresh engine).
    pub fn new() -> Self {
        Self::default()
    }

    /// A checker whose pivot history starts from a recovered version, so
    /// the no-regression check holds across the recovery boundary too.
    pub fn seeded(version: &Version) -> Self {
        Self {
            last_pivot: version.last_stored_gen_time(),
            ..Self::default()
        }
    }

    /// Checks the full invariant set against the current engine state and
    /// records it as the new baseline.
    ///
    /// # Errors
    /// [`Error::Corrupt`] on the first violated invariant. No-op in
    /// release builds.
    pub fn observe(
        &mut self,
        version: &Version,
        metrics: &Metrics,
        store: &dyn TableStore,
    ) -> Result<()> {
        if !cfg!(debug_assertions) {
            return Ok(());
        }
        check_version_against_store(version, store)?;
        self.check_counters(metrics)?;
        self.check_pivot(version)?;
        Ok(())
    }

    /// Counter-only variant of [`InvariantChecker::observe`] for callers
    /// without store access.
    ///
    /// # Errors
    /// [`Error::Corrupt`] on the first violated invariant.
    pub fn observe_metrics(
        &mut self,
        version: &Version,
        metrics: &Metrics,
    ) -> Result<()> {
        if !cfg!(debug_assertions) {
            return Ok(());
        }
        check_version(version)?;
        self.check_counters(metrics)?;
        self.check_pivot(version)?;
        Ok(())
    }

    fn check_counters(&mut self, m: &Metrics) -> Result<()> {
        let monotone = [
            ("user_points", self.last_user_points, m.user_points),
            (
                "disk_points_written",
                self.last_disk_points_written,
                m.disk_points_written,
            ),
            ("flushes", self.last_flushes, m.flushes),
            ("compactions", self.last_compactions, m.compactions),
            (
                "rewritten_points",
                self.last_rewritten_points,
                m.rewritten_points,
            ),
        ];
        for (name, before, now) in monotone {
            if now < before {
                return Err(corrupt(format!(
                    "WA counter {name} regressed: {before} -> {now}"
                )));
            }
        }
        // The engine's WA must equal the §I-B ratio recomputed from the raw
        // counters — the single shared definition behind Eq. 2–3.
        let recomputed =
            metrics::write_amplification(m.disk_points_written, m.user_points);
        if m.write_amplification() != recomputed {
            return Err(corrupt(format!(
                "write amplification diverged from first principles: \
                 {} vs {recomputed}",
                m.write_amplification()
            )));
        }
        // Snapshots are a prefix of the counter history: monotone in both
        // coordinates and never ahead of the live counters.
        for w in m.wa_snapshots.windows(2) {
            if w[1].user_points < w[0].user_points
                || w[1].disk_points_written < w[0].disk_points_written
            {
                return Err(corrupt("WA snapshots are not monotone"));
            }
        }
        if let Some(last) = m.wa_snapshots.last() {
            if last.user_points > m.user_points
                || last.disk_points_written > m.disk_points_written
            {
                return Err(corrupt(
                    "WA snapshot is ahead of the live counters",
                ));
            }
        }
        self.last_user_points = m.user_points;
        self.last_disk_points_written = m.disk_points_written;
        self.last_flushes = m.flushes;
        self.last_compactions = m.compactions;
        self.last_rewritten_points = m.rewritten_points;
        Ok(())
    }

    fn check_pivot(&mut self, version: &Version) -> Result<()> {
        let pivot = version.last_stored_gen_time();
        if let (Some(before), Some(now)) = (self.last_pivot, pivot) {
            if now < before {
                return Err(corrupt(format!(
                    "classification pivot LAST(R).t_g regressed: \
                     {before} -> {now}"
                )));
            }
        }
        if pivot.is_some() {
            self.last_pivot = pivot;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use seplsm_types::{DataPoint, TimeRange};

    use super::*;
    use crate::level::Run;
    use crate::metrics::WaSnapshot;
    use crate::sstable::{SsTableId, SsTableMeta};
    use crate::store::MemStore;

    fn meta(id: u64, start: i64, end: i64, count: u32) -> SsTableMeta {
        SsTableMeta {
            id: SsTableId(id),
            range: TimeRange::new(start, end),
            count,
        }
    }

    #[test]
    fn overlapping_run_is_caught() {
        let run = Run::from_tables_unchecked(vec![
            meta(1, 0, 100, 5),
            meta(2, 100, 200, 5),
        ]);
        let v = Version::from_levels(run, Vec::new());
        let err = check_version(&v).expect_err("overlap must fire");
        assert!(err.to_string().contains("overlaps"), "{err}");
    }

    #[test]
    fn empty_and_inverted_table_metadata_is_caught() {
        let v = Version::from_levels(Run::new(), vec![meta(1, 0, 10, 0)]);
        assert!(check_version(&v).is_err(), "zero-count table");
        // TimeRange::new debug-asserts ordering, so build the corrupted
        // range literally — exactly what a bad manifest replay could yield.
        let inverted = SsTableMeta {
            id: SsTableId(2),
            range: TimeRange { start: 9, end: 3 },
            count: 4,
        };
        let v = Version::from_levels(
            Run::from_tables_unchecked(vec![inverted]),
            Vec::new(),
        );
        assert!(check_version(&v).is_err(), "inverted range");
        let v = Version::from_levels(
            Run::from_tables_unchecked(vec![meta(3, 5, 5, 2)]),
            Vec::new(),
        );
        assert!(check_version(&v).is_err(), "2 points in instant range");
    }

    #[test]
    fn store_disagreement_is_caught() {
        let store = MemStore::new();
        let points: Vec<DataPoint> = (0..4)
            .map(|i| DataPoint::new(i * 10, i * 10, 0.0))
            .collect();
        let (meta_ok, _) = store.put(&points).expect("put");

        // Consistent metadata passes.
        let v = Version::from_levels(
            Run::from_tables(vec![meta_ok]).expect("run"),
            Vec::new(),
        );
        check_version_against_store(&v, &store).expect("consistent");

        // Wrong point count.
        let mut skewed = meta_ok;
        skewed.count = 3;
        let v = Version::from_levels(
            Run::from_tables_unchecked(vec![skewed]),
            Vec::new(),
        );
        let err = check_version_against_store(&v, &store)
            .expect_err("count mismatch");
        assert!(err.to_string().contains("metadata says"), "{err}");

        // Wrong range endpoint (still containing the same instants, so the
        // structural checks pass and only the store check can catch it).
        let mut shifted = meta_ok;
        shifted.range = TimeRange::new(0, 40);
        let v = Version::from_levels(
            Run::from_tables_unchecked(vec![shifted]),
            Vec::new(),
        );
        assert!(
            check_version_against_store(&v, &store).is_err(),
            "range mismatch"
        );

        // Dangling table id.
        let v = Version::from_levels(
            Run::from_tables_unchecked(vec![meta(999, 0, 30, 4)]),
            Vec::new(),
        );
        assert!(
            check_version_against_store(&v, &store).is_err(),
            "missing table"
        );
    }

    #[test]
    fn l0_tables_are_always_decoded() {
        let store = MemStore::new();
        let points = vec![DataPoint::new(5, 6, 1.0)];
        let (mut l0_meta, _) = store.put(&points).expect("put");
        l0_meta.count = 7; // lie about the contents
        let v = Version::from_levels(Run::new(), vec![l0_meta]);
        assert!(check_version_against_store(&v, &store).is_err());
    }

    #[test]
    fn regressed_counters_are_caught() {
        let mut checker = InvariantChecker::new();
        let v = Version::new();
        let store = MemStore::new();
        let mut m = Metrics {
            user_points: 100,
            disk_points_written: 150,
            flushes: 3,
            ..Default::default()
        };
        checker.observe(&v, &m, &store).expect("baseline");
        m.disk_points_written = 120; // counters only grow
        let err = checker.observe(&v, &m, &store).expect_err("regression");
        assert!(err.to_string().contains("regressed"), "{err}");
    }

    #[test]
    fn skewed_wa_snapshots_are_caught() {
        let mut checker = InvariantChecker::new();
        let v = Version::new();
        let m = Metrics {
            user_points: 10,
            disk_points_written: 10,
            wa_snapshots: vec![WaSnapshot {
                user_points: 512, // ahead of the live counter
                disk_points_written: 5,
            }],
            ..Default::default()
        };
        let err = checker.observe_metrics(&v, &m).expect_err("skew");
        assert!(err.to_string().contains("snapshot"), "{err}");

        let mut checker = InvariantChecker::new();
        let m = Metrics {
            user_points: 1024,
            disk_points_written: 1024,
            wa_snapshots: vec![
                WaSnapshot {
                    user_points: 512,
                    disk_points_written: 600,
                },
                WaSnapshot {
                    user_points: 1024,
                    disk_points_written: 550, // went backwards
                },
            ],
            ..Default::default()
        };
        assert!(checker.observe_metrics(&v, &m).is_err());
    }

    #[test]
    fn regressed_pivot_is_caught() {
        let mut checker = InvariantChecker::new();
        let m = Metrics::default();
        let v = Version::from_levels(
            Run::from_tables(vec![meta(1, 0, 200, 10)]).expect("run"),
            Vec::new(),
        );
        checker.observe_metrics(&v, &m).expect("baseline");
        let v = Version::from_levels(
            Run::from_tables(vec![meta(1, 0, 150, 10)]).expect("run"),
            Vec::new(),
        );
        let err = checker.observe_metrics(&v, &m).expect_err("pivot");
        assert!(err.to_string().contains("pivot"), "{err}");
    }

    #[test]
    fn seeded_checker_spans_the_recovery_boundary() {
        let recovered = Version::from_levels(
            Run::from_tables(vec![meta(1, 0, 500, 10)]).expect("run"),
            Vec::new(),
        );
        let mut checker = InvariantChecker::seeded(&recovered);
        // An engine rebuilt with an older run tail must be flagged even
        // though this checker never observed the original version.
        let older = Version::from_levels(
            Run::from_tables(vec![meta(1, 0, 300, 10)]).expect("run"),
            Vec::new(),
        );
        assert!(checker
            .observe_metrics(&older, &Metrics::default())
            .is_err());
    }

    #[test]
    fn healthy_progression_passes() {
        let mut checker = InvariantChecker::new();
        let store = MemStore::new();
        let mut version = Version::new();
        let mut m = Metrics::default();
        let mut next_start = 0i64;
        for round in 1..=20u64 {
            let points: Vec<DataPoint> = (0..8)
                .map(|i| {
                    let tg = next_start + i;
                    DataPoint::new(tg, tg + 3, tg as f64)
                })
                .collect();
            next_start += 8;
            let (table, _) = store.put(&points).expect("put");
            version
                .apply(&[crate::version::VersionEdit::Replace {
                    removed: Vec::new(),
                    added: vec![table],
                    drain_l0: false,
                }])
                .expect("apply");
            m.user_points += 8;
            m.disk_points_written += 8;
            m.flushes = round;
            checker.observe(&version, &m, &store).expect("healthy");
        }
    }
}
