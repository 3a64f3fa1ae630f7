//! Versioned on-disk state: the run, L0, and in-flight flushes.
//!
//! A [`Version`] is the complete table-level state of one series: the
//! non-overlapping level-1 [`Run`], the (possibly overlapping) L0 tables
//! produced by background flushes, and the *flushing MemTables* — batches
//! handed to the flush pipeline but not yet stored, which must stay
//! queryable (exactly IoTDB's flushing-MemTable list).
//!
//! State never mutates in place: engines describe changes as
//! [`VersionEdit`]s and [`Version::apply`] commits a whole edit batch
//! atomically — either every edit lands or the version is untouched. The
//! manifest does not follow edit by edit: a horizon records the net change
//! between the durable version and the current one
//! (`compaction::horizon`).

use std::collections::HashSet;
use std::sync::Arc;

use seplsm_types::{DataPoint, Result, Timestamp};

use crate::level::Run;
use crate::manifest::SeriesTables;
use crate::sstable::{SsTableId, SsTableMeta};

/// One table-level state change, applied through [`Version::apply`].
#[derive(Debug, Clone)]
pub enum VersionEdit {
    /// A batch was handed to the flush pipeline and must stay queryable
    /// until [`VersionEdit::FlushToL0`] retires it.
    RegisterFlushing(Arc<Vec<DataPoint>>),
    /// A flushing batch became L0 tables: the tables join L0 and the batch
    /// leaves the flushing list in the same atomic application, so queries
    /// see the data in exactly one place.
    FlushToL0 {
        /// The batch being retired (matched by pointer identity).
        batch: Arc<Vec<DataPoint>>,
        /// The stored tables that now hold its points.
        tables: Vec<SsTableMeta>,
    },
    /// A committed merge plan: `removed` run tables (and, when `drain_l0`
    /// is set, every L0 table) are replaced by `added`. An in-order flush
    /// is the plan that removes nothing.
    Replace {
        /// Run tables consumed by the merge.
        removed: Vec<SsTableId>,
        /// The merge output.
        added: Vec<SsTableMeta>,
        /// `true` when the merge also consumed all of L0 (tiered path).
        drain_l0: bool,
    },
}

/// The table-level state of one series; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Version {
    run: Run,
    /// L0 tables in flush order (later = newer; newer wins duplicates).
    l0: Vec<SsTableMeta>,
    /// Batches in the flush pipeline, oldest first.
    flushing: Vec<Arc<Vec<DataPoint>>>,
}

impl Version {
    /// An empty version.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a version from recovered level contents (manifest replay).
    pub fn from_levels(run: Run, l0: Vec<SsTableMeta>) -> Self {
        Self {
            run,
            l0,
            flushing: Vec::new(),
        }
    }

    /// The non-overlapping level-1 run.
    pub fn run(&self) -> &Run {
        &self.run
    }

    /// The L0 tables, in flush order.
    pub fn l0(&self) -> &[SsTableMeta] {
        &self.l0
    }

    /// Batches currently in the flush pipeline, oldest first.
    pub fn flushing(&self) -> &[Arc<Vec<DataPoint>>] {
        &self.flushing
    }

    /// The largest generation time across every *stored* table (run + L0) —
    /// the recovery value of the tiered engine's classification pivot.
    pub fn last_stored_gen_time(&self) -> Option<Timestamp> {
        let l0_max = self.l0.iter().map(|m| m.range.end).max();
        match (self.run.last_gen_time(), l0_max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Ids of every table the version references (run + L0) — the set an
    /// orphan sweep must keep and a stale read view is checked against.
    pub fn live_table_ids(&self) -> HashSet<SsTableId> {
        self.run
            .tables()
            .iter()
            .chain(&self.l0)
            .map(|m| m.id)
            .collect()
    }

    /// Applies `edits` in order, atomically: on any failure the version is
    /// left exactly as it was.
    ///
    /// # Errors
    /// [`seplsm_types::Error::InvalidConfig`] / `Corrupt` when an edit
    /// violates the run invariant.
    pub fn apply(&mut self, edits: &[VersionEdit]) -> Result<()> {
        let mut staged = self.clone();
        for edit in edits {
            staged.apply_one(edit)?;
        }
        // Debug builds re-check the full structural invariant before the
        // staged state becomes visible; release builds skip this (no-op).
        crate::invariants::check_version(&staged)?;
        *self = staged;
        Ok(())
    }

    fn apply_one(&mut self, edit: &VersionEdit) -> Result<()> {
        match edit {
            VersionEdit::RegisterFlushing(batch) => {
                self.flushing.push(Arc::clone(batch));
                Ok(())
            }
            VersionEdit::FlushToL0 { batch, tables } => {
                self.l0.extend(tables.iter().copied());
                self.flushing.retain(|b| !Arc::ptr_eq(b, batch));
                Ok(())
            }
            VersionEdit::Replace {
                removed,
                added,
                drain_l0,
            } => {
                if *drain_l0 {
                    self.l0.clear();
                }
                self.run.replace(removed, added.clone())
            }
        }
    }

    /// The live tables, as the manifest records them for `series`.
    pub(crate) fn series_tables(
        &self,
        series: Option<u32>,
    ) -> SeriesTables<'_> {
        SeriesTables {
            series,
            run: self.run.tables(),
            l0: &self.l0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seplsm_types::TimeRange;

    fn meta(id: u64, start: i64, end: i64, count: u32) -> SsTableMeta {
        SsTableMeta {
            id: SsTableId(id),
            range: TimeRange::new(start, end),
            count,
        }
    }

    /// The edit an in-order flush commits: tables added, none removed.
    fn append(added: Vec<SsTableMeta>) -> VersionEdit {
        VersionEdit::Replace {
            removed: Vec::new(),
            added,
            drain_l0: false,
        }
    }

    #[test]
    fn append_and_replace_edit_the_run() {
        let mut v = Version::new();
        v.apply(&[append(vec![meta(1, 0, 99, 10), meta(2, 100, 199, 10)])])
            .expect("append");
        assert_eq!(v.run().len(), 2);
        v.apply(&[VersionEdit::Replace {
            removed: vec![SsTableId(2)],
            added: vec![meta(3, 100, 150, 6), meta(4, 151, 220, 8)],
            drain_l0: false,
        }])
        .expect("replace");
        assert_eq!(v.run().len(), 3);
        assert_eq!(v.run().last_gen_time(), Some(220));
    }

    #[test]
    fn failed_edit_batch_leaves_version_untouched() {
        let mut v = Version::new();
        v.apply(&[append(vec![meta(1, 0, 99, 10)])]).expect("seed");
        // Second edit overlaps the tail: the whole batch must be rejected.
        let err = v.apply(&[
            append(vec![meta(2, 100, 199, 10)]),
            append(vec![meta(3, 150, 250, 10)]),
        ]);
        assert!(err.is_err());
        assert_eq!(v.run().len(), 1, "atomicity: no partial application");
    }

    #[test]
    fn flush_to_l0_retires_the_flushing_batch_atomically() {
        let mut v = Version::new();
        let batch = Arc::new(vec![DataPoint::new(5, 5, 1.0)]);
        v.apply(&[VersionEdit::RegisterFlushing(Arc::clone(&batch))])
            .expect("register");
        assert_eq!(v.flushing().len(), 1);
        v.apply(&[VersionEdit::FlushToL0 {
            batch: Arc::clone(&batch),
            tables: vec![meta(7, 5, 5, 1)],
        }])
        .expect("flush");
        assert!(v.flushing().is_empty());
        assert_eq!(v.l0().len(), 1);
        assert_eq!(v.last_stored_gen_time(), Some(5));
    }

    #[test]
    fn replace_can_drain_l0() {
        let mut v = Version::from_levels(
            Run::from_tables(vec![meta(1, 0, 99, 10)]).expect("run"),
            vec![meta(2, 50, 120, 8)],
        );
        assert_eq!(v.last_stored_gen_time(), Some(120));
        v.apply(&[VersionEdit::Replace {
            removed: vec![SsTableId(1)],
            added: vec![meta(3, 0, 120, 18)],
            drain_l0: true,
        }])
        .expect("compact");
        assert!(v.l0().is_empty());
        assert_eq!(v.run().len(), 1);
        assert_eq!(v.last_stored_gen_time(), Some(120));
    }
}
