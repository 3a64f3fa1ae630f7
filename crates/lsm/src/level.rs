//! The level-1 *run*: an ordered set of non-overlapping SSTables.
//!
//! In IoTDB's leveled organisation (paper §II), the SSTables on `L1` have
//! pairwise-disjoint generation-time ranges; taken together they form a
//! single sorted run `R`. `LAST(R)` — the latest generation time on disk —
//! is the pivot that classifies incoming points as in-order or out-of-order
//! (Definition 3).

use seplsm_types::{Error, Result, TimeRange, Timestamp};

use crate::sstable::{SsTableId, SsTableMeta};

/// The non-overlapping run of SSTables on level `L1`.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Table metadata sorted by `range.start`; ranges are pairwise disjoint.
    tables: Vec<SsTableMeta>,
}

impl Run {
    /// Creates an empty run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a run from arbitrary table metadata (e.g. during recovery).
    ///
    /// # Errors
    /// [`Error::Corrupt`] if any two tables overlap.
    pub fn from_tables(mut tables: Vec<SsTableMeta>) -> Result<Self> {
        tables.sort_by_key(|m| m.range.start);
        let run = Self { tables };
        run.check_invariants()?;
        Ok(run)
    }

    /// Rebuilds a run from pre-sorted tables *without* validating the
    /// non-overlap invariant — corrupted-state construction for the
    /// invariant-checker tests only.
    #[cfg(test)]
    pub(crate) fn from_tables_unchecked(tables: Vec<SsTableMeta>) -> Self {
        Self { tables }
    }

    /// Number of tables in the run.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when the run holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The tables in ascending range order.
    pub fn tables(&self) -> &[SsTableMeta] {
        &self.tables
    }

    /// Total number of points across the run.
    pub fn total_points(&self) -> u64 {
        self.tables.iter().map(|m| u64::from(m.count)).sum()
    }

    /// `LAST(R).t_g`: the latest generation time on disk, if any.
    pub fn last_gen_time(&self) -> Option<Timestamp> {
        self.tables.last().map(|m| m.range.end)
    }

    /// Earliest generation time on disk, if any.
    pub fn first_gen_time(&self) -> Option<Timestamp> {
        self.tables.first().map(|m| m.range.start)
    }

    /// Metadata of tables whose range intersects `range`.
    pub fn overlapping(&self, range: TimeRange) -> Vec<SsTableMeta> {
        // Tables are sorted and disjoint: binary-search the window.
        let start = self.tables.partition_point(|m| m.range.end < range.start);
        self.tables[start..]
            .iter()
            .take_while(|m| m.range.start <= range.end)
            .copied()
            .collect()
    }

    /// Number of points in tables lying entirely *above* `tg` (every point in
    /// them has `gen_time > tg`). Straddling tables are not counted here —
    /// callers must inspect their contents.
    pub fn points_in_tables_above(&self, tg: Timestamp) -> u64 {
        let start = self.tables.partition_point(|m| m.range.start <= tg);
        self.tables[start..]
            .iter()
            .map(|m| u64::from(m.count))
            .sum()
    }

    /// The table whose range contains `tg`, if any (binary search).
    pub fn table_containing(&self, tg: Timestamp) -> Option<&SsTableMeta> {
        let idx = self.tables.partition_point(|m| m.range.end < tg);
        self.tables.get(idx).filter(|m| m.range.contains(tg))
    }

    /// Replaces the tables with ids in `removed` by `added` (a committed
    /// merge plan; an in-order flush removes nothing and lands past the
    /// tail), re-establishing the sorted non-overlapping invariant.
    ///
    /// # Errors
    /// [`Error::Corrupt`] if the result violates the run invariant.
    pub fn replace(
        &mut self,
        removed: &[SsTableId],
        added: Vec<SsTableMeta>,
    ) -> Result<()> {
        self.tables.retain(|m| !removed.contains(&m.id));
        self.tables.extend(added);
        self.tables.sort_by_key(|m| m.range.start);
        self.check_invariants()
    }

    /// Verifies the sorted / non-overlapping invariant.
    ///
    /// # Errors
    /// [`Error::Corrupt`] describing the first violation found.
    pub fn check_invariants(&self) -> Result<()> {
        for w in self.tables.windows(2) {
            if w[1].range.start <= w[0].range.end {
                return Err(Error::Corrupt(format!(
                    "run invariant violated: {} [{} .. {}] overlaps {} [{} .. {}]",
                    w[0].id,
                    w[0].range.start,
                    w[0].range.end,
                    w[1].id,
                    w[1].range.start,
                    w[1].range.end
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(
        id: u64,
        start: Timestamp,
        end: Timestamp,
        count: u32,
    ) -> SsTableMeta {
        SsTableMeta {
            id: SsTableId(id),
            range: TimeRange::new(start, end),
            count,
        }
    }

    #[test]
    fn from_tables_sorts_and_validates() {
        let run =
            Run::from_tables(vec![meta(2, 100, 199, 10), meta(1, 0, 99, 10)])
                .expect("valid run");
        assert_eq!(run.first_gen_time(), Some(0));
        assert_eq!(run.last_gen_time(), Some(199));
        assert_eq!(run.total_points(), 20);
    }

    #[test]
    fn from_tables_rejects_overlap() {
        assert!(Run::from_tables(vec![
            meta(1, 0, 100, 5),
            meta(2, 100, 200, 5)
        ])
        .is_err());
    }

    #[test]
    fn overlapping_finds_exactly_the_intersecting_tables() {
        let run = Run::from_tables(vec![
            meta(1, 0, 99, 10),
            meta(2, 100, 199, 10),
            meta(3, 200, 299, 10),
            meta(4, 300, 399, 10),
        ])
        .expect("valid");
        let hits = run.overlapping(TimeRange::new(150, 250));
        let ids: Vec<u64> = hits.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(run.overlapping(TimeRange::new(400, 500)).is_empty());
        assert_eq!(run.overlapping(TimeRange::new(0, 399)).len(), 4);
        // Closed-range boundaries.
        assert_eq!(run.overlapping(TimeRange::new(99, 100)).len(), 2);
    }

    #[test]
    fn points_in_tables_above_counts_strictly_later_tables() {
        let run = Run::from_tables(vec![
            meta(1, 0, 99, 10),
            meta(2, 100, 199, 20),
            meta(3, 200, 299, 30),
        ])
        .expect("valid");
        assert_eq!(run.points_in_tables_above(150), 30); // table 3 only
        assert_eq!(run.points_in_tables_above(99), 50); // tables 2+3
        assert_eq!(run.points_in_tables_above(-1), 60);
        assert_eq!(run.points_in_tables_above(300), 0);
    }

    #[test]
    fn table_containing_finds_the_right_table() {
        let run =
            Run::from_tables(vec![meta(1, 0, 99, 10), meta(2, 200, 299, 10)])
                .expect("valid");
        assert_eq!(run.table_containing(50).expect("hit").id.0, 1);
        assert_eq!(run.table_containing(200).expect("hit").id.0, 2);
        assert_eq!(run.table_containing(299).expect("hit").id.0, 2);
        assert!(run.table_containing(150).is_none()); // gap
        assert!(run.table_containing(-5).is_none());
        assert!(run.table_containing(300).is_none());
    }

    #[test]
    fn replace_swaps_compaction_inputs_for_outputs() {
        let mut run = Run::from_tables(vec![
            meta(1, 0, 99, 10),
            meta(2, 100, 199, 10),
            meta(3, 200, 299, 10),
        ])
        .expect("valid");
        run.replace(
            &[SsTableId(2), SsTableId(3)],
            vec![meta(4, 100, 180, 12), meta(5, 181, 299, 14)],
        )
        .expect("replace");
        assert_eq!(run.len(), 3);
        assert_eq!(run.total_points(), 36);
        assert_eq!(run.last_gen_time(), Some(299));
    }

    #[test]
    fn replace_rejects_invalid_results() {
        let mut run =
            Run::from_tables(vec![meta(1, 0, 99, 10)]).expect("valid");
        assert!(run.replace(&[], vec![meta(2, 50, 150, 10)]).is_err());
    }

    #[test]
    fn empty_run_edge_cases() {
        let run = Run::new();
        assert_eq!(run.last_gen_time(), None);
        assert!(run.overlapping(TimeRange::new(0, 100)).is_empty());
        assert_eq!(run.points_in_tables_above(0), 0);
        run.check_invariants().expect("empty run is valid");
    }
}
