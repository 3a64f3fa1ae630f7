//! SSTables: immutable, sorted, checksummed on-disk tables.
//!
//! Mirrors the paper's setup: SSTables hold points sorted by generation time
//! (§I-A), cover a closed generation-time range, and on level `L1` form a
//! *run* of non-overlapping tables. The binary format is compact
//! (delta-varint timestamps) and self-validating (magic, version, CRC-32).

pub mod bits;
pub mod compress;
pub mod crc32;
pub mod filter;
pub mod format;
pub mod varint;

pub use filter::TableFilter;
pub use format::{
    BlockAggregates, BlockSpan, ByteSpan, EncodeOptions, RangeRead, TableIndex,
};

use seplsm_types::{DataPoint, TimeRange};

/// Identifier of an SSTable within a [`TableStore`](crate::store::TableStore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SsTableId(pub u64);

impl std::fmt::Display for SsTableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sst-{:08}", self.0)
    }
}

/// In-memory metadata for one SSTable: its id, the closed generation-time
/// range it covers, and how many points it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsTableMeta {
    /// Store-assigned identifier.
    pub id: SsTableId,
    /// `[min gen_time, max gen_time]` of the stored points.
    pub range: TimeRange,
    /// Number of points in the table.
    pub count: u32,
}

impl SsTableMeta {
    /// Builds the metadata describing `points` (must be non-empty and sorted
    /// by generation time).
    pub fn describe(id: SsTableId, points: &[DataPoint]) -> Self {
        assert!(!points.is_empty(), "SSTable cannot be empty");
        debug_assert!(
            points.windows(2).all(|w| w[0].gen_time < w[1].gen_time),
            "SSTable points must be sorted by unique gen_time"
        );
        Self {
            id,
            range: TimeRange::new(
                points[0].gen_time,
                points[points.len() - 1].gen_time,
            ),
            count: points.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_captures_range_and_count() {
        let pts = vec![
            DataPoint::new(10, 11, 0.0),
            DataPoint::new(20, 22, 1.0),
            DataPoint::new(30, 33, 2.0),
        ];
        let meta = SsTableMeta::describe(SsTableId(7), &pts);
        assert_eq!(meta.range, TimeRange::new(10, 30));
        assert_eq!(meta.count, 3);
        assert_eq!(meta.id.to_string(), "sst-00000007");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn describe_rejects_empty() {
        let _ = SsTableMeta::describe(SsTableId(0), &[]);
    }
}
