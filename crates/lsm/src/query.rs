//! The read path: one `ReadView` over every source a read consults, the
//! single implementation of `query` / `get` / `aggregate` / `downsample`
//! over it, and the statistics those reads report.
//!
//! The paper's query experiments (Figs. 12–14, 20) report two quantities:
//! *read amplification* — points read from disk divided by points returned —
//! and query latency on an HDD, which is dominated by one seek per SSTable
//! touched. [`QueryStats`] records exactly the counts both need.
//!
//! # Sources
//!
//! Every engine reads through a `ReadView`:
//! [`LsmEngine`](crate::LsmEngine) captures one with no flushing batches and
//! no L0 (it has neither), [`TieredEngine`](crate::TieredEngine) captures
//! one under its state lock and reads it with the lock released. Sources
//! rank freshest first — buffered MemTables, flushing batches (newest
//! first), L0 tables (newest first), then the run — and a generation time
//! present in several resolves to the freshest (last-writer-wins). A table
//! whose range overlaps the read is first offered to its pruning metadata
//! ([`TableStore::may_contain`], the v3 filter block): `Some(false)` is
//! definitive, so the table is skipped without a seek.
//!
//! # The fold rule
//!
//! `aggregate` and `downsample` cover exactly the points `query` would
//! return, but answer from v3 index pre-aggregates where they can.
//! Everything fresher than the run — buffered points, flushing batches and
//! L0 tables (which overlap each other and the run, so they are always
//! decoded) — is merged into one *fresh* set. The run is then walked via
//! index metadata only ([`TableStore::table_index`], served from the block
//! cache's index cache when one is attached): a block is **folded** from
//! its index entry when it lies fully inside the range, carries
//! pre-aggregates (v3 tables written with the aggregate count), falls in a
//! single bucket when downsampling, and no fresh point lies inside its
//! generation-time span. Every other overlapping block — range-straddling,
//! shadowed, or aggregate-less (v1/v2/legacy v3) — is decoded
//! span-granularly and deduped against the fresh set, which wins.
//!
//! `min`/`max`/`count` are bit-identical to folding over `query` results
//! regardless of plan; `sum` additionally matches whenever the fold is
//! associative on the data (e.g. integer-valued samples — the equivalence
//! proptest's domain).

use std::collections::BTreeMap;
use std::sync::Arc;

use seplsm_types::{DataPoint, Error, Result, TimeRange, Timestamp};

use crate::buffer::PolicyBuffers;
use crate::iterator::merge_sorted;
use crate::obs::{Event, ObserverHandle};
use crate::sstable::{BlockAggregates, BlockSpan, RangeRead, SsTableMeta};
use crate::store::TableStore;
use crate::version::Version;

/// Per-query counters filled in by the range query and the aggregation
/// pushdown path ([`LsmEngine::query`](crate::LsmEngine::query),
/// [`LsmEngine::aggregate`](crate::LsmEngine::aggregate),
/// [`LsmEngine::downsample`](crate::LsmEngine::downsample) and their
/// [`TieredEngine`](crate::TieredEngine) twins).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// SSTables whose range intersected the query (each costs one seek).
    pub tables_read: u64,
    /// Points decoded from those SSTables' data blocks. Reads are
    /// block-granular since the v2 index: only the blocks whose time span
    /// overlaps the query are decoded, and every point in a decoded block
    /// counts here whether or not it matched. Folded blocks (see
    /// `blocks_folded`) decode nothing, so their points never appear here —
    /// which is exactly how pushdown lowers read amplification.
    pub disk_points_scanned: u64,
    /// Blocks decoded when the engine runs with block-granular reads
    /// (zero in whole-table mode).
    pub blocks_read: u64,
    /// Matching points found in MemTables (already in memory; no seek).
    pub mem_points_scanned: u64,
    /// Points in the final result set (for an aggregate query: points the
    /// aggregate covers).
    pub points_returned: u64,
    /// Tables skipped by the pruning filter (v3): their range intersected
    /// the query but index/filter metadata proved them empty of matches, so
    /// no data blocks were touched and no seek was paid.
    pub tables_pruned: u64,
    /// Blocks answered from v3 index pre-aggregates alone during an
    /// aggregation/downsampling pushdown — zero data-block bytes fetched,
    /// zero points decoded. A folded block contributes to `points_returned`
    /// (its points are covered by the result) without adding to
    /// `disk_points_scanned`, so heavy folding drives
    /// [`read_amplification`](Self::read_amplification) *below* 1.
    pub blocks_folded: u64,
    /// Blocks an aggregation pushdown had to decode after all: the block
    /// straddles the query range, is overlapped by newer (MemTable) data,
    /// or sits in a table without usable pre-aggregates (v1/v2/legacy-v3).
    pub agg_fallback_blocks: u64,
}

impl QueryStats {
    /// Read amplification: disk points scanned per returned point.
    ///
    /// Returns `None` for queries with an empty result (the paper averages
    /// over non-empty queries).
    pub fn read_amplification(&self) -> Option<f64> {
        if self.points_returned == 0 {
            return None;
        }
        Some(self.disk_points_scanned as f64 / self.points_returned as f64)
    }

    /// Accumulates another query's counters (for workload averages).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.tables_read += other.tables_read;
        self.disk_points_scanned += other.disk_points_scanned;
        self.blocks_read += other.blocks_read;
        self.mem_points_scanned += other.mem_points_scanned;
        self.points_returned += other.points_returned;
        self.tables_pruned += other.tables_pruned;
        self.blocks_folded += other.blocks_folded;
        self.agg_fallback_blocks += other.agg_fallback_blocks;
    }
}

/// The result of an aggregation (or one downsampling bucket): the classic
/// min/max/sum/count quartet, foldable from either raw points or v3 index
/// pre-aggregates so the pushdown and decode paths produce bit-identical
/// answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    /// Smallest value (`f64::min` fold; `+inf` while empty).
    pub min: f64,
    /// Largest value (`f64::max` fold; `-inf` while empty).
    pub max: f64,
    /// Sum of values (in-order fold).
    pub sum: f64,
    /// Points covered.
    pub count: u64,
}

impl Default for Agg {
    fn default() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            count: 0,
        }
    }
}

impl Agg {
    /// Whether any point has been folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds one decoded point's value in.
    pub fn merge_point(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
            self.sum = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            self.sum += value;
        }
        self.count += 1;
    }

    /// Folds one block's index pre-aggregates in — the pushdown step that
    /// replaces decoding the block. Mirrors `merge_point` applied to each
    /// of the block's points in order.
    pub fn merge_block(&mut self, block: &BlockAggregates) {
        if block.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = block.min;
            self.max = block.max;
            self.sum = block.sum;
        } else {
            self.min = self.min.min(block.min);
            self.max = self.max.max(block.max);
            self.sum += block.sum;
        }
        self.count += u64::from(block.count);
    }

    /// The mean, or `None` for an empty aggregate.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.sum / self.count as f64)
    }

    /// Bitwise equality (exact even for NaN and signed zero) — what the
    /// pushdown-vs-decode equivalence proptest asserts.
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.min.to_bits() == other.min.to_bits()
            && self.max.to_bits() == other.max.to_bits()
            && self.sum.to_bits() == other.sum.to_bits()
            && self.count == other.count
    }
}

/// One downsampling bucket: the bucket's start timestamp (inclusive, a
/// multiple of the bucket width by euclidean division) and the aggregate
/// over the points that fall in it.
pub type Bucket = (Timestamp, Agg);

/// One fold input produced by the aggregation-pushdown planner: a whole
/// block answered from its index pre-aggregates, or one decoded point.
enum AggItem {
    Block(BlockAggregates),
    Point(f64),
}

impl Agg {
    fn merge_item(&mut self, item: &AggItem) {
        match item {
            AggItem::Block(b) => self.merge_block(b),
            AggItem::Point(v) => self.merge_point(*v),
        }
    }
}

/// Every source one read of `range` consults (module docs, *Sources*),
/// captured at one instant. Reading a view takes no engine lock; a table
/// retired by a concurrent compaction surfaces as a store error, which the
/// caller classifies by re-checking the view's table ids against the live
/// version.
pub(crate) struct ReadView<'a> {
    pub(crate) store: &'a dyn TableStore,
    pub(crate) obs: &'a ObserverHandle,
    /// Range queries read overlapping tables block-by-block
    /// ([`TableStore::get_range`]) instead of whole
    /// (`EngineConfig::block_reads`).
    pub(crate) block_reads: bool,
    pub(crate) range: TimeRange,
    /// Buffered hits inside `range`, one sorted source per MemTable.
    pub(crate) mem: Vec<Vec<DataPoint>>,
    /// Flushing MemTable batches, oldest first (as the version keeps them).
    pub(crate) flushing: Vec<Arc<Vec<DataPoint>>>,
    /// L0 tables overlapping `range`, newest first.
    pub(crate) l0: Vec<SsTableMeta>,
    /// Run tables overlapping `range`, in key order.
    pub(crate) run: Vec<SsTableMeta>,
}

impl<'a> ReadView<'a> {
    /// Captures the sources of a read of `range` from the writer's buffers
    /// and the current version.
    pub(crate) fn capture(
        store: &'a dyn TableStore,
        obs: &'a ObserverHandle,
        block_reads: bool,
        range: TimeRange,
        buffers: &PolicyBuffers,
        version: &Version,
    ) -> Self {
        Self {
            store,
            obs,
            block_reads,
            range,
            mem: buffers.scan_sources(range),
            flushing: version.flushing().to_vec(),
            l0: version
                .l0()
                .iter()
                .rev()
                .filter(|meta| meta.range.overlaps(&range))
                .copied()
                .collect(),
            run: version.run().overlapping(range),
        }
    }

    /// Takes the in-memory sources — MemTable hits, then the flushing
    /// batches' hits newest first — counting them into `stats`.
    fn memory_sources(
        &mut self,
        stats: &mut QueryStats,
    ) -> Vec<Vec<DataPoint>> {
        let range = self.range;
        let mut sources = std::mem::take(&mut self.mem);
        sources.extend(self.flushing.iter().rev().map(|batch| {
            batch
                .iter()
                .copied()
                .filter(|p| range.contains(p.gen_time))
                .collect()
        }));
        stats.mem_points_scanned +=
            sources.iter().map(|s| s.len() as u64).sum::<u64>();
        sources
    }

    /// Whether `meta`'s pruning metadata rules `range` out.
    fn prunes(&self, meta: &SsTableMeta, range: TimeRange) -> Result<bool> {
        let pruned = self.store.may_contain(meta.id, range)? == Some(false);
        if pruned {
            self.obs.emit(|| Event::TablePruned { table: meta.id.0 });
        }
        Ok(pruned)
    }

    /// Range query: merges every source, freshest occurrence of a
    /// generation time winning.
    pub(crate) fn query(&mut self) -> Result<(Vec<DataPoint>, QueryStats)> {
        let range = self.range;
        let mut stats = QueryStats::default();
        let mut sources = self.memory_sources(&mut stats);
        for meta in self.l0.iter().chain(&self.run) {
            if self.prunes(meta, range)? {
                stats.tables_pruned += 1;
                continue;
            }
            stats.tables_read += 1;
            if self.block_reads {
                let read = self.store.get_range(meta.id, range)?;
                stats.disk_points_scanned += read.points_scanned;
                stats.blocks_read += read.blocks_read;
                sources.push(read.points);
            } else {
                let table_points = self.store.get(meta.id)?;
                stats.disk_points_scanned += table_points.len() as u64;
                sources.push(
                    table_points
                        .into_iter()
                        .filter(|p| range.contains(p.gen_time))
                        .collect(),
                );
            }
        }
        let merged = merge_sorted(sources);
        stats.points_returned = merged.len() as u64;
        Ok((merged, stats))
    }

    /// Point lookup of the generation time the view was captured for
    /// (`range.start`): the freshest source holding it answers.
    pub(crate) fn get(&self) -> Result<Option<DataPoint>> {
        let gen_time = self.range.start;
        if let Some(hit) = self.mem.iter().flatten().next() {
            return Ok(Some(*hit));
        }
        for batch in self.flushing.iter().rev() {
            if let Ok(i) = batch.binary_search_by_key(&gen_time, |p| p.gen_time)
            {
                return Ok(Some(batch[i]));
            }
        }
        for meta in self.l0.iter().chain(&self.run) {
            if self.prunes(meta, self.range)? {
                continue;
            }
            let read = self.store.get_range(meta.id, self.range)?;
            if let Some(hit) = read.points.into_iter().next() {
                return Ok(Some(hit));
            }
        }
        Ok(None)
    }

    /// Aggregates the view's range (module docs, *The fold rule*).
    pub(crate) fn aggregate(&mut self) -> Result<(Agg, QueryStats)> {
        let mut stats = QueryStats::default();
        let mut agg = Agg::default();
        for (_, item) in self.agg_items(&|_| true, &mut stats)? {
            agg.merge_item(&item);
        }
        stats.points_returned = agg.count;
        self.emit_agg_events(&stats);
        Ok((agg, stats))
    }

    /// Downsamples the view's range into `bucket_width`-sized windows
    /// (bucket key = `tg.div_euclid(width) * width`), ascending, empty
    /// buckets omitted.
    pub(crate) fn downsample(
        &mut self,
        bucket_width: i64,
    ) -> Result<(Vec<Bucket>, QueryStats)> {
        if bucket_width <= 0 {
            return Err(Error::InvalidConfig(format!(
                "bucket_width must be >= 1, got {bucket_width}"
            )));
        }
        let bucket_of =
            |tg: i64| tg.div_euclid(bucket_width).wrapping_mul(bucket_width);
        let mut stats = QueryStats::default();
        let items = self.agg_items(
            &|span| bucket_of(span.first) == bucket_of(span.last),
            &mut stats,
        )?;
        let mut buckets = BTreeMap::<Timestamp, Agg>::new();
        // Items are globally sorted by start tg, so each bucket's fold runs
        // in stream order.
        for (tg, item) in items {
            buckets.entry(bucket_of(tg)).or_default().merge_item(&item);
        }
        stats.points_returned = buckets.values().map(|a| a.count).sum();
        self.emit_agg_events(&stats);
        Ok((buckets.into_iter().collect(), stats))
    }

    fn emit_agg_events(&self, stats: &QueryStats) {
        if stats.blocks_folded > 0 {
            let blocks_folded = stats.blocks_folded;
            self.obs.emit(|| Event::AggPushdown { blocks_folded });
        }
        if stats.agg_fallback_blocks > 0 {
            let blocks = stats.agg_fallback_blocks;
            self.obs.emit(|| Event::AggFallback { blocks });
        }
    }

    /// The pushdown planner behind [`aggregate`](Self::aggregate) and
    /// [`downsample`](Self::downsample): the fold inputs under the module's
    /// fold rule plus `extra_foldable`, sorted by start generation time.
    fn agg_items(
        &mut self,
        extra_foldable: &dyn Fn(&BlockSpan) -> bool,
        stats: &mut QueryStats,
    ) -> Result<Vec<(Timestamp, AggItem)>> {
        let range = self.range;
        let mut sources = self.memory_sources(stats);
        for meta in &self.l0 {
            if self.prunes(meta, range)? {
                stats.tables_pruned += 1;
                continue;
            }
            stats.tables_read += 1;
            let read = self.store.get_range(meta.id, range)?;
            stats.disk_points_scanned += read.points_scanned;
            stats.blocks_read += read.blocks_read;
            stats.agg_fallback_blocks += read.blocks_read;
            sources.push(read.points);
        }
        let fresh = merge_sorted(sources);
        let fresh_tgs: Vec<Timestamp> =
            fresh.iter().map(|p| p.gen_time).collect();
        // Any fresh point inside [first, last] shadows (or interleaves
        // with) the block, so its pre-aggregates can't stand for the merged
        // result.
        let overlapped = |first: Timestamp, last: Timestamp| {
            let i = fresh_tgs.partition_point(|&t| t < first);
            i < fresh_tgs.len() && fresh_tgs[i] <= last
        };
        let shadowed_point =
            |tg: Timestamp| fresh_tgs.binary_search(&tg).is_ok();

        let mut items: Vec<(Timestamp, AggItem)> = Vec::new();
        let fallback =
            |read: RangeRead,
             blocks: u64,
             stats: &mut QueryStats,
             items: &mut Vec<(Timestamp, AggItem)>| {
                stats.disk_points_scanned += read.points_scanned;
                stats.blocks_read += read.blocks_read;
                stats.agg_fallback_blocks += blocks;
                items.extend(
                    read.points
                        .into_iter()
                        .filter(|p| !shadowed_point(p.gen_time))
                        .map(|p| (p.gen_time, AggItem::Point(p.value))),
                );
            };
        for meta in &self.run {
            if self.prunes(meta, range)? {
                stats.tables_pruned += 1;
                continue;
            }
            stats.tables_read += 1;
            let Some(index) = self.store.table_index(meta.id)? else {
                // No index metadata at all (store without raw reads):
                // whole-range decode through the ordinary read path.
                let read = self.store.get_range(meta.id, range)?;
                let blocks = read.blocks_read.max(1);
                fallback(read, blocks, stats, &mut items);
                continue;
            };
            for (_, span) in index.overlapping(range) {
                match span.agg {
                    Some(agg)
                        if range.start <= span.first
                            && span.last <= range.end
                            && !overlapped(span.first, span.last)
                            && extra_foldable(span) =>
                    {
                        stats.blocks_folded += 1;
                        items.push((span.first, AggItem::Block(agg)));
                    }
                    _ => {
                        // Block spans are disjoint in generation time, so
                        // clamping the query to this span decodes exactly
                        // this block.
                        let sub = TimeRange::new(
                            range.start.max(span.first),
                            range.end.min(span.last),
                        );
                        let read = self.store.get_range(meta.id, sub)?;
                        fallback(read, 1, stats, &mut items);
                    }
                }
            }
        }
        items.extend(
            fresh.iter().map(|p| (p.gen_time, AggItem::Point(p.value))),
        );
        // Start tgs are unique across items: run tables don't overlap,
        // folded blocks exclude every decoded/fresh tg, and dedup has
        // already run within the fresh set and against it.
        items.sort_unstable_by_key(|(tg, _)| *tg);
        Ok(items)
    }
}

/// A simulated rotating-disk cost model.
///
/// The paper ran its query experiments on an HDD, where latency is
/// `seeks × seek time + points × transfer time`. We measure the seek and
/// point counts exactly and apply fixed costs, preserving the paper's
/// trade-off: `π_s` touches more, smaller SSTables (more seeks), `π_c`
/// scans more useless points per table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Cost of locating + opening one SSTable (ns). HDD seek ≈ 8 ms.
    pub seek_ns: f64,
    /// Cost of reading and deserialising one on-disk point (ns).
    pub point_ns: f64,
    /// Cost of visiting one in-memory point (ns).
    pub mem_point_ns: f64,
}

impl Default for DiskModel {
    fn default() -> Self {
        Self::hdd()
    }
}

impl DiskModel {
    /// A 7200-rpm HDD: ~8 ms average seek, ~150 MB/s sequential transfer
    /// (≈ 100 ns per ~16-byte encoded point).
    pub fn hdd() -> Self {
        Self {
            seek_ns: 8_000_000.0,
            point_ns: 100.0,
            mem_point_ns: 20.0,
        }
    }

    /// A SATA SSD: ~60 µs access, same per-point decode cost.
    pub fn ssd() -> Self {
        Self {
            seek_ns: 60_000.0,
            point_ns: 100.0,
            mem_point_ns: 20.0,
        }
    }

    /// Simulated latency of a query with the given stats, in nanoseconds.
    pub fn latency_ns(&self, stats: &QueryStats) -> f64 {
        stats.tables_read as f64 * self.seek_ns
            + stats.disk_points_scanned as f64 * self.point_ns
            + stats.mem_points_scanned as f64 * self.mem_point_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_amplification_is_scanned_over_returned() {
        let s = QueryStats {
            tables_read: 2,
            disk_points_scanned: 1024,
            points_returned: 128,
            ..QueryStats::default()
        };
        assert_eq!(s.read_amplification(), Some(8.0));
    }

    #[test]
    fn empty_result_has_no_read_amplification() {
        let s = QueryStats::default();
        assert_eq!(s.read_amplification(), None);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = QueryStats {
            tables_read: 1,
            disk_points_scanned: 10,
            mem_points_scanned: 2,
            points_returned: 5,
            ..QueryStats::default()
        };
        a.accumulate(&a.clone());
        assert_eq!(a.tables_read, 2);
        assert_eq!(a.disk_points_scanned, 20);
        assert_eq!(a.points_returned, 10);
    }

    #[test]
    fn agg_merge_block_matches_per_point_fold() {
        let values = [3.0, -1.5, 7.25, 0.0, 2.5];
        let mut by_point = Agg::default();
        for v in values {
            by_point.merge_point(v);
        }
        let block = BlockAggregates {
            min: -1.5,
            max: 7.25,
            sum: values.iter().sum(),
            count: values.len() as u32,
        };
        let mut by_block = Agg::default();
        by_block.merge_block(&block);
        assert!(by_point.bits_eq(&by_block));
        assert_eq!(by_point.mean(), Some(by_point.sum / 5.0));
    }

    #[test]
    fn empty_agg_merges_are_identity() {
        let mut agg = Agg::default();
        assert!(agg.is_empty());
        assert_eq!(agg.mean(), None);
        agg.merge_block(&BlockAggregates {
            min: 9.0,
            max: 9.0,
            sum: 9.0,
            count: 0,
        });
        assert!(agg.is_empty());
        agg.merge_point(4.0);
        assert_eq!((agg.min, agg.max, agg.sum, agg.count), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn folded_blocks_lower_read_amplification() {
        // 2 of 3 blocks folded: only one block's points were scanned, but
        // the aggregate covers all 3 blocks' points.
        let s = QueryStats {
            tables_read: 1,
            disk_points_scanned: 128,
            blocks_read: 1,
            blocks_folded: 2,
            agg_fallback_blocks: 1,
            points_returned: 384,
            ..QueryStats::default()
        };
        assert!(s.read_amplification().expect("non-empty") < 1.0);
    }

    #[test]
    fn flushing_batch_shadows_a_foldable_block() {
        use crate::store::MemStore;

        let store = MemStore::new();
        let stored = |tgs: std::ops::Range<i64>| {
            let points: Vec<DataPoint> = tgs
                .map(|i| DataPoint::new(i * 10, i * 10, i as f64))
                .collect();
            store.put(&points).expect("put").0
        };
        // Two single-block run tables, [0..70] and [80..150]; a flushing
        // batch (sealed, not yet in L0) upserts tg=30 inside the first.
        let run = vec![stored(0..8), stored(8..16)];
        let obs = ObserverHandle::detached();
        let view = |flushing: Vec<Arc<Vec<DataPoint>>>| ReadView {
            store: &store,
            obs: &obs,
            block_reads: false,
            range: TimeRange::new(0, 150),
            mem: Vec::new(),
            flushing,
            l0: Vec::new(),
            run: run.clone(),
        };

        let (agg, stats) = view(Vec::new()).aggregate().expect("aggregate");
        assert_eq!((agg.count, agg.sum), (16, 120.0));
        assert_eq!((stats.blocks_folded, stats.agg_fallback_blocks), (2, 0));

        let batch = Arc::new(vec![DataPoint::new(30, 999, -50.0)]);
        let (agg, stats) = view(vec![batch]).aggregate().expect("aggregate");
        // Folding the first block's stale pre-aggregates would count tg=30
        // twice and keep its old value.
        assert_eq!((agg.count, agg.min), (16, -50.0));
        assert_eq!(agg.sum, 120.0 - 3.0 - 50.0);
        assert_eq!((stats.blocks_folded, stats.agg_fallback_blocks), (1, 1));
        assert_eq!(stats.mem_points_scanned, 1);
    }

    #[test]
    fn hdd_latency_is_seek_dominated() {
        let m = DiskModel::hdd();
        let few_big = QueryStats {
            tables_read: 2,
            disk_points_scanned: 10_000,
            points_returned: 100,
            ..QueryStats::default()
        };
        let many_small = QueryStats {
            tables_read: 20,
            disk_points_scanned: 4_000,
            points_returned: 100,
            ..QueryStats::default()
        };
        // Despite scanning fewer points, many small tables cost more on HDD.
        assert!(m.latency_ns(&many_small) > m.latency_ns(&few_big));
        // On SSD the ordering flips much less dramatically.
        let s = DiskModel::ssd();
        assert!(s.latency_ns(&many_small) < m.latency_ns(&many_small));
    }
}
