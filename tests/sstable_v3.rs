//! Integration tests of the v3 pruned SSTable layout: cross-version
//! round-trips, pruning-filter no-false-negatives under arbitrary delay
//! distributions, queries and pushed-down aggregates over levels holding a
//! mix of format versions (the live-upgrade shape), and filter-cache
//! coherence across compaction. Tables of the versions this code only
//! reads come from the test-only writer in `support/old_tables.rs`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use proptest::prelude::*;
use seplsm::{DataPoint, TimeRange};
use seplsm_lsm::sstable::format::{
    decode, decode_range, encode_with, read_table_index, sniff_version,
    ByteSpan, EncodeOptions, VERSION_PRUNED,
};
use seplsm_lsm::sstable::{SsTableId, SsTableMeta, TableFilter};
use seplsm_lsm::{
    Agg, BlockCache, EngineConfig, OpenOptions, QueryStats, TableStore,
};
use seplsm_types::{Error, Policy, Result};

#[path = "support/old_tables.rs"]
mod old_tables;
use old_tables::Dialect;

/// Deterministic but varied points: unique ascending gen times with
/// hash-derived delays and values.
fn points_from(tgs: &[i64], seed: u64) -> Vec<DataPoint> {
    tgs.iter()
        .enumerate()
        .map(|(i, &tg)| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let delay = (h % 100_000) as i64 - 1_000;
            let value = f64::from_bits(
                ((h ^ h.rotate_left(31)) & 0x000F_FFFF_FFFF_FFFF)
                    | 0x3FE0_0000_0000_0000,
            );
            DataPoint::with_delay(tg, delay, value)
        })
        .collect()
}

fn arb_gen_times(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::btree_set(-1_000_000i64..1_000_000, 1..max_len)
        .prop_map(|s| s.into_iter().collect())
}

/// A [`TableStore`] that encodes successive tables in rotating dialects
/// (`None`: v3, as the product writes it) — by default v1, v2 at four
/// block sizes and v3, so one engine's levels hold a mix: the live-upgrade
/// shape, where old tables stay readable while new writes carry pruning
/// metadata.
struct RotatingStore {
    dialects: Vec<Option<Dialect>>,
    inner: Mutex<RotatingInner>,
}

impl Default for RotatingStore {
    fn default() -> Self {
        use Dialect::{V1, V2};
        let old = [V1, V2(1), V2(7), V2(13), V2(128)];
        Self::writing(old.into_iter().map(Some).chain([None]).collect())
    }
}

#[derive(Default)]
struct RotatingInner {
    next_id: u64,
    tables: HashMap<SsTableId, Bytes>,
}

impl RotatingStore {
    fn writing(dialects: Vec<Option<Dialect>>) -> Self {
        Self {
            dialects,
            inner: Mutex::default(),
        }
    }

    fn bytes_for(&self, id: SsTableId) -> Result<Bytes> {
        self.inner
            .lock()
            .expect("store mutex")
            .tables
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::Corrupt(format!("no table {id}")))
    }
}

impl TableStore for RotatingStore {
    fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
        let mut inner = self.inner.lock().expect("store mutex");
        let id = SsTableId(inner.next_id);
        let turn = inner.next_id as usize % self.dialects.len();
        inner.next_id += 1;
        let bytes = match self.dialects[turn] {
            Some(dialect) => old_tables::encode(points, dialect),
            None => encode_with(points, &EncodeOptions::default())?,
        };
        let size = bytes.len();
        inner.tables.insert(id, bytes);
        Ok((SsTableMeta::describe(id, points), size))
    }

    fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
        decode(&self.bytes_for(id)?)
    }

    fn delete(&self, id: SsTableId) -> Result<()> {
        self.inner.lock().expect("store mutex").tables.remove(&id);
        Ok(())
    }

    fn list(&self) -> Result<Vec<SsTableId>> {
        let mut ids: Vec<SsTableId> = self
            .inner
            .lock()
            .expect("store mutex")
            .tables
            .keys()
            .copied()
            .collect();
        ids.sort();
        Ok(ids)
    }

    fn read_raw(&self, id: SsTableId) -> Result<Option<Bytes>> {
        Ok(self
            .inner
            .lock()
            .expect("store mutex")
            .tables
            .get(&id)
            .cloned())
    }

    fn table_len(&self, id: SsTableId) -> Result<Option<u64>> {
        Ok(Some(self.bytes_for(id)?.len() as u64))
    }

    fn read_span(
        &self,
        id: SsTableId,
        span: ByteSpan,
    ) -> Result<Option<Bytes>> {
        let bytes = self.bytes_for(id)?;
        let start = span.offset as usize;
        let end = span.end() as usize;
        if end > bytes.len() || start > end {
            return Err(Error::Corrupt(format!(
                "span {}..{} outside table of {} bytes",
                span.offset,
                span.end(),
                bytes.len()
            )));
        }
        Ok(Some(bytes.slice(start..end)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The filter must admit every stored generation time, whatever the
    /// delay distribution behind it — a false negative would make a query
    /// silently drop stored data.
    #[test]
    fn filter_has_no_false_negatives(
        tgs in arb_gen_times(400),
        seed in any::<u64>(),
    ) {
        let filter = TableFilter::build(&tgs).expect("build");
        for &tg in &tgs {
            prop_assert!(filter.may_contain(TimeRange::new(tg, tg)));
        }
        // Any window containing a stored key must be admitted too.
        let mid = tgs[tgs.len() / 2];
        prop_assert!(
            filter.may_contain(TimeRange::new(mid - (seed % 64) as i64, mid))
        );
    }

    /// Pruned v3 range reads return exactly what an unpruned full decode
    /// would after filtering, and the index never prunes a non-empty range.
    #[test]
    fn v3_pruning_never_loses_points(
        tgs in arb_gen_times(300),
        seed in any::<u64>(),
        start in -1_100_000i64..1_100_000,
        len in 0i64..400_000,
    ) {
        let points = points_from(&tgs, seed);
        let bytes = encode_with(&points, &EncodeOptions::pruned())
            .expect("encode");
        prop_assert_eq!(sniff_version(&bytes), Some(VERSION_PRUNED));
        let range = TimeRange::new(start, start + len);
        let expected: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| range.contains(p.gen_time))
            .collect();
        let read = decode_range(&bytes, range).expect("range read");
        prop_assert_eq!(&read.points, &expected);
        let index = read_table_index(&bytes).expect("index");
        if !expected.is_empty() {
            prop_assert!(
                index.may_contain(range),
                "index pruned a range holding {} stored points",
                expected.len()
            );
        }
    }

    /// The same points encode under every version and decode back to the
    /// same data — the cross-version round-trip a live upgrade relies on.
    #[test]
    fn all_versions_round_trip_identically(
        tgs in arb_gen_times(200),
        seed in any::<u64>(),
    ) {
        let points = points_from(&tgs, seed);
        for bytes in old_tables::every_dialect(&points) {
            let back = decode(&bytes).expect("decode");
            prop_assert!(old_tables::same_points(&back, &points));
        }
    }

    /// `aggregate` and `downsample` are bit-identical to folding over
    /// `query` results when the levels hold tables without pre-aggregates
    /// (v1, v2: always the decode path) — alone, and mixed with v3 tables
    /// that fold. Integer-valued samples keep the f64 sum associative.
    #[test]
    fn pushdown_matches_query_fold_over_old_tables(
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
        for (dialects, folds) in [
            (vec![Some(Dialect::V2(128))], false),
            (vec![Some(Dialect::V1), Some(Dialect::V2(3)), None], true),
        ] {
            let store = Arc::new(RotatingStore::writing(dialects));
            let mut e = OpenOptions::new(
                EngineConfig::new(Policy::conventional(7))
                    .with_sstable_points(5),
            )
            .store(store)
            .open()
            .expect("open");
            for &(tg, v) in &raw {
                e.append(DataPoint::new(tg, tg, f64::from(v)))
                    .expect("append");
            }
            let (pts, _) = e.query(range).expect("query");
            let mut want = Agg::default();
            for p in &pts {
                want.merge_point(p.value);
            }
            let (got, stats) = e.aggregate(range).expect("aggregate");
            prop_assert!(got.bits_eq(&want), "{:?} vs {:?}", got, want);
            if !folds {
                prop_assert_eq!(stats.blocks_folded, 0);
            }
            let mut reference = BTreeMap::<i64, Agg>::new();
            for p in &pts {
                reference
                    .entry(p.gen_time.div_euclid(width) * width)
                    .or_default()
                    .merge_point(p.value);
            }
            let (buckets, _) =
                e.downsample(range, width).expect("downsample");
            prop_assert_eq!(buckets.len(), reference.len());
            for ((got_tg, got_agg), (want_tg, want_agg)) in
                buckets.iter().zip(reference.iter())
            {
                prop_assert_eq!(got_tg, want_tg);
                prop_assert!(
                    got_agg.bits_eq(want_agg),
                    "bucket {}: {:?} vs {:?}", got_tg, got_agg, want_agg
                );
            }
        }
    }
}

/// An engine whose store mixes v1/v2/v3 tables answers queries exactly as
/// a reference scan does, and v3 tables still prune point misses.
#[test]
fn mixed_version_levels_answer_queries_exactly() {
    let store = Arc::new(RotatingStore::default());
    let mut engine = OpenOptions::new(
        EngineConfig::new(Policy::conventional(32))
            .with_sstable_points(32)
            .with_block_reads(),
    )
    .store(Arc::clone(&store) as Arc<dyn TableStore>)
    .open()
    .expect("open");
    // In-order appends over gen times 0, 10, 20, … so flushed tables tile
    // the axis without overlapping and point misses fall between keys.
    for i in 0..400i64 {
        engine
            .append(DataPoint::new(i * 10, i * 10 + 3, i as f64))
            .expect("append");
    }
    engine.flush_all().expect("flush");
    let all = engine.scan_all().expect("scan");
    assert_eq!(all.len(), 400);

    let mut pruned_total = QueryStats::default();
    for (start, end) in [(0i64, 500i64), (1_234, 2_345), (3_999, 4_001)] {
        let range = TimeRange::new(start, end);
        let expected: Vec<DataPoint> = all
            .iter()
            .copied()
            .filter(|p| range.contains(p.gen_time))
            .collect();
        let (got, stats) = engine.query(range).expect("query");
        assert_eq!(got, expected, "window [{start} .. {end}]");
        pruned_total.accumulate(&stats);
    }
    // Point probes between stored keys: present keys must be found, and
    // the v3 tables in the mix must prune the misses via their filters.
    for i in 0..400i64 {
        assert!(engine.get(i * 10).expect("get").is_some(), "key {}", i * 10);
        let (miss, stats) = engine
            .query(TimeRange::new(i * 10 + 5, i * 10 + 5))
            .expect("miss query");
        assert!(miss.is_empty());
        pruned_total.accumulate(&stats);
    }
    assert!(
        pruned_total.tables_pruned > 0,
        "mixed run never pruned: {pruned_total:?}"
    );
}

/// Compaction deleting a v3 input must leave no stale index/filter in the
/// shared cache: a later lookup of the dead table's metadata misses.
#[test]
fn compaction_leaves_no_stale_filter_in_the_cache() {
    let store = Arc::new(RotatingStore::default());
    let cache = BlockCache::with_capacity(64 * 1024);
    let mut engine = OpenOptions::new(
        EngineConfig::new(Policy::conventional(16))
            .with_sstable_points(16)
            .with_block_reads(),
    )
    .store(Arc::clone(&store) as Arc<dyn TableStore>)
    .cache(Arc::clone(&cache))
    .open()
    .expect("open");
    // Out-of-order batches force merges that consume earlier tables.
    for round in 0..20i64 {
        for i in 0..16i64 {
            let tg = round * 7 + i * 40;
            engine
                .append(DataPoint::new(tg, tg + 1, tg as f64))
                .expect("append");
        }
        engine.flush_all().expect("flush");
        // Warm the cache with pruning judgements over the whole axis.
        engine.query(TimeRange::new(0, 1_000)).expect("query");
    }
    let metrics = engine.metrics();
    assert!(
        metrics.compactions > 0,
        "workload must compact: {metrics:?}"
    );
    let live = store.list().expect("list");
    let next_id = store.inner.lock().expect("store mutex").next_id;
    let dead = (0..next_id)
        .map(SsTableId)
        .filter(|id| !live.contains(id))
        .count();
    assert!(dead > 0, "some input tables must have been deleted");
    for id in (0..next_id).map(SsTableId) {
        if !live.contains(&id) {
            assert!(
                cache.lookup_index(id).is_none(),
                "stale index/filter for deleted {id}"
            );
        }
    }
}
