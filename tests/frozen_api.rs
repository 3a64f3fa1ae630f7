//! Compile-time pins of the engine API the frozen benchmark is built
//! against: one line per call `benchmark/src/adapter.rs` makes, per call
//! `benchmark/src/drills.rs` makes into the engine's crate, and a
//! [`TableStore`] decorator overriding exactly the methods
//! `benchmark/src/trace.rs`'s `TimedStore` overrides. `benchmark/`
//! is a workspace of its own that `cargo test` never builds, so without
//! this file an engine change that breaks it is only noticed by the smoke
//! lanes of `scripts/ci.sh`. A signature that moves fails to compile here;
//! fix the engine, not the pin.

use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use seplsm::lsm::obs::Observer;
use seplsm::lsm::sstable::format::{self, ByteSpan, RangeRead};
use seplsm::lsm::store::load_index;
use seplsm::lsm::{
    merge_sorted, plan_merge, AdmissionOutcome, AdmissionStats, Agg,
    ArbiterConfig, ArbiterStats, BlockCache, BlockKey, Bucket, CacheStats,
    CompactionPlan, EncodeOptions, EngineConfig, EvictedBlock, FaultPlan,
    FileStore, FlushTrigger, LsmEngine, Metrics, MultiOpenOptions,
    MultiSeriesEngine, OpenOptions, PacerStats, PolicyBuffers, QueryStats,
    RecoveryReport, RunInput, SeriesId, SsTableId, SsTableMeta, TableIndex,
    TableStore, TieredEngine, TieredOpenOptions, TieredReport, Wal,
};
use seplsm::{DataPoint, Policy, Result, TimeRange, Timestamp};

type Points = (Vec<DataPoint>, QueryStats);
type Buckets = (Vec<Bucket>, QueryStats);

#[test]
fn the_single_series_engines_keep_their_signatures() {
    // LsmEngine: `metrics()` by reference, `flush_all()` on `&mut self`.
    let _: fn(&mut LsmEngine, DataPoint) -> Result<AdmissionOutcome> =
        LsmEngine::append;
    let _: fn(&mut LsmEngine) -> Result<()> = LsmEngine::sync_wal;
    let _: fn(&LsmEngine, TimeRange) -> Result<Points> = LsmEngine::query;
    let _: fn(&LsmEngine, Timestamp) -> Result<Option<DataPoint>> =
        LsmEngine::get;
    let _: fn(&LsmEngine, TimeRange) -> Result<(Agg, QueryStats)> =
        LsmEngine::aggregate;
    let _: fn(&LsmEngine, TimeRange, i64) -> Result<Buckets> =
        LsmEngine::downsample;
    let _: fn(&mut LsmEngine) -> Result<()> = LsmEngine::flush_all;
    let _: fn(&LsmEngine) -> Result<Vec<DataPoint>> = LsmEngine::scan_all;
    let _: fn(&LsmEngine) -> &Metrics = LsmEngine::metrics;
    let _: fn(&LsmEngine) -> AdmissionStats = LsmEngine::admission_stats;

    // TieredEngine: `metrics()` by value, `finish()` consumes the engine.
    let _: fn(&mut TieredEngine, DataPoint) -> Result<AdmissionOutcome> =
        TieredEngine::append;
    let _: fn(&mut TieredEngine) -> Result<()> = TieredEngine::sync_wal;
    let _: fn(&TieredEngine, TimeRange) -> Result<Points> = TieredEngine::query;
    let _: fn(TieredEngine) -> Result<TieredReport> = TieredEngine::finish;
    let _: fn(&TieredEngine) -> Metrics = TieredEngine::metrics;
    let _: fn(&TieredEngine) -> AdmissionStats = TieredEngine::admission_stats;
    let _: fn(&TieredEngine) -> PacerStats = TieredEngine::pacer_stats;
    let _: fn(&TieredReport) -> (u64, u64, &Vec<DataPoint>) =
        |r| (r.user_points, r.disk_points_written, &r.points);
    let _: fn(&Metrics) -> (u64, u64) =
        |m| (m.user_points, m.disk_points_written);
}

#[test]
fn the_fleet_keeps_its_signatures() {
    type Fleet = MultiSeriesEngine;
    let _: fn(&mut Fleet, SeriesId, DataPoint) -> Result<AdmissionOutcome> =
        Fleet::append;
    let _: fn(&mut Fleet) -> Result<()> = Fleet::sync_wal_all;
    let _: fn(&Fleet, SeriesId, TimeRange) -> Result<Points> = Fleet::query;
    let _: fn(&Fleet, SeriesId) -> Option<&LsmEngine> = Fleet::engine;
    let _: fn(&Fleet, SeriesId, TimeRange) -> Result<(Agg, QueryStats)> =
        Fleet::aggregate;
    let _: fn(&Fleet, SeriesId, TimeRange, i64) -> Result<Buckets> =
        Fleet::downsample;
    let _: fn(&mut Fleet) -> Result<AdmissionOutcome> = Fleet::flush_all;
    let _: fn(&Fleet) -> Metrics = Fleet::combined_metrics;
    let _: fn(&Fleet) -> Option<ArbiterStats> = Fleet::arbiter_stats;
    let _: fn(&Fleet, SeriesId) -> Option<u64> = Fleet::series_capacity;
    let _: fn(&Fleet) -> u64 = Fleet::fleet_delayed_waves;
}

#[test]
fn the_three_builder_chains_keep_their_signatures() {
    let _: fn(Policy) -> EngineConfig = EngineConfig::new;
    let _: fn(EngineConfig, usize) -> EngineConfig =
        EngineConfig::with_sstable_points;
    let _: fn(PathBuf, EncodeOptions) -> Result<FileStore> =
        FileStore::open_with;
    let _: fn() -> EncodeOptions = EncodeOptions::pruned;
    let _: fn(FileStore, Arc<FaultPlan>) -> FileStore = FileStore::with_faults;
    let _: fn(usize) -> Arc<BlockCache> = BlockCache::with_capacity;
    let _: fn(&BlockCache) -> CacheStats = BlockCache::stats;
    let _: fn(u64) -> ArbiterConfig = ArbiterConfig::new;

    type Store = Arc<dyn TableStore>;
    type Sink = Arc<dyn Observer>;
    type Plan = Arc<FaultPlan>;
    type Recovered<E> = Result<(E, RecoveryReport)>;

    type Inline = OpenOptions;
    let _: fn(EngineConfig) -> Inline = Inline::new;
    let _: fn(Inline, Store) -> Inline = Inline::store;
    let _: fn(Inline, PathBuf) -> Inline = Inline::wal;
    let _: fn(Inline, PathBuf) -> Inline = Inline::manifest;
    let _: fn(Inline, Arc<BlockCache>) -> Inline = Inline::cache;
    let _: fn(Inline, Sink) -> Inline = Inline::observer;
    let _: fn(Inline, Plan) -> Inline = Inline::faults;
    let _: fn(Inline) -> Result<LsmEngine> = Inline::open;
    let _: fn(Inline) -> Recovered<LsmEngine> = Inline::open_or_recover;

    type Tiered = TieredOpenOptions;
    let _: fn(EngineConfig) -> Tiered = Tiered::new;
    let _: fn(Tiered, Store) -> Tiered = Tiered::store;
    let _: fn(Tiered, PathBuf) -> Tiered = Tiered::wal;
    let _: fn(Tiered, PathBuf) -> Tiered = Tiered::manifest;
    let _: fn(Tiered, Sink) -> Tiered = Tiered::observer;
    let _: fn(Tiered, Plan) -> Tiered = Tiered::faults;
    let _: fn(Tiered) -> Result<TieredEngine> = Tiered::open;
    let _: fn(Tiered) -> Recovered<TieredEngine> = Tiered::open_or_recover;

    type Multi = MultiOpenOptions;
    let _: fn(EngineConfig) -> Multi = Multi::new;
    let _: fn(Multi, Store) -> Multi = Multi::store;
    let _: fn(Multi, PathBuf) -> Multi = Multi::durable_dir;
    let _: fn(Multi, usize) -> Multi = Multi::workers;
    let _: fn(Multi, ArbiterConfig) -> Multi = Multi::arbiter;
    let _: fn(Multi, Sink) -> Multi = Multi::observer;
    let _: fn(Multi, Plan) -> Multi = Multi::faults;
    let _: fn(Multi) -> Result<MultiSeriesEngine> = Multi::open;
    let _: fn(Multi) -> Recovered<MultiSeriesEngine> = Multi::open_or_recover;
}

#[test]
fn the_drills_keep_their_format_index_and_log_calls() {
    let _: fn(&[DataPoint], &EncodeOptions) -> Result<Bytes> =
        format::encode_with;
    let _: fn(&[u8]) -> Result<Vec<DataPoint>> = format::decode;
    let _: fn(&[u8], TimeRange) -> Result<RangeRead> = format::decode_range;
    let _: fn(&RangeRead) -> u64 = |read| read.points_scanned;
    let _: fn(&[u8]) -> Result<TableIndex> = format::read_table_index;
    let _: fn(&TableIndex, TimeRange) -> bool = TableIndex::may_contain;
    type Loaded = Option<(TableIndex, Option<Bytes>)>;
    let _: fn(&FileStore, SsTableId) -> Result<Loaded> = load_index;

    let _: fn(&'static PathBuf) -> Result<Wal> = Wal::open;
    let _: fn(&mut Wal, &DataPoint) -> Result<()> = Wal::append;
    let _: fn(&mut Wal) -> Result<()> = Wal::sync;
}

#[test]
fn the_drills_keep_their_merge_buffer_and_cache_calls() {
    type Block = Arc<Vec<DataPoint>>;
    let _: fn(&BlockCache, BlockKey, Block) -> Vec<EvictedBlock> =
        BlockCache::insert;
    let _: fn(&BlockCache, BlockKey) -> Option<Block> = BlockCache::lookup;
    let _: fn(SsTableId, u32) -> BlockKey =
        |table, block| BlockKey { table, block };
    let _: fn(SsTableId, &[DataPoint]) -> SsTableMeta = SsTableMeta::describe;
    let _: fn(SsTableMeta, Vec<DataPoint>) -> RunInput =
        |meta, points| RunInput { meta, points };
    let _: fn(&RunInput) -> RunInput = RunInput::clone;
    type Fresh = Vec<Vec<DataPoint>>;
    let _: fn(Fresh, Vec<RunInput>, usize, Option<u64>) -> CompactionPlan =
        plan_merge;
    let _: fn(&CompactionPlan) -> u64 = |plan| plan.merged_points;
    let _: fn(Fresh) -> Vec<DataPoint> = merge_sorted;
    let _: fn(Policy) -> PolicyBuffers = PolicyBuffers::for_policy;
    let _: fn(
        &mut PolicyBuffers,
        DataPoint,
        Option<Timestamp>,
    ) -> FlushTrigger = PolicyBuffers::insert;
    let _: fn(&mut PolicyBuffers, FlushTrigger) -> Vec<DataPoint> =
        PolicyBuffers::take;
    let _: fn(&PolicyBuffers) -> usize = PolicyBuffers::buffered_points;
    let _: fn(FlushTrigger) -> bool = |t| t != FlushTrigger::None;
}

/// A decorator overriding exactly the [`TableStore`] methods the benchmark's
/// `TimedStore` overrides, each forwarded. A trait method it names that
/// leaves the trait, or changes its signature, fails to compile here.
struct Forwarding {
    inner: Arc<dyn TableStore>,
}

impl TableStore for Forwarding {
    fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
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

    fn get_range(&self, id: SsTableId, range: TimeRange) -> Result<RangeRead> {
        self.inner.get_range(id, range)
    }

    fn quarantine(&self, id: SsTableId) -> Result<()> {
        self.inner.quarantine(id)
    }

    fn read_raw(&self, id: SsTableId) -> Result<Option<Bytes>> {
        self.inner.read_raw(id)
    }

    fn table_len(&self, id: SsTableId) -> Result<Option<u64>> {
        self.inner.table_len(id)
    }

    fn read_span(
        &self,
        id: SsTableId,
        span: ByteSpan,
    ) -> Result<Option<Bytes>> {
        self.inner.read_span(id, span)
    }

    fn may_contain(
        &self,
        id: SsTableId,
        range: TimeRange,
    ) -> Result<Option<bool>> {
        self.inner.may_contain(id, range)
    }

    fn note_short_lived(&self, id: SsTableId) {
        self.inner.note_short_lived(id);
    }

    fn table_index(&self, id: SsTableId) -> Result<Option<Arc<TableIndex>>> {
        self.inner.table_index(id)
    }
}

#[test]
fn the_timed_store_s_overrides_keep_their_signatures() {
    let _: fn(Arc<dyn TableStore>) -> Arc<dyn TableStore> =
        |inner| Arc::new(Forwarding { inner });
}
