//! Compile-time pins of the engine API the frozen benchmark is built
//! against: one line per call `benchmark/src/adapter.rs` makes, and per call
//! `benchmark/src/drills.rs` makes into the table format, the store's index
//! loader and the log. `benchmark/`
//! is a workspace of its own that `cargo test` never builds, so without
//! this file an engine change that breaks it is only noticed by the smoke
//! lanes of `scripts/ci.sh`. A signature that moves fails to compile here;
//! fix the engine, not the pin.

use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use seplsm::lsm::obs::Observer;
use seplsm::lsm::sstable::format::{self, RangeRead};
use seplsm::lsm::store::load_index;
use seplsm::lsm::{
    AdmissionOutcome, AdmissionStats, Agg, ArbiterConfig, ArbiterStats,
    BlockCache, Bucket, CacheStats, EncodeOptions, EngineConfig, FaultPlan,
    FileStore, LsmEngine, Metrics, MultiOpenOptions, MultiSeriesEngine,
    OpenOptions, PacerStats, QueryStats, RecoveryReport, SeriesId, SsTableId,
    TableIndex, TableStore, TieredEngine, TieredOpenOptions, TieredReport, Wal,
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
