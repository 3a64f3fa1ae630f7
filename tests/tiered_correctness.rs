//! Property and crash-recovery tests for `TieredEngine`: whatever the
//! ingest order, policy or table size, the background pipeline must never
//! lose, duplicate or reorder data, and every read API must agree with a
//! last-writer-wins model and with an `LsmEngine` fed the same stream;
//! after `quiesce` the run must be sorted and non-overlapping; and with a
//! WAL + manifest attached, dropping the engine mid-stream (a simulated
//! crash) must lose no acknowledged point.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use seplsm::lsm::open::{EngineBuilder, Kind};
use seplsm::{
    Agg, BlockCache, DataPoint, EngineConfig, Event, Fault, FaultPlan,
    FileStore, LsmEngine, MemStore, MultiOpenOptions, OpenOptions, Policy,
    RecoveryOptions, RingBufferSink, TableStore, TieredEngine,
    TieredOpenOptions, TimeRange,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "seplsm-tiered-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A deterministic scramble of `0..n` (prime-stride permutation).
fn scramble(n: usize, a: usize) -> Vec<usize> {
    let stride = 7919; // prime, larger than any generated n
    (0..n).map(|i| (i * stride + a) % n).collect()
}

fn arb_policy(n_max: usize) -> impl Strategy<Value = Policy> {
    (2..=n_max).prop_flat_map(|n| {
        prop_oneof![
            Just(Policy::conventional(n)),
            (1..n).prop_map(move |s| Policy::separation(n, s).expect("valid")),
        ]
    })
}

/// The last-writer-wins reference: generation time → latest value.
type Model = BTreeMap<i64, f64>;

fn fold(values: impl Iterator<Item = f64>) -> Agg {
    let mut agg = Agg::default();
    values.for_each(|v| agg.merge_point(v));
    agg
}

/// Every read API of `tiered` over `range` must agree with `model` and with
/// `inline`, an `LsmEngine` fed the same stream. Values are integer-valued,
/// so even `sum` is exact whatever mix of folded blocks and decoded points
/// either engine's plan uses.
fn assert_reads_agree(
    tiered: &TieredEngine,
    inline: &LsmEngine,
    model: &Model,
    range: TimeRange,
    width: i64,
) {
    let stored: Vec<(i64, f64)> = tiered
        .scan_all()
        .expect("scan_all")
        .iter()
        .map(|p| (p.gen_time, p.value))
        .collect();
    let expected: Vec<(i64, f64)> =
        model.iter().map(|(&tg, &v)| (tg, v)).collect();
    assert_eq!(stored, expected, "scan_all vs model");
    assert_eq!(inline.scan_all().expect("scan").len(), expected.len());

    for tg in [range.start, range.end, (range.start + range.end) / 2] {
        let want = model.get(&tg).copied();
        let got = tiered.get(tg).expect("get").map(|p| p.value);
        assert_eq!(got, want, "get({tg}) vs model");
        let inline_got = inline.get(tg).expect("get").map(|p| p.value);
        assert_eq!(got, inline_got, "get({tg}) vs LsmEngine");
    }

    let in_range = || model.range(range.start..=range.end);
    let want = fold(in_range().map(|(_, &v)| v));
    let (got, _) = tiered.aggregate(range).expect("aggregate");
    assert!(got.bits_eq(&want), "aggregate {got:?} vs model {want:?}");
    let (inline_got, _) = inline.aggregate(range).expect("aggregate");
    assert!(got.bits_eq(&inline_got), "aggregate vs LsmEngine");

    let mut want_buckets = BTreeMap::<i64, Agg>::new();
    for (&tg, &v) in in_range() {
        want_buckets
            .entry(tg.div_euclid(width) * width)
            .or_default()
            .merge_point(v);
    }
    let (got, _) = tiered.downsample(range, width).expect("downsample");
    assert_eq!(got.len(), want_buckets.len(), "bucket count vs model");
    for ((tg, agg), (want_tg, want)) in got.iter().zip(&want_buckets) {
        assert_eq!(tg, want_tg);
        assert!(agg.bits_eq(want), "bucket {tg}: {agg:?} vs model {want:?}");
    }
    let (inline_got, _) = inline.downsample(range, width).expect("downsample");
    assert_eq!(got.len(), inline_got.len(), "bucket count vs LsmEngine");
    for ((tg, agg), (inline_tg, inline_agg)) in got.iter().zip(&inline_got) {
        assert_eq!(tg, inline_tg);
        assert!(agg.bits_eq(inline_agg), "bucket {tg} vs LsmEngine");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn never_loses_or_duplicates_any_order(
        count in 1usize..300,
        offset in 0usize..1000,
        policy in arb_policy(24),
        sstable in 1usize..32,
        bounds in (0i64..3000, 0i64..3000),
        width in 1i64..500,
    ) {
        let config = EngineConfig::new(policy).with_sstable_points(sstable);
        let mut engine =
            TieredOpenOptions::new(config.clone()).open().expect("engine");
        let mut inline = OpenOptions::new(config).open().expect("inline");
        let mut model = Model::new();
        let mut write = |p: DataPoint| {
            engine.append(p).expect("append");
            inline.append(p).expect("append");
            model.insert(p.gen_time, p.value);
        };
        for (n, &i) in scramble(count, offset).iter().enumerate() {
            let tg = i as i64 * 10;
            write(DataPoint::new(tg, tg + (i as i64 * 131) % 900, i as f64));
            if n % 5 == 4 {
                // An upsert of a generation time written earlier (wherever
                // it lives by now): the later value must win everywhere.
                let old = (i / 2) as i64 * 10;
                write(DataPoint::new(old, tg + 1_000, -(n as f64)));
            }
        }
        // Whatever the worker has flushed or merged so far.
        let range =
            TimeRange::new(bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        assert_reads_agree(&engine, &inline, &model, range, width);
        let report = engine.finish().expect("finish");
        prop_assert_eq!(report.user_points, count as u64 + count as u64 / 5);
        let stored: Vec<(i64, f64)> =
            report.points.iter().map(|p| (p.gen_time, p.value)).collect();
        let expected: Vec<(i64, f64)> = model.into_iter().collect();
        prop_assert_eq!(stored, expected);
    }

    #[test]
    fn quiesced_run_is_sorted_and_non_overlapping(
        count in 8usize..300,
        offset in 0usize..500,
        policy in arb_policy(16),
        sstable in 2usize..24,
    ) {
        let mut engine = TieredOpenOptions::new(
            EngineConfig::new(policy).with_sstable_points(sstable),
        )
        .open()
        .expect("engine");
        for &i in &scramble(count, offset) {
            let tg = i as i64 * 10;
            engine
                .append(DataPoint::new(tg, tg + (i as i64 % 400), 0.0))
                .expect("append");
        }
        engine.quiesce().expect("quiesce");
        // After quiesce L0 is empty and the run covers everything flushed;
        // run tables must be sorted by range and pairwise disjoint.
        let layout = engine.table_layout();
        prop_assert!(layout.iter().all(|(level, _, _)| *level == "run"));
        for w in layout.windows(2) {
            prop_assert!(
                w[0].1.end < w[1].1.start,
                "overlapping run tables: {:?} vs {:?}",
                w[0].1,
                w[1].1
            );
        }
        // And queries still see every point exactly once.
        let (pts, _) = engine
            .query(TimeRange::new(0, count as i64 * 10))
            .expect("query");
        prop_assert_eq!(pts.len(), count);
    }

    #[test]
    fn crash_and_recover_keeps_every_acknowledged_point(
        count in 1usize..200,
        offset in 0usize..500,
        policy in arb_policy(16),
    ) {
        let dir = TempDir::new("prop-crash");
        let config = EngineConfig::new(policy).with_sstable_points(8);
        {
            let store: Arc<dyn TableStore> =
                Arc::new(FileStore::open(dir.path("tables")).expect("store"));
            let mut engine = TieredOpenOptions::new(config.clone())
                .store(store)
                .wal(dir.path("wal"))
                .manifest(dir.path("manifest"))
                .open()
                .expect("open");
            for &i in &scramble(count, offset) {
                let tg = i as i64 * 10;
                engine
                    .append(DataPoint::new(tg, tg + (i as i64 % 300), i as f64))
                    .expect("append");
            }
            engine.sync_wal().expect("sync");
            // Crash: drop without finish(). The Drop impl joins the worker
            // (the process survives), but buffers are never flushed — only
            // the WAL and manifest can save them.
            drop(engine);
        }
        let store: Arc<dyn TableStore> =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let (recovered, _report) = TieredOpenOptions::new(config)
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open_or_recover()
            .expect("recover");
        let (pts, _) = recovered
            .query(TimeRange::new(0, count as i64 * 10))
            .expect("query");
        prop_assert_eq!(pts.len(), count, "points lost across the crash");
        for (i, p) in pts.iter().enumerate() {
            prop_assert_eq!(p.gen_time, i as i64 * 10);
            prop_assert_eq!(p.value, i as f64, "wrong value at {}", i);
        }
    }
}

/// The fold rule against live L0 data: with `.sync_flush()` a flushed
/// MemTable sits in L0 deterministically, *over* run blocks that would
/// otherwise fold from their pre-aggregates. Blocks with an L0 point inside
/// their span must be decoded (the L0 value wins); the rest still fold.
#[test]
fn live_l0_tables_shadow_otherwise_foldable_run_blocks() {
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(8);
    let mut engine = TieredOpenOptions::new(config.clone())
        .sync_flush()
        .open()
        .expect("engine");
    let mut inline = OpenOptions::new(config).open().expect("inline");
    let mut model = Model::new();
    let mut write = |engine: &mut TieredEngine, p: DataPoint| {
        engine.append(p).expect("append");
        inline.append(p).expect("append");
        model.insert(p.gen_time, p.value);
    };
    for i in 0..64i64 {
        write(&mut engine, DataPoint::new(i * 10, i * 10, i as f64));
    }
    // Eight single-block run tables [0..70], [80..150], …, L0 empty.
    engine.quiesce().expect("quiesce");
    let range = TimeRange::new(0, 700);
    let (_, stats) = engine.aggregate(range).expect("aggregate");
    assert_eq!((stats.blocks_folded, stats.agg_fallback_blocks), (8, 0));
    // One more MemTable: two stragglers and an upsert inside the first three
    // run blocks, five in-order points behind the run. Its flush lands in
    // L0 (one table, below the merge threshold) spanning [35, 680].
    for (tg, v) in [(35, -1.0), (135, -2.0), (200, -3.0)] {
        write(&mut engine, DataPoint::new(tg, 1_000, v));
    }
    for i in 64..69i64 {
        write(&mut engine, DataPoint::new(i * 10, i * 10, i as f64));
    }
    assert_eq!(engine.table_layout()[0].0, "L0", "flush must sit in L0");
    let (agg, stats) = engine.aggregate(range).expect("aggregate");
    assert_eq!(agg.min, -3.0, "the L0 upsert of tg=200 must win");
    assert_eq!(stats.blocks_folded, 5, "blocks without L0 points fold");
    assert!(stats.agg_fallback_blocks >= 3, "shadowed blocks decode");
    assert_reads_agree(&engine, &inline, &model, range, 80);
    assert_reads_agree(&engine, &inline, &model, TimeRange::new(30, 210), 7);
}

/// Compile-time: the settings common to every engine are set the same way
/// on all three builder names.
fn with_common_settings<K: Kind>(
    builder: EngineBuilder<K>,
) -> EngineBuilder<K> {
    builder
        .store(Arc::new(MemStore::new()))
        .cache(BlockCache::with_capacity(1024))
        .recovery(RecoveryOptions::salvage())
        .faults(FaultPlan::new(1, Fault::None))
        .observer(RingBufferSink::new(16))
}

#[test]
fn common_settings_apply_to_all_three_builder_names() {
    let config = || EngineConfig::new(Policy::conventional(8));
    with_common_settings(OpenOptions::new(config()))
        .open()
        .expect("inline");
    with_common_settings(TieredOpenOptions::new(config()))
        .open()
        .expect("background");
    with_common_settings(MultiOpenOptions::new(config()))
        .open()
        .expect("fleet");
}

#[test]
fn recovered_engine_keeps_ingesting_and_finishes() {
    let dir = TempDir::new("resume");
    let config = EngineConfig::new(Policy::separation(16, 8).expect("policy"))
        .with_sstable_points(8);
    {
        let store: Arc<dyn TableStore> =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = TieredOpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        for i in 0..100i64 {
            engine
                .append(DataPoint::new(i * 10, i * 10, i as f64))
                .expect("append");
        }
        engine.sync_wal().expect("sync");
        drop(engine); // crash
    }
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    let (mut engine, _report) = TieredOpenOptions::new(config)
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .open_or_recover()
        .expect("recover");
    // Keep writing after recovery, including stragglers.
    for i in 100..150i64 {
        engine
            .append(DataPoint::new(i * 10, i * 10, i as f64))
            .expect("append");
        if i % 10 == 0 {
            engine
                .append(DataPoint::new(i * 10 - 995, i * 10, -1.0))
                .expect("straggler");
        }
    }
    let report = engine.finish().expect("finish");
    // 100 original + 50 new + 5 stragglers (tg = 5, 105, …, 445: all new).
    assert_eq!(report.points.len(), 155);
    assert!(report
        .points
        .windows(2)
        .all(|w| w[0].gen_time < w[1].gen_time));
}

#[test]
fn unsynced_tail_may_be_lost_but_nothing_else() {
    // Without a final sync, the last few WAL records may be in OS buffers;
    // everything a horizon made durable must still be intact.
    let dir = TempDir::new("unsynced");
    let config =
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(8);
    // The 64th flush makes a horizon due (64 tables' worth of points); the
    // eight flushes after it wait for the next one.
    let durable = 64 * 8;
    {
        let store: Arc<dyn TableStore> =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = TieredOpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        for i in 0..durable + 64 {
            engine
                .append(DataPoint::new(i * 10, i * 10, 0.0))
                .expect("append");
        }
        engine.drain();
        drop(engine);
    }
    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    let (recovered, _report) = TieredOpenOptions::new(config)
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .open_or_recover()
        .expect("recover");
    let (pts, _) = recovered
        .query(TimeRange::new(0, (durable + 64) * 10))
        .expect("query");
    // The first 512 points were handed to the flush pipeline and reached a
    // horizon under the manifest, so none may disappear; of the 64 after
    // them, the unsynced tail, any may.
    let tgs: Vec<i64> = pts.iter().map(|p| p.gen_time).collect();
    assert!(tgs.len() as i64 >= durable, "{} recovered", tgs.len());
    assert!(tgs.iter().enumerate().all(|(i, tg)| *tg == i as i64 * 10));
}

/// Observability: every compaction the pipeline executes must surface as
/// exactly one `CompactionExecuted` event whose rewrite count matches the
/// engine's own metric, and every flush as one `FlushFinished`.
#[test]
fn observer_sees_one_compaction_event_per_executed_compaction() {
    let sink = RingBufferSink::new(4096);
    let mut engine = TieredOpenOptions::new(
        EngineConfig::new(Policy::conventional(8)).with_sstable_points(8),
    )
    .observer(sink.clone())
    .sync_flush()
    .open()
    .expect("open");
    for i in 0..256i64 {
        // A prime-stride scramble so some points arrive out of order and
        // force run rewrites rather than pure appends.
        let tg = (i * 97) % 256 * 10;
        engine
            .append(DataPoint::new(tg, tg + 5, i as f64))
            .expect("append");
    }
    engine.quiesce().expect("quiesce");
    let metrics = engine.metrics();
    let events = sink.events();
    let executed = events
        .iter()
        .filter(|e| matches!(e, Event::CompactionExecuted { .. }))
        .count() as u64;
    assert_eq!(
        executed, metrics.compactions,
        "one CompactionExecuted event per counted compaction"
    );
    let rewritten: u64 = events
        .iter()
        .filter_map(|e| match e {
            Event::CompactionExecuted { rewritten, .. } => Some(*rewritten),
            _ => None,
        })
        .sum();
    assert_eq!(
        rewritten, metrics.rewritten_points,
        "event-reported rewrites must match the metric"
    );
    let flushes = events
        .iter()
        .filter(|e| matches!(e, Event::FlushFinished { .. }))
        .count() as u64;
    assert_eq!(flushes, metrics.flushes);
}

/// The degraded transition is typed ([`DegradedState`]) and emitted as a
/// `DegradedTransition` event carrying the same state the accessor returns.
#[test]
fn degraded_transition_is_typed_and_observed() {
    use seplsm::{
        DegradedOp, DegradedState, Fault, FaultPlan, FaultStore, MemStore,
    };

    let sink = RingBufferSink::new(1024);
    let plan = FaultPlan::new(7, Fault::FailPersistent { from: 0 });
    let store: Arc<dyn TableStore> =
        Arc::new(FaultStore::new(MemStore::new(), Arc::clone(&plan)));
    let mut engine = TieredOpenOptions::new(
        EngineConfig::new(Policy::conventional(4)).with_sstable_points(4),
    )
    .store(store)
    .faults(plan)
    .observer(sink.clone())
    .sync_flush()
    .open()
    .expect("open");
    let mut degraded = false;
    for i in 0..10_000i64 {
        if engine.append(DataPoint::new(i, i, 0.0)).is_err() {
            degraded = true;
            break;
        }
    }
    assert!(degraded, "persistent faults must degrade the engine");
    let state: DegradedState =
        engine.degraded_state().expect("typed degraded state");
    assert_eq!(state.op, DegradedOp::FlushWrite);
    assert!(state.attempts > 0);
    // The error a degraded append returns renders the same typed state.
    match engine.append(DataPoint::new(20_000, 20_000, 0.0)) {
        Err(seplsm::Error::Degraded(reason)) => {
            assert_eq!(reason, state.to_string())
        }
        other => panic!("expected Error::Degraded, got {other:?}"),
    }
    let observed: Vec<DegradedState> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::DegradedTransition { state } => Some(state.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(observed, vec![state], "exactly one transition, same state");
}
