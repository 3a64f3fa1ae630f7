//! Property-based correctness of the storage engine: whatever the ingest
//! order, policy, buffer split or table size, the engine must never lose,
//! duplicate or reorder data, must keep the run invariant, and must answer
//! range queries exactly.

use proptest::prelude::*;
use seplsm::lsm::open::EngineBuilder;
use seplsm::lsm::{Background, Engine, Executor, Inline};
use seplsm::{
    DataPoint, EngineConfig, Event, LsmEngine, OpenOptions, Policy,
    RingBufferSink, TieredEngine, TimeRange,
};

/// A deterministic scramble of `0..n` (affine permutation).
fn scramble(n: usize, a: usize) -> Vec<usize> {
    // `a` coprime with n is not guaranteed; use a prime stride > n instead.
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

/// A fresh in-memory engine over either executor.
fn open<X: Executor>(policy: Policy, sstable: usize) -> Engine<X> {
    let config = EngineConfig::new(policy).with_sstable_points(sstable);
    EngineBuilder::<X::Kind>::new(config)
        .open()
        .expect("engine")
}

/// The one thing the properties need that the two aliases spell
/// differently: force everything into the run and report what it holds and
/// how many points the user wrote.
trait Ending {
    fn end(self) -> (Vec<DataPoint>, u64);
}

impl Ending for LsmEngine {
    fn end(mut self) -> (Vec<DataPoint>, u64) {
        self.flush_all().expect("flush");
        assert_eq!(self.buffered_points(), 0);
        self.run().check_invariants().expect("run invariant");
        (self.scan_all().expect("scan"), self.metrics().user_points)
    }
}

impl Ending for TieredEngine {
    fn end(self) -> (Vec<DataPoint>, u64) {
        let report = self.finish().expect("finish");
        (report.points, report.user_points)
    }
}

fn no_loss_no_duplication<X: Executor>(
    order: &[usize],
    policy: Policy,
    sstable: usize,
    delay_scale: i64,
) where
    Engine<X>: Ending,
{
    let mut engine = open::<X>(policy, sstable);
    for &i in order {
        let tg = i as i64 * 10;
        // Delay pattern derived from the index: deterministic, mixed.
        let delay = (i as i64 * 131) % (delay_scale + 1);
        engine
            .append(DataPoint::new(tg, tg + delay, i as f64))
            .expect("append");
    }
    let all = engine.scan_all().expect("scan");
    assert_eq!(all.len(), order.len());
    for (i, p) in all.iter().enumerate() {
        assert_eq!(p.gen_time, i as i64 * 10);
        assert_eq!(p.value, i as f64);
    }
    let (rested, user_points) = engine.end();
    assert_eq!(rested, all);
    assert_eq!(user_points, order.len() as u64);
}

fn queries_match<X: Executor>(
    order: &[usize],
    policy: Policy,
    range: TimeRange,
) {
    let mut engine = open::<X>(policy, 8);
    let mut reference = Vec::new();
    for &i in order {
        let tg = i as i64 * 10;
        let p = DataPoint::new(tg, tg + (i as i64 % 700), i as f64);
        engine.append(p).expect("append");
        reference.push(p);
    }
    let (got, stats) = engine.query(range).expect("query");
    let mut want: Vec<DataPoint> = reference
        .into_iter()
        .filter(|p| range.contains(p.gen_time))
        .collect();
    want.sort();
    assert_eq!(&got, &want);
    assert_eq!(stats.points_returned as usize, want.len());
    // Whole-table reads can only scan more than they return.
    assert!(
        stats.disk_points_scanned + stats.mem_points_scanned
            >= stats.points_returned
    );
}

fn upserts_keep_latest<X: Executor>(
    count: usize,
    policy: Policy,
    rewrite_every: usize,
) {
    let mut engine = open::<X>(policy, 8);
    for i in 0..count {
        let tg = i as i64 * 10;
        engine
            .append(DataPoint::new(tg, tg, i as f64))
            .expect("append");
    }
    // Overwrite a subset with new values (arriving late).
    for i in (0..count).step_by(rewrite_every) {
        let tg = i as i64 * 10;
        engine
            .append(DataPoint::new(tg, tg + 100_000, -1.0))
            .expect("upsert");
    }
    let all = engine.scan_all().expect("scan");
    assert_eq!(all.len(), count);
    for (i, p) in all.iter().enumerate() {
        let expected = if i % rewrite_every == 0 {
            -1.0
        } else {
            i as f64
        };
        assert_eq!(p.value, expected, "at index {i}");
    }
}

fn ending_preserves_scan<X: Executor>(count: usize, policy: Policy)
where
    Engine<X>: Ending,
{
    let mut engine = open::<X>(policy, 8);
    for &i in &scramble(count, 3) {
        let tg = i as i64 * 10;
        engine
            .append(DataPoint::new(tg, tg + (i as i64 % 300), 0.0))
            .expect("append");
    }
    let before = engine.scan_all().expect("scan");
    assert_eq!(engine.end().0, before);
}

fn policy_switch_preserves_data<X: Executor>(
    count: usize,
    first: Policy,
    second: Policy,
) {
    let mut engine = open::<X>(first, 8);
    let order = scramble(count, 1);
    let (early, late): (Vec<usize>, Vec<usize>) =
        order.iter().partition(|&&i| i < count / 2);
    for (i, half) in [early, late].into_iter().enumerate() {
        if i == 1 {
            engine.set_policy(second).expect("switch");
        }
        for i in half {
            let tg = i as i64 * 10;
            engine
                .append(DataPoint::new(tg, tg + (i as i64 % 250), 0.0))
                .expect("append");
        }
    }
    let all = engine.scan_all().expect("scan");
    assert_eq!(all.len(), count);
    assert!(all.windows(2).all(|w| w[0].gen_time < w[1].gen_time));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_loss_no_duplication_any_order(
        count in 1usize..400,
        offset in 0usize..1000,
        policy in arb_policy(32),
        sstable in 1usize..40,
        delay_scale in 0i64..2000,
    ) {
        let order = scramble(count, offset);
        no_loss_no_duplication::<Inline>(&order, policy, sstable, delay_scale);
        no_loss_no_duplication::<Background>(&order, policy, sstable, delay_scale);
    }

    #[test]
    fn queries_match_brute_force(
        count in 1usize..300,
        offset in 0usize..500,
        policy in arb_policy(24),
        q_start in 0i64..3000,
        q_len in 0i64..3000,
    ) {
        let order = scramble(count, offset);
        let range = TimeRange::new(q_start, q_start + q_len);
        queries_match::<Inline>(&order, policy, range);
        queries_match::<Background>(&order, policy, range);
    }

    #[test]
    fn upserts_keep_latest_value(
        count in 2usize..200,
        policy in arb_policy(16),
        rewrite_every in 2usize..10,
    ) {
        upserts_keep_latest::<Inline>(count, policy, rewrite_every);
        upserts_keep_latest::<Background>(count, policy, rewrite_every);
    }

    #[test]
    fn flush_all_then_scan_equals_scan(
        count in 1usize..200,
        policy in arb_policy(16),
    ) {
        ending_preserves_scan::<Inline>(count, policy);
        ending_preserves_scan::<Background>(count, policy);
    }

    #[test]
    fn policy_switches_preserve_data(
        count in 1usize..200,
        first in arb_policy(16),
        second in arb_policy(16),
    ) {
        policy_switch_preserves_data::<Inline>(count, first, second);
        policy_switch_preserves_data::<Background>(count, first, second);
    }
}

#[test]
fn write_amplification_is_at_least_one_after_flush() {
    // Once everything is flushed, every user point was written at least once.
    let mut engine = OpenOptions::new(
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
    )
    .open()
    .expect("engine");
    for &i in &scramble(500, 11) {
        let tg = i as i64 * 10;
        engine
            .append(DataPoint::new(tg, tg + (i as i64 % 900), 0.0))
            .expect("append");
    }
    engine.flush_all().expect("flush");
    assert!(engine.metrics().write_amplification() >= 1.0);
}

/// Observability: on the synchronous engine, every counted compaction
/// surfaces as exactly one `CompactionExecuted` event and the events'
/// rewrite totals reproduce the metric exactly.
#[test]
fn observer_compaction_events_match_metrics() {
    let sink = RingBufferSink::new(8192);
    let mut engine = OpenOptions::new(
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(8),
    )
    .observer(sink.clone())
    .open()
    .expect("open");
    for &i in &scramble(400, 3) {
        let tg = i as i64 * 10;
        engine
            .append(DataPoint::new(tg, tg + (i as i64 * 131) % 900, i as f64))
            .expect("append");
    }
    engine.flush_all().expect("flush");
    let metrics = engine.metrics().clone();
    let events = sink.events();
    let executed = events
        .iter()
        .filter(|e| matches!(e, Event::CompactionExecuted { .. }))
        .count() as u64;
    assert_eq!(executed, metrics.compactions);
    let rewritten: u64 = events
        .iter()
        .filter_map(|e| match e {
            Event::CompactionExecuted { rewritten, .. } => Some(*rewritten),
            _ => None,
        })
        .sum();
    assert_eq!(rewritten, metrics.rewritten_points);
    let classified = events
        .iter()
        .filter(|e| matches!(e, Event::PointClassified { .. }))
        .count() as u64;
    assert_eq!(classified, metrics.user_points);
}

/// Determinism: two runs of the same seeded workload against identically
/// configured engines must produce identical event traces.
#[test]
fn identical_workloads_produce_identical_event_traces() {
    let trace = |seed: usize| {
        let sink = RingBufferSink::new(16384);
        let mut engine = OpenOptions::new(
            EngineConfig::new(Policy::separation(16, 8).expect("policy"))
                .with_sstable_points(8),
        )
        .observer(sink.clone())
        .open()
        .expect("open");
        for &i in &scramble(300, seed) {
            let tg = i as i64 * 10;
            engine
                .append(DataPoint::new(tg, tg + (i as i64 % 700), i as f64))
                .expect("append");
        }
        engine.flush_all().expect("flush");
        sink.events()
    };
    let a = trace(17);
    let b = trace(17);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must replay the same event trace");
    let c = trace(18);
    assert_ne!(a, c, "different seeds must actually change the trace");
}
