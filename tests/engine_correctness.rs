//! Property-based correctness of the storage engine: whatever the ingest
//! order, policy, buffer split or table size, the engine must never lose,
//! duplicate or reorder data, must keep the run invariant, and must answer
//! range queries exactly.

use proptest::prelude::*;
use seplsm::{
    DataPoint, EngineConfig, Event, OpenOptions, Policy, RingBufferSink,
    TimeRange,
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
        let mut engine = OpenOptions::new(EngineConfig::new(policy).with_sstable_points(sstable)).open().expect("engine");
        for &i in &order {
            let tg = i as i64 * 10;
            // Delay pattern derived from the index: deterministic, mixed.
            let delay = (i as i64 * 131) % (delay_scale + 1);
            engine.append(DataPoint::new(tg, tg + delay, i as f64)).expect("append");
        }
        let all = engine.scan_all().expect("scan");
        prop_assert_eq!(all.len(), count);
        for (i, p) in all.iter().enumerate() {
            prop_assert_eq!(p.gen_time, i as i64 * 10);
            prop_assert_eq!(p.value, i as f64);
        }
        engine.run().check_invariants().expect("run invariant");
        prop_assert_eq!(engine.metrics().user_points, count as u64);
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
        let mut engine = OpenOptions::new(EngineConfig::new(policy).with_sstable_points(8)).open().expect("engine");
        let mut reference = Vec::new();
        for &i in &order {
            let tg = i as i64 * 10;
            let p = DataPoint::new(tg, tg + (i as i64 % 700), i as f64);
            engine.append(p).expect("append");
            reference.push(p);
        }
        let range = TimeRange::new(q_start, q_start + q_len);
        let (got, stats) = engine.query(range).expect("query");
        let mut want: Vec<DataPoint> = reference
            .into_iter()
            .filter(|p| range.contains(p.gen_time))
            .collect();
        want.sort();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(stats.points_returned as usize, want.len());
        // Whole-table reads can only scan more than they return.
        prop_assert!(stats.disk_points_scanned + stats.mem_points_scanned
            >= stats.points_returned);
    }

    #[test]
    fn upserts_keep_latest_value(
        count in 2usize..200,
        policy in arb_policy(16),
        rewrite_every in 2usize..10,
    ) {
        let mut engine = OpenOptions::new(EngineConfig::new(policy).with_sstable_points(8)).open().expect("engine");
        for i in 0..count {
            let tg = i as i64 * 10;
            engine.append(DataPoint::new(tg, tg, i as f64)).expect("append");
        }
        // Overwrite a subset with new values (arriving late).
        for i in (0..count).step_by(rewrite_every) {
            let tg = i as i64 * 10;
            engine
                .append(DataPoint::new(tg, tg + 100_000, -1.0))
                .expect("upsert");
        }
        let all = engine.scan_all().expect("scan");
        prop_assert_eq!(all.len(), count);
        for (i, p) in all.iter().enumerate() {
            let expected = if i % rewrite_every == 0 { -1.0 } else { i as f64 };
            prop_assert_eq!(p.value, expected, "at index {}", i);
        }
    }

    #[test]
    fn flush_all_then_scan_equals_scan(
        count in 1usize..200,
        policy in arb_policy(16),
    ) {
        let mut engine = OpenOptions::new(EngineConfig::new(policy).with_sstable_points(8)).open().expect("engine");
        for &i in &scramble(count, 3) {
            let tg = i as i64 * 10;
            engine
                .append(DataPoint::new(tg, tg + (i as i64 % 300), 0.0))
                .expect("append");
        }
        let before = engine.scan_all().expect("scan");
        engine.flush_all().expect("flush");
        prop_assert_eq!(engine.buffered_points(), 0);
        let after = engine.scan_all().expect("scan");
        prop_assert_eq!(before, after);
        engine.run().check_invariants().expect("run invariant");
    }

    #[test]
    fn policy_switches_preserve_data(
        count in 1usize..200,
        first in arb_policy(16),
        second in arb_policy(16),
    ) {
        let mut engine = OpenOptions::new(EngineConfig::new(first).with_sstable_points(8)).open().expect("engine");
        let half = count / 2;
        for &i in &scramble(count, 1) {
            if i < half {
                let tg = i as i64 * 10;
                engine
                    .append(DataPoint::new(tg, tg + (i as i64 % 250), 0.0))
                    .expect("append");
            }
        }
        engine.set_policy(second).expect("switch");
        for &i in &scramble(count, 1) {
            if i >= half {
                let tg = i as i64 * 10;
                engine
                    .append(DataPoint::new(tg, tg + (i as i64 % 250), 0.0))
                    .expect("append");
            }
        }
        let all = engine.scan_all().expect("scan");
        prop_assert_eq!(all.len(), count);
        prop_assert!(all.windows(2).all(|w| w[0].gen_time < w[1].gen_time));
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
