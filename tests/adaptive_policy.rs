//! End-to-end behaviour of `π_adaptive` on dynamic workloads: it must
//! detect distribution changes, keep the data intact across policy
//! switches, and not lose to the static policies by more than noise.

use seplsm::{
    AdaptiveConfig, AdaptiveEngine, AdaptiveOpen, AnalyzerConfig,
    ArbiterConfig, EngineConfig, Event, MultiOpenOptions, OpenOptions, Policy,
    RingBufferSink, SeriesId,
};
use seplsm_types::DataPoint;
use seplsm_workload::DynamicWorkload;

fn static_wa(points: &[DataPoint], policy: Policy, sstable: usize) -> f64 {
    let mut engine = OpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(sstable),
    )
    .open()
    .expect("engine");
    for p in points {
        engine.append(*p).expect("append");
    }
    engine.metrics().write_amplification()
}

fn adaptive_engine(n: usize, sstable: usize) -> AdaptiveEngine {
    OpenOptions::new(
        EngineConfig::new(Policy::conventional(n)).with_sstable_points(sstable),
    )
    .adaptive(AdaptiveConfig::new().with_analyzer(AnalyzerConfig {
        window: 2048,
        min_samples: 1024,
        check_every: 512,
        ks_alpha: 0.01,
    }))
    .expect("engine")
}

#[test]
fn adaptive_tracks_dynamic_sigma_stream() {
    // A scaled-down Fig. 10: five sigma regimes.
    let dataset = DynamicWorkload::paper_fig10(30_000, 21).generate();
    let n = 512;
    let sstable = 512;

    let mut engine = adaptive_engine(n, sstable);
    for p in &dataset {
        engine.append(*p).expect("append");
    }

    // Data integrity across all the switches.
    let all = engine.engine().scan_all().expect("scan");
    assert_eq!(all.len(), dataset.len());
    assert!(all.windows(2).all(|w| w[0].gen_time < w[1].gen_time));

    // It must actually have tuned, more than once for a 5-regime stream.
    assert!(
        engine.tunes().len() >= 2,
        "only {} tuning decisions on a 5-regime stream",
        engine.tunes().len()
    );

    // And it should not lose badly to either static baseline.
    let adaptive_wa = engine.engine().metrics().write_amplification();
    let wa_c = static_wa(&dataset, Policy::conventional(n), sstable);
    let wa_s = static_wa(
        &dataset,
        Policy::separation_even(n).expect("policy"),
        sstable,
    );
    let best_static = wa_c.min(wa_s);
    assert!(
        adaptive_wa <= best_static * 1.25 + 0.2,
        "adaptive {adaptive_wa:.3} vs static best {best_static:.3} (c {wa_c:.3}, s {wa_s:.3})"
    );
}

#[test]
fn adaptive_handles_mixed_distribution_families() {
    // A scaled-down Fig. 17 stream (no single delay law).
    let dataset = DynamicWorkload::paper_fig17(20_000, 22).generate();
    let mut engine = adaptive_engine(512, 512);
    for p in &dataset {
        engine.append(*p).expect("append");
    }
    assert_eq!(engine.engine().metrics().user_points, dataset.len() as u64);
    assert!(!engine.tunes().is_empty());
    // Each tune record carries a usable model summary.
    for t in engine.tunes() {
        assert!(t.r_c >= 1.0);
        assert!(t.r_s_star >= 1.0);
        assert!(t.delta_t > 0.0);
    }
}

#[test]
fn adaptive_prefers_conventional_on_clean_streams() {
    // Nearly in-order data: the tuner must not switch to separation.
    let dataset = seplsm::SyntheticWorkload::new(
        50,
        seplsm::LogNormal::new(1.0, 0.3), // delays ~3 ms << 50 ms
        30_000,
        23,
    )
    .generate();
    let mut engine = adaptive_engine(512, 512);
    for p in &dataset {
        engine.append(*p).expect("append");
    }
    assert!(
        !engine.policy().is_separation(),
        "clean stream must stay on pi_c, got {}",
        engine.policy().name()
    );
    let wa = engine.engine().metrics().write_amplification();
    assert!(wa < 1.1, "clean stream WA should be ~1, got {wa:.3}");
}

#[test]
fn fleet_series_switches_policy_online_under_drifting_delays() {
    // One clean series and one whose delays drift from mild to chaotic
    // (lognormal sigma ramping up), sharing an arbiter-managed budget.
    // The drifting series must switch policy *online* — witnessed by a
    // PolicyRetuned event — while the clean one stays on pi_c.
    let sink = RingBufferSink::new(1 << 16);
    let mut fleet =
        MultiOpenOptions::new(EngineConfig::new(Policy::conventional(256)))
            .arbiter(ArbiterConfig::new(2048))
            .observer(sink.clone())
            .adaptive(AdaptiveConfig::new().with_analyzer(AnalyzerConfig {
                window: 2048,
                min_samples: 1024,
                check_every: 512,
                ks_alpha: 0.01,
            }))
            .expect("fleet");

    let clean = SeriesId(1);
    let drifting = SeriesId(2);
    let clean_pts = seplsm::SyntheticWorkload::new(
        50,
        seplsm::LogNormal::new(1.0, 0.3),
        12_000,
        31,
    )
    .generate();
    let drifting_pts = DynamicWorkload::new(
        50,
        vec![
            (6_000, Box::new(seplsm::LogNormal::new(1.5, 0.4))),
            (6_000, Box::new(seplsm::LogNormal::new(6.5, 2.0))),
        ],
        32,
    )
    .generate();

    for (c, d) in clean_pts.iter().zip(&drifting_pts) {
        fleet.append(clean, *c).expect("append clean");
        fleet.append(drifting, *d).expect("append drifting");
    }

    assert!(
        fleet.tunes(drifting) >= 1,
        "drifting series never retuned online"
    );
    assert!(
        fleet
            .policy(drifting)
            .is_some_and(|policy| policy.is_separation()),
        "drifting series should have switched to separation, got {:?}",
        fleet.policy(drifting)
    );
    assert!(
        fleet
            .policy(clean)
            .is_some_and(|policy| !policy.is_separation()),
        "clean series must stay conventional"
    );
    let retuned: Vec<(u64, bool)> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::PolicyRetuned {
                series, separation, ..
            } => Some((*series, *separation)),
            _ => None,
        })
        .collect();
    assert!(
        retuned.contains(&(u64::from(drifting.0), true)),
        "no PolicyRetuned witness for the drifting series: {retuned:?}"
    );
    assert!(
        fleet.engine().retunes() >= 1,
        "fleet retune counter must witness the online switch"
    );
}
