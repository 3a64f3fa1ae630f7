//! Cross-crate accuracy tests: the paper's models (`seplsm-core`) against
//! ground truth measured on the storage engine (`seplsm-lsm`) over generated
//! workloads (`seplsm-workload`).
//!
//! Tolerances reflect the paper's own accuracy claims: ζ(n) tracks the
//! measured subsequent counts closely (Fig. 5), while the WA models
//! systematically *underestimate* because a real compaction rewrites whole
//! SSTables, not individual subsequent points (§III, §V-B).

use std::sync::Arc;

use seplsm::{
    tune, EngineConfig, LogNormal, OpenOptions, Policy, SyntheticWorkload,
    TunerOptions, WaModel, ZetaModel,
};
use seplsm_types::DataPoint;

fn measure_metrics(
    points: &[DataPoint],
    policy: Policy,
    sstable: usize,
    probe: bool,
) -> seplsm_lsm::Metrics {
    let mut config = EngineConfig::new(policy).with_sstable_points(sstable);
    if probe {
        config = config.with_subsequent_probe();
    }
    let mut engine = OpenOptions::new(config).open().expect("engine");
    for p in points {
        engine.append(*p).expect("append");
    }
    engine.metrics().clone()
}

#[test]
fn zeta_tracks_measured_subsequent_counts() {
    // The Fig. 5 setup at two buffer sizes and two distributions.
    for (sigma, tol) in [(1.5, 0.25), (1.75, 0.2)] {
        let dist = LogNormal::new(4.0, sigma);
        let dataset = SyntheticWorkload::new(50, dist, 120_000, 55).generate();
        let model = ZetaModel::new(Arc::new(dist), 50.0);
        for n in [64usize, 256] {
            let metrics =
                measure_metrics(&dataset, Policy::conventional(n), n, true);
            let measured = metrics.mean_subsequent().expect("compactions");
            let predicted = model.zeta(n);
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < tol,
                "sigma={sigma}, n={n}: measured {measured:.1}, model {predicted:.1} (rel {rel:.3})"
            );
        }
    }
}

#[test]
fn r_c_model_brackets_measured_wa() {
    let dist = LogNormal::new(5.0, 2.0);
    let dataset = SyntheticWorkload::new(50, dist, 150_000, 56).generate();
    let model = WaModel::new(Arc::new(dist), 50.0, 512);
    let measured =
        measure_metrics(&dataset, Policy::conventional(512), 512, false)
            .write_amplification();
    let predicted = model.wa_conventional();
    // The model never overestimates by much, and the SSTable-granularity gap
    // is bounded (paper: < 1 per merge in the idealised analysis; we allow
    // the observed envelope).
    assert!(
        predicted <= measured + 0.5,
        "model {predicted:.3} far above measured {measured:.3}"
    );
    assert!(
        measured - predicted < 2.0,
        "model {predicted:.3} too far below measured {measured:.3}"
    );
}

#[test]
fn r_s_curve_shape_matches_measurement() {
    // The model's U-curve and the measured curve must agree on shape: the
    // measured minimum lies in the model's low basin, and both rank the
    // extreme splits as worse.
    let dist = LogNormal::new(5.0, 2.0);
    let dataset = SyntheticWorkload::new(50, dist, 120_000, 57).generate();
    let model = WaModel::new(Arc::new(dist), 50.0, 512);

    let grid = [32usize, 128, 256, 384, 480];
    let mut measured = Vec::new();
    let mut predicted = Vec::new();
    for &n_seq in &grid {
        measured.push(
            measure_metrics(
                &dataset,
                Policy::separation(512, n_seq).expect("policy"),
                512,
                false,
            )
            .write_amplification(),
        );
        predicted.push(model.wa_separation(n_seq).expect("estimate").wa);
    }
    // Rank correlation on the coarse grid: the highest-WA split must agree.
    let argmax = |v: &[f64]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0
    };
    assert_eq!(
        argmax(&measured),
        argmax(&predicted),
        "measured {measured:?} vs predicted {predicted:?}"
    );
    // Interior beats the worst edge in both.
    assert!(measured[2] < measured[4]);
    assert!(predicted[2] < predicted[4]);
}

#[test]
fn tuner_decision_matches_ground_truth_on_contrasting_workloads() {
    // Mild disorder: pi_c should win. Severe disorder: pi_s should win.
    let cases = [
        (LogNormal::new(2.0, 0.5), 50i64, false),
        (LogNormal::new(5.0, 2.0), 10i64, true),
    ];
    for (dist, dt, expect_separation) in cases {
        let dataset = SyntheticWorkload::new(dt, dist, 100_000, 58).generate();
        let model = WaModel::new(Arc::new(dist), dt as f64, 512);
        let outcome = tune(&model, TunerOptions::online(512)).expect("tune");
        assert_eq!(
            outcome.chose_separation(),
            expect_separation,
            "dist {dist:?}, dt={dt}: r_c={:.3}, r_s*={:.3}",
            outcome.r_c,
            outcome.r_s_star
        );
        // Verify the decision against measured WA.
        let wa_c =
            measure_metrics(&dataset, Policy::conventional(512), 512, false)
                .write_amplification();
        let wa_s = measure_metrics(
            &dataset,
            Policy::separation(512, outcome.best_n_seq).expect("policy"),
            512,
            false,
        )
        .write_amplification();
        assert_eq!(
            wa_s < wa_c,
            expect_separation,
            "ground truth disagrees: wa_c={wa_c:.3}, wa_s={wa_s:.3}"
        );
    }
}

#[test]
fn higher_disorder_raises_both_models_and_measurements() {
    // The monotonicity the paper reads off Fig. 9: sigma up => WA up.
    let mild = LogNormal::new(4.0, 1.5);
    let wild = LogNormal::new(4.0, 2.0);
    let data_mild = SyntheticWorkload::new(50, mild, 80_000, 59).generate();
    let data_wild = SyntheticWorkload::new(50, wild, 80_000, 59).generate();
    let model_mild = WaModel::new(Arc::new(mild), 50.0, 256);
    let model_wild = WaModel::new(Arc::new(wild), 50.0, 256);
    assert!(model_wild.wa_conventional() > model_mild.wa_conventional());
    let wa_mild =
        measure_metrics(&data_mild, Policy::conventional(256), 256, false)
            .write_amplification();
    let wa_wild =
        measure_metrics(&data_wild, Policy::conventional(256), 256, false)
            .write_amplification();
    assert!(
        wa_wild > wa_mild,
        "measured: wild {wa_wild:.3} <= mild {wa_mild:.3}"
    );
}
