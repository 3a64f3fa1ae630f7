//! Analyze a write workload and decide: separation or not?
//!
//! Mirrors the paper's deployment story: collect the delays of a workload,
//! fit the empirical distribution, run Algorithm 1, and report the predicted
//! WA of `π_c` vs the best `π_s(n_seq)` — then verify the decision by
//! actually ingesting the workload under both policies.
//!
//! ```text
//! cargo run --release -p seplsm --example analyze_workload
//! ```

use std::sync::Arc;

use seplsm::{
    tune, DelayDistribution, Empirical, EngineConfig, OpenOptions, Policy,
    Result, SyntheticWorkload, TunerOptions, WaModel,
};
use seplsm_dist::{LogNormal, Mixture, Shifted};

fn measure(points: &[seplsm::DataPoint], policy: Policy) -> Result<f64> {
    let mut engine = OpenOptions::new(EngineConfig::new(policy)).open()?;
    for p in points {
        engine.append(*p)?;
    }
    Ok(engine.metrics().write_amplification())
}

fn main() -> Result<()> {
    // An IoT workload where 8% of transmissions go through a slow relay:
    // the skewed-delay situation in which separation tends to win.
    let delays = Mixture::of_two(
        0.92,
        LogNormal::new(3.0, 0.6),
        0.08,
        Shifted::new(LogNormal::new(5.0, 1.0), 4_000.0),
    );
    let workload = SyntheticWorkload::new(50, delays, 200_000, 42);
    let dataset = workload.generate();
    println!("workload: {} points, delta_t = 50 ms", dataset.len());

    // 1. The analyzer's view: only the observed delays, no ground truth.
    let observed: Vec<f64> = dataset.iter().map(|p| p.delay() as f64).collect();
    let empirical = Empirical::from_samples(&observed);
    println!(
        "observed delays: median {:.0} ms, p99 {:.0} ms",
        empirical.quantile(0.5),
        empirical.quantile(0.99)
    );

    // 2. Algorithm 1 on the fitted distribution, budget n = 512.
    let model = WaModel::new(Arc::new(empirical), 50.0, 512);
    let outcome = tune(&model, TunerOptions::exhaustive_with_curve())?;
    println!(
        "model: r_c = {:.3}, min r_s = {:.3} at n_seq = {}",
        outcome.r_c, outcome.r_s_star, outcome.best_n_seq
    );
    println!("decision: {}", outcome.decision.name());

    // 3. Ground truth: ingest under both policies and compare.
    let wa_c = measure(&dataset, Policy::conventional(512))?;
    let wa_s = measure(&dataset, Policy::separation(512, outcome.best_n_seq)?)?;
    println!("measured: pi_c WA = {wa_c:.3}, pi_s(n̂*) WA = {wa_s:.3}");
    let model_right = (outcome.r_s_star < outcome.r_c) == (wa_s < wa_c);
    println!("the model picked the lower-WA policy: {model_right}");
    Ok(())
}
