//! **Fig. 5** — subsequent-data-point counts: model ζ(n) vs experiment.
//!
//! Two lognormal delay laws (μ=4, σ=1.5 and σ=1.75), Δt = 50. For each
//! buffer capacity, the experiment ingests the dataset under `π_c` with the
//! subsequent-point probe enabled and reports the mean count per compaction;
//! the model column is ζ(n).
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig05 -- [--points N] [--seed S] [--json out.json]
//! ```

use std::sync::Arc;

use seplsm_bench::{args, drive, report};
use seplsm_core::ZetaModel;
use seplsm_dist::LogNormal;
use seplsm_lsm::EngineConfig;
use seplsm_types::Policy;
use seplsm_workload::SyntheticWorkload;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 200_000);
    let seed: u64 = args::flag_or("seed", 5);
    let buffer_sizes = [32usize, 64, 96, 128, 192, 256, 320, 384, 448, 512];

    report::banner("Fig. 5: subsequent data points vs buffer capacity (dt=50)");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for sigma in [1.5, 1.75] {
        let dist = LogNormal::new(4.0, sigma);
        let dataset = SyntheticWorkload::new(50, dist, points, seed).generate();
        let model = ZetaModel::new(Arc::new(dist), 50.0);
        for &n in &buffer_sizes {
            // Match the paper's prototype: the whole buffer becomes one
            // table per merge.
            let config = EngineConfig::new(Policy::conventional(n))
                .with_sstable_points(n)
                .with_subsequent_probe();
            let metrics = drive::measure_wa(&dataset, config)?;
            let measured = metrics.mean_subsequent().unwrap_or(0.0);
            let predicted = model.zeta(n);
            rows.push(vec![
                format!("LogNormal(4,{sigma})"),
                n.to_string(),
                report::f1(measured),
                report::f1(predicted),
                report::f3(if measured > 0.0 {
                    (predicted - measured) / measured
                } else {
                    0.0
                }),
            ]);
            json.push(serde_json::json!({
                "sigma": sigma,
                "buffer": n,
                "measured_subsequent": measured,
                "model_zeta": predicted,
            }));
        }
    }
    report::print_table(
        &["distribution", "buffer", "measured", "zeta(n)", "rel_err"],
        &rows,
    );
    report::write_json(&serde_json::json!(json))
}
