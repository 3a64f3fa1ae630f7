//! **Fig. 7** — WA under `π_c` (horizontal line) and `π_s(n_seq)` (U-curve)
//! vs experiment; lognormal(μ=5, σ=2), Δt=50, budget n=512, SSTables of 512.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig07 -- [--points N] [--seed S] [--json out.json]
//! ```

use std::sync::Arc;

use seplsm_bench::{args, drive, report};
use seplsm_core::WaModel;
use seplsm_dist::LogNormal;
use seplsm_lsm::EngineConfig;
use seplsm_types::Policy;
use seplsm_workload::SyntheticWorkload;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 300_000);
    let seed: u64 = args::flag_or("seed", 7);
    let n = 512usize;
    let sstable = 512usize;

    let dist = LogNormal::new(5.0, 2.0);
    let dataset = SyntheticWorkload::new(50, dist, points, seed).generate();
    let model = WaModel::new(Arc::new(dist), 50.0, n);

    report::banner("Fig. 7: WA vs n_seq, LogNormal(5,2), dt=50, n=512");

    let wa = |policy| -> seplsm_types::Result<f64> {
        let config = EngineConfig::new(policy).with_sstable_points(sstable);
        Ok(drive::measure_wa(&dataset, config)?.write_amplification())
    };
    let rc_measured = wa(Policy::conventional(n))?;
    let rc_model = model.wa_conventional();
    println!(
        "pi_c : measured WA = {rc_measured:.3}, model r_c = {rc_model:.3}"
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for n_seq in (32..n).step_by(32) {
        let est = model.wa_separation(n_seq)?;
        let measured = wa(Policy::separation(n, n_seq)?)?;
        rows.push(vec![
            n_seq.to_string(),
            report::f3(measured),
            report::f3(est.wa),
            report::f1(est.g),
            report::f1(est.n_arrive),
        ]);
        json.push(serde_json::json!({
            "n_seq": n_seq,
            "measured_wa": measured,
            "model_r_s": est.wa,
            "g": est.g,
            "n_arrive": est.n_arrive,
        }));
    }
    report::print_table(
        &["n_seq", "measured", "r_s model", "g(n_seq)", "N_arrive"],
        &rows,
    );
    report::write_json(&serde_json::json!({
        "r_c": {"measured": rc_measured, "model": rc_model},
        "r_s": json,
    }))
}
