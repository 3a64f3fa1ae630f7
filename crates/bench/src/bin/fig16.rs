//! **Fig. 16** — robustness to *non-independent* delays (dataset H):
//! (a) the autocorrelation function of H's delays with 95 % white-noise
//! bounds; (b) WA estimate vs real under `π_c` and `π_s(n̂*_seq)`.
//!
//! The paper's point: H violates the i.i.d.-delay assumption (strong ACF),
//! yet the approximate models still rank the policies correctly — here,
//! `π_c` wins.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig16 -- [--points N] [--seed S] [--budget B] [--json out.json]
//! ```

use seplsm_bench::{args, drive, report};
use seplsm_dist::stats::{autocorr_confidence, autocorrelation};
use seplsm_workload::VehicleWorkload;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 200_000);
    let seed: u64 = args::flag_or("seed", 16);
    let budget: usize = args::flag_or("budget", 512);

    let workload = VehicleWorkload::new(points, seed);
    let dataset = workload.generate();
    let delays: Vec<f64> = dataset.iter().map(|p| p.delay() as f64).collect();

    report::banner("Fig. 16(a): autocorrelation of delays in dataset H");
    let acf = autocorrelation(&delays, 10);
    let bound = autocorr_confidence(delays.len());
    let mut rows = Vec::new();
    for (lag, &value) in acf.iter().enumerate() {
        rows.push(vec![
            lag.to_string(),
            report::f3(value),
            if lag > 0 && value.abs() > bound {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    report::print_table(&["lag", "acf", "significant"], &rows);
    println!("95% white-noise bound: +/-{bound:.4}");

    report::banner("Fig. 16(b): WA estimate vs real on dataset H");
    let result = drive::estimate_and_measure(&dataset, budget, 512)?;
    let json = report::estimate_vs_real(
        &result,
        serde_json::json!({"acf": acf, "confidence_bound": bound}),
    );
    println!(
        "model picked the correct policy despite non-independent delays: {}",
        result.decision_correct()
    );

    report::write_json(&json)
}
