//! **Fig. 18** — robustness to a *non-constant generation rate* (S-9):
//! (a) the sorted generation-interval profile; (b) WA estimate vs real under
//! `π_c` and `π_s(n̂*_seq)` when the models use a single Δt (the median).
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig18 -- [--points N] [--seed S] [--budget B] [--json out.json]
//! ```

use seplsm_bench::{args, drive, report};
use seplsm_dist::stats::percentile_sorted;
use seplsm_workload::S9Workload;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 30_000);
    let seed: u64 = args::flag_or("seed", 18);
    let budget: usize = args::flag_or("budget", 8);

    let workload = S9Workload::new(points, seed);
    let dataset = workload.generate();
    let intervals: Vec<f64> = workload
        .sorted_intervals()
        .into_iter()
        .map(|v| v as f64)
        .collect();

    report::banner("Fig. 18(a): sorted generation intervals of S-9 (ms)");
    let mut rows = Vec::new();
    for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
        rows.push(vec![
            format!("p{p:.0}"),
            report::f1(percentile_sorted(&intervals, p)),
        ]);
    }
    report::print_table(&["percentile", "interval"], &rows);

    report::banner("Fig. 18(b): WA estimate vs real with variable intervals");
    let result = drive::estimate_and_measure(&dataset, budget, budget)?;
    let json = report::estimate_vs_real(
        &result,
        serde_json::json!({
            "interval_percentiles": {
                "p50": percentile_sorted(&intervals, 50.0),
                "p99": percentile_sorted(&intervals, 99.0),
            },
            "delta_t": result.delta_t,
        }),
    );
    println!(
        "models used the median interval delta_t={} ms; correct policy: {}",
        result.delta_t,
        result.decision_correct()
    );

    report::write_json(&json)
}
