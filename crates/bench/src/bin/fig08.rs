//! **Fig. 8** — the delay profile of dataset S-9: the delay series summary
//! and its histogram, showing the skew the paper's WA argument relies on
//! ("some data points suffer much longer delays than others").
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig08 -- [--points N] [--seed S] [--json out.json]
//! ```

use seplsm_bench::{args, report};
use seplsm_dist::stats::{percentile_sorted, Histogram};
use seplsm_workload::{fraction_out_of_order, S9Workload};

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 30_000);
    let seed: u64 = args::flag_or("seed", 8);

    let workload = S9Workload::new(points, seed);
    let dataset = workload.generate();
    let mut delays: Vec<f64> =
        dataset.iter().map(|p| p.delay() as f64).collect();
    delays.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let ooo = fraction_out_of_order(&dataset);

    report::banner("Fig. 8: delays of dataset S-9 (ms)");
    report::print_table(
        &["statistic", "value"],
        &[
            vec!["points".into(), dataset.len().to_string()],
            vec![
                "median".into(),
                report::f1(percentile_sorted(&delays, 50.0)),
            ],
            vec!["p90".into(), report::f1(percentile_sorted(&delays, 90.0))],
            vec!["p99".into(), report::f1(percentile_sorted(&delays, 99.0))],
            vec!["max".into(), report::f1(*delays.last().expect("points"))],
            vec![
                "out-of-order %".into(),
                format!("{:.2}% (paper: 7.05%)", ooo * 100.0),
            ],
        ],
    );

    report::banner("Fig. 8 histogram (log-scale buckets)");
    let logs: Vec<f64> = delays.iter().map(|d| (d + 1.0).log10()).collect();
    let hist = Histogram::from_samples(&logs, 20);
    let mut rows = Vec::new();
    for (edge, count) in hist.bars() {
        let lo = 10f64.powf(edge) - 1.0;
        let hi = 10f64.powf(edge + hist.bin_width()) - 1.0;
        rows.push(vec![
            format!("{lo:.0}..{hi:.0}"),
            count.to_string(),
            "#".repeat(((count as f64).ln_1p() * 4.0) as usize),
        ]);
    }
    report::print_table(&["delay range (ms)", "count", ""], &rows);

    report::write_json(&serde_json::json!({
        "points": dataset.len(),
        "median_delay_ms": percentile_sorted(&delays, 50.0),
        "p99_delay_ms": percentile_sorted(&delays, 99.0),
        "out_of_order_fraction": ooo,
    }))
}
