//! **Fig. 19** — the delay profile of the vehicle dataset H: summary
//! statistics and the delay histogram, showing the systematic cluster near
//! the ≈5×10⁴ ms batch re-send period.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig19 -- [--points N] [--seed S] [--json out.json]
//! ```

use seplsm_bench::{args, report};
use seplsm_dist::stats::{percentile_sorted, Histogram};
use seplsm_workload::VehicleWorkload;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 200_000);
    let seed: u64 = args::flag_or("seed", 19);

    let workload = VehicleWorkload::new(points, seed);
    let dataset = workload.generate();
    let mut delays: Vec<f64> =
        dataset.iter().map(|p| p.delay() as f64).collect();
    delays.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    // Out-of-order statistics per Definition 3 (running max of arrivals).
    let mut max_tg = i64::MIN;
    let mut ooo_delays = Vec::new();
    for p in &dataset {
        if p.gen_time < max_tg {
            ooo_delays.push(p.delay() as f64);
        } else {
            max_tg = p.gen_time;
        }
    }
    let ooo_fraction = ooo_delays.len() as f64 / dataset.len() as f64;
    let ooo_mean = seplsm_dist::stats::mean(&ooo_delays);

    report::banner("Fig. 19(a): delays of dataset H (ms)");
    report::print_table(
        &["statistic", "value"],
        &[
            vec!["points".into(), dataset.len().to_string()],
            vec![
                "median delay".into(),
                report::f1(percentile_sorted(&delays, 50.0)),
            ],
            vec![
                "p99 delay".into(),
                report::f1(percentile_sorted(&delays, 99.0)),
            ],
            vec![
                "max delay".into(),
                report::f1(*delays.last().expect("points")),
            ],
            vec![
                "out-of-order %".into(),
                format!("{:.4}%", ooo_fraction * 100.0),
            ],
            vec!["avg ooo delay (ms)".into(), report::f1(ooo_mean)],
        ],
    );

    report::banner("Fig. 19(b): delay histogram (log-scale buckets)");
    // Log-scale buckets expose both the prompt mass and the re-send cluster.
    let logs: Vec<f64> = delays.iter().map(|d| (d + 1.0).log10()).collect();
    let hist = Histogram::from_samples(&logs, 24);
    let mut rows = Vec::new();
    for (edge, count) in hist.bars() {
        let lo = 10f64.powf(edge) - 1.0;
        let hi = 10f64.powf(edge + hist.bin_width()) - 1.0;
        let bar = "#".repeat(((count as f64).ln_1p() * 4.0) as usize);
        rows.push(vec![format!("{lo:.0}..{hi:.0}"), count.to_string(), bar]);
    }
    report::print_table(&["delay range (ms)", "count", ""], &rows);

    report::write_json(&serde_json::json!({
        "points": dataset.len(),
        "median_delay_ms": percentile_sorted(&delays, 50.0),
        "p99_delay_ms": percentile_sorted(&delays, 99.0),
        "out_of_order_fraction": ooo_fraction,
        "mean_out_of_order_delay_ms": ooo_mean,
    }))
}
