//! **Fig. 20** — query latency on dataset H: (a) the recent-data workload,
//! (b) the historical workload, `π_c` vs `π_s(n̂*_seq)`, windows of 10 s and
//! 20 s (H is a 1 Hz series, so windows are seconds rather than the
//! milliseconds of Figs. 13/14).
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig20 -- [--points N] [--seed S] [--json out.json]
//! ```

use std::sync::Arc;

use seplsm_bench::drive::{self, Queries};
use seplsm_bench::{args, report};
use seplsm_dist::Empirical;
use seplsm_types::Policy;
use seplsm_workload::VehicleWorkload;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 120_000);
    let seed: u64 = args::flag_or("seed", 20);
    let n = 512usize;

    let workload = VehicleWorkload::new(points, seed);
    let dataset = workload.generate();
    let delays: Vec<f64> = dataset.iter().map(|p| p.delay() as f64).collect();
    let rec_policy = drive::recommended_policy(
        Arc::new(Empirical::from_samples(&delays)),
        workload.delta_t as f64,
        n,
    )?;
    println!("recommended separation setting: {}", rec_policy.name());
    let sep_policy = match rec_policy {
        Policy::Separation { .. } => rec_policy,
        // The tuner may (correctly) prefer pi_c on H; Fig. 20 still compares
        // against the best separation split.
        Policy::Conventional { .. } => Policy::separation_even(n)?,
    };

    let mut json = Vec::new();
    for (part, name, queries) in [
        ("(a): recent-data", "recent", Queries::Recent { every: 500 }),
        (
            "(b): historical",
            "historical",
            Queries::Historical { count: 200, seed },
        ),
    ] {
        report::banner(&format!("Fig. 20{part} query latency on H (ns)"));
        let mut rows = Vec::new();
        for window in [10_000i64, 20_000] {
            let conv =
                queries.run(&dataset, Policy::conventional(n), window)?;
            let sep = queries.run(&dataset, sep_policy, window)?;
            rows.push(vec![
                format!("{}s", window / 1000),
                format!("{:.3e}", conv.mean_latency_ns),
                format!("{:.3e}", sep.mean_latency_ns),
            ]);
            json.push(serde_json::json!({
                "workload": name,
                "window_ms": window,
                "pi_c_latency_ns": conv.mean_latency_ns,
                "pi_s_latency_ns": sep.mean_latency_ns,
            }));
        }
        report::print_table(&["window", "pi_c lat(ns)", "pi_s lat(ns)"], &rows);
    }
    report::write_json(&serde_json::json!(json))
}
