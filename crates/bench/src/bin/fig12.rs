//! **Fig. 12** — read amplification of the recent-data query workload on
//! M1–M12, `π_c` vs `π_s` (with tuner-recommended capacities), query windows
//! of 500/1000/5000 ms.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig12 -- [--points N] [--seed S] [--json out.json]
//! ```

use seplsm_bench::drive::{query_sweep, Queries};
use seplsm_bench::{args, report};

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 60_000);
    let seed: u64 = args::flag_or("seed", 12);

    report::banner("Fig. 12: read amplification, recent-data queries, M1-M12");
    let cells = query_sweep(points, seed, Queries::Recent { every: 500 })?;
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.dataset.to_string(),
                format!("{}ms", c.window_ms),
                report::f1(c.pi_c.mean_read_amplification),
                report::f1(c.pi_s.mean_read_amplification),
            ]
        })
        .collect();
    report::print_table(&["dataset", "window", "pi_c RA", "pi_s RA"], &rows);
    let json: Vec<serde_json::Value> = cells
        .iter()
        .map(|c| {
            serde_json::json!({
                "dataset": c.dataset,
                "window_ms": c.window_ms,
                "pi_c_ra": c.pi_c.mean_read_amplification,
                "pi_s_ra": c.pi_s.mean_read_amplification,
                "pi_s_policy": c.pi_s_policy.name(),
            })
        })
        .collect();
    report::write_json(&serde_json::json!(json))
}
