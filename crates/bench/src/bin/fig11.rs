//! **Fig. 11** — WA under `π_c` and `π_s` on the (simulated) real-world
//! dataset S-9: model estimate vs measured.
//!
//! The paper sets the memory budget to 8 points on S-9 (footnote 2: the
//! dataset is small, tiny buffers are needed to trigger merges at all) and
//! finds that the skewed straggler delays make `π_s` the winner.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig11 -- [--points N] [--seed S] [--budget B] [--json out.json]
//! ```

use seplsm_bench::{args, drive, report};
use seplsm_workload::S9Workload;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 30_000);
    let seed: u64 = args::flag_or("seed", 9);
    let budget: usize = args::flag_or("budget", 8);

    let dataset = S9Workload::new(points, seed).generate();
    let ooo = seplsm_workload::fraction_out_of_order(&dataset);

    report::banner("Fig. 11: WA on dataset S-9 (estimate vs real)");
    println!(
        "dataset: {} points, {:.2}% out of order, budget n={budget}",
        dataset.len(),
        ooo * 100.0
    );
    let result = drive::estimate_and_measure(&dataset, budget, budget)?;
    let json = report::estimate_vs_real(
        &result,
        serde_json::json!({
            "out_of_order_fraction": ooo,
            "delta_t": result.delta_t,
        }),
    );
    println!(
        "estimated delta_t = {} ms; model picked the correct policy: {}",
        result.delta_t,
        result.decision_correct()
    );

    report::write_json(&json)
}
