//! **Table III** — writing throughput (points/ms) under `π_c` and
//! `π_s(½n)` on M1–M12, with compaction running in the background
//! (the production write path of §V-C).
//!
//! The paper's finding: throughput is essentially unaffected by the policy
//! because compaction never blocks ingestion.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin table03 -- [--points N] [--seed S] [--json out.json]
//! ```

use seplsm_bench::{args, drive, report};
use seplsm_types::Policy;
use seplsm_workload::PAPER_DATASETS;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 200_000);
    let seed: u64 = args::flag_or("seed", 3);
    let n = 512usize;
    let sstable = 512usize;

    report::banner(
        "Table III: writing throughput (points/ms), background compaction",
    );
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for ds in PAPER_DATASETS {
        let dataset = ds.workload(points, seed).generate();
        let (tp_c, wa_c) = drive::measure_throughput(
            &dataset,
            Policy::conventional(n),
            sstable,
        )?;
        let (tp_s, wa_s) = drive::measure_throughput(
            &dataset,
            Policy::separation_even(n)?,
            sstable,
        )?;
        rows.push(vec![
            ds.name.to_string(),
            report::f1(tp_c),
            report::f1(tp_s),
            report::f3(tp_s / tp_c),
        ]);
        json.push(serde_json::json!({
            "dataset": ds.name,
            "pi_c_points_per_ms": tp_c,
            "pi_s_points_per_ms": tp_s,
            "pi_c_wa": wa_c,
            "pi_s_wa": wa_s,
        }));
    }
    report::print_table(
        &["dataset", "pi_c (pts/ms)", "pi_s (pts/ms)", "ratio"],
        &rows,
    );
    println!(
        "\n(absolute numbers depend on the host; the paper's claim is the \
         ratio staying near 1)"
    );
    report::write_json(&serde_json::json!(json))
}
