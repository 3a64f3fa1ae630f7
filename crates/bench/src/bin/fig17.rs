//! **Fig. 17** — robustness when delays follow *no single distribution*:
//! (a) the per-segment delay profile of the stream; (b) WA of `π_c`,
//! `π_s(½n)` and `π_adaptive` while ingesting it.
//!
//! The stream chains five structurally different delay laws (lognormal,
//! exponential, uniform, straggler-mixture, mild lognormal). The adaptive
//! analyzer must detect each change and re-tune.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig17 -- [--segment N] [--seed S] [--json out.json]
//! ```

use seplsm_bench::{args, drive, report};
use seplsm_core::AdaptiveConfig;
use seplsm_lsm::EngineConfig;
use seplsm_types::Policy;
use seplsm_workload::DynamicWorkload;

fn main() -> seplsm_types::Result<()> {
    let segment: usize = args::flag_or("segment", 60_000);
    let seed: u64 = args::flag_or("seed", 17);
    let n = 512usize;
    let sstable = 512usize;

    let workload = DynamicWorkload::paper_fig17(segment, seed);
    let dataset = workload.generate();

    report::banner("Fig. 17(a): per-segment delay profile");
    let labels: Vec<String> =
        workload.segments.iter().map(|(_, d)| d.label()).collect();
    let mut rows = Vec::new();
    let bounds = workload.boundaries();
    for (i, label) in labels.iter().enumerate() {
        let lo_tg = if i == 0 { 0 } else { bounds[i - 1] as i64 * 50 };
        let hi_tg = bounds[i] as i64 * 50;
        let delays: Vec<f64> = dataset
            .iter()
            .filter(|p| p.gen_time > lo_tg && p.gen_time <= hi_tg)
            .map(|p| p.delay() as f64)
            .collect();
        let mean = seplsm_dist::stats::mean(&delays);
        let sd = seplsm_dist::stats::stddev(&delays);
        rows.push(vec![
            format!("segment {}", i + 1),
            label.clone(),
            report::f1(mean),
            report::f1(sd),
        ]);
    }
    report::print_table(
        &["segment", "delay law", "mean(ms)", "std(ms)"],
        &rows,
    );

    report::banner("Fig. 17(b): WA while ingesting the mixed stream");
    let config =
        |policy| EngineConfig::new(policy).with_sstable_points(sstable);
    let conventional =
        drive::measure_wa(&dataset, config(Policy::conventional(n)))?;
    let half =
        drive::measure_wa(&dataset, config(Policy::separation_even(n)?))?;
    let (adaptive, tunes) = drive::measure_adaptive(
        &dataset,
        config(Policy::conventional(n)),
        AdaptiveConfig::new(),
    )?;
    report::print_table(
        &["strategy", "WA"],
        &[
            vec![
                "pi_c".into(),
                report::f3(conventional.write_amplification()),
            ],
            vec!["pi_s(n/2)".into(), report::f3(half.write_amplification())],
            vec![
                "pi_adaptive".into(),
                report::f3(adaptive.write_amplification()),
            ],
        ],
    );
    println!("\nadaptive decisions ({}):", tunes.len());
    for t in &tunes {
        println!(
            "  at {:>9} points: r_c={:.3} r_s*={:.3} -> {}",
            t.at_user_points,
            t.r_c,
            t.r_s_star,
            t.decision.name()
        );
    }

    report::write_json(&serde_json::json!({
        "segments": labels,
        "pi_c": conventional.write_amplification(),
        "pi_s_half": half.write_amplification(),
        "pi_adaptive": adaptive.write_amplification(),
        "tunes": report::tunes_json(&tunes),
    }))
}
