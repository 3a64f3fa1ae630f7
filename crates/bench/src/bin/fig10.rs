//! **Fig. 10** — WA over time under a dynamic delay distribution:
//! `π_c` vs `π_s(½n)` (IoTDB's untuned split) vs `π_adaptive`.
//!
//! The workload is the paper's: lognormal delays with μ=5 and σ stepping
//! 2 → 1.75 → 1.5 → 1.25 → 1 across five equal segments, Δt = 50. The WA
//! series is snapshotted every 512 user points and smoothed with a sliding
//! window, then summarised per segment.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig10 -- [--segment N] [--seed S] [--json out.json]
//! ```

use seplsm_bench::{args, drive, report};
use seplsm_core::AdaptiveConfig;
use seplsm_dist::stats::sliding_mean;
use seplsm_lsm::{EngineConfig, Metrics};
use seplsm_types::Policy;
use seplsm_workload::DynamicWorkload;

fn segment_means(metrics: &Metrics, segments: usize) -> Vec<f64> {
    let wa = sliding_mean(&metrics.windowed_wa(), 16);
    let per = (wa.len() / segments).max(1);
    (0..segments)
        .map(|s| {
            let lo = s * per;
            let hi = ((s + 1) * per).min(wa.len());
            if lo >= hi {
                0.0
            } else {
                wa[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            }
        })
        .collect()
}

fn main() -> seplsm_types::Result<()> {
    let segment: usize = args::flag_or("segment", 80_000);
    let seed: u64 = args::flag_or("seed", 10);
    let n = 512usize;
    let sstable = 512usize;
    let snapshot = 512u64;

    let workload = DynamicWorkload::paper_fig10(segment, seed);
    let dataset = workload.generate();

    report::banner(
        "Fig. 10: WA under dynamic delays (sigma 2 -> 1.75 -> 1.5 -> 1.25 -> 1)",
    );
    let config = |policy| {
        EngineConfig::new(policy)
            .with_sstable_points(sstable)
            .with_wa_snapshots(snapshot)
    };
    let conventional =
        drive::measure_wa(&dataset, config(Policy::conventional(n)))?;
    let half =
        drive::measure_wa(&dataset, config(Policy::separation_even(n)?))?;
    let (adaptive, tunes) = drive::measure_adaptive(
        &dataset,
        config(Policy::conventional(n)),
        AdaptiveConfig::new(),
    )?;

    let seg_c = segment_means(&conventional, 5);
    let seg_h = segment_means(&half, 5);
    let seg_a = segment_means(&adaptive, 5);
    let mut rows = Vec::new();
    for s in 0..5 {
        rows.push(vec![
            format!("sigma={}", [2.0, 1.75, 1.5, 1.25, 1.0][s]),
            report::f3(seg_c[s]),
            report::f3(seg_h[s]),
            report::f3(seg_a[s]),
        ]);
    }
    rows.push(vec![
        "overall".into(),
        report::f3(conventional.write_amplification()),
        report::f3(half.write_amplification()),
        report::f3(adaptive.write_amplification()),
    ]);
    report::print_table(
        &["segment", "pi_c", "pi_s(n/2)", "pi_adaptive"],
        &rows,
    );

    println!("\nadaptive tuning decisions:");
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
        "segments": ["2", "1.75", "1.5", "1.25", "1"],
        "pi_c": {"per_segment": seg_c, "overall": conventional.write_amplification()},
        "pi_s_half": {"per_segment": seg_h, "overall": half.write_amplification()},
        "pi_adaptive": {"per_segment": seg_a, "overall": adaptive.write_amplification()},
        "tunes": report::tunes_json(&tunes),
    }))
}
