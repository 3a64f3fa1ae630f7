//! **Fig. 15** — SSTable generation-time spans vs a queried range, rendered
//! from real engine state.
//!
//! The paper's Fig. 15 is an illustration: under `π_c` more (and wider)
//! level-1 SSTables overlap a historical query window than under `π_s`.
//! This binary reproduces the picture from data: it ingests a disordered
//! dataset into the production-style tiered engine under both policies and
//! draws each on-disk table as a horizontal segment against the query
//! window, counting the overlaps.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig15 -- [--points N] [--seed S] [--window MS]
//! ```

use seplsm_bench::{args, report};
use seplsm_lsm::{EngineConfig, TieredEngine, TieredOpenOptions};
use seplsm_types::{Policy, TimeRange};
use seplsm_workload::paper_dataset;

const WIDTH: usize = 64;

fn render(
    label: &str,
    engine: &TieredEngine,
    query: TimeRange,
    lo: i64,
    hi: i64,
) -> usize {
    let scale = |t: i64| -> usize {
        (((t - lo) as f64 / (hi - lo).max(1) as f64) * WIDTH as f64)
            .clamp(0.0, WIDTH as f64) as usize
    };
    println!("\n{label}: tables intersecting the view (query marked with |):");
    let (q0, q1) = (
        scale(query.start),
        scale(query.end).max(scale(query.start) + 1),
    );
    let mut overlaps = 0usize;
    for (level, range, count) in engine.table_layout() {
        if range.end < lo || range.start > hi {
            continue;
        }
        let (s, e) = (scale(range.start.max(lo)), scale(range.end.min(hi)));
        let mut line: Vec<char> = vec![' '; WIDTH + 1];
        for cell in line.iter_mut().take(e.max(s + 1)).skip(s) {
            *cell = '=';
        }
        line[q0] = '|';
        line[q1.min(WIDTH)] = '|';
        let hit = range.overlaps(&query);
        if hit {
            overlaps += 1;
        }
        println!(
            "  {:>3} {:>5}pts [{}] {}",
            level,
            count,
            line.iter().collect::<String>(),
            if hit { "<- overlaps query" } else { "" }
        );
    }
    println!("  => {overlaps} tables must be read for this query");
    overlaps
}

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 40_000);
    let seed: u64 = args::flag_or("seed", 15);
    let window: i64 = args::flag_or("window", 2_000);

    let ds = paper_dataset("M12").expect("exists");
    let dataset = ds.workload(points, seed).generate();
    report::banner(
        "Fig. 15: SSTable spans vs a historical query window (dataset M12)",
    );

    // A window in the recent third of the key space, where uncompacted
    // level-1 files linger.
    let max_gen = dataset.iter().map(|p| p.gen_time).max().expect("points");
    let query = TimeRange::new(max_gen * 3 / 4, max_gen * 3 / 4 + window);
    // Render a view around the query so the segments are readable.
    let view_lo = query.start - 40 * window;
    let view_hi = query.end + 10 * window;

    let mut counts = Vec::new();
    for (label, policy) in [
        ("pi_c", Policy::conventional(512)),
        ("pi_s (n_seq=256)", Policy::separation(512, 256)?),
    ] {
        let mut engine = TieredOpenOptions::new(
            EngineConfig::new(policy).with_sstable_points(512),
        )
        .sync_flush()
        .open()?;
        for p in &dataset {
            engine.append(*p)?;
        }
        counts.push((label, render(label, &engine, query, view_lo, view_hi)));
    }
    println!(
        "\nthe paper's Fig. 15 contrast: {} overlapping tables under {} vs {} under {}",
        counts[0].1, counts[0].0, counts[1].1, counts[1].0
    );
    Ok(())
}
