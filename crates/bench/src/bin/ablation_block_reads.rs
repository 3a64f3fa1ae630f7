//! **Ablation** — storage format and read granularity.
//!
//! Reports the encoded size of the table format the engine writes (v3)
//! beside what the two formats it only reads cost on the same data when
//! they could still be written (measured at PR 23, `--points 60000 --seed
//! 42`; the numbers are history, not recomputed), and compares
//! chunk-granularity (whole-table) reads against block-granular reads on
//! read amplification — quantifying how much of the paper's
//! read-amplification discussion is an artefact of IoTDB's chunk-granularity
//! reads.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin ablation_block_reads -- [--points N] [--seed S]
//! ```

use seplsm_bench::{args, report};
use seplsm_lsm::sstable::format::{encode_with, EncodeOptions};
use seplsm_lsm::{EngineConfig, OpenOptions};
use seplsm_types::{Policy, TimeRange};
use seplsm_workload::{paper_dataset, VehicleWorkload};

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 60_000);
    let seed: u64 = args::flag_or("seed", 42);

    report::banner("Ablation (a): encoded bytes per point, 512-point tables");
    let mut rows = Vec::new();
    // (dataset, points, v1 B/pt, v2 B/pt as last measured).
    for (name, dataset, v1, v2) in [
        (
            "M6 (lognormal)",
            paper_dataset("M6")
                .expect("exists")
                .workload(points, seed)
                .generate(),
            10.75,
            11.10,
        ),
        (
            "H (vehicle)",
            VehicleWorkload::new(points, seed).generate(),
            12.08,
            3.58,
        ),
    ] {
        let mut sorted = dataset;
        sorted.sort();
        let v3: usize = sorted
            .chunks(512)
            .map(|c| {
                encode_with(c, &EncodeOptions::default()).expect("v3").len()
            })
            .sum();
        rows.push(vec![
            name.to_string(),
            format!("{v1:.2}"),
            format!("{v2:.2}"),
            format!("{:.2}", v3 as f64 / sorted.len() as f64),
        ]);
    }
    report::print_table(
        &["dataset", "v1 B/pt (PR 23)", "v2 B/pt (PR 23)", "v3 B/pt"],
        &rows,
    );

    report::banner("Ablation (b): read granularity vs read amplification");
    let dataset = paper_dataset("M6")
        .expect("exists")
        .workload(points, seed)
        .generate();
    let mut rows = Vec::new();
    for (label, block_reads) in
        [("whole-table", false), ("block (10 s grid)", true)]
    {
        let mut config = EngineConfig::new(Policy::conventional(512));
        if block_reads {
            config = config.with_block_reads();
        }
        let mut engine = OpenOptions::new(config).open()?;
        for p in &dataset {
            engine.append(*p)?;
        }
        // 200 interior windows of 5000 ms.
        let max = engine.max_gen_time().expect("points");
        let mut scanned = 0u64;
        let mut returned = 0u64;
        let mut blocks = 0u64;
        for i in 0..200i64 {
            let lo = (i * 7919) % (max - 5_000).max(1);
            let (_, stats) = engine.query(TimeRange::new(lo, lo + 5_000))?;
            scanned += stats.disk_points_scanned;
            returned += stats.points_returned;
            blocks += stats.blocks_read;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", scanned as f64 / returned.max(1) as f64),
            blocks.to_string(),
        ]);
    }
    report::print_table(&["granularity", "read amp", "blocks read"], &rows);
    println!(
        "\nblock-granular reads collapse read amplification toward 1, which \
         is why the paper's Fig. 12 contrast depends on chunk-width reads"
    );
    Ok(())
}
