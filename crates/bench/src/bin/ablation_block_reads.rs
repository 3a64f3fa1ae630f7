//! **Ablation** — storage format and read granularity.
//!
//! Compares the v1 flat format against the v2 compressed-block format on
//! encoded size, and chunk-granularity (whole-table) reads against
//! block-granular reads on read amplification — quantifying how much of the
//! paper's read-amplification discussion is an artefact of IoTDB's
//! chunk-granularity reads.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin ablation_block_reads -- [--points N] [--seed S]
//! ```

use std::sync::Arc;

use seplsm_bench::{args, report};
use seplsm_lsm::sstable::format::{encode, encode_with, EncodeOptions};
use seplsm_lsm::{EngineConfig, MemStore, OpenOptions};
use seplsm_types::{Policy, TimeRange};
use seplsm_workload::{paper_dataset, VehicleWorkload};

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 60_000);
    let seed: u64 = args::flag_or("seed", 42);

    report::banner("Ablation (a): encoded bytes per point, v1 vs v2");
    let mut rows = Vec::new();
    for (name, dataset) in [
        (
            "M6 (lognormal)",
            paper_dataset("M6")
                .expect("exists")
                .workload(points, seed)
                .generate(),
        ),
        ("H (vehicle)", VehicleWorkload::new(points, seed).generate()),
    ] {
        let mut sorted = dataset.clone();
        sorted.sort();
        let v1: usize = sorted
            .chunks(512)
            .map(|c| encode(c).expect("v1").len())
            .sum();
        let v2: usize = sorted
            .chunks(512)
            .map(|c| {
                encode_with(c, &EncodeOptions::compressed())
                    .expect("v2")
                    .len()
            })
            .sum();
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", v1 as f64 / sorted.len() as f64),
            format!("{:.2}", v2 as f64 / sorted.len() as f64),
            format!("{:.2}x", v1 as f64 / v2 as f64),
        ]);
    }
    report::print_table(&["dataset", "v1 B/pt", "v2 B/pt", "ratio"], &rows);

    report::banner("Ablation (b): read granularity vs read amplification");
    let dataset = paper_dataset("M6")
        .expect("exists")
        .workload(points, seed)
        .generate();
    let mut rows = Vec::new();
    for (label, block_reads) in
        [("whole-table", false), ("block (128 pts)", true)]
    {
        let mut config = EngineConfig::new(Policy::conventional(512));
        if block_reads {
            config = config.with_block_reads();
        }
        let store =
            Arc::new(MemStore::with_options(EncodeOptions::compressed()));
        let mut engine = OpenOptions::new(config).store(store).open()?;
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
