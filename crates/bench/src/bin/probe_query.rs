//! Diagnostic probe (not a paper figure): per-query statistics of the
//! recent-data workload on the tiered engine, for calibrating the
//! query-experiment defaults.

use seplsm_bench::args;
use seplsm_lsm::{EngineConfig, TieredOpenOptions};
use seplsm_types::Policy;
use seplsm_workload::{paper_dataset, RecentQueries};

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 20_000);
    let name = args::flag("dataset").unwrap_or_else(|| "M1".into());
    let window: i64 = args::flag_or("window", 5_000);
    let every: u64 = args::flag_or("every", 500);
    let n_seq: usize = args::flag_or("nseq", 0);

    let ds = paper_dataset(&name).expect("dataset");
    let dataset = ds.workload(points, 12).generate();
    let policy = if n_seq == 0 {
        Policy::conventional(512)
    } else {
        Policy::separation(512, n_seq)?
    };
    let mut engine = TieredOpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(512),
    )
    .open()?;
    let q = RecentQueries::new(window, every);
    let mut hits = 0u32;
    let mut total = 0u32;
    for (i, p) in dataset.iter().enumerate() {
        engine.append(*p)?;
        if q.due(i as u64 + 1) {
            let max = engine.max_gen_time().expect("written");
            let (_, stats) = engine.query(q.range(max))?;
            total += 1;
            if stats.tables_read > 0 {
                hits += 1;
            }
            if total > 25 {
                println!(
                    "q{total:>3}: tables={} disk={} mem={} ret={}",
                    stats.tables_read,
                    stats.disk_points_scanned,
                    stats.mem_points_scanned,
                    stats.points_returned
                );
            }
        }
    }
    println!("queries touching disk: {hits}/{total}");
    Ok(())
}
