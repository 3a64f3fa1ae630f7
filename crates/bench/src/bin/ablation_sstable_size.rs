//! **Ablation** — SSTable size vs write amplification and model accuracy.
//!
//! The WA models count *subsequent points* while the engine rewrites whole
//! SSTables, so the model-vs-measurement gap should shrink as tables get
//! smaller (finer rewrite granularity) and grow as they get bigger. This
//! ablation quantifies that, sweeping the table size on a fixed workload.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin ablation_sstable_size -- [--points N] [--seed S]
//! ```

use std::sync::Arc;

use seplsm_bench::{args, drive, report};
use seplsm_core::WaModel;
use seplsm_lsm::EngineConfig;
use seplsm_types::Policy;
use seplsm_workload::paper_dataset;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 120_000);
    let seed: u64 = args::flag_or("seed", 41);
    let n = 512usize;

    let ds = paper_dataset("M6").expect("exists");
    let dataset = ds.workload(points, seed).generate();
    let model = WaModel::new(Arc::new(ds.distribution()), ds.delta_t as f64, n);
    let rc_model = model.wa_conventional();
    let rs_model = model.wa_separation(256)?.wa;

    report::banner("Ablation: SSTable size vs WA (dataset M6, n=512)");
    println!("model predictions (size-independent): r_c={rc_model:.3}, r_s(256)={rs_model:.3}");
    let mut rows = Vec::new();
    for sstable in [64usize, 128, 256, 512, 1024, 2048] {
        let wa = |policy| -> seplsm_types::Result<f64> {
            let config = EngineConfig::new(policy).with_sstable_points(sstable);
            Ok(drive::measure_wa(&dataset, config)?.write_amplification())
        };
        let wa_c = wa(Policy::conventional(n))?;
        let wa_s = wa(Policy::separation(n, 256)?)?;
        rows.push(vec![
            sstable.to_string(),
            report::f3(wa_c),
            report::f3(wa_c - rc_model),
            report::f3(wa_s),
            report::f3(wa_s - rs_model),
        ]);
    }
    report::print_table(
        &["sstable_pts", "pi_c WA", "gap_c", "pi_s WA", "gap_s"],
        &rows,
    );
    println!(
        "\nexpectation: gaps shrink as tables shrink (rewrite granularity \
         approaches the models' per-point accounting)"
    );
    Ok(())
}
