//! **Fig. 9** — WA under `π_s` across `n_seq` (plus the `π_c` reference) on
//! the twelve synthetic datasets M1–M12, model vs experiment.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig09 -- \
//!     [--points N] [--seed S] [--datasets M1,M5,M12] [--json out.json]
//! ```

use std::sync::Arc;

use seplsm_bench::{args, drive, report};
use seplsm_core::WaModel;
use seplsm_lsm::EngineConfig;
use seplsm_types::Policy;
use seplsm_workload::{paper_dataset, PAPER_DATASETS};

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 120_000);
    let seed: u64 = args::flag_or("seed", 9);
    let n = 512usize;
    let sstable = 512usize;
    let n_seq_grid = [50usize, 100, 150, 200, 250, 300, 350, 400, 450];

    let selected: Vec<_> = match args::flag("datasets") {
        Some(list) => list
            .split(',')
            .map(|name| {
                paper_dataset(name.trim())
                    .unwrap_or_else(|| panic!("unknown dataset {name}"))
            })
            .collect(),
        None => PAPER_DATASETS.to_vec(),
    };

    report::banner("Fig. 9: WA on M1-M12, model vs experiment (n=512)");
    let mut json = Vec::new();
    for ds in selected {
        let dataset = ds.workload(points, seed).generate();
        let model =
            WaModel::new(Arc::new(ds.distribution()), ds.delta_t as f64, n);

        let wa = |policy| -> seplsm_types::Result<f64> {
            let config = EngineConfig::new(policy).with_sstable_points(sstable);
            Ok(drive::measure_wa(&dataset, config)?.write_amplification())
        };
        let rc_measured = wa(Policy::conventional(n))?;
        let rc_model = model.wa_conventional();
        println!(
            "\n{} (dt={}, mu={}, sigma={}):  pi_c measured {:.3} | model {:.3}",
            ds.name, ds.delta_t, ds.mu, ds.sigma, rc_measured, rc_model
        );

        let mut rows = Vec::new();
        let mut curve = Vec::new();
        for &n_seq in &n_seq_grid {
            let est = model.wa_separation(n_seq)?;
            let measured = wa(Policy::separation(n, n_seq)?)?;
            rows.push(vec![
                n_seq.to_string(),
                report::f3(measured),
                report::f3(est.wa),
            ]);
            curve.push(serde_json::json!({
                "n_seq": n_seq,
                "measured_wa": measured,
                "model_r_s": est.wa,
            }));
        }
        report::print_table(&["n_seq", "measured", "r_s model"], &rows);
        json.push(serde_json::json!({
            "dataset": ds.name,
            "r_c": {"measured": rc_measured, "model": rc_model},
            "r_s": curve,
        }));
    }
    report::write_json(&serde_json::json!(json))
}
