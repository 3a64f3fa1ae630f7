//! **Trace run** — one instrumented ingest with the observability layer
//! attached: prints the aggregate event table and (with `--trace`) writes
//! the full typed event stream as JSONL. The table counts events and the
//! trace numbers them by sequence alone, with no clock, so two runs with
//! the same `--seed` produce byte-identical traces — the property
//! `scripts/ci.sh` checks.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin trace_run -- \
//!     [--points N] [--seed S] [--budget N] [--nseq N] [--sstable N] \
//!     [--trace out.jsonl] [--json out.json]
//! ```

use seplsm_bench::{args, drive, report};
use seplsm_dist::LogNormal;
use seplsm_lsm::EngineConfig;
use seplsm_types::Policy;
use seplsm_workload::SyntheticWorkload;

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 50_000);
    let seed: u64 = args::flag_or("seed", 1);
    let budget: usize = args::flag_or("budget", 512);
    let nseq: usize = args::flag_or("nseq", 0);
    let sstable: usize = args::flag_or("sstable", 512);
    let trace = args::flag("trace").map(std::path::PathBuf::from);

    let policy = if nseq > 0 {
        Policy::separation(budget, nseq)?
    } else {
        Policy::conventional(budget)
    };
    let dataset =
        SyntheticWorkload::new(50, LogNormal::new(4.0, 1.5), points, seed)
            .generate();

    report::banner("trace run: instrumented ingest");
    let (metrics, aggregate) = drive::measure_wa_traced(
        &dataset,
        EngineConfig::new(policy).with_sstable_points(sstable),
        trace.as_deref(),
    )?;
    println!("policy:              {}", policy.name());
    println!("user points:         {}", metrics.user_points);
    println!("write amplification: {:.3}", metrics.write_amplification());
    println!();
    print!("{}", aggregate.render_table());
    if let Some(path) = &trace {
        eprintln!("trace written to {}", path.display());
    }

    report::write_json(&serde_json::json!({
        "policy": policy.name(),
        "user_points": metrics.user_points,
        "write_amplification": metrics.write_amplification(),
        "flush_points": aggregate.flush_points,
        "compaction_rewritten": aggregate.compaction_rewritten,
        "stalls": aggregate.stalls,
    }))
}
