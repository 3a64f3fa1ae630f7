//! **Fig. 13** — query latency of the recent-data workload on M1–M12,
//! `π_c` vs `π_s` (recommended capacities), on the simulated HDD.
//!
//! The paper's finding: despite the lower read amplification of `π_s`
//! (Fig. 12), its smaller SSTables mean more files per query, and on an HDD
//! the extra seeks usually make recent-data queries *slower* under `π_s`.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig13 -- [--points N] [--seed S] [--json out.json]
//! ```

use seplsm_bench::drive::{query_sweep, Queries};
use seplsm_bench::{args, report};

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 60_000);
    let seed: u64 = args::flag_or("seed", 13);

    report::banner(
        "Fig. 13: recent-data query latency (ns, simulated HDD), M1-M12",
    );
    let cells = query_sweep(points, seed, Queries::Recent { every: 500 })?;
    report::write_json(&report::query_latency(&cells))
}
