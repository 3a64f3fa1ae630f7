//! **Fig. 14** — query latency of the *historical* query workload on M1–M12,
//! `π_c` vs `π_s` (recommended capacities), on the simulated HDD.
//!
//! The paper's finding: for historical ranges, `π_c` leaves many overlapping
//! level-1 SSTables covering the same period (Fig. 15), so `π_s` closes the
//! gap and sometimes wins on the heavily disordered datasets (M6, M11, M12);
//! on nearly-in-order datasets the small-SSTable overhead of `π_s` dominates.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin fig14 -- [--points N] [--seed S] [--json out.json]
//! ```

use seplsm_bench::drive::{query_sweep, Queries};
use seplsm_bench::{args, report};

fn main() -> seplsm_types::Result<()> {
    let points: usize = args::flag_or("points", 60_000);
    let seed: u64 = args::flag_or("seed", 14);

    report::banner(
        "Fig. 14: historical query latency (ns, simulated HDD), M1-M12",
    );
    let cells =
        query_sweep(points, seed, Queries::Historical { count: 200, seed })?;
    report::write_json(&report::query_latency(&cells))
}
