//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index). They share:
//!
//! * [`args`] — a tiny `--flag value` CLI parser (no external deps) so every
//!   experiment can be scaled (`--points`, `--seed`) or exported
//!   (`--json out.json`);
//! * [`drive`] — experiment drivers: ingest a dataset under an engine
//!   config and collect WA metrics, run the query workloads and the sweep
//!   of Figs. 12–14, measure tiered-engine throughput, run the adaptive
//!   engine;
//! * [`report`] — aligned-table printing, the tables two or more figures
//!   share, and JSON export.

pub mod args;
pub mod drive;
pub mod report;
