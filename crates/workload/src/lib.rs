//! Workload generators reproducing the paper's datasets and query loads.
//!
//! * [`synthetic`] — grid-generated time series with i.i.d. delays; the
//!   twelve synthetic datasets **M1–M12** of Table II are in [`datasets`].
//! * [`s9`] — a simulator of the real-world **S-9** dataset (Weiss et al.):
//!   mobile-device → server transmissions with a heavy straggler tail and
//!   (for the robustness experiment of Fig. 18) irregular generation
//!   intervals.
//! * [`vehicle`] — a simulator of the industrial-partner dataset **H**
//!   (§VI): vehicle telemetry at 1 s resolution where network outages
//!   buffer points on-device and a periodic re-send flushes them in a
//!   batch, producing systematic ≈5×10⁴ ms delays and autocorrelation.
//! * [`dynamic`] — piecewise-distribution streams for the adaptive
//!   experiments (Figs. 10, 17).
//! * [`queries`] — the recent-data and historical query workloads of
//!   §V-D.
//! * [`aggregation`] — the windowed-aggregation query mix over bursty
//!   out-of-order arrivals that exercises the v3 aggregation pushdown.
//!
//! All generators are seeded and deterministic: the same configuration
//! always produces the same dataset.

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod aggregation;
pub mod datasets;
pub mod dynamic;
pub mod queries;
pub mod s9;
pub mod synthetic;
pub mod vehicle;

pub use aggregation::{AggQuery, AggregationWorkload};
pub use datasets::{paper_dataset, PaperDataset, PAPER_DATASETS};
pub use dynamic::DynamicWorkload;
pub use queries::{HistoricalQueries, RecentQueries, PAPER_WINDOWS_MS};
pub use s9::S9Workload;
pub use synthetic::{fraction_out_of_order, SyntheticWorkload};
pub use vehicle::VehicleWorkload;
