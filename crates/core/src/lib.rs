//! The paper's primary contribution: write-amplification models for the
//! conventional (`π_c`) and separation (`π_s`) buffering policies of a
//! leveled LSM-tree, the policy-tuning algorithm built on them, and the
//! online delay analyzer that drives `π_adaptive`.
//!
//! From *"Separation or Not: On Handling Out-of-Order Time-Series Data in
//! Leveled LSM-Tree"* (ICDE 2022):
//!
//! | Paper artefact | Here |
//! |---|---|
//! | Eq. 1 — arrival-rate ratio `g(·)` | [`ArrivalRatioModel`] |
//! | Eq. 2 — subsequent-point count `ζ(n)` | [`ZetaModel`] |
//! | Eq. 3 — `r_c = ζ(n)/n + 1` | [`WaModel::wa_conventional`] |
//! | Eq. 4/5 — `N_arrive`, `r_s(n_seq)` | [`WaModel::wa_separation`] |
//! | Algorithm 1 — policy tuning | [`tune`] |
//! | Delay analyzer (§I-D, §VI) | [`DelayAnalyzer`] |
//! | `π_adaptive` (Figs. 10, 17) | [`AdaptiveEngine`] |
//!
//! # Choosing a policy for a workload
//!
//! ```
//! use std::sync::Arc;
//! use seplsm_core::{tune, TunerOptions, WaModel};
//! use seplsm_dist::LogNormal;
//!
//! // Lognormal delays (mu = 5, sigma = 2), points generated every 50 ms,
//! // memory budget of 512 points — the paper's Fig. 7 setting.
//! let model = WaModel::new(Arc::new(LogNormal::new(5.0, 2.0)), 50.0, 512);
//! let outcome = tune(&model, TunerOptions::default())?;
//! println!(
//!     "r_c = {:.3}, min r_s = {:.3} at n_seq = {} -> {}",
//!     outcome.r_c,
//!     outcome.r_s_star,
//!     outcome.best_n_seq,
//!     outcome.decision.name(),
//! );
//! # Ok::<(), seplsm_types::Error>(())
//! ```

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod adaptive;
pub mod analyzer;
pub mod arrival;
pub mod fleet;
pub mod read;
pub mod tuner;
pub mod wa;
pub mod zeta;

pub use adaptive::{AdaptiveConfig, AdaptiveEngine, AdaptiveOpen, TuneRecord};
pub use analyzer::{AnalyzerConfig, AnalyzerEvent, DelayAnalyzer};
pub use arrival::ArrivalRatioModel;
pub use fleet::FleetAdaptiveEngine;
pub use read::{HistoricalQueryEstimate, ReadCostModel, RecentQueryEstimate};
pub use tuner::{tune, TunerOptions, TuningOutcome};
pub use wa::{SeparationEstimate, WaModel};
pub use zeta::{GapModel, ZetaConfig, ZetaModel};
