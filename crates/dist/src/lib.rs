//! Delay distributions and numerical machinery for the `seplsm` workspace.
//!
//! The paper's write-amplification models take the delay distribution of the
//! workload as input: its PDF `f(x)`, CDF `F(x)` and (for robust numerical
//! integration) its quantile function `F⁻¹(q)`. This crate provides:
//!
//! * [`DelayDistribution`] — the common interface (PDF/CDF/survival/quantile/
//!   sampling), implemented by the parametric families used in the paper's
//!   experiments ([`LogNormal`] foremost — all synthetic datasets M1–M12 use
//!   lognormal delays) plus [`Exponential`], [`Normal`], [`Uniform`],
//!   [`Pareto`], [`Constant`], [`Shifted`] and weighted [`Mixture`]
//!   distributions for building the S-9 / H style workloads.
//! * [`Empirical`] — a distribution fitted from observed delay samples, the
//!   backbone of the delay analyzer (§I-D): the analyzer collects delays and
//!   evaluates the models on their empirical distribution.
//! * [`quadrature`] — Gauss–Legendre rules and adaptive Simpson integration;
//!   [`quadrature::expectation`] evaluates `∫ f(x)·h(x) dx` by quantile
//!   substitution so heavy-tailed delay laws stay well conditioned.
//! * [`special`] — in-repo erf/normal-CDF/inverse-normal-CDF (no external
//!   special-function crates).
//! * [`stats`] — histograms, two-sample Kolmogorov–Smirnov distance (drift
//!   detection in the analyzer), the autocorrelation function used by the
//!   paper's Fig. 16(a), and misc descriptive statistics.

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod distribution;
pub mod empirical;
pub mod parametric;
pub mod quadrature;
pub mod special;
pub mod stats;

pub use distribution::DelayDistribution;
pub use empirical::Empirical;
pub use parametric::{
    Constant, Exponential, LogNormal, Mixture, Normal, Pareto, Shifted,
    Uniform, Weibull,
};
