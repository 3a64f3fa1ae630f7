//! Shared vocabulary types for the `seplsm` workspace.
//!
//! This crate defines the data model used across the storage engine
//! (`seplsm-lsm`), the write-amplification models (`seplsm-core`) and the
//! workload generators (`seplsm-workload`):
//!
//! * [`DataPoint`] — the time-series data point of the paper's Definition 1:
//!   a `(generation time, arrival time, value)` triple.
//! * [`TimeRange`] — closed intervals over generation time, used for SSTable
//!   key ranges and range queries.
//! * [`Policy`] — the two buffering policies compared by the paper: the
//!   conventional single-MemTable policy `π_c` and the separation policy
//!   `π_s(n_seq)`.
//! * [`Error`] / [`Result`] — the shared error type.
//!
//! Timestamps are `i64` milliseconds ([`Timestamp`]); generation timestamps
//! are unique within a series and identify a point (paper §II).

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod error;
pub mod point;
pub mod policy;

pub use error::{Error, Result};
pub use point::{DataPoint, Timestamp};
pub use policy::{Policy, TimeRange};
