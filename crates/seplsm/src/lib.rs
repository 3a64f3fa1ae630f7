//! `seplsm` — a Rust reproduction of *"Separation or Not: On Handling
//! Out-of-Order Time-Series Data in Leveled LSM-Tree"* (ICDE 2022).
//!
//! This facade re-exports the whole public API:
//!
//! * [`types`] — data points, time ranges, policies, errors.
//! * [`dist`] — delay distributions, special functions, quadrature, stats.
//! * [`lsm`] — the leveled LSM storage engine (`π_c` / `π_s` write paths,
//!   SSTables, WAL, background compaction, instrumentation).
//! * [`model`] — the paper's contribution: `ζ(n)`, `g(·)`, `r_c`,
//!   `r_s(n_seq)`, Algorithm 1, the delay analyzer and `π_adaptive`.
//! * [`workload`] — the paper's datasets (M1–M12, S-9, H) and query loads.
//!
//! The most common items are additionally re-exported at the crate root.
//!
//! ```
//! use seplsm::{DataPoint, EngineConfig, OpenOptions, Policy};
//!
//! let mut engine =
//!     OpenOptions::new(EngineConfig::new(Policy::conventional(512))).open()?;
//! engine.append(DataPoint::new(0, 3, 21.5))?;
//! assert_eq!(engine.scan_all()?.len(), 1);
//! # Ok::<(), seplsm::Error>(())
//! ```

pub use seplsm_core as model;
pub use seplsm_dist as dist;
pub use seplsm_lsm as lsm;
pub use seplsm_types as types;
pub use seplsm_workload as workload;

pub use seplsm_core::{
    tune, AdaptiveConfig, AdaptiveEngine, AdaptiveOpen, AnalyzerConfig,
    DelayAnalyzer, FleetAdaptiveEngine, ReadCostModel, TunerOptions,
    TuningOutcome, WaModel, ZetaConfig, ZetaModel,
};
pub use seplsm_dist::{DelayDistribution, Empirical, LogNormal};
pub use seplsm_lsm::{
    sync_dir, AdmissionController, AdmissionDecision, AdmissionDepth,
    AdmissionOutcome, AdmissionStats, Agg, AggregateReport, AggregateSink,
    Arbiter, ArbiterConfig, ArbiterStats, BlockCache, Bucket, CacheConfig,
    CachePriority, Clock, DegradedOp, DegradedReason, DegradedState, DiskModel,
    EncodeOptions, EngineConfig, Event, FanoutSink, Fault, FaultPlan,
    FaultStore, FileStore, Histogram, IoOp, IoPacer, JsonlSink, LogicalClock,
    LsmEngine, Manifest, ManifestEdit, ManifestRecordKind, ManifestStats,
    MemStore, MultiOpenOptions, MultiSeriesEngine, Observer, ObserverHandle,
    OpenOptions, PaceDecision, PacerStats, QuarantinedTable, QueryStats,
    Rebalance, RecoveryMode, RecoveryOptions, RecoveryReport, RecoveryStepKind,
    RetryBackoff, RingBufferSink, SeriesAssignment, SeriesId, TableStore,
    TieredEngine, TieredOpenOptions, TieredReport, Wal, WalStats, Watermarks,
};
pub use seplsm_types::{
    DataPoint, Error, Policy, Result, TimeRange, Timestamp,
};
pub use seplsm_workload::{
    paper_dataset, AggQuery, AggregationWorkload, DynamicWorkload,
    HistoricalQueries, PaperDataset, RecentQueries, S9Workload,
    SyntheticWorkload, VehicleWorkload, PAPER_DATASETS,
};

/// The working set for typical programs: engine configuration, the three
/// `OpenOptions` builders, observability sinks, and the core value types.
///
/// ```
/// use seplsm::prelude::*;
///
/// let sink = RingBufferSink::new(1024);
/// let mut engine =
///     OpenOptions::new(EngineConfig::new(Policy::conventional(512)))
///         .observer(sink.clone())
///         .open()?;
/// engine.append(DataPoint::new(0, 3, 21.5))?;
/// engine.flush_all()?;
/// assert!(sink.events().iter().any(|e| matches!(
///     e,
///     Event::PointClassified { in_order: true }
/// )));
/// # Ok::<(), seplsm::Error>(())
/// ```
pub mod prelude {
    pub use seplsm_lsm::{
        AggregateSink, EngineConfig, Event, FileStore, JsonlSink, LsmEngine,
        MemStore, MultiOpenOptions, MultiSeriesEngine, Observer, OpenOptions,
        RecoveryOptions, RingBufferSink, SeriesId, TableStore, TieredEngine,
        TieredOpenOptions,
    };
    pub use seplsm_types::{
        DataPoint, Error, Policy, Result, TimeRange, Timestamp,
    };
}

/// The README's snippets, compiled (and, unless `no_run`, run) as doc-tests
/// so they cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
