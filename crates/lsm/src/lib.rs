//! A leveled LSM-tree storage engine for time-series points, with the
//! conventional (`π_c`) and separation (`π_s`) buffering policies of the
//! ICDE 2022 paper *"Separation or Not: On Handling Out-of-Order Time-Series
//! Data in Leveled LSM-Tree"*.
//!
//! # Architecture
//!
//! The crate is layered as a *storage kernel* plus thin engines composed
//! on top of it:
//!
//! ```text
//!            append(p)                      π_c: C0 ──(full)──▶ merge-compact
//!   user ───────────────▶ PolicyBuffers     π_s: C_seq ─(full)─▶ merge, no inputs
//!                              │                 C_nonseq (full)▶ merge-compact
//!                              ▼
//!     plan_merge ─▶ CompactionPlan ─▶ execute ─▶ VersionEdit ─▶ Version
//!                              │                                   │
//!                              ▼                                   ▼
//!                 L1 run: [SST][SST][SST]…                     Manifest
//!                 (non-overlapping, 512 pts each)
//! ```
//!
//! **Kernel layers** (shared by every engine):
//!
//! * [`buffer`] — [`PolicyBuffers`](buffer::PolicyBuffers), the policy-aware
//!   MemTable set: Definition 3 classification against the pivot, flush
//!   triggering, and mid-stream policy migration.
//! * [`compaction`] — [`plan_merge`](compaction::plan_merge), the *pure*
//!   merge planner (an in-order flush is the plan with no inputs), and
//!   `compaction::write_outputs` →
//!   [`sync_outputs`](compaction::sync_outputs) →
//!   [`commit`](compaction::commit) →
//!   [`retire_inputs`](compaction::retire_inputs), which apply plans to
//!   store + version + metrics. The WA arithmetic exists exactly once, here.
//!   `write_outputs` leaves each plan's decoded outputs in the store's pool
//!   of written tables, which the next merges take their inputs from.
//! * [`version`] — [`Version`](version::Version), the table-level state
//!   (run, L0, flushing batches), mutated only through atomic
//!   [`VersionEdit`](version::VersionEdit) batches that also drive manifest
//!   recording.
//!
//! **Substrate:**
//!
//! * [`MemTable`] — bounded in-memory buffer sorted by generation time.
//! * [`sstable`] — the immutable table format (delta-varint, CRC-32).
//! * [`TableStore`] — where encoded tables live: [`MemStore`] (fast,
//!   experiment-scale) or [`FileStore`] (durable, one file per table).
//! * [`Run`] — the non-overlapping level-1 run; `LAST(R)` classifies points
//!   as in-order / out-of-order (paper Definition 3).
//! * [`Wal`] — checksummed write-ahead log with crash recovery.
//! * [`Manifest`] — checksummed run/L0 membership log for O(metadata)
//!   recovery.
//!
//! **Engines.** One single-series engine, [`Engine`]: its *front half* —
//! admission, the log, classification and buffering, the policy switch, the
//! log checkpoint, reads — is written once, over an [`Executor`], its *back
//! half*: where a sealed MemTable goes and who waits for it.
//! Assembly ([`open`]: one builder, whose three names are [`OpenOptions`] /
//! [`TieredOpenOptions`] / [`MultiOpenOptions`]), recovery ([`recovery`]:
//! the [`Version`] from the manifest or a store scan under strict/salvage
//! rules, then the WAL replay) and reads ([`query`]: one path over a view of
//! every source, freshest first) are each written once as well.
//!
//! * [`LsmEngine`] = `Engine<Inline>`: flush and merge-compaction run
//!   inline in `append`. Every WA experiment.
//! * [`TieredEngine`] = `Engine<Background>`: full MemTables go to an L0
//!   through a worker that merges them into the run, the production write
//!   path of §V-C (Table III throughput).
//! * [`MultiSeriesEngine`](multi::MultiSeriesEngine) — one [`LsmEngine`]
//!   per series over a shared store, with a flush pool and a memory
//!   arbiter; durable through one `fleet.wal` and one `fleet.manifest`,
//!   committed once per batch.
//!
//! # Quick start
//!
//! ```
//! use seplsm_lsm::{EngineConfig, OpenOptions};
//! use seplsm_types::{DataPoint, Policy, TimeRange};
//!
//! let mut engine =
//!     OpenOptions::new(EngineConfig::new(Policy::conventional(512))).open()?;
//! for i in 0..1000i64 {
//!     engine.append(DataPoint::new(i * 50, i * 50 + 7, i as f64))?;
//! }
//! let (points, stats) = engine.query(TimeRange::new(0, 5_000))?;
//! assert_eq!(points.len(), 101);
//! println!("WA so far: {:.3}", engine.metrics().write_amplification());
//! # let _ = stats;
//! # Ok::<(), seplsm_types::Error>(())
//! ```

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod admission;
pub mod arbiter;
pub mod background;
pub mod buffer;
pub mod cache;
pub(crate) mod codec;
pub mod compaction;
pub mod engine;
pub mod fault;
pub mod invariants;
pub mod iterator;
pub mod level;
pub mod manifest;
pub mod memtable;
pub mod metrics;
pub mod multi;
pub mod obs;
pub mod open;
pub mod query;
pub mod recovery;
pub mod sstable;
pub mod store;
pub mod version;
pub mod wal;

pub use admission::{
    AdmissionController, AdmissionDecision, AdmissionDepth, AdmissionOutcome,
    AdmissionStats, IoPacer, PaceDecision, PacerStats, RetryBackoff,
    StallTransition, Watermarks,
};
pub use arbiter::{
    Arbiter, ArbiterConfig, ArbiterStats, Rebalance, SeriesAssignment,
};
pub use background::{Background, TieredEngine, TieredReport};
pub use buffer::{FlushTrigger, PolicyBuffers};
pub use cache::{
    BlockCache, BlockKey, CacheConfig, CachePriority, CacheStats, EvictedBlock,
};
pub use compaction::{plan_merge, CompactionPlan, RunInput};
pub use engine::{Engine, EngineConfig, Executor, Inline, LsmEngine};
pub use fault::{Fault, FaultPlan, FaultStore, IoOp};
pub use invariants::InvariantChecker;
pub use iterator::{merge_sorted, MergeIter};
pub use level::Run;
pub use manifest::{Manifest, ManifestEdit, ManifestStats};
pub use memtable::MemTable;
pub use metrics::{Metrics, WaSnapshot};
pub use multi::{MultiSeriesEngine, SeriesId};
pub use obs::{
    AggregateReport, AggregateSink, Clock, DegradedOp, DegradedReason,
    DegradedState, Event, FanoutSink, Histogram, JsonlSink, LogicalClock,
    ManifestRecordKind, Observer, ObserverHandle, RecoveryStepKind,
    RingBufferSink,
};
pub use open::{
    EngineBuilder, MultiOpenOptions, OpenOptions, TieredOpenOptions,
};
pub use query::{Agg, Bucket, DiskModel, QueryStats};
pub use recovery::{
    QuarantinedTable, RecoveryMode, RecoveryOptions, RecoveryReport,
};
pub use sstable::{
    BlockAggregates, BlockSpan, EncodeOptions, SsTableId, SsTableMeta,
    TableIndex,
};
pub use store::{sync_dir, CachedStore, FileStore, MemStore, TableStore};
pub use version::{Version, VersionEdit};
pub use wal::{Replay, Wal, WalStats};
