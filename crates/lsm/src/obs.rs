//! Typed observability for the storage kernel.
//!
//! Every interesting state transition in the engines — point
//! classification, MemTable seals, flushes, compactions, WAL and manifest
//! I/O, backpressure stalls, recovery steps, quarantines, degraded
//! transitions, injected faults — is described by one [`Event`] variant and
//! delivered to an attached [`Observer`]. The layer is:
//!
//! * **dependency-free** — hand-rolled JSONL encoding, no serde;
//! * **allocation-light** — events are plain enums built on the stack, and
//!   with no observer attached ([`ObserverHandle::detached`]) the emitting
//!   closure is never even evaluated, so the hot path does no allocation
//!   and no formatting;
//! * **deterministic** — this is a seplint kernel module (rule R3): no wall
//!   clock or thread primitive appears here. Sinks that want timestamps
//!   take an injectable [`Clock`]; the default [`LogicalClock`] is a plain
//!   counter, so two runs of the same seeded workload produce
//!   byte-identical JSONL traces. Wall-clock `Clock` implementations live
//!   in the binary crates (bench, cli), outside the kernel.
//!
//! Emission never does I/O through the fault hooks: observer traffic is
//! invisible to [`FaultPlan`](crate::fault::FaultPlan) op numbering, so
//! attaching a sink cannot shift a crash schedule.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::fault::IoOp;

/// A monotonic time source for sinks that measure latency or stamp trace
/// lines. Injectable so the deterministic kernel never reads a wall clock:
/// tests and seeded runs use [`LogicalClock`]; binaries may supply a real
/// clock implemented outside the kernel modules.
pub trait Clock: Send + Sync {
    /// Current time in microseconds on this clock's (monotonic) scale.
    fn now_micros(&self) -> u64;
}

/// The deterministic default [`Clock`]: a counter that advances by one
/// microsecond per reading. Identical workloads read identical times.
#[derive(Debug, Default)]
pub struct LogicalClock {
    ticks: AtomicU64,
}

impl LogicalClock {
    /// A fresh logical clock starting at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl Clock for LogicalClock {
    fn now_micros(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }
}

/// Which manifest mutation a [`Event::ManifestRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestRecordKind {
    /// A run-table addition (`TAG_ADD`).
    Add,
    /// An L0-table addition (`TAG_ADD_L0`).
    AddL0,
    /// A table removal (`TAG_REMOVE`).
    Remove,
    /// Every L0 table removed at once (`TAG_DRAIN_L0`).
    DrainL0,
    /// A full rewrite to the live set (`rewrite_levels`).
    Rewrite,
}

impl ManifestRecordKind {
    /// Stable label used in traces and tables.
    pub fn name(self) -> &'static str {
        match self {
            Self::Add => "add",
            Self::AddL0 => "add_l0",
            Self::Remove => "remove",
            Self::DrainL0 => "drain_l0",
            Self::Rewrite => "rewrite",
        }
    }
}

/// One step of an engine recovery, named for the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStepKind {
    /// Manifest records replayed into a table set.
    ManifestReplayed,
    /// The store was scanned for candidate tables (no-manifest path).
    StoreScanned,
    /// Candidate tables were probed against the store.
    TablesProbed,
    /// WAL records were replayed into the engine.
    WalReplayed,
    /// Orphan tables were swept from the store.
    OrphansSwept,
}

impl RecoveryStepKind {
    /// Stable label used in traces and tables.
    pub fn name(self) -> &'static str {
        match self {
            Self::ManifestReplayed => "manifest_replayed",
            Self::StoreScanned => "store_scanned",
            Self::TablesProbed => "tables_probed",
            Self::WalReplayed => "wal_replayed",
            Self::OrphansSwept => "orphans_swept",
        }
    }
}

/// Why a [`crate::TieredEngine`] went read-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The table store kept failing writes past the retry budget.
    StoreIo,
}

impl DegradedReason {
    /// Stable label used in traces and tables.
    pub fn name(self) -> &'static str {
        match self {
            Self::StoreIo => "store_io",
        }
    }
}

/// The operation that was failing when the engine degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedOp {
    /// Writing a sealed batch's tables to L0.
    FlushWrite,
    /// The background L0 → run compaction.
    Compaction,
}

impl DegradedOp {
    /// Stable label used in traces and tables.
    pub fn name(self) -> &'static str {
        match self {
            Self::FlushWrite => "flush_write",
            Self::Compaction => "compaction",
        }
    }
}

/// A typed description of a degraded (read-only) engine: what failed,
/// while doing what, after how many attempts. Replaces the old opaque
/// `Option<String>` reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedState {
    /// The failure class.
    pub reason: DegradedReason,
    /// The operation that was failing.
    pub op: DegradedOp,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The final underlying error, verbatim.
    pub detail: String,
}

impl fmt::Display for DegradedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed ({}) after {} attempts: {}",
            self.op.name(),
            self.reason.name(),
            self.attempts,
            self.detail
        )
    }
}

/// One typed storage-kernel event. Variants are cheap to build (the rare
/// [`Event::DegradedTransition`] carries its error string; everything else
/// is `Copy`-sized) and carry enough to reconstruct the paper's
/// per-operation accounting: rewritten points per compaction, subsequent
/// counts, WAL bytes, stall occurrences.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `append` classified one point against `LAST(R)` (Definition 3).
    PointClassified {
        /// `true` for in-order (`C_seq` / `C0`-tail) points.
        in_order: bool,
    },
    /// A full MemTable was sealed and handed to the flush path.
    MemtableSealed {
        /// Points in the sealed buffer.
        points: u64,
    },
    /// A flush (buffer → disk) began.
    FlushStarted {
        /// Points leaving the buffer.
        points: u64,
    },
    /// The flush committed.
    FlushFinished {
        /// Tables written.
        tables: u64,
        /// Points written.
        points: u64,
    },
    /// A merge-compaction plan was adopted (pre-I/O).
    CompactionPlanned {
        /// Run tables consumed.
        inputs: u64,
        /// Output tables to write.
        outputs: u64,
        /// Points re-read from existing tables.
        rewritten: u64,
    },
    /// The compaction committed: tables written, version switched, inputs
    /// deleted.
    CompactionExecuted {
        /// Run tables consumed.
        inputs: u64,
        /// Output tables written.
        outputs: u64,
        /// Points re-read from existing tables (the WA rewrite share).
        rewritten: u64,
        /// Subsequent-point probe result (Definition 4), when requested.
        subsequent: Option<u64>,
    },
    /// Frames were appended to the WAL with one physical write.
    WalAppend {
        /// Bytes written.
        bytes: u64,
    },
    /// The WAL was flushed and fsynced.
    WalSync,
    /// A checkpoint was queued in the WAL: one generation-time range of one
    /// series became durable elsewhere and is superseded in the log.
    WalTruncate {
        /// Points the checkpoint frame carries: still volatile inside the
        /// range, so logged a second time.
        survivors: u64,
    },
    /// A manifest mutation was logged.
    ManifestRecord {
        /// Which mutation.
        kind: ManifestRecordKind,
    },
    /// An appender stalled because the flush channel was full.
    BackpressureStall,
    /// One recovery step completed.
    RecoveryStep {
        /// Which step.
        step: RecoveryStepKind,
        /// Items the step processed (records replayed, tables probed, …).
        items: u64,
    },
    /// A table was moved to the store's quarantine area.
    Quarantine {
        /// The quarantined table's id.
        table: u64,
    },
    /// The engine transitioned to degraded (read-only) mode.
    DegradedTransition {
        /// The typed degraded description.
        state: DegradedState,
    },
    /// A fault plan injected a failure.
    FaultInjected {
        /// The physical op that was failed.
        op: IoOp,
        /// Its global op index.
        at: u64,
    },
    /// The decoded-block cache served a block without touching the store.
    CacheHit {
        /// The table the block belongs to.
        table: u64,
        /// The block index within the table.
        block: u64,
    },
    /// The decoded-block cache had to decode a block from raw bytes.
    CacheMiss {
        /// The table the block belongs to.
        table: u64,
        /// The block index within the table.
        block: u64,
    },
    /// The decoded-block cache evicted a block to stay within capacity.
    CacheEvict {
        /// The table the evicted block belonged to.
        table: u64,
        /// The evicted block's index within its table.
        block: u64,
        /// Decoded points the eviction released.
        points: u64,
    },
    /// Query planning skipped a table on pruning metadata alone (index
    /// bounds / v3 bloom filter): no data blocks touched, no seek paid.
    TablePruned {
        /// The pruned table.
        table: u64,
    },
    /// Admission control held an append between the slowdown and stop
    /// watermarks.
    AdmissionDelayed {
        /// Logical ticks of delay charged to the append.
        ticks: u64,
    },
    /// Admission control entered a write stall (stop watermark reached).
    WriteStallBegin {
        /// Combined L0 + pending-flush depth at stall entry.
        depth: u64,
    },
    /// The write stall ended (depth fell below the resume watermark).
    WriteStallEnd {
        /// Logical ticks the stall episode lasted.
        ticks: u64,
    },
    /// The compaction pacer withheld an output write to smooth a merge
    /// burst.
    CompactionPaced {
        /// Logical ticks of token refill the write waited for.
        ticks: u64,
    },
    /// A store retry backed off before its next attempt.
    RetryBackoff {
        /// 1-based attempt number about to run.
        attempt: u64,
        /// Logical ticks of backoff charged before the attempt.
        ticks: u64,
    },
    /// The fleet memory arbiter redistributed the global point budget.
    ArbiterRebalance {
        /// 1-based rebalance round (a pure function of logical ticks).
        round: u64,
        /// Series whose buffer capacity changed this round.
        resized: u64,
        /// Points granted to the block-cache share after the split.
        cache_share: u64,
    },
    /// A series re-ran Algorithm 1 online and switched (or confirmed) its
    /// buffering policy.
    PolicyRetuned {
        /// The raw series id.
        series: u64,
        /// `true` when the new policy is `π_s(n_seq)`.
        separation: bool,
        /// The separation split `n_seq` (0 under `π_c`).
        n_seq: u64,
    },
    /// The arbiter sampled one series' decayed heat counter at a rebalance
    /// boundary.
    HeatSample {
        /// The raw series id.
        series: u64,
        /// The decayed heat, in fixed-point 1/256ths of a point.
        heat: u64,
    },
    /// An aggregation/downsampling query answered blocks from v3 index
    /// pre-aggregates alone — zero data-block bytes for those blocks.
    AggPushdown {
        /// Blocks folded from the index without decoding.
        blocks_folded: u64,
    },
    /// An aggregation/downsampling query had to decode blocks after all
    /// (range straddle, newer-data overlap, or no usable pre-aggregates).
    AggFallback {
        /// Blocks decoded on the fallback path.
        blocks: u64,
    },
}

/// Stable snake-case name of every [`Event`] kind, at its
/// [`kind`](Event::kind) index — the one place a kind's name is spelled.
const EVENT_NAMES: &[&str] = &[
    "point_classified",
    "memtable_sealed",
    "flush_started",
    "flush_finished",
    "compaction_planned",
    "compaction_executed",
    "wal_append",
    "wal_sync",
    "wal_truncate",
    "manifest_record",
    "backpressure_stall",
    "recovery_step",
    "quarantine",
    "degraded_transition",
    "fault_injected",
    "cache_hit",
    "cache_miss",
    "cache_evict",
    "table_pruned",
    "admission_delayed",
    "write_stall_begin",
    "write_stall_end",
    "compaction_paced",
    "retry_backoff",
    "arbiter_rebalance",
    "policy_retuned",
    "heat_sample",
    "agg_pushdown",
    "agg_fallback",
];

/// Number of distinct [`Event`] kinds (for fixed-size counter registries).
pub const EVENT_KINDS: usize = EVENT_NAMES.len();

impl Event {
    /// Stable event-kind name, used as the JSONL `event` field and the
    /// aggregate-table row label.
    pub fn name(&self) -> &'static str {
        Self::kind_name(self.kind())
    }

    /// Dense index of the event kind, `0..EVENT_KINDS`.
    pub fn kind(&self) -> usize {
        match self {
            Self::PointClassified { .. } => 0,
            Self::MemtableSealed { .. } => 1,
            Self::FlushStarted { .. } => 2,
            Self::FlushFinished { .. } => 3,
            Self::CompactionPlanned { .. } => 4,
            Self::CompactionExecuted { .. } => 5,
            Self::WalAppend { .. } => 6,
            Self::WalSync => 7,
            Self::WalTruncate { .. } => 8,
            Self::ManifestRecord { .. } => 9,
            Self::BackpressureStall => 10,
            Self::RecoveryStep { .. } => 11,
            Self::Quarantine { .. } => 12,
            Self::DegradedTransition { .. } => 13,
            Self::FaultInjected { .. } => 14,
            Self::CacheHit { .. } => 15,
            Self::CacheMiss { .. } => 16,
            Self::CacheEvict { .. } => 17,
            Self::TablePruned { .. } => 18,
            Self::AdmissionDelayed { .. } => 19,
            Self::WriteStallBegin { .. } => 20,
            Self::WriteStallEnd { .. } => 21,
            Self::CompactionPaced { .. } => 22,
            Self::RetryBackoff { .. } => 23,
            Self::ArbiterRebalance { .. } => 24,
            Self::PolicyRetuned { .. } => 25,
            Self::HeatSample { .. } => 26,
            Self::AggPushdown { .. } => 27,
            Self::AggFallback { .. } => 28,
        }
    }

    /// Name of kind index `k` (the inverse of [`Event::kind`] for labels).
    pub fn kind_name(k: usize) -> &'static str {
        EVENT_NAMES.get(k).copied().unwrap_or("unknown")
    }

    /// Appends this event's payload fields to a JSONL line under
    /// construction (leading comma per field; no surrounding braces).
    fn write_json_fields(&self, out: &mut String) {
        match self {
            Self::PointClassified { in_order } => {
                let _ = write!(out, ",\"in_order\":{in_order}");
            }
            Self::MemtableSealed { points } => {
                let _ = write!(out, ",\"points\":{points}");
            }
            Self::FlushStarted { points } => {
                let _ = write!(out, ",\"points\":{points}");
            }
            Self::FlushFinished { tables, points } => {
                let _ = write!(out, ",\"tables\":{tables},\"points\":{points}");
            }
            Self::CompactionPlanned {
                inputs,
                outputs,
                rewritten,
            } => {
                let _ = write!(
                    out,
                    ",\"inputs\":{inputs},\"outputs\":{outputs},\
                     \"rewritten\":{rewritten}"
                );
            }
            Self::CompactionExecuted {
                inputs,
                outputs,
                rewritten,
                subsequent,
            } => {
                let _ = write!(
                    out,
                    ",\"inputs\":{inputs},\"outputs\":{outputs},\
                     \"rewritten\":{rewritten}"
                );
                if let Some(s) = subsequent {
                    let _ = write!(out, ",\"subsequent\":{s}");
                }
            }
            Self::WalAppend { bytes } => {
                let _ = write!(out, ",\"bytes\":{bytes}");
            }
            Self::WalSync | Self::BackpressureStall => {}
            Self::WalTruncate { survivors } => {
                let _ = write!(out, ",\"survivors\":{survivors}");
            }
            Self::ManifestRecord { kind } => {
                let _ = write!(out, ",\"kind\":\"{}\"", kind.name());
            }
            Self::RecoveryStep { step, items } => {
                let _ = write!(
                    out,
                    ",\"step\":\"{}\",\"items\":{items}",
                    step.name()
                );
            }
            Self::Quarantine { table } | Self::TablePruned { table } => {
                let _ = write!(out, ",\"table\":{table}");
            }
            Self::DegradedTransition { state } => {
                let _ = write!(
                    out,
                    ",\"reason\":\"{}\",\"op\":\"{}\",\"attempts\":{}",
                    state.reason.name(),
                    state.op.name(),
                    state.attempts
                );
                out.push_str(",\"detail\":\"");
                json_escape_into(&state.detail, out);
                out.push('"');
            }
            Self::FaultInjected { op, at } => {
                let _ = write!(out, ",\"op\":\"{op:?}\",\"at\":{at}");
            }
            Self::CacheHit { table, block }
            | Self::CacheMiss { table, block } => {
                let _ = write!(out, ",\"table\":{table},\"block\":{block}");
            }
            Self::CacheEvict {
                table,
                block,
                points,
            } => {
                let _ = write!(
                    out,
                    ",\"table\":{table},\"block\":{block},\"points\":{points}"
                );
            }
            Self::AdmissionDelayed { ticks }
            | Self::WriteStallEnd { ticks }
            | Self::CompactionPaced { ticks } => {
                let _ = write!(out, ",\"ticks\":{ticks}");
            }
            Self::WriteStallBegin { depth } => {
                let _ = write!(out, ",\"depth\":{depth}");
            }
            Self::RetryBackoff { attempt, ticks } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"ticks\":{ticks}");
            }
            Self::ArbiterRebalance {
                round,
                resized,
                cache_share,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"resized\":{resized},\
                     \"cache_share\":{cache_share}"
                );
            }
            Self::PolicyRetuned {
                series,
                separation,
                n_seq,
            } => {
                let _ = write!(
                    out,
                    ",\"series\":{series},\"separation\":{separation},\
                     \"n_seq\":{n_seq}"
                );
            }
            Self::HeatSample { series, heat } => {
                let _ = write!(out, ",\"series\":{series},\"heat\":{heat}");
            }
            Self::AggPushdown { blocks_folded } => {
                let _ = write!(out, ",\"blocks_folded\":{blocks_folded}");
            }
            Self::AggFallback { blocks } => {
                let _ = write!(out, ",\"blocks\":{blocks}");
            }
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal.
fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A sink for kernel events. Implementations must be cheap and must never
/// block the storage path for long: they run inline on the emitting thread
/// (including the tiered engine's compaction worker).
pub trait Observer: Send + Sync {
    /// Receives one event.
    fn observe(&self, event: &Event);
}

/// An engine's (possibly absent) connection to an [`Observer`].
///
/// The handle is what the kernel threads through its layers. When detached
/// (the default), [`ObserverHandle::emit`] does not even evaluate the
/// event-building closure — no allocation, no formatting, one branch.
#[derive(Clone, Default)]
pub struct ObserverHandle {
    sink: Option<Arc<dyn Observer>>,
}

impl ObserverHandle {
    /// A handle delivering to `sink`.
    pub fn attached(sink: Arc<dyn Observer>) -> Self {
        Self { sink: Some(sink) }
    }

    /// The no-op handle.
    pub fn detached() -> Self {
        Self::default()
    }

    /// True when a sink is attached.
    pub fn is_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// Builds (lazily) and delivers one event.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.observe(&build());
        }
    }
}

impl fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserverHandle")
            .field("attached", &self.is_attached())
            .finish()
    }
}

/// A bounded in-memory sink for tests: keeps the most recent `cap` events.
#[derive(Debug)]
pub struct RingBufferSink {
    cap: usize,
    events: Mutex<VecDeque<Event>>,
}

impl RingBufferSink {
    /// A ring keeping at most `cap` events (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(Self {
            cap: cap.max(1),
            events: Mutex::new(VecDeque::new()),
        })
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().iter().cloned().collect()
    }

    /// Drains and returns the retained events, oldest first.
    pub fn take(&self) -> Vec<Event> {
        self.events.lock().drain(..).collect()
    }

    /// Number of retained events matching `pred`.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.lock().iter().filter(|e| pred(e)).count()
    }
}

impl Observer for RingBufferSink {
    fn observe(&self, event: &Event) {
        let mut events = self.events.lock();
        if events.len() == self.cap {
            events.pop_front();
        }
        events.push_back(event.clone());
    }
}

/// Fans one event stream out to several sinks, in order.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Observer>>,
}

impl FanoutSink {
    /// A sink delivering every event to each of `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Observer>>) -> Arc<Self> {
        Arc::new(Self { sinks })
    }
}

impl Observer for FanoutSink {
    fn observe(&self, event: &Event) {
        for sink in &self.sinks {
            sink.observe(event);
        }
    }
}

struct JsonlInner {
    seq: u64,
    out: Box<dyn Write + Send>,
}

/// Writes one JSON object per event:
/// `{"seq":N,"ts":T,"event":"flush_started",...}`.
///
/// Timestamps come from the injected [`Clock`]; under the default
/// [`LogicalClock`] two identical seeded runs produce byte-identical
/// traces. Write errors are swallowed (telemetry must never fail the
/// storage path); call [`JsonlSink::flush`] to surface back-pressure at a
/// safe point.
pub struct JsonlSink {
    clock: Arc<dyn Clock>,
    inner: Mutex<JsonlInner>,
}

impl JsonlSink {
    /// A sink writing to `out`, stamping lines with `clock`.
    pub fn new(out: Box<dyn Write + Send>, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Self {
            clock,
            inner: Mutex::new(JsonlInner { seq: 0, out }),
        })
    }

    /// A sink writing to `out` under the deterministic [`LogicalClock`].
    pub fn with_logical_clock(out: Box<dyn Write + Send>) -> Arc<Self> {
        Self::new(out, LogicalClock::new())
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    /// The writer's flush error, if any.
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.lock().out.flush()
    }
}

impl Observer for JsonlSink {
    fn observe(&self, event: &Event) {
        let ts = self.clock.now_micros();
        let mut inner = self.inner.lock();
        let seq = inner.seq;
        inner.seq += 1;
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"seq\":{seq},\"ts\":{ts},\"event\":\"{}\"",
            event.name()
        );
        event.write_json_fields(&mut line);
        line.push_str("}\n");
        let _ = inner.out.write_all(line.as_bytes());
    }
}

/// Upper bucket bounds (µs) of the fixed-bucket latency histograms:
/// powers of two from 1 µs to ~0.5 s, plus an overflow bucket.
pub const LATENCY_BUCKETS_MICROS: [u64; 20] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
    32768, 65536, 131072, 262144, 524288,
];

/// A fixed-bucket latency histogram over [`LATENCY_BUCKETS_MICROS`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[i]` counts samples `<= LATENCY_BUCKETS_MICROS[i]`; the final
    /// slot counts overflows.
    pub counts: [u64; LATENCY_BUCKETS_MICROS.len() + 1],
    /// Total samples recorded.
    pub samples: u64,
    /// Sum of all samples (µs), for mean reporting.
    pub total_micros: u64,
}

impl Histogram {
    /// Records one sample of `micros`.
    pub fn record(&mut self, micros: u64) {
        let idx = LATENCY_BUCKETS_MICROS
            .iter()
            .position(|&b| micros <= b)
            .unwrap_or(LATENCY_BUCKETS_MICROS.len());
        self.counts[idx] += 1;
        self.samples += 1;
        self.total_micros = self.total_micros.saturating_add(micros);
    }

    /// Mean sample in µs (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.samples as f64
        }
    }
}

#[derive(Debug, Default)]
struct AggregateState {
    counts: [u64; EVENT_KINDS],
    flush_points: u64,
    compaction_rewritten: u64,
    stall_count: u64,
    stall_ticks: u64,
    paced_ticks: u64,
    backoff_ticks: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    flush_open: Option<u64>,
    compaction_open: Option<u64>,
    flush_latency: Histogram,
    compaction_latency: Histogram,
}

/// An immutable snapshot of an [`AggregateSink`].
#[derive(Debug, Clone, Default)]
pub struct AggregateReport {
    /// Per-kind event counts, indexable via [`Event::kind`] /
    /// [`Event::kind_name`].
    pub counts: [u64; EVENT_KINDS],
    /// Total points flushed (sum of `FlushStarted.points`).
    pub flush_points: u64,
    /// Total points rewritten by compactions.
    pub compaction_rewritten: u64,
    /// Backpressure stalls observed.
    pub stalls: u64,
    /// Logical ticks charged to admission delays and write stalls.
    pub stall_ticks: u64,
    /// Logical ticks compaction writes spent waiting on the I/O pacer.
    pub paced_ticks: u64,
    /// Logical ticks store retries spent backing off.
    pub backoff_ticks: u64,
    /// Decoded-block cache hits.
    pub cache_hits: u64,
    /// Decoded-block cache misses.
    pub cache_misses: u64,
    /// Decoded-block cache evictions.
    pub cache_evictions: u64,
    /// Flush latency (started → finished), on the injected clock's scale.
    pub flush_latency: Histogram,
    /// Compaction latency (planned → executed), same scale.
    pub compaction_latency: Histogram,
}

impl AggregateReport {
    /// Decoded-block cache hit rate over `[0, 1]` (0 when the cache never
    /// saw a lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        crate::metrics::hit_rate(self.cache_hits, self.cache_misses)
    }

    /// Renders the report as a fixed-width text table (one row per
    /// non-zero event kind, then the latency summaries).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("event                 count\n");
        out.push_str("--------------------  ----------\n");
        for (k, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                let _ = writeln!(out, "{:<20}  {n:>10}", Event::kind_name(k));
            }
        }
        let _ = writeln!(
            out,
            "flush latency: {} samples, mean {:.1}us",
            self.flush_latency.samples,
            self.flush_latency.mean_micros()
        );
        let _ = writeln!(
            out,
            "compaction latency: {} samples, mean {:.1}us",
            self.compaction_latency.samples,
            self.compaction_latency.mean_micros()
        );
        let delayed = self.counts[Event::AdmissionDelayed { ticks: 0 }.kind()];
        let stalls = self.counts[Event::WriteStallBegin { depth: 0 }.kind()];
        let backoffs = self.counts[Event::RetryBackoff {
            attempt: 0,
            ticks: 0,
        }
        .kind()];
        let _ = writeln!(
            out,
            "admission: {delayed} delayed, {stalls} stalls \
             ({} stall ticks), pacer {} ticks, {backoffs} retry \
             backoffs ({} ticks)",
            self.stall_ticks, self.paced_ticks, self.backoff_ticks
        );
        if self.cache_hits + self.cache_misses > 0 {
            let _ = writeln!(
                out,
                "cache: {} hits, {} misses, {} evictions \
                 (hit rate {:.1}%)",
                self.cache_hits,
                self.cache_misses,
                self.cache_evictions,
                self.cache_hit_rate() * 100.0
            );
        }
        out
    }
}

/// A counter/histogram registry: counts every event kind and measures
/// flush and compaction latency on the injected [`Clock`].
pub struct AggregateSink {
    clock: Arc<dyn Clock>,
    state: Mutex<AggregateState>,
}

impl AggregateSink {
    /// An aggregate sink timing on `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Self {
            clock,
            state: Mutex::new(AggregateState::default()),
        })
    }

    /// An aggregate sink on the deterministic [`LogicalClock`].
    pub fn with_logical_clock() -> Arc<Self> {
        Self::new(LogicalClock::new())
    }

    /// Snapshot of everything aggregated so far.
    pub fn report(&self) -> AggregateReport {
        let s = self.state.lock();
        AggregateReport {
            counts: s.counts,
            flush_points: s.flush_points,
            compaction_rewritten: s.compaction_rewritten,
            stalls: s.stall_count,
            stall_ticks: s.stall_ticks,
            paced_ticks: s.paced_ticks,
            backoff_ticks: s.backoff_ticks,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            cache_evictions: s.cache_evictions,
            flush_latency: s.flush_latency.clone(),
            compaction_latency: s.compaction_latency.clone(),
        }
    }
}

impl Observer for AggregateSink {
    fn observe(&self, event: &Event) {
        let now = self.clock.now_micros();
        let mut s = self.state.lock();
        s.counts[event.kind()] += 1;
        match event {
            Event::FlushStarted { points } => {
                s.flush_points += points;
                s.flush_open = Some(now);
            }
            Event::FlushFinished { .. } => {
                if let Some(t0) = s.flush_open.take() {
                    let dt = now.saturating_sub(t0);
                    s.flush_latency.record(dt);
                }
            }
            Event::CompactionPlanned { .. } => {
                s.compaction_open = Some(now);
            }
            Event::CompactionExecuted { rewritten, .. } => {
                s.compaction_rewritten += rewritten;
                if let Some(t0) = s.compaction_open.take() {
                    let dt = now.saturating_sub(t0);
                    s.compaction_latency.record(dt);
                }
            }
            Event::BackpressureStall => s.stall_count += 1,
            Event::AdmissionDelayed { ticks }
            | Event::WriteStallEnd { ticks } => s.stall_ticks += ticks,
            Event::CompactionPaced { ticks } => s.paced_ticks += ticks,
            Event::RetryBackoff { ticks, .. } => s.backoff_ticks += ticks,
            Event::CacheHit { .. } => s.cache_hits += 1,
            Event::CacheMiss { .. } => s.cache_misses += 1,
            Event::CacheEvict { .. } => s.cache_evictions += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handle_never_builds_the_event() {
        let handle = ObserverHandle::detached();
        let mut built = false;
        handle.emit(|| {
            built = true;
            Event::WalSync
        });
        assert!(!built, "detached emit must not evaluate the closure");
        assert!(!handle.is_attached());
    }

    #[test]
    fn ring_buffer_keeps_the_most_recent_events() {
        let ring = RingBufferSink::new(2);
        let handle = ObserverHandle::attached(ring.clone());
        for points in 0..3u64 {
            handle.emit(|| Event::FlushStarted { points });
        }
        let events = ring.events();
        assert_eq!(
            events,
            vec![
                Event::FlushStarted { points: 1 },
                Event::FlushStarted { points: 2 },
            ]
        );
        assert_eq!(ring.count(|e| matches!(e, Event::FlushStarted { .. })), 2);
    }

    #[test]
    fn jsonl_traces_are_deterministic_and_escaped() {
        let run = || {
            let buf = Arc::new(Mutex::new(Vec::new()));
            let writer = SharedBuf(buf.clone());
            let sink = JsonlSink::with_logical_clock(Box::new(writer));
            let handle = ObserverHandle::attached(sink);
            handle.emit(|| Event::FlushStarted { points: 3 });
            handle.emit(|| Event::DegradedTransition {
                state: DegradedState {
                    reason: DegradedReason::StoreIo,
                    op: DegradedOp::FlushWrite,
                    attempts: 3,
                    detail: "fail \"quoted\"\nline".into(),
                },
            });
            let out = buf.lock().clone();
            String::from_utf8(out).expect("utf8")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical runs must yield identical traces");
        assert!(a.starts_with(
            "{\"seq\":0,\"ts\":0,\"event\":\"flush_started\",\"points\":3}\n"
        ));
        assert!(a.contains("\\\"quoted\\\"\\nline"));
    }

    #[test]
    fn aggregate_counts_and_times_flushes() {
        let sink = AggregateSink::with_logical_clock();
        let handle = ObserverHandle::attached(sink.clone());
        handle.emit(|| Event::FlushStarted { points: 8 });
        handle.emit(|| Event::FlushFinished {
            tables: 1,
            points: 8,
        });
        handle.emit(|| Event::BackpressureStall);
        let report = sink.report();
        assert_eq!(report.counts[Event::FlushStarted { points: 0 }.kind()], 1);
        assert_eq!(report.flush_points, 8);
        assert_eq!(report.stalls, 1);
        assert_eq!(report.flush_latency.samples, 1);
        let table = report.render_table();
        assert!(table.contains("flush_started"));
        assert!(table.contains("backpressure_stall"));
    }

    #[test]
    fn aggregate_tracks_admission_and_pacing() {
        let sink = AggregateSink::with_logical_clock();
        let handle = ObserverHandle::attached(sink.clone());
        handle.emit(|| Event::AdmissionDelayed { ticks: 2 });
        handle.emit(|| Event::WriteStallBegin { depth: 16 });
        handle.emit(|| Event::WriteStallEnd { ticks: 5 });
        handle.emit(|| Event::CompactionPaced { ticks: 3 });
        handle.emit(|| Event::RetryBackoff {
            attempt: 2,
            ticks: 4,
        });
        let report = sink.report();
        assert_eq!(report.stall_ticks, 7);
        assert_eq!(report.paced_ticks, 3);
        assert_eq!(report.backoff_ticks, 4);
        let table = report.render_table();
        assert!(table.contains(
            "admission: 1 delayed, 1 stalls (7 stall ticks), \
             pacer 3 ticks, 1 retry backoffs (4 ticks)"
        ));
    }

    #[test]
    fn histogram_buckets_cover_overflow() {
        let mut h = Histogram::default();
        h.record(1);
        h.record(3);
        h.record(u64::MAX);
        assert_eq!(h.samples, 3);
        assert_eq!(h.counts[0], 1); // <= 1us
        assert_eq!(h.counts[2], 1); // <= 4us
        assert_eq!(h.counts[LATENCY_BUCKETS_MICROS.len()], 1); // overflow
    }

    #[test]
    fn fanout_delivers_to_every_sink() {
        let a = RingBufferSink::new(4);
        let b = RingBufferSink::new(4);
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        let handle = ObserverHandle::attached(fan);
        handle.emit(|| Event::WalSync);
        assert_eq!(a.events(), vec![Event::WalSync]);
        assert_eq!(b.events(), vec![Event::WalSync]);
    }

    #[test]
    fn every_event_name_matches_its_kind_index() {
        let samples = [
            Event::PointClassified { in_order: true },
            Event::MemtableSealed { points: 0 },
            Event::FlushStarted { points: 0 },
            Event::FlushFinished {
                tables: 0,
                points: 0,
            },
            Event::CompactionPlanned {
                inputs: 0,
                outputs: 0,
                rewritten: 0,
            },
            Event::CompactionExecuted {
                inputs: 0,
                outputs: 0,
                rewritten: 0,
                subsequent: None,
            },
            Event::WalAppend { bytes: 0 },
            Event::WalSync,
            Event::WalTruncate { survivors: 0 },
            Event::ManifestRecord {
                kind: ManifestRecordKind::Add,
            },
            Event::BackpressureStall,
            Event::RecoveryStep {
                step: RecoveryStepKind::WalReplayed,
                items: 0,
            },
            Event::Quarantine { table: 0 },
            Event::DegradedTransition {
                state: DegradedState {
                    reason: DegradedReason::StoreIo,
                    op: DegradedOp::Compaction,
                    attempts: 0,
                    detail: String::new(),
                },
            },
            Event::FaultInjected {
                op: IoOp::WalSync,
                at: 0,
            },
            Event::CacheHit { table: 0, block: 0 },
            Event::CacheMiss { table: 0, block: 0 },
            Event::CacheEvict {
                table: 0,
                block: 0,
                points: 0,
            },
            Event::TablePruned { table: 0 },
            Event::AdmissionDelayed { ticks: 0 },
            Event::WriteStallBegin { depth: 0 },
            Event::WriteStallEnd { ticks: 0 },
            Event::CompactionPaced { ticks: 0 },
            Event::RetryBackoff {
                attempt: 0,
                ticks: 0,
            },
            Event::ArbiterRebalance {
                round: 0,
                resized: 0,
                cache_share: 0,
            },
            Event::PolicyRetuned {
                series: 0,
                separation: false,
                n_seq: 0,
            },
            Event::HeatSample { series: 0, heat: 0 },
            Event::AggPushdown { blocks_folded: 0 },
            Event::AggFallback { blocks: 0 },
        ];
        assert_eq!(samples.len(), EVENT_KINDS);
        for (i, e) in samples.iter().enumerate() {
            assert_eq!(e.kind(), i);
            assert_eq!(Event::kind_name(i), e.name());
            // The table row at a variant's index is that variant's
            // identifier in snake case.
            let mut snake = String::new();
            for c in format!("{e:?}").chars() {
                if !c.is_ascii_alphanumeric() {
                    break;
                }
                if c.is_ascii_uppercase() && !snake.is_empty() {
                    snake.push('_');
                }
                snake.push(c.to_ascii_lowercase());
            }
            assert_eq!(e.name(), snake);
        }
    }

    /// A `Write` into a shared buffer, for trace assertions.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
