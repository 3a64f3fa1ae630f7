//! Typed observability for the storage kernel.
//!
//! Every interesting state transition in the engines — point
//! classification, MemTable seals, flushes, compactions, WAL and manifest
//! I/O, write stalls, recovery steps, quarantines, degraded
//! transitions, injected faults — is described by one [`Event`] variant and
//! delivered to an attached [`Observer`]. The layer is:
//!
//! * **dependency-free** — hand-rolled JSONL encoding, no serde;
//! * **allocation-light** — events are plain enums built on the stack, and
//!   with no observer attached ([`ObserverHandle::detached`]) the emitting
//!   closure is never even evaluated, so the hot path does no allocation
//!   and no formatting;
//! * **deterministic** — this is a seplint kernel module (rule R3): no wall
//!   clock or thread primitive appears here. A trace line is numbered by
//!   its sequence number alone, so two runs of the same seeded workload
//!   produce byte-identical JSONL traces, and the [`AggregateSink`] counts
//!   rather than times. Latency is measured on a real clock outside the
//!   kernel modules, by whoever drives the engine.
//!
//! Emission never does I/O through the fault hooks: observer traffic is
//! invisible to [`FaultPlan`](crate::fault::FaultPlan) op numbering, so
//! attaching a sink cannot shift a crash schedule.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::fault::IoOp;

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
    /// A full rewrite to the live tables of every series
    /// (`Manifest::rewrite`).
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
    /// Writing a sealed batch's tables to L0, or a horizon's tables.
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
    /// A hand-off found the background flush queue full: the writer waits
    /// for the worker to take a batch.
    WriteStallBegin {
        /// L0 tables plus flushing batches at the hand-off.
        depth: u64,
    },
    /// The stalled hand-off's batch is queued (or the worker is gone).
    WriteStallEnd {
        /// Queue slots the stall waited for: one.
        ticks: u64,
    },
    /// A store operation failed transiently and is retried at once.
    RetryBackoff {
        /// 1-based attempt number about to run.
        attempt: u64,
    },
    /// The fleet memory arbiter redistributed the global point budget.
    ArbiterRebalance {
        /// 1-based rebalance round (a pure function of logical ticks).
        round: u64,
        /// Series whose buffer capacity changed this round.
        resized: u64,
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
    "recovery_step",
    "quarantine",
    "degraded_transition",
    "fault_injected",
    "cache_hit",
    "cache_miss",
    "cache_evict",
    "table_pruned",
    "write_stall_begin",
    "write_stall_end",
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
            Self::RecoveryStep { .. } => 10,
            Self::Quarantine { .. } => 11,
            Self::DegradedTransition { .. } => 12,
            Self::FaultInjected { .. } => 13,
            Self::CacheHit { .. } => 14,
            Self::CacheMiss { .. } => 15,
            Self::CacheEvict { .. } => 16,
            Self::TablePruned { .. } => 17,
            Self::WriteStallBegin { .. } => 18,
            Self::WriteStallEnd { .. } => 19,
            Self::RetryBackoff { .. } => 20,
            Self::ArbiterRebalance { .. } => 21,
            Self::PolicyRetuned { .. } => 22,
            Self::HeatSample { .. } => 23,
            Self::AggPushdown { .. } => 24,
            Self::AggFallback { .. } => 25,
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
            Self::WalSync => {}
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
            Self::WriteStallEnd { ticks } => {
                let _ = write!(out, ",\"ticks\":{ticks}");
            }
            Self::WriteStallBegin { depth } => {
                let _ = write!(out, ",\"depth\":{depth}");
            }
            Self::RetryBackoff { attempt } => {
                let _ = write!(out, ",\"attempt\":{attempt}");
            }
            Self::ArbiterRebalance { round, resized } => {
                let _ = write!(out, ",\"round\":{round},\"resized\":{resized}");
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
    /// The first write that failed; the sink writes nothing after it.
    error: Option<std::io::Error>,
}

/// Writes one JSON object per event, numbered in emission order:
/// `{"seq":N,"event":"flush_started",...}`.
///
/// Two identical seeded runs produce byte-identical traces. A failed write
/// never fails the storage path: the sink keeps the first error, writes
/// nothing more, and [`JsonlSink::flush`] returns it at a safe point.
pub struct JsonlSink {
    inner: Mutex<JsonlInner>,
}

impl JsonlSink {
    /// A sink writing to `out`.
    pub fn new(out: Box<dyn Write + Send>) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(JsonlInner {
                seq: 0,
                out,
                error: None,
            }),
        })
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    /// The first write error the sink met, or else the writer's flush
    /// error.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        if let Some(e) = &inner.error {
            return Err(std::io::Error::new(e.kind(), e.to_string()));
        }
        inner.out.flush()
    }
}

impl Observer for JsonlSink {
    fn observe(&self, event: &Event) {
        let mut inner = self.inner.lock();
        let seq = inner.seq;
        inner.seq += 1;
        if inner.error.is_some() {
            return;
        }
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"seq\":{seq},\"event\":\"{}\"", event.name());
        event.write_json_fields(&mut line);
        line.push_str("}\n");
        inner.error = inner.out.write_all(line.as_bytes()).err();
    }
}

#[derive(Debug, Default)]
struct AggregateState {
    counts: [u64; EVENT_KINDS],
    flush_points: u64,
    compaction_rewritten: u64,
    stall_ticks: u64,
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
    /// Write stalls begun.
    pub stalls: u64,
    /// Ticks the ended write stalls lasted.
    pub stall_ticks: u64,
    /// Decoded-block cache hits.
    pub cache_hits: u64,
    /// Decoded-block cache misses.
    pub cache_misses: u64,
    /// Decoded-block cache evictions.
    pub cache_evictions: u64,
}

impl AggregateReport {
    /// Decoded-block cache hit rate over `[0, 1]` (0 when the cache never
    /// saw a lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        crate::metrics::hit_rate(self.cache_hits, self.cache_misses)
    }

    /// Renders the report as a fixed-width text table (one row per
    /// non-zero event kind, then the admission and cache summaries).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("event                 count\n");
        out.push_str("--------------------  ----------\n");
        for (k, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                let _ = writeln!(out, "{:<20}  {n:>10}", Event::kind_name(k));
            }
        }
        let retries = self.counts[Event::RetryBackoff { attempt: 0 }.kind()];
        let _ = writeln!(
            out,
            "admission: {} stalls ({} stall ticks), {retries} retries",
            self.stalls, self.stall_ticks
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

/// A counter registry: counts every event kind, the points flushed and
/// rewritten and the ticks write stalls lasted.
pub struct AggregateSink {
    state: Mutex<AggregateState>,
}

impl AggregateSink {
    /// An aggregate sink with every counter at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(AggregateState::default()),
        })
    }

    /// Snapshot of everything aggregated so far.
    pub fn report(&self) -> AggregateReport {
        let s = self.state.lock();
        let count = |event: Event| s.counts[event.kind()];
        AggregateReport {
            counts: s.counts,
            flush_points: s.flush_points,
            compaction_rewritten: s.compaction_rewritten,
            stalls: count(Event::WriteStallBegin { depth: 0 }),
            stall_ticks: s.stall_ticks,
            cache_hits: count(Event::CacheHit { table: 0, block: 0 }),
            cache_misses: count(Event::CacheMiss { table: 0, block: 0 }),
            cache_evictions: count(Event::CacheEvict {
                table: 0,
                block: 0,
                points: 0,
            }),
        }
    }
}

impl Observer for AggregateSink {
    fn observe(&self, event: &Event) {
        let mut s = self.state.lock();
        s.counts[event.kind()] += 1;
        match event {
            Event::FlushStarted { points } => s.flush_points += points,
            Event::CompactionExecuted { rewritten, .. } => {
                s.compaction_rewritten += rewritten;
            }
            Event::WriteStallEnd { ticks } => s.stall_ticks += ticks,
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
            let sink = JsonlSink::new(Box::new(writer));
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
            "{\"seq\":0,\"event\":\"flush_started\",\"points\":3}\n"
        ));
        assert!(a.contains("\\\"quoted\\\"\\nline"));
    }

    #[test]
    fn a_trace_write_that_failed_surfaces_at_flush() {
        let sink = JsonlSink::new(Box::new(FullDisk));
        let handle = ObserverHandle::attached(sink.clone());
        handle.emit(|| Event::WalSync);
        handle.emit(|| Event::WalSync);
        let err = sink.flush().expect_err("the trace was not written");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn aggregate_counts_flushes() {
        let sink = AggregateSink::new();
        let handle = ObserverHandle::attached(sink.clone());
        handle.emit(|| Event::FlushStarted { points: 8 });
        handle.emit(|| Event::FlushFinished {
            tables: 1,
            points: 8,
        });
        let report = sink.report();
        assert_eq!(report.counts[Event::FlushStarted { points: 0 }.kind()], 1);
        assert_eq!(report.flush_points, 8);
        let table = report.render_table();
        assert!(table.contains("flush_started"));
        assert!(
            table.contains("admission: 0 stalls (0 stall ticks), 0 retries")
        );
    }

    #[test]
    fn aggregate_tracks_admission_and_retries() {
        let sink = AggregateSink::new();
        let handle = ObserverHandle::attached(sink.clone());
        for depth in [11, 12] {
            handle.emit(|| Event::WriteStallBegin { depth });
            handle.emit(|| Event::WriteStallEnd { ticks: 1 });
        }
        handle.emit(|| Event::RetryBackoff { attempt: 2 });
        let report = sink.report();
        assert_eq!((report.stalls, report.stall_ticks), (2, 2));
        let table = report.render_table();
        assert!(table.contains("write_stall_begin"));
        assert!(
            table.contains("admission: 2 stalls (2 stall ticks), 1 retries")
        );
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
            Event::WriteStallBegin { depth: 0 },
            Event::WriteStallEnd { ticks: 0 },
            Event::RetryBackoff { attempt: 0 },
            Event::ArbiterRebalance {
                round: 0,
                resized: 0,
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

    /// A `Write` whose every write fails, as on a full disk.
    struct FullDisk;

    impl Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::StorageFull.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
