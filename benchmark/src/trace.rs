//! Tracing from outside the engine: a [`TableStore`] decorator, an
//! [`Observer`] sink and spans around engine calls, all writing into one
//! in-memory record list that is analysed after the run.
//!
//! The engine announces most of its work only when it *ends* (`WalTruncate`,
//! `ManifestRecord`, `CompactionPlanned`...). A stretch of work is therefore
//! reconstructed per thread as the gap between the previous record on that
//! thread and the event that closes it, and named after the closing event.
//! Paired events (`FlushStarted`/`FlushFinished`,
//! `CompactionPlanned`/`CompactionExecuted`, `WriteStallBegin`/`End`) become
//! spans of their own. A span's self time is its length minus the part its
//! children cover; a layer is the part of a span name before the dot.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use seplsm_lsm::obs::{Event, Observer};
use seplsm_lsm::sstable::format::{ByteSpan, RangeRead};
use seplsm_lsm::{
    ManifestRecordKind, RecoveryStepKind, SsTableId, SsTableMeta, TableIndex,
    TableStore,
};
use seplsm_types::{DataPoint, Result, TimeRange};

use crate::stats::now_ns;

/// What one record describes. Calls are spans opened by the adapter, store
/// ops are spans opened by [`TimedStore`], the rest are engine events
/// stamped by [`SpanObserver`] (`t0 == t1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Batch,
    Append,
    WalSync,
    Query,
    Get,
    Aggregate,
    Downsample,
    Close,
    Recover,
    StorePut,
    StoreGet,
    StoreGetRange,
    StoreReadSpan,
    StoreTableLen,
    StoreDelete,
    StoreMayContain,
    StoreTableIndex,
    StoreReadRaw,
    EvSealed,
    EvFlushStarted,
    EvFlushFinished,
    EvPlanned,
    EvExecuted,
    EvWalTruncate,
    EvManifest,
    EvStallBegin,
    EvStallEnd,
}

impl Kind {
    /// A span the adapter opened around an engine call.
    fn is_call(self) -> bool {
        self < Kind::StorePut
    }

    /// Span name of a call or store record.
    fn span_name(self) -> Option<&'static str> {
        Some(match self {
            Kind::Batch => "engine.batch",
            Kind::Append => "engine.append",
            Kind::WalSync => "wal.sync",
            Kind::Query => "query.range",
            Kind::Get => "query.get",
            Kind::Aggregate => "query.aggregate",
            Kind::Downsample => "query.downsample",
            Kind::Close => "engine.close",
            Kind::Recover => "recovery.open",
            Kind::StorePut => "store.put",
            Kind::StoreGet => "store.get",
            Kind::StoreGetRange => "store.get_range",
            Kind::StoreReadSpan => "store.read_span",
            Kind::StoreTableLen => "store.table_len",
            Kind::StoreDelete => "store.delete",
            Kind::StoreMayContain => "store.may_contain",
            Kind::StoreTableIndex => "store.table_index",
            Kind::StoreReadRaw => "store.read_raw",
            _ => return None,
        })
    }

    /// Name of the stretch of work an event closes, if it closes one.
    fn closes(self) -> Option<&'static str> {
        Some(match self {
            Kind::EvSealed => "buffer.seal",
            Kind::EvPlanned => "compaction.plan",
            Kind::EvManifest => "manifest.record",
            Kind::EvFlushFinished | Kind::EvExecuted => "compaction.commit",
            Kind::EvWalTruncate => "wal.rewrite",
            _ => return None,
        })
    }
}

/// One trace record; `a` and `b` carry the kind's payload (bytes and points
/// for store ops, event fields for stamps).
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub t0: u64,
    pub t1: u64,
    pub tid: u32,
    pub kind: Kind,
    pub op: u32,
    pub a: u64,
    pub b: u64,
}

/// Counters for events too frequent to stamp (one per appended point).
#[derive(Debug, Default)]
pub struct Counts {
    pub events: AtomicU64,
    pub classified: AtomicU64,
    pub in_order: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub manifest_rewrites: AtomicU64,
    pub wal_replayed: AtomicU64,
    pub manifest_replayed: AtomicU64,
}

/// The shared record list.
pub struct Tracer {
    recs: Mutex<Vec<Rec>>,
    pushed: AtomicU64,
    /// Identifier of the user operation in flight (batch or read number),
    /// copied into every record so spans of one operation share it.
    op: AtomicU32,
    pub counts: Counts,
    /// Encoded size of each table seen by `put`, so `get` can report bytes
    /// without a second `stat`.
    table_bytes: Mutex<HashMap<u64, u64>>,
}

fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: Cell<u32> = const { Cell::new(0) };
    }
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            recs: Mutex::new(Vec::with_capacity(1 << 16)),
            pushed: AtomicU64::new(0),
            op: AtomicU32::new(0),
            counts: Counts::default(),
            table_bytes: Mutex::new(HashMap::new()),
        })
    }

    /// Names the user operation the following records belong to.
    pub fn set_op(&self, op: u32) {
        self.op.store(op, Ordering::Relaxed);
    }

    fn push(&self, kind: Kind, t0: u64, t1: u64, a: u64, b: u64) {
        let rec = Rec {
            t0,
            t1,
            tid: thread_id(),
            kind,
            op: self.op.load(Ordering::Relaxed),
            a,
            b,
        };
        self.recs.lock().expect("tracer lock").push(rec);
        self.pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a span that started at `t0` and ends now.
    pub fn span(&self, kind: Kind, t0: u64, a: u64, b: u64) {
        self.push(kind, t0, now_ns(), a, b);
    }

    fn stamp(&self, kind: Kind, a: u64, b: u64) {
        let t = now_ns();
        self.push(kind, t, t, a, b);
    }

    /// Records made so far: the adapter keeps an `append` span only when
    /// something happened inside it.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    pub fn take(&self) -> Vec<Rec> {
        std::mem::take(&mut *self.recs.lock().expect("tracer lock"))
    }
}

/// The benchmark's own [`Observer`]: stamps the events that bound a stretch
/// of work with a wall clock and only counts the rest.
pub struct SpanObserver(pub Arc<Tracer>);

impl Observer for SpanObserver {
    fn observe(&self, event: &Event) {
        let t = &self.0;
        let c = &t.counts;
        c.events.fetch_add(1, Ordering::Relaxed);
        match event {
            Event::PointClassified { in_order } => {
                c.classified.fetch_add(1, Ordering::Relaxed);
                c.in_order
                    .fetch_add(u64::from(*in_order), Ordering::Relaxed);
            }
            Event::WalAppend { bytes } => {
                c.wal_bytes.fetch_add(*bytes, Ordering::Relaxed);
            }
            Event::MemtableSealed { points } => {
                t.stamp(Kind::EvSealed, *points, 0);
            }
            Event::FlushStarted { points } => {
                t.stamp(Kind::EvFlushStarted, *points, 0);
            }
            Event::FlushFinished { tables, points } => {
                t.stamp(Kind::EvFlushFinished, *points, *tables);
            }
            Event::CompactionPlanned {
                inputs, rewritten, ..
            } => t.stamp(Kind::EvPlanned, *inputs, *rewritten),
            Event::CompactionExecuted {
                inputs, rewritten, ..
            } => t.stamp(Kind::EvExecuted, *inputs, *rewritten),
            Event::WalTruncate { survivors } => {
                t.stamp(Kind::EvWalTruncate, *survivors, 0);
            }
            Event::ManifestRecord { kind } => {
                if *kind == ManifestRecordKind::Rewrite {
                    c.manifest_rewrites.fetch_add(1, Ordering::Relaxed);
                }
                t.stamp(Kind::EvManifest, 0, 0);
            }
            Event::WriteStallBegin { depth } => {
                t.stamp(Kind::EvStallBegin, *depth, 0);
            }
            Event::WriteStallEnd { ticks } => {
                t.stamp(Kind::EvStallEnd, *ticks, 0);
            }
            Event::RecoveryStep { step, items } => match step {
                RecoveryStepKind::WalReplayed => {
                    c.wal_replayed.fetch_add(*items, Ordering::Relaxed);
                }
                RecoveryStepKind::ManifestReplayed => {
                    c.manifest_replayed.fetch_add(*items, Ordering::Relaxed);
                }
                _ => {}
            },
            // Everything else (WAL syncs, cache, prune and pushdown events,
            // admission delays) happens inside a span the adapter already
            // records, and is only counted in `events`.
            _ => {}
        }
    }
}

/// A [`TableStore`] decorator recording one span and a byte count per
/// physical operation. Every method forwards to the wrapped store, so the
/// engine behaves exactly as it does without it.
pub struct TimedStore {
    inner: Arc<dyn TableStore>,
    tracer: Arc<Tracer>,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn TableStore>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn known_bytes(&self, id: SsTableId) -> u64 {
        let known = self
            .tracer
            .table_bytes
            .lock()
            .expect("bytes lock")
            .get(&id.0)
            .copied();
        known.unwrap_or_else(|| {
            // A table written before this decorator existed (preload,
            // recovery): ask once, outside any span.
            let len = self.inner.table_len(id).ok().flatten().unwrap_or(0);
            self.tracer
                .table_bytes
                .lock()
                .expect("bytes lock")
                .insert(id.0, len);
            len
        })
    }
}

impl TableStore for TimedStore {
    fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
        let t0 = now_ns();
        let out = self.inner.put(points)?;
        self.tracer
            .span(Kind::StorePut, t0, out.1 as u64, points.len() as u64);
        self.tracer
            .table_bytes
            .lock()
            .expect("bytes lock")
            .insert(out.0.id.0, out.1 as u64);
        Ok(out)
    }

    fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
        let bytes = self.known_bytes(id);
        let t0 = now_ns();
        let out = self.inner.get(id)?;
        self.tracer
            .span(Kind::StoreGet, t0, bytes, out.len() as u64);
        Ok(out)
    }

    fn delete(&self, id: SsTableId) -> Result<()> {
        let t0 = now_ns();
        self.inner.delete(id)?;
        self.tracer.span(Kind::StoreDelete, t0, 0, 0);
        self.tracer
            .table_bytes
            .lock()
            .expect("bytes lock")
            .remove(&id.0);
        Ok(())
    }

    fn list(&self) -> Result<Vec<SsTableId>> {
        self.inner.list()
    }

    fn get_range(&self, id: SsTableId, range: TimeRange) -> Result<RangeRead> {
        let bytes = self.known_bytes(id);
        let t0 = now_ns();
        let out = self.inner.get_range(id, range)?;
        self.tracer
            .span(Kind::StoreGetRange, t0, bytes, out.points_scanned);
        Ok(out)
    }

    fn quarantine(&self, id: SsTableId) -> Result<()> {
        self.inner.quarantine(id)
    }

    fn read_raw(&self, id: SsTableId) -> Result<Option<Bytes>> {
        let t0 = now_ns();
        let out = self.inner.read_raw(id)?;
        let bytes = out.as_ref().map_or(0, |b| b.len() as u64);
        self.tracer.span(Kind::StoreReadRaw, t0, bytes, 0);
        Ok(out)
    }

    fn table_len(&self, id: SsTableId) -> Result<Option<u64>> {
        let t0 = now_ns();
        let out = self.inner.table_len(id)?;
        self.tracer.span(Kind::StoreTableLen, t0, 0, 0);
        Ok(out)
    }

    fn read_span(
        &self,
        id: SsTableId,
        span: ByteSpan,
    ) -> Result<Option<Bytes>> {
        let t0 = now_ns();
        let out = self.inner.read_span(id, span)?;
        self.tracer.span(Kind::StoreReadSpan, t0, span.len, 0);
        Ok(out)
    }

    fn may_contain(
        &self,
        id: SsTableId,
        range: TimeRange,
    ) -> Result<Option<bool>> {
        let t0 = now_ns();
        let out = self.inner.may_contain(id, range)?;
        self.tracer.span(Kind::StoreMayContain, t0, 0, 0);
        Ok(out)
    }

    fn note_short_lived(&self, id: SsTableId) {
        self.inner.note_short_lived(id);
    }

    fn table_index(&self, id: SsTableId) -> Result<Option<Arc<TableIndex>>> {
        let t0 = now_ns();
        let out = self.inner.table_index(id)?;
        self.tracer.span(Kind::StoreTableIndex, t0, 0, 0);
        Ok(out)
    }
}

/// One reconstructed span; `parent` is an index into the span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub t0: u64,
    pub t1: u64,
    pub tid: u32,
    pub op: u32,
    pub parent: Option<usize>,
    pub self_ns: u64,
    pub a: u64,
    pub b: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.t1 - self.t0
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The analysed trace of one run.
pub struct Analysis {
    pub spans: Vec<Span>,
    by_name: HashMap<&'static str, Vec<usize>>,
}

impl Analysis {
    /// Rebuilds spans from `recs` and nests them per thread. Records after
    /// `measured_end` belong to the checks that follow the measured phase
    /// (full reads, recovery tails) and are dropped, except the recoveries
    /// themselves and what happened inside them.
    pub fn new(mut recs: Vec<Rec>, measured_end: u64) -> Self {
        let recoveries: Vec<(u32, u64, u64)> = recs
            .iter()
            .filter(|r| r.kind == Kind::Recover)
            .map(|r| (r.tid, r.t0, r.t1))
            .collect();
        recs.retain(|r| {
            r.t1 <= measured_end
                || recoveries.iter().any(|&(tid, t0, t1)| {
                    r.tid == tid && t0 <= r.t0 && r.t1 <= t1
                })
        });
        // Per thread in time order; at equal starts the longer span first,
        // so a parent precedes the children it contains.
        recs.sort_by_key(|r| (r.tid, r.t0, std::cmp::Reverse(r.t1)));
        let mut spans: Vec<Span> = Vec::with_capacity(recs.len());
        // Per thread: end of the previous record, and the pending opening
        // events of the three paired kinds.
        let mut tid = 0;
        let mut prev_end = 0u64;
        let mut enclosing: Vec<(u64, u64)> = Vec::new();
        let mut open: BTreeMap<Kind, Rec> = BTreeMap::new();
        for r in &recs {
            if r.tid != tid {
                tid = r.tid;
                prev_end = 0;
                enclosing.clear();
                open.clear();
            }
            while enclosing.last().is_some_and(|(_, end)| *end <= r.t0) {
                enclosing.pop();
            }
            let mut add = |name, t0, t1, a, b| {
                spans.push(Span {
                    name,
                    t0,
                    t1,
                    tid: r.tid,
                    op: r.op,
                    parent: None,
                    self_ns: 0,
                    a,
                    b,
                });
            };
            if let Some(name) = r.kind.span_name() {
                add(name, r.t0, r.t1, r.a, r.b);
                if r.kind.is_call() {
                    enclosing.push((r.t0, r.t1));
                    // Work inside a call starts no earlier than the call.
                    prev_end = prev_end.max(r.t0);
                } else {
                    prev_end = prev_end.max(r.t1);
                }
                continue;
            }
            if let Some(name) = r.kind.closes() {
                // Every closing event follows a store op or another event
                // of the same job, so the gap never spans a worker's idle
                // wait; the first record of a thread has nothing before it.
                let start =
                    prev_end.max(enclosing.last().map_or(0, |(t0, _)| *t0));
                if start > 0 && start < r.t0 {
                    add(name, start, r.t0, r.a, r.b);
                }
            }
            match r.kind {
                Kind::EvFlushStarted | Kind::EvPlanned | Kind::EvStallBegin => {
                    open.insert(r.kind, *r);
                }
                Kind::EvFlushFinished => {
                    if let Some(o) = open.remove(&Kind::EvFlushStarted) {
                        add("compaction.flush", o.t0, r.t0, r.a, r.b);
                    }
                }
                Kind::EvExecuted => {
                    if let Some(o) = open.remove(&Kind::EvPlanned) {
                        add("compaction.merge", o.t0, r.t0, r.a, r.b);
                    }
                }
                Kind::EvStallEnd => {
                    if let Some(o) = open.remove(&Kind::EvStallBegin) {
                        add("admission.stall", o.t0, r.t0, r.a, o.a);
                    }
                }
                _ => {}
            }
            prev_end = prev_end.max(r.t1);
        }
        let mut by_name: HashMap<&'static str, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_name.entry(s.name).or_default().push(i);
        }
        let mut analysis = Self { spans, by_name };
        analysis.nest();
        analysis
    }

    /// Assigns parents by containment (per thread) and computes self times.
    fn nest(&mut self) {
        let spans = &mut self.spans;
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| {
            (spans[i].tid, spans[i].t0, std::cmp::Reverse(spans[i].t1))
        });
        let mut stack: Vec<usize> = Vec::new();
        for &i in &order {
            while let Some(&top) = stack.last() {
                let outside = spans[top].tid != spans[i].tid
                    || spans[top].t1 <= spans[i].t0
                    || spans[top].t1 < spans[i].t1;
                if outside {
                    stack.pop();
                } else {
                    break;
                }
            }
            spans[i].parent = stack.last().copied();
            spans[i].self_ns = spans[i].ns();
            stack.push(i);
        }
        for i in 0..spans.len() {
            if let Some(p) = spans[i].parent {
                let covered = spans[i].ns();
                spans[p].self_ns = spans[p].self_ns.saturating_sub(covered);
            }
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.named(name).map(Span::ns).collect()
    }

    /// Every span called `name`.
    pub fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        self.by_name
            .get(name)
            .into_iter()
            .flatten()
            .map(|&i| &self.spans[i])
    }

    /// Total self time (ns) per layer.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for s in &self.spans {
            *layers.entry(s.layer()).or_insert(0) += s.self_ns;
        }
        layers
    }

    /// Self time (ns) per layer counted only inside `root` spans: the
    /// share of the write path each layer accounts for.
    pub fn layer_self_ns_under(
        &self,
        root: &str,
    ) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for s in &self.spans {
            let mut at = Some(s);
            let mut inside = false;
            while let Some(span) = at {
                if span.name == root {
                    inside = true;
                    break;
                }
                at = span.parent.map(|p| &self.spans[p]);
            }
            if inside {
                *layers.entry(s.layer()).or_insert(0) += s.self_ns;
            }
        }
        layers
    }

    /// Writes the spans as JSON lines: `name,start_ns,end_ns,parent,op`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"op\":{},\"thread\":{}}}",
                s.name, s.t0, s.t1, s.op, s.tid
            )?;
        }
        out.flush()
    }
}
