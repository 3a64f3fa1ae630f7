//! Merge planning and execution — the one compaction pipeline.
//!
//! Following the policy/mechanism split argued by the compaction-design
//! surveys, *what to merge* is decided by [`plan_merge`], a pure function
//! over an in-memory snapshot (no I/O, no engine state), and *how to apply
//! it* by the phases below, which write the planned tables, commit the
//! [`VersionEdit`], record the manifest and do all metric accounting. Every
//! flush is a merge plan — an in-order flush is the plan with no inputs —
//! and every plan goes through `write_outputs` and [`commit`], so the
//! write-amplification arithmetic the paper measures exists exactly once.
//!
//! # The horizon
//!
//! Under disorder a point is rewritten r_c ≈ ζ(n)/n + 1 times (Eq. 3), and
//! most tables a merge writes are consumed by a merge a few plans later.
//! Their points are in the log until a checkpoint lets them go, so the
//! durable state may lag the in-memory one: an inline engine makes its
//! plans durable at a *horizon*, not one by one. Between horizons `execute`
//! publishes a plan's outputs without an fsync
//! ([`TableStore::publish_batch`]) and commits the version in memory;
//! inputs that no horizon synced are deleted at once, durable ones stay on
//! disk. Its [`Outbox`] keeps the score, and `horizon` then runs, for one
//! engine or for every series of a fleet at once:
//!
//! 1. one fsync per table still live and unsynced;
//! 2. one fsync of the tables directory;
//! 3. one manifest group per engine: the net change between the durable
//!    version and the current one;
//! 4. the deletion of the retired durable inputs;
//! 5. by the owner of the log: a checkpoint per coalesced range the
//!    flushes took out of memory, and a cut of the log when one is due.
//!
//! A horizon is due once the flushes have taken `Written::TABLES` tables'
//! worth of points out of memory — the log a crash replays is never longer
//! — or more than `MAX_UNCOMMITTED_TABLES` live tables wait, and at rest.
//! An engine without both a log and a manifest has nothing to defer to and
//! runs one after every plan, and so does the background worker, which
//! keeps its own sequence: `write_outputs` → [`sync_outputs`] → [`commit`]
//! → [`retire_inputs`].
//!
//! A merge's inputs are, under disorder, mostly the tables the last few
//! plans wrote. `write_outputs` therefore hands each plan's decoded outputs
//! to the store's pool of written tables, and every merge-input fetch takes
//! its table from there before it reads the store: what the paper counts
//! is written exactly as before, only the read-back goes.

use std::collections::VecDeque;

use parking_lot::Mutex;
use seplsm_types::{DataPoint, Result, TimeRange};

use crate::iterator::merge_sorted;
use crate::manifest::{Manifest, ManifestEdit, SeriesTables};
use crate::metrics::Metrics;
use crate::obs::{Event, ObserverHandle};
use crate::sstable::{SsTableId, SsTableMeta};
use crate::store::TableStore;
use crate::version::{Version, VersionEdit};

/// One run table feeding a merge: its metadata plus decoded contents.
#[derive(Debug, Clone)]
pub struct RunInput {
    /// The table's metadata (consumed by the plan).
    pub meta: SsTableMeta,
    /// Its decoded points.
    pub points: Vec<DataPoint>,
}

/// The planner's decision: which run tables are consumed and what replaces
/// them.
#[derive(Debug, Clone)]
pub struct CompactionPlan {
    /// Run tables consumed by the merge (removed from the version and
    /// deleted from the store by `execute`).
    pub inputs: Vec<SsTableId>,
    /// The merged output, split into tables of at most `sstable_points`.
    pub outputs: Vec<Vec<DataPoint>>,
    /// Total points the plan writes (`Σ outputs`), the WA numerator share.
    pub merged_points: u64,
    /// Points re-read out of existing run tables — the rewrite component of
    /// write amplification.
    pub rewritten_points: u64,
    /// Subsequent data points on disk at plan time (Definition 4), when the
    /// Fig. 5 probe was requested.
    pub subsequent: Option<u64>,
    /// `true` when no run table was consumed: the merge degenerates to a
    /// flush (counted as such by `execute`).
    pub is_flush: bool,
}

/// Plans a merge-compaction: `fresh` sources (priority-ordered, freshest
/// first — the full buffer, or L0 contents newest-first) are merged with the
/// `overlapping` run tables and re-split into tables of `sstable_points`.
///
/// Pure: operates only on the given snapshot. When `subsequent_base` is set
/// (the run's point count in tables strictly above the fresh minimum), the
/// plan also finishes the Definition 4 probe by counting the subsequent
/// points inside straddling tables.
pub fn plan_merge(
    fresh: Vec<Vec<DataPoint>>,
    overlapping: Vec<RunInput>,
    sstable_points: usize,
    subsequent_base: Option<u64>,
) -> CompactionPlan {
    debug_assert!(sstable_points >= 1, "sstable_points must be >= 1");
    // Engine configs are validated upstream; clamp rather than panic so a
    // degenerate release-mode caller still gets well-formed tables.
    let sstable_points = sstable_points.max(1);
    let fresh_min = fresh
        .iter()
        .filter_map(|src| src.first())
        .map(|p| p.gen_time)
        .min();

    let mut subsequent = subsequent_base;
    let mut inputs = Vec::with_capacity(overlapping.len());
    let mut rewritten: u64 = 0;
    let mut sources = fresh;
    sources.reserve(overlapping.len());
    for input in overlapping {
        rewritten += input.points.len() as u64;
        if let (Some(subseq), Some(min)) = (subsequent.as_mut(), fresh_min) {
            // Tables starting after the fresh minimum were already fully
            // counted by the caller's `points_in_tables_above` probe; only
            // straddlers need their contents inspected.
            if input.meta.range.start <= min {
                *subseq +=
                    input.points.iter().filter(|p| p.gen_time > min).count()
                        as u64;
            }
        }
        inputs.push(input.meta.id);
        sources.push(input.points);
    }
    let is_flush = inputs.is_empty();

    let merged = merge_sorted(sources);
    let merged_points = merged.len() as u64;
    let outputs: Vec<Vec<DataPoint>> = merged
        .chunks(sstable_points)
        .map(<[DataPoint]>::to_vec)
        .collect();

    CompactionPlan {
        inputs,
        outputs,
        merged_points,
        rewritten_points: rewritten,
        subsequent,
        is_flush,
    }
}

/// The decoded output tables of the latest plans over one store, for the
/// merges that are about to consume them: one per engine, one per fleet
/// (its series share it as they share the store).
///
/// A FIFO of `(id, points)` holding at most [`Written::TABLES`] full
/// tables' worth of points. Ids are store-unique and tables immutable, so
/// an entry is exact for as long as its table exists; a merge consumes the
/// entries it takes, and entries no merge asks for age out. It is memory
/// outside the paper's budget *n* and changes only what is read back:
/// queries, audits and recovery still read the store.
#[derive(Debug)]
pub(crate) struct Written {
    /// Points the pool may hold.
    budget: usize,
    fifo: Mutex<Fifo>,
}

#[derive(Debug, Default)]
struct Fifo {
    tables: VecDeque<(SsTableId, Vec<DataPoint>)>,
    /// `Σ tables[i].1.len()`.
    points: usize,
}

impl Written {
    /// How many full tables the pool holds: 768 KiB of points at the
    /// paper's 512-point tables.
    pub(crate) const TABLES: usize = 64;

    /// An empty pool for tables of `sstable_points`.
    pub(crate) fn new(sstable_points: usize) -> Self {
        Self {
            budget: Self::TABLES.saturating_mul(sstable_points),
            fifo: Mutex::default(),
        }
    }

    /// Points the pool may hold: also how many points an inline engine's
    /// flushes may take out of memory before its next horizon is due.
    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    /// Keeps `tables`, just written, then lets the oldest entries go until
    /// the pool is back within its budget.
    fn keep(&self, tables: impl Iterator<Item = (SsTableId, Vec<DataPoint>)>) {
        let mut fifo = self.fifo.lock();
        for (id, points) in tables {
            fifo.points += points.len();
            fifo.tables.push_back((id, points));
        }
        while fifo.points > self.budget {
            let Some((_, points)) = fifo.tables.pop_front() else {
                break;
            };
            fifo.points -= points.len();
        }
    }

    /// The points of table `id`, which a merge is about to consume: the
    /// pool's entry, which leaves the pool, or else a read of the store.
    ///
    /// # Errors
    /// The store's, on a miss.
    pub(crate) fn take_or_read(
        &self,
        store: &dyn TableStore,
        id: SsTableId,
    ) -> Result<Vec<DataPoint>> {
        match self.take(id) {
            Some(points) => Ok(points),
            None => store.get(id),
        }
    }

    fn take(&self, id: SsTableId) -> Option<Vec<DataPoint>> {
        let mut fifo = self.fifo.lock();
        let at = fifo.tables.iter().position(|(held, _)| *held == id)?;
        let (_, points) = fifo.tables.remove(at)?;
        fifo.points -= points.len();
        Some(points)
    }
}

/// A plan whose output tables have been written to the store but whose
/// [`VersionEdit`] has not yet been committed — the intermediate state
/// between `write_outputs` and [`commit`].
///
/// Splitting execution into *write* (store I/O, no version access),
/// *commit* (version/manifest/metrics, no store I/O), and *retire* (store
/// deletes) lets concurrent engines do the expensive phases without holding
/// their state lock: the background worker writes outputs unlocked, takes
/// the lock only for [`commit`], and retires the inputs unlocked again.
#[derive(Debug)]
pub struct PreparedCompaction {
    /// The plan being executed; its `outputs` have moved on into the
    /// store's pool of written tables.
    pub plan: CompactionPlan,
    /// Metadata of the freshly written output tables, one per output.
    pub added: Vec<SsTableMeta>,
    /// Encoded bytes written to the store (for `disk_bytes_written`).
    pub bytes_written: u64,
}

/// Phase 1 of plan execution: announces the plan (`FlushStarted` /
/// `CompactionPlanned`) and publishes every output table as one
/// [`TableStore::publish_batch`] — readable, not yet durable: see
/// [`sync_outputs`] and [`horizon`] — then moves the decoded outputs, under
/// the ids the store gave them, into `written` for the merges that will
/// consume them.
/// Touches no version, manifest or metrics state, so callers may run it
/// without holding any engine lock.
///
/// # Errors
/// Storage failures; no version state has been touched, but already-written
/// outputs are left behind for the caller's orphan GC.
pub(crate) fn write_outputs(
    mut plan: CompactionPlan,
    store: &dyn TableStore,
    written: &Written,
    obs: &ObserverHandle,
) -> Result<PreparedCompaction> {
    if plan.is_flush {
        obs.emit(|| Event::FlushStarted {
            points: plan.merged_points,
        });
    } else {
        obs.emit(|| Event::CompactionPlanned {
            inputs: plan.inputs.len() as u64,
            outputs: plan.outputs.len() as u64,
            rewritten: plan.rewritten_points,
        });
    }
    let chunks: Vec<&[DataPoint]> =
        plan.outputs.iter().map(Vec::as_slice).collect();
    let stored = store.publish_batch(&chunks)?;
    let bytes_written = stored.iter().map(|(_, size)| *size as u64).sum();
    let added: Vec<SsTableMeta> =
        stored.into_iter().map(|(meta, _)| meta).collect();
    let outputs = std::mem::take(&mut plan.outputs);
    written.keep(added.iter().map(|meta| meta.id).zip(outputs));
    Ok(PreparedCompaction {
        plan,
        added,
        bytes_written,
    })
}

/// Phase 2 of the background worker's plans: makes the published outputs
/// durable ([`TableStore::sync_published`]: one fsync per table and one of
/// the directory), which [`commit`]'s manifest record relies on. Like
/// phase 1 it needs no engine lock.
///
/// # Errors
/// Storage failures; the outputs stay behind, unreferenced.
pub fn sync_outputs(
    prepared: &PreparedCompaction,
    store: &dyn TableStore,
) -> Result<()> {
    let ids: Vec<SsTableId> =
        prepared.added.iter().map(|meta| meta.id).collect();
    store.sync_published(&ids)
}

/// Phase 3 of plan execution — the only writer of version + manifest +
/// metrics: atomically applies the one [`VersionEdit`] that `place` makes
/// of the plan's consumed inputs and stored outputs
/// ([`VersionEdit::Replace`] for a merge into the run,
/// [`VersionEdit::FlushToL0`] for a background flush), records the
/// manifest, and does all metric accounting and completion events. Does no
/// table-store I/O — this is the only phase that needs the engine's state
/// lock. Returns the edit it applied.
///
/// # Errors
/// Version or manifest failures; the version is only mutated if the edit
/// applies cleanly.
pub fn commit(
    prepared: &PreparedCompaction,
    place: impl FnOnce(Vec<SsTableId>, Vec<SsTableMeta>) -> VersionEdit,
    version: &mut Version,
    manifest: Option<&mut Manifest>,
    metrics: &mut Metrics,
    obs: &ObserverHandle,
) -> Result<VersionEdit> {
    let plan = &prepared.plan;
    let edits = [place(plan.inputs.clone(), prepared.added.clone())];
    version.apply(&edits)?;
    if let Some(manifest) = manifest {
        version.record(manifest, &edits)?;
    }
    metrics.disk_bytes_written += prepared.bytes_written;
    metrics.tables_created += prepared.added.len() as u64;
    metrics.disk_points_written += plan.merged_points;
    metrics.rewritten_points += plan.rewritten_points;
    metrics.tables_deleted += plan.inputs.len() as u64;
    if plan.is_flush {
        metrics.flushes += 1;
        obs.emit(|| Event::FlushFinished {
            tables: prepared.added.len() as u64,
            points: plan.merged_points,
        });
    } else {
        metrics.compactions += 1;
        obs.emit(|| Event::CompactionExecuted {
            inputs: plan.inputs.len() as u64,
            outputs: prepared.added.len() as u64,
            rewritten: plan.rewritten_points,
            subsequent: plan.subsequent,
        });
    }
    if let Some(subseq) = plan.subsequent {
        metrics.subsequent_counts.push(subseq);
    }
    let [edit] = edits;
    Ok(edit)
}

/// Phase 4 of plan execution: deletes the consumed input tables from the
/// store. Runs strictly after [`commit`], so readers resolving the *new*
/// version never look these tables up.
///
/// Deleting through `store` is the decoded-block cache's invalidation
/// contract: when the store is a
/// [`CachedStore`](crate::store::CachedStore), every cached block (and the
/// cached index) of a consumed table is dropped before this returns, so a
/// reader can never be served decoded points of a table the compaction
/// replaced.
///
/// # Errors
/// Storage failures.
pub fn retire_inputs(
    prepared: &PreparedCompaction,
    store: &dyn TableStore,
) -> Result<()> {
    for id in &prepared.plan.inputs {
        store.delete(*id)?;
    }
    Ok(())
}

/// More live tables than this may wait unsynced for a horizon: past it an
/// append runs one, whatever else is due. Bounds the tables a sync leaves to
/// the next horizon and the outbox that lists them.
pub(crate) const MAX_UNCOMMITTED_TABLES: usize = 256;

/// Whether a horizon is due (see the module docs) for an engine, or a
/// fleet, whose flushes have taken `points` out of memory since the last one
/// and whose `tables` live tables wait for it, under a pool of `budget`
/// points.
pub(crate) fn due(points: usize, tables: usize, budget: usize) -> bool {
    points >= budget || tables > MAX_UNCOMMITTED_TABLES
}

/// What the plans of one inline engine have left to its next horizon (see
/// the module docs): the live tables they published and did not sync, the
/// durable tables they consumed, and what they took out of memory.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Live tables not yet synced: net additions since the durable version,
    /// which no manifest record names.
    unsynced: Vec<SsTableId>,
    /// Live tables a horizon synced and then failed to record: net
    /// additions as well, but durable, and perhaps named by the manifest
    /// group that failed — its bytes may have reached the file. A plan that
    /// consumes one retires it like any durable table; only the next
    /// horizon's record, or rewrite, settles them.
    synced: Vec<SsTableId>,
    /// Durable tables the plans consumed: out of the version, but still in
    /// the store, which the durable version names, until the horizon.
    retired: Vec<SsTableId>,
    /// The generation-time range each flush took out of memory, in flush
    /// order: what the owner's log may let go of after the horizon (the
    /// engine adds these itself; a plan does not know what was fresh).
    pub(crate) flushed: Vec<TimeRange>,
    /// Points those flushes took.
    pub(crate) points: usize,
}

impl Outbox {
    /// `true` when nothing waits for a horizon.
    pub fn is_empty(&self) -> bool {
        self.unsynced.is_empty()
            && self.synced.is_empty()
            && self.retired.is_empty()
            && self.flushed.is_empty()
    }

    /// Live tables waiting for a horizon to record them.
    pub(crate) fn waiting(&self) -> usize {
        self.unsynced.len() + self.synced.len()
    }

    /// Whether this engine's horizon is due, under a pool of `budget`
    /// points ([`due`]).
    pub(crate) fn due(&self, budget: usize) -> bool {
        due(self.points, self.waiting(), budget)
    }

    /// Takes an executed plan over: its outputs wait for the horizon, an
    /// input no horizon has synced is deleted now — nothing durable names
    /// it — and any other is retired until the horizon.
    fn defer(
        &mut self,
        prepared: &PreparedCompaction,
        store: &dyn TableStore,
    ) -> Result<()> {
        self.unsynced
            .extend(prepared.added.iter().map(|meta| meta.id));
        let mut never_synced = Vec::new();
        for &id in &prepared.plan.inputs {
            if let Some(at) = self.unsynced.iter().position(|held| *held == id)
            {
                never_synced.push(self.unsynced.swap_remove(at));
                continue;
            }
            self.synced.retain(|held| *held != id);
            store.note_retired(id);
            self.retired.push(id);
        }
        for id in never_synced {
            store.delete(id)?;
        }
        Ok(())
    }

    /// The live tables of `version` no durable manifest record is known to
    /// name, in run order.
    fn unrecorded<'v>(
        &'v self,
        version: &'v Version,
    ) -> impl Iterator<Item = &'v SsTableMeta> + 'v {
        let tables = version.run().tables().iter().chain(version.l0());
        tables.filter(|meta| {
            self.unsynced.contains(&meta.id) || self.synced.contains(&meta.id)
        })
    }

    /// The net change from the durable version to `version`: the retired
    /// tables out, the unrecorded live ones in — one manifest group.
    fn edits(&self, version: &Version) -> Vec<ManifestEdit> {
        let removed = self.retired.iter().copied().map(ManifestEdit::Remove);
        let added = self.unrecorded(version).copied().map(ManifestEdit::Add);
        removed.chain(added).collect()
    }
}

/// One engine's part in a [`horizon`]: its outbox and the version its plans
/// led to.
pub(crate) struct Share<'a> {
    /// Which series of its owner's manifest and log the engine is (0 for an
    /// engine that keeps its own).
    pub(crate) series: u32,
    pub(crate) outbox: &'a mut Outbox,
    pub(crate) version: &'a Version,
}

/// What a [`horizon`] runs over, and the manifest it records their net
/// change in.
pub(crate) enum Record<'r, 'a> {
    /// One engine and its own manifest, if it keeps one: one group.
    Own(&'r mut Share<'a>, Option<&'r mut Manifest>),
    /// Every series of a fleet, in ascending order, and the fleet's
    /// manifest: one group per series that changed, next to the live
    /// tables of every series (what a rewrite of the log keeps).
    Fleet(&'r mut [Share<'a>], &'r mut Manifest),
}

impl<'a> Record<'_, 'a> {
    fn shares(&mut self) -> &mut [Share<'a>] {
        match self {
            Self::Own(share, _) => std::slice::from_mut(&mut **share),
            Self::Fleet(shares, _) => shares,
        }
    }
}

/// The durability horizon over `record`'s engines, steps 1–4 of the module
/// docs: one fsync per live table the plans did not sync and then one of
/// the directory ([`TableStore::sync_published`]), the net change since the
/// durable version recorded in the manifest, and only then the retired
/// tables deleted. Returns, per engine whose flushes took anything, the
/// ranges they took out of memory: now durable, what the owner's log may
/// let go of (step 5, its
/// [`checkpoint_retired`](crate::engine::checkpoint_retired)). A no-op when
/// nothing waits.
///
/// # Errors
/// A failure up to the manifest record leaves every outbox as it was, for
/// the next horizon to retry — except that the tables synced by then are
/// retired, not deleted, by a plan that consumes them before it: the
/// failed record may name them. One after the record leaves retired tables
/// behind as orphans.
pub(crate) fn horizon(
    store: &dyn TableStore,
    mut record: Record<'_, '_>,
) -> Result<Vec<(u32, Vec<TimeRange>)>> {
    let shares = record.shares();
    if shares.iter().all(|share| share.outbox.is_empty()) {
        return Ok(Vec::new());
    }
    let ids: Vec<SsTableId> = shares
        .iter()
        .flat_map(|share| {
            let outbox = &*share.outbox;
            outbox
                .unrecorded(share.version)
                .filter(|meta| outbox.unsynced.contains(&meta.id))
        })
        .map(|meta| meta.id)
        .collect();
    store.sync_published(&ids)?;
    for share in shares.iter_mut() {
        let outbox = &mut *share.outbox;
        outbox.synced.append(&mut outbox.unsynced);
    }
    match &mut record {
        Record::Own(share, Some(manifest)) => {
            let version = share.version;
            let edits = share.outbox.edits(version);
            let (run, l0) = (version.run().tables(), version.l0());
            manifest.commit_or_rewrite(&edits, run, l0)?;
        }
        Record::Own(_, None) => {}
        Record::Fleet(shares, manifest) => {
            let edits: Vec<(u32, Vec<ManifestEdit>)> = shares
                .iter()
                .map(|share| (share.series, share.outbox.edits(share.version)))
                .filter(|(_, edits)| !edits.is_empty())
                .collect();
            let groups: Vec<(u32, &[ManifestEdit])> = edits
                .iter()
                .map(|(series, edits)| (*series, edits.as_slice()))
                .collect();
            let live: Vec<SeriesTables<'_>> = shares
                .iter()
                .map(|share| SeriesTables {
                    series: share.series,
                    run: share.version.run().tables(),
                    l0: share.version.l0(),
                })
                .collect();
            manifest.commit_fleet(&groups, &live)?;
        }
    }
    // Durable. Empty every outbox before anything below can fail, or the
    // next horizon would record this change a second time.
    let mut retired = Vec::new();
    let mut flushed = Vec::new();
    for share in record.shares() {
        let outbox = std::mem::take(&mut *share.outbox);
        retired.extend(outbox.retired);
        if !outbox.flushed.is_empty() {
            flushed.push((share.series, outbox.flushed));
        }
    }
    for id in retired {
        store.delete(id)?;
    }
    Ok(flushed)
}

/// Merges overlapping ranges: the fewest disjoint ranges covering the same
/// generation times, ascending. Owners that checkpoint several flushes of
/// one series at once coalesce them first, so that a still-volatile point
/// inside two of them is carried by one frame, not two.
pub(crate) fn coalesce(mut ranges: Vec<TimeRange>) -> Vec<TimeRange> {
    ranges.sort_by_key(|r| r.start);
    let mut out: Vec<TimeRange> = Vec::with_capacity(ranges.len());
    for range in ranges {
        match out.last_mut() {
            Some(last) if last.overlaps(&range) => *last = last.union(&range),
            _ => out.push(range),
        }
    }
    out
}

/// Executes a plan against the run of an inline engine: `write_outputs`,
/// then an in-memory [`commit`] — readers see the new tables at once —
/// with the rest left to the next horizon in `outbox` (see
/// [`Outbox::defer`]): the outputs unsynced, inputs no horizon synced
/// deleted at once, durable inputs kept on disk. An in-order buffer plans
/// with no inputs and commits as a flush; the background engine calls the
/// phases directly so the store I/O runs outside its state lock.
///
/// Merged tables carry correct v3 per-block pre-aggregates by
/// construction: the encoder re-derives min/max/sum/count from the merged
/// points it writes, never from the inputs' index entries. The
/// `check_version_against_store` call below re-decodes every table the
/// plan touched (debug builds), and the v3 decode audits each block's
/// stored aggregates against its actual contents — so an encoder
/// regression that let aggregation pushdown read stale or wrong
/// pre-aggregates fails here, at the compaction that introduced it.
///
/// # Errors
/// Storage failures; the version is only mutated if the edit applies
/// cleanly.
pub(crate) fn execute(
    plan: CompactionPlan,
    store: &dyn TableStore,
    written: &Written,
    version: &mut Version,
    outbox: &mut Outbox,
    metrics: &mut Metrics,
    obs: &ObserverHandle,
) -> Result<()> {
    let prepared = write_outputs(plan, store, written, obs)?;
    let into_run = |removed, added| VersionEdit::Replace {
        removed,
        added,
        drain_l0: false,
    };
    commit(&prepared, into_run, version, None, metrics, obs)?;
    outbox.defer(&prepared, store)?;
    // Debug builds cross-check the committed version against what the
    // store actually holds after every executed plan.
    crate::invariants::check_version_against_store(version, store)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(tgs: &[i64]) -> Vec<DataPoint> {
        tgs.iter()
            .map(|&t| DataPoint::new(t, t, t as f64))
            .collect()
    }

    fn input(id: u64, tgs: &[i64]) -> RunInput {
        let points = pts(tgs);
        RunInput {
            meta: SsTableMeta::describe(SsTableId(id), &points),
            points,
        }
    }

    #[test]
    fn plan_splits_output_at_sstable_points() {
        let plan = plan_merge(vec![pts(&[1, 2, 3, 4, 5])], Vec::new(), 2, None);
        assert!(plan.is_flush);
        assert!(plan.inputs.is_empty());
        assert_eq!(plan.merged_points, 5);
        assert_eq!(plan.rewritten_points, 0);
        let sizes: Vec<usize> = plan.outputs.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn plan_counts_rewrites_and_consumes_overlapping_tables() {
        let plan = plan_merge(
            vec![pts(&[15, 25])],
            vec![input(1, &[10, 20]), input(2, &[30, 40])],
            512,
            None,
        );
        assert!(!plan.is_flush);
        assert_eq!(plan.inputs, vec![SsTableId(1), SsTableId(2)]);
        assert_eq!(plan.rewritten_points, 4);
        assert_eq!(plan.merged_points, 6);
        let tgs: Vec<i64> =
            plan.outputs[0].iter().map(|p| p.gen_time).collect();
        assert_eq!(tgs, vec![10, 15, 20, 25, 30, 40]);
    }

    #[test]
    fn plan_keeps_freshest_duplicate() {
        // Priority order: buffer first, then older tables — buffer wins.
        let fresh = vec![vec![DataPoint::new(10, 99, 42.0)]];
        let plan = plan_merge(fresh, vec![input(1, &[10, 20])], 512, None);
        assert_eq!(plan.merged_points, 2);
        assert_eq!(plan.outputs[0][0].value, 42.0);
        // Same rule between two fresh sources (L0 newest-first).
        let plan = plan_merge(
            vec![
                vec![DataPoint::new(5, 1, 1.0)],
                vec![DataPoint::new(5, 2, 2.0)],
            ],
            Vec::new(),
            512,
            None,
        );
        assert_eq!(plan.merged_points, 1);
        assert_eq!(plan.outputs[0][0].value, 1.0);
    }

    #[test]
    fn plan_finishes_the_subsequent_probe_on_straddlers() {
        // Buffer minimum 15; straddler [10..20] contributes its point at 20,
        // the base (tables entirely above 15) was counted by the caller.
        let plan = plan_merge(
            vec![pts(&[15])],
            vec![input(1, &[10, 20])],
            512,
            Some(7),
        );
        assert_eq!(plan.subsequent, Some(8));
        // Non-straddling input (starts after the minimum): base untouched.
        let plan = plan_merge(
            vec![pts(&[15])],
            vec![input(2, &[16, 20])],
            512,
            Some(7),
        );
        assert_eq!(plan.subsequent, Some(7));
        // No probe requested: nothing recorded.
        assert_eq!(
            plan_merge(vec![pts(&[15])], Vec::new(), 512, None).subsequent,
            None
        );
    }

    #[test]
    fn execute_applies_plan_to_version_store_and_metrics() {
        use crate::store::MemStore;

        let store = MemStore::new();
        let written = Written::new(2);
        let mut version = Version::new();
        let mut outbox = Outbox::default();
        let mut metrics = Metrics::default();

        // Seed the run with one table, then merge a buffer into it.
        execute(
            plan_merge(vec![pts(&[10, 20])], Vec::new(), 2, None),
            &store,
            &written,
            &mut version,
            &mut outbox,
            &mut metrics,
            &ObserverHandle::detached(),
        )
        .expect("append");
        assert_eq!(metrics.flushes, 1);
        assert_eq!(metrics.disk_points_written, 2);
        assert_eq!(version.run().len(), 1);

        let meta = version.run().tables()[0];
        let plan = plan_merge(
            vec![pts(&[15])],
            vec![RunInput {
                meta,
                points: store.get(meta.id).expect("get"),
            }],
            2,
            None,
        );
        execute(
            plan,
            &store,
            &written,
            &mut version,
            &mut outbox,
            &mut metrics,
            &ObserverHandle::detached(),
        )
        .expect("execute");
        assert_eq!(metrics.compactions, 1);
        assert_eq!(metrics.rewritten_points, 2);
        assert_eq!(metrics.disk_points_written, 5);
        assert_eq!(metrics.tables_deleted, 1);
        version.run().check_invariants().expect("invariant");
        assert_eq!(version.run().total_points(), 3);
        // No horizon synced the consumed table: it is gone from the store
        // at once, and only the merge's outputs wait for one.
        assert!(store.get(meta.id).is_err());
        assert_eq!(outbox.waiting(), 2);
        assert_eq!(outbox.points, 0, "the engine counts what it flushed");
    }

    #[test]
    fn a_plan_with_no_inputs_commits_as_a_flush() {
        // The in-order (`C_seq`) flush: nothing overlaps, so the plan has
        // no inputs and must be accounted, journalled and announced as a
        // flush — never as a compaction.
        use crate::obs::{ManifestRecordKind, Observer, RingBufferSink};
        use crate::store::MemStore;
        use std::sync::Arc;

        let path = std::env::temp_dir().join(format!(
            "seplsm-compaction-flush-{}-{:?}.manifest",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let ring = RingBufferSink::new(64);
        let obs = ObserverHandle::attached(ring.clone() as Arc<dyn Observer>);
        let mut manifest = Manifest::open(&path).expect("open");
        manifest.attach_observer(obs.clone());
        let store = MemStore::new();
        let written = Written::new(2);
        let mut version = Version::new();
        let mut metrics = Metrics::default();
        for tgs in [[10, 20, 30], [40, 50, 60]] {
            let plan = plan_merge(vec![pts(&tgs)], Vec::new(), 2, None);
            assert!(plan.is_flush);
            let mut outbox = Outbox::default();
            execute(
                plan,
                &store,
                &written,
                &mut version,
                &mut outbox,
                &mut metrics,
                &obs,
            )
            .expect("execute");
            let mut share = Share {
                series: 0,
                outbox: &mut outbox,
                version: &version,
            };
            horizon(&store, Record::Own(&mut share, Some(&mut manifest)))
                .expect("horizon");
        }
        assert_eq!(metrics.flushes, 2);
        assert_eq!(metrics.compactions, 0);
        assert_eq!(metrics.rewritten_points, 0);
        assert_eq!(metrics.tables_deleted, 0);
        assert_eq!(metrics.tables_created, 4);
        assert_eq!(metrics.disk_points_written, 6);
        assert!(metrics.subsequent_counts.is_empty());
        assert_eq!(version.run().len(), 4);
        let kinds: Vec<&str> = ring.events().iter().map(Event::name).collect();
        assert_eq!(
            kinds,
            [
                "flush_started",
                "flush_finished",
                "manifest_record",
                "manifest_record",
                "flush_started",
                "flush_finished",
                "manifest_record",
                "manifest_record",
            ]
        );
        assert_eq!(
            ring.count(|e| matches!(
                e,
                Event::ManifestRecord {
                    kind: ManifestRecordKind::Add
                }
            )),
            4,
            "an in-order flush journals only run additions"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn merged_tables_carry_correct_pre_aggregates() {
        // The aggregation-pushdown invariant: after a merge, every block's
        // index pre-aggregates equal an in-order fold of the block's
        // decoded points (bitwise, including the count).
        use crate::sstable::format::block_aggregates;
        use crate::store::{load_index, MemStore};
        use seplsm_types::TimeRange;

        let store = MemStore::new(); // default options: v3
        let written = Written::new(3);
        let mut version = Version::new();
        let mut outbox = Outbox::default();
        let mut metrics = Metrics::default();
        execute(
            plan_merge(
                vec![pts(&[10, 20, 30, 40, 50, 60])],
                Vec::new(),
                3,
                None,
            ),
            &store,
            &written,
            &mut version,
            &mut outbox,
            &mut metrics,
            &ObserverHandle::detached(),
        )
        .expect("append");
        // Merge stragglers that overlap both appended tables, with values
        // that shift every block's min/max/sum.
        let mut fresh = pts(&[15, 45]);
        fresh[0].value = -7.5;
        fresh[1].value = 99.25;
        let inputs: Vec<RunInput> = version
            .run()
            .tables()
            .iter()
            .map(|&meta| RunInput {
                meta,
                points: store.get(meta.id).expect("get"),
            })
            .collect();
        let plan = plan_merge(vec![fresh], inputs, 3, None);
        execute(
            plan,
            &store,
            &written,
            &mut version,
            &mut outbox,
            &mut metrics,
            &ObserverHandle::detached(),
        )
        .expect("execute");
        assert_eq!(metrics.compactions, 1);
        let mut audited = 0;
        for meta in version.run().tables() {
            let (index, _) =
                load_index(&store, meta.id).expect("load").expect("index");
            for span in &index.blocks {
                let stored = span.agg.expect("v3 tables carry aggregates");
                let read = store
                    .get_range(meta.id, TimeRange::new(span.first, span.last))
                    .expect("read block");
                let actual =
                    block_aggregates(&read.points).expect("non-empty block");
                assert!(
                    actual.bits_eq(&stored),
                    "table {} block [{}, {}]: stored {:?} != actual {:?}",
                    meta.id,
                    span.first,
                    span.last,
                    stored,
                    actual
                );
                audited += 1;
            }
        }
        assert!(audited >= 3, "expected multiple blocks, got {audited}");
    }

    #[test]
    fn plan_is_pure_over_its_snapshot() {
        let fresh = vec![pts(&[1, 2])];
        let tables = vec![input(9, &[2, 3])];
        let a = plan_merge(fresh.clone(), tables.clone(), 2, Some(0));
        let b = plan_merge(fresh, tables, 2, Some(0));
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.merged_points, b.merged_points);
        assert_eq!(a.rewritten_points, b.rewritten_points);
        assert_eq!(a.subsequent, b.subsequent);
        assert_eq!(a.outputs.len(), b.outputs.len());
    }

    // ------------------------------------------------- the written pool

    use crate::fault::{is_injected, Fault, FaultPlan, FaultStore, IoOp};
    use crate::store::MemStore;
    use std::sync::Arc;

    /// The ids the pool holds, oldest first, and its point total.
    fn held(written: &Written) -> (Vec<SsTableId>, usize) {
        let fifo = written.fifo.lock();
        (fifo.tables.iter().map(|(id, _)| *id).collect(), fifo.points)
    }

    #[test]
    fn the_pool_keeps_to_its_budget_and_lets_the_oldest_go_first() {
        let written = Written::new(2);
        let budget = Written::TABLES * 2;
        // Every table kept so far, with its size, in the order kept: plans
        // of one to three tables of one or two points, then one plan larger
        // than the whole pool.
        let mut kept: Vec<(SsTableId, usize)> = Vec::new();
        let mut plans: Vec<Vec<usize>> = (0..100)
            .map(|i| (0..i % 3 + 1).map(|j| (i + j) % 2 + 1).collect())
            .collect();
        plans.push(vec![2; Written::TABLES + 6]);
        for sizes in plans {
            let tables: Vec<(SsTableId, Vec<DataPoint>)> = sizes
                .iter()
                .map(|&size| {
                    let id = SsTableId(kept.len() as u64);
                    kept.push((id, size));
                    (id, pts(&[0, 1][..size]))
                })
                .collect();
            written.keep(tables.into_iter());
            let (ids, points) = held(&written);
            assert!(points <= budget, "{points} > {budget}");
            // FIFO: the newest tables kept, as many as fit and no fewer.
            let from = kept.len() - ids.len();
            let suffix: Vec<SsTableId> =
                kept[from..].iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, suffix);
            assert_eq!(points, kept[from..].iter().map(|(_, n)| n).sum());
            if from > 0 {
                assert!(points + kept[from - 1].1 > budget, "evicted too much");
            }
        }
        assert_eq!(held(&written).0.len(), Written::TABLES);
    }

    #[test]
    fn a_consumed_or_evicted_table_is_read_from_the_store() {
        let plan = FaultPlan::trace_only(0);
        let store = FaultStore::new(MemStore::new(), Arc::clone(&plan));
        let written = Written::new(1);
        // One more one-point table than the pool holds.
        let tgs: Vec<i64> = (0..=Written::TABLES as i64).collect();
        let flush = plan_merge(vec![pts(&tgs)], Vec::new(), 1, None);
        let obs = ObserverHandle::detached();
        let prepared =
            write_outputs(flush, &store, &written, &obs).expect("write");
        assert!(prepared.plan.outputs.is_empty(), "moved, not cloned");
        let ids: Vec<SsTableId> =
            prepared.added.iter().map(|meta| meta.id).collect();
        let reads = || plan.counts()[IoOp::StoreRead as usize];
        let take =
            |i: usize| written.take_or_read(&store, ids[i]).expect("take");
        assert_eq!((take(0), reads()), (pts(&[0]), 1), "evicted: read");
        assert_eq!((take(1), reads()), (pts(&[1]), 1), "held: taken");
        assert_eq!((take(1), reads()), (pts(&[1]), 2), "consumed: read");
        assert_eq!(held(&written).0.len(), Written::TABLES - 1);
    }

    /// The inline executor's hand-off over the pipeline alone: the run
    /// tables overlapping `fresh` are taken out of `written`, merged with it
    /// and written back, and the plan is its own horizon.
    fn merge_in(
        fresh: Vec<DataPoint>,
        store: &dyn TableStore,
        written: &Written,
        version: &mut Version,
    ) -> Result<()> {
        let range =
            TimeRange::new(fresh[0].gen_time, fresh[fresh.len() - 1].gen_time);
        let mut inputs = Vec::new();
        for meta in version.run().overlapping(range) {
            let points = written.take_or_read(store, meta.id)?;
            inputs.push(RunInput { meta, points });
        }
        let mut outbox = Outbox::default();
        execute(
            plan_merge(vec![fresh], inputs, 4, None),
            store,
            written,
            version,
            &mut outbox,
            &mut Metrics::default(),
            &ObserverHandle::detached(),
        )?;
        let mut share = Share {
            series: 0,
            outbox: &mut outbox,
            version,
        };
        horizon(store, Record::Own(&mut share, None)).map(drop)
    }

    #[test]
    fn a_merge_that_fails_at_its_first_write_retries_from_the_store() {
        let run: Vec<DataPoint> =
            pts(&(0..16).map(|i| i * 10).collect::<Vec<_>>());
        // Stragglers between every pair, and overwrites of every other one.
        let fresh: Vec<DataPoint> = (0..32)
            .map(|i| DataPoint::new(i * 5, 1_000 + i, -(i as f64)))
            .collect();
        let attempt = |fault: Fault| {
            let plan = FaultPlan::new(0, fault);
            let store = FaultStore::new(MemStore::new(), Arc::clone(&plan));
            let written = Written::new(4);
            let mut version = Version::new();
            merge_in(run.clone(), &store, &written, &mut version)
                .expect("flush");
            let at = plan.ops();
            let merged =
                merge_in(fresh.clone(), &store, &written, &mut version);
            (plan, store, written, version, at, merged)
        };
        // A traced pass finds where the merge's first op falls: it reads
        // nothing, so that op is its first table write.
        let (plan, .., at, merged) = attempt(Fault::None);
        merged.expect("traced merge");
        assert_eq!(plan.trace()[at as usize], IoOp::StoreWrite);
        let (plan, store, written, mut version, failed_at, merged) =
            attempt(Fault::FailOnce { at });
        assert_eq!(failed_at, at);
        let err = merged.expect_err("the first write fails");
        assert!(is_injected(&err), "{err}");
        assert_eq!(version.run().len(), 4, "the version is untouched");
        // The failed attempt consumed the four run tables' entries: the
        // retry reads exactly those four before it writes.
        let before = plan.ops() as usize;
        merge_in(fresh.clone(), &store, &written, &mut version).expect("retry");
        let trace = plan.trace();
        let ops = &trace[before..];
        let first_write = ops
            .iter()
            .position(|op| *op == IoOp::StoreWrite)
            .expect("the retry writes");
        assert_eq!(ops[..first_write], [IoOp::StoreRead; 4]);
        // And the run holds what a model of the two writes holds.
        let mut model = std::collections::BTreeMap::new();
        for p in run.into_iter().chain(fresh) {
            model.insert(p.gen_time, p);
        }
        let mut stored = Vec::new();
        for meta in version.run().tables() {
            stored.extend(store.get(meta.id).expect("get"));
        }
        assert_eq!(stored, model.into_values().collect::<Vec<_>>());
    }
}
