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
//! durable state may lag the in-memory one: an engine makes its plans
//! durable at a *horizon*, not one by one, whichever executor runs them.
//! Between horizons a plan publishes its outputs without making them
//! durable ([`TableStore::publish_batch`]: the
//! [`FileStore`](crate::FileStore) keeps them in memory) and commits the
//! version in memory; inputs that no horizon synced are deleted at once,
//! durable ones stay on disk. A table a merge consumes before its horizon
//! therefore never reaches the file system. The engine's [`Outbox`] keeps
//! the score, and `horizon` then runs over a slice of `Share`s — one
//! engine's, or every series' of a fleet at once:
//!
//! 1. one write and one fsync per table still live and unsynced;
//! 2. one fsync of the tables directory;
//! 3. one manifest commit: per engine that changed, one group with the net
//!    change between its durable version and its current one;
//! 4. the deletion of the retired durable inputs;
//! 5. by the owner of the log: a checkpoint per coalesced range the
//!    flushes took out of memory, and a cut of the log when one is due.
//!
//! A horizon is due once the flushes have taken `Written::TABLES` tables'
//! worth of points out of memory — the log a crash replays is never longer
//! — or more than `MAX_UNCOMMITTED_TABLES` live tables wait, and at rest.
//! The inline executor runs it on the appending thread, the background
//! worker after a plan of its own, and a durable fleet over all of its
//! series; an engine without a manifest runs the same horizon with nothing
//! to record.
//!
//! A merge's inputs are, under disorder, mostly the tables the last few
//! plans wrote. `write_outputs` therefore hands each plan's decoded outputs
//! to the store's pool of written tables, and every merge-input fetch takes
//! its table from there before it reads the store: what the paper counts
//! is written exactly as before, only the read-back goes. A fleet's series
//! share one pool; over budget the series holding the most points gives up
//! its oldest table, so the next merge of a cold series still finds the
//! tail it consumes however much the hot ones wrote since.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use seplsm_types::{DataPoint, Error, Result, TimeRange};

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
/// merges that are about to consume them: one pool per engine, one per fleet
/// (its series share it as they share the store).
///
/// The pool holds `(id, points)` entries, at most [`Written::TABLES`] full
/// tables' worth of points, each tagged with its *owner*: the series of a
/// fleet that wrote it (`Some(series)`, the key of [`Share::series`]) or an
/// engine's own pool (`None`). While the pool is over budget, the owner that
/// holds the most points gives up its oldest entry, ties going to the lowest
/// key. With one owner that is plain FIFO. In a fleet a series' next merge
/// consumes its own latest tables, so the Zipf-hot series give up their
/// surplus, not the cold series' run tails.
///
/// Ids are store-unique and tables immutable, so an entry is exact for as
/// long as its table exists; a merge consumes the entries it takes, and
/// entries no merge asks for are evicted. It is memory outside the paper's
/// budget *n* and changes only what is read back: queries, audits and
/// recovery still read the store.
///
/// A `Written` is a cheap handle on the pool: the owner whose tables it
/// keeps and a shared reference to the pool ([`Written::for_series`]).
#[derive(Debug, Clone)]
pub(crate) struct Written {
    /// The owner this handle keeps tables for.
    series: Option<u32>,
    pool: Arc<Pool>,
}

#[derive(Debug)]
struct Pool {
    /// Points the pool may hold.
    budget: usize,
    held: Mutex<Held>,
}

#[derive(Debug, Default)]
struct Held {
    /// Per owner, its entries oldest first; an owner holding none is absent.
    owners: BTreeMap<Option<u32>, Owned>,
    /// The owner of every entry held.
    owner_of: HashMap<SsTableId, Option<u32>>,
    /// `Σ owners[o].points`.
    points: usize,
}

#[derive(Debug, Default)]
struct Owned {
    tables: VecDeque<(SsTableId, Vec<DataPoint>)>,
    /// `Σ tables[i].1.len()`.
    points: usize,
}

impl Held {
    /// The owner that holds the most points, the lowest key among equals
    /// (`max_by_key` keeps the last maximum it meets).
    fn largest(&self) -> Option<Option<u32>> {
        let owners = self.owners.iter().rev();
        owners
            .max_by_key(|(_, owned)| owned.points)
            .map(|(owner, _)| *owner)
    }

    /// Removes the entry at position `at` of `owner`'s, oldest first.
    fn remove(
        &mut self,
        owner: Option<u32>,
        at: usize,
    ) -> Option<Vec<DataPoint>> {
        let owned = self.owners.get_mut(&owner)?;
        let (id, points) = owned.tables.remove(at)?;
        owned.points -= points.len();
        if owned.tables.is_empty() {
            self.owners.remove(&owner);
        }
        self.owner_of.remove(&id);
        self.points -= points.len();
        Some(points)
    }
}

impl Written {
    /// How many full tables the pool holds: 768 KiB of points at the
    /// paper's 512-point tables.
    pub(crate) const TABLES: usize = 64;

    /// An empty pool for tables of `sstable_points`, and the handle of its
    /// unnamed owner: an engine's own.
    pub(crate) fn new(sstable_points: usize) -> Self {
        Self {
            series: None,
            pool: Arc::new(Pool {
                budget: Self::TABLES.saturating_mul(sstable_points),
                held: Mutex::default(),
            }),
        }
    }

    /// The handle through which fleet series `series` keeps its tables in
    /// this pool.
    pub(crate) fn for_series(&self, series: u32) -> Self {
        Self {
            series: Some(series),
            pool: Arc::clone(&self.pool),
        }
    }

    /// Points the pool may hold: also how many points an engine's (or a
    /// fleet's) flushes may take out of memory before its next horizon is
    /// due.
    pub(crate) fn budget(&self) -> usize {
        self.pool.budget
    }

    /// Keeps `tables`, just written by this handle's owner, then lets the
    /// largest holder's oldest entries go until the pool is back within its
    /// budget.
    fn keep(&self, tables: impl Iterator<Item = (SsTableId, Vec<DataPoint>)>) {
        let mut held = self.pool.held.lock();
        for (id, points) in tables {
            held.points += points.len();
            held.owner_of.insert(id, self.series);
            let owned = held.owners.entry(self.series).or_default();
            owned.points += points.len();
            owned.tables.push_back((id, points));
        }
        while held.points > self.pool.budget {
            let Some(owner) = held.largest() else { break };
            held.remove(owner, 0);
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
        let mut held = self.pool.held.lock();
        let owner = *held.owner_of.get(&id)?;
        let owned = held.owners.get(&owner)?;
        let at = owned.tables.iter().position(|(held, _)| *held == id)?;
        held.remove(owner, at)
    }
}

/// A plan whose output tables have been published to the store but whose
/// [`VersionEdit`] has not yet been committed — the intermediate state
/// between `write_outputs` and [`commit`].
///
/// Splitting execution into *write* (store I/O, no version access) and
/// *commit* (version/metrics, no store I/O) lets the background worker
/// write outputs without holding its state lock and take the lock only for
/// [`commit`].
#[derive(Debug)]
pub struct PreparedCompaction {
    /// The plan being executed; its `outputs` have moved on into the
    /// store's pool of written tables.
    pub plan: CompactionPlan,
    /// Metadata of the freshly written output tables, one per output.
    pub added: Vec<SsTableMeta>,
}

/// Phase 1 of plan execution: announces the plan (`FlushStarted` /
/// `CompactionPlanned`) and publishes every output table as one
/// [`TableStore::publish_batch`] — readable, not yet durable: see
/// [`horizon`] — then moves the decoded outputs, under
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
    let added: Vec<SsTableMeta> =
        stored.into_iter().map(|(meta, _)| meta).collect();
    let outputs = std::mem::take(&mut plan.outputs);
    written.keep(added.iter().map(|meta| meta.id).zip(outputs));
    Ok(PreparedCompaction { plan, added })
}

/// Phase 2 of plan execution — the only writer of version + metrics:
/// atomically applies, in memory, the one [`VersionEdit`] that `place`
/// makes of the plan's consumed inputs and stored outputs
/// ([`VersionEdit::Replace`] for a merge into the run,
/// [`VersionEdit::FlushToL0`] for a background flush), and does all metric
/// accounting and completion events. Does no I/O — this is the only phase
/// that needs the engine's state lock; the plan becomes durable at the
/// next [`horizon`]. Debug builds also check that the commit did not move
/// the classification pivot `LAST(R).t_g` backwards (Definition 3). Returns
/// the edit it applied.
///
/// # Errors
/// Version failures; the version is only mutated if the edit applies
/// cleanly. In debug builds, [`Error::Corrupt`] when the applied edit moved
/// the pivot backwards.
pub fn commit(
    prepared: &PreparedCompaction,
    place: impl FnOnce(Vec<SsTableId>, Vec<SsTableMeta>) -> VersionEdit,
    version: &mut Version,
    metrics: &mut Metrics,
    obs: &ObserverHandle,
) -> Result<VersionEdit> {
    let plan = &prepared.plan;
    let edits = [place(plan.inputs.clone(), prepared.added.clone())];
    let before = cfg!(debug_assertions)
        .then(|| version.last_stored_gen_time())
        .flatten();
    version.apply(&edits)?;
    let now = before.and_then(|_| version.last_stored_gen_time());
    if let (Some(before), Some(now)) = (before, now) {
        if now < before {
            return Err(Error::Corrupt(format!(
                "classification pivot LAST(R).t_g regressed: \
                 {before} -> {now}"
            )));
        }
    }
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

/// What the plans of one engine have left to its next horizon (see the
/// module docs): the live tables they published and did not sync, the
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
    /// executor adds these itself; a plan does not know what was fresh).
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

    /// Takes an executed plan over: its `added` outputs wait for the
    /// horizon, and of the tables it `consumed` any a horizon synced is
    /// retired until the next one. Returns the others, which nothing
    /// durable names: the caller deletes them at once.
    pub(crate) fn defer(
        &mut self,
        added: &[SsTableMeta],
        consumed: &[SsTableId],
        store: &dyn TableStore,
    ) -> Vec<SsTableId> {
        self.unsynced.extend(added.iter().map(|meta| meta.id));
        let mut never_synced = Vec::new();
        for &id in consumed {
            if let Some(at) = self.unsynced.iter().position(|held| *held == id)
            {
                never_synced.push(self.unsynced.swap_remove(at));
                continue;
            }
            self.synced.retain(|held| *held != id);
            store.note_retired(id);
            self.retired.push(id);
        }
        never_synced
    }

    /// Whether the live table `id` is one no durable manifest record is
    /// known to name.
    fn unrecorded(&self, id: SsTableId) -> bool {
        self.unsynced.contains(&id) || self.synced.contains(&id)
    }

    /// The net change from the durable version to `version`, as one
    /// manifest group: the retired tables out, then the unrecorded live
    /// ones in — run tables in run order, L0 tables in flush order.
    fn edits(&self, version: &Version) -> Vec<ManifestEdit> {
        let unrecorded = |meta: &&SsTableMeta| self.unrecorded(meta.id);
        let run = version.run().tables().iter().filter(unrecorded);
        let l0 = version.l0().iter().filter(unrecorded);
        let removed = self.retired.iter().copied().map(ManifestEdit::Remove);
        removed
            .chain(run.copied().map(ManifestEdit::Add))
            .chain(l0.copied().map(ManifestEdit::AddL0))
            .collect()
    }
}

/// One engine's part in a [`horizon`]: its outbox and the version its plans
/// led to.
pub(crate) struct Share<'a> {
    /// Which series of its owner's manifest the engine is: `None` for an
    /// engine that keeps its own.
    pub(crate) series: Option<u32>,
    pub(crate) outbox: &'a mut Outbox,
    pub(crate) version: &'a Version,
}

/// The durability horizon over `shares` — one engine, or every series of
/// a fleet in ascending order — steps 1–4 of the module docs: one write and
/// one fsync per live table the plans did not sync and then one fsync of
/// the directory ([`TableStore::sync_published`]), the net change since the
/// durable version recorded in `manifest` (one group per share that
/// changed, weighed against every share's live tables), and only then the
/// retired tables deleted. Returns, per share, the ranges its flushes took
/// out of memory: now durable, what the owner's log may let go of (step 5,
/// its [`checkpoint_retired`](crate::engine::checkpoint_retired)). A no-op
/// when nothing waits.
///
/// # Errors
/// A failure up to the manifest record leaves every outbox as it was, for
/// the next horizon to retry — except that the tables synced by then are
/// retired, not deleted, by a plan that consumes them before it: the
/// failed record may name them. One after the record leaves retired tables
/// behind as orphans.
pub(crate) fn horizon(
    store: &dyn TableStore,
    shares: &mut [Share<'_>],
    manifest: Option<&mut Manifest>,
) -> Result<Vec<Vec<TimeRange>>> {
    if shares.iter().all(|share| share.outbox.is_empty()) {
        return Ok(Vec::new());
    }
    let ids: Vec<SsTableId> = shares
        .iter()
        .flat_map(|share| {
            let (version, outbox) = (share.version, &*share.outbox);
            let live = version.run().tables().iter().chain(version.l0());
            live.map(|meta| meta.id)
                .filter(|id| outbox.unsynced.contains(id))
        })
        .collect();
    store.sync_published(&ids)?;
    for share in shares.iter_mut() {
        let outbox = &mut *share.outbox;
        outbox.synced.append(&mut outbox.unsynced);
    }
    if let Some(manifest) = manifest {
        let edits: Vec<(Option<u32>, Vec<ManifestEdit>)> = shares
            .iter()
            .map(|share| (share.series, share.outbox.edits(share.version)))
            .filter(|(_, edits)| !edits.is_empty())
            .collect();
        let groups: Vec<(Option<u32>, &[ManifestEdit])> = edits
            .iter()
            .map(|(series, edits)| (*series, edits.as_slice()))
            .collect();
        let live: Vec<SeriesTables<'_>> = shares
            .iter()
            .map(|share| share.version.series_tables(share.series))
            .collect();
        manifest.commit_groups(&groups, &live)?;
    }
    // Durable. Empty every outbox before anything below can fail, or the
    // next horizon would record this change a second time.
    let mut retired = Vec::new();
    let mut flushed = Vec::with_capacity(shares.len());
    for share in shares.iter_mut() {
        let outbox = std::mem::take(&mut *share.outbox);
        retired.extend(outbox.retired);
        flushed.push(outbox.flushed);
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
/// same steps itself so the store I/O runs outside its state lock.
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
    commit(&prepared, into_run, version, metrics, obs)?;
    for id in outbox.defer(&prepared.added, &prepared.plan.inputs, store) {
        store.delete(id)?;
    }
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

    /// The horizon over one engine that keeps `manifest`, if any, as its
    /// own.
    fn own_horizon(
        store: &dyn TableStore,
        outbox: &mut Outbox,
        version: &Version,
        manifest: Option<&mut Manifest>,
    ) -> Result<Vec<Vec<TimeRange>>> {
        let mut share = Share {
            series: None,
            outbox,
            version,
        };
        horizon(store, std::slice::from_mut(&mut share), manifest)
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
    fn a_commit_that_moves_the_pivot_back_is_corrupt() {
        let meta = |id, start, end| SsTableMeta {
            id: SsTableId(id),
            range: TimeRange::new(start, end),
            count: 2,
        };
        let mut version = Version::new();
        version
            .apply(&[VersionEdit::Replace {
                removed: Vec::new(),
                added: vec![meta(1, 0, 100), meta(2, 150, 200)],
                drain_l0: false,
            }])
            .expect("seed");
        // The run's tail [150 .. 200] comes back as a table ending at 150.
        let prepared = PreparedCompaction {
            plan: CompactionPlan {
                inputs: vec![SsTableId(2)],
                outputs: Vec::new(),
                merged_points: 2,
                rewritten_points: 2,
                subsequent: None,
                is_flush: false,
            },
            added: vec![meta(3, 120, 150)],
        };
        let into_run = |removed, added| VersionEdit::Replace {
            removed,
            added,
            drain_l0: false,
        };
        let err = commit(
            &prepared,
            into_run,
            &mut version,
            &mut Metrics::default(),
            &ObserverHandle::detached(),
        )
        .expect_err("the pivot moved from 200 back to 150");
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("pivot"), "{err}");
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
            own_horizon(&store, &mut outbox, &version, Some(&mut manifest))
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

    /// The background worker's two plans over the pipeline alone: a flush
    /// of `points` into L0, or a merge of every L0 table into the empty
    /// run; both left to `outbox`.
    fn into_l0(
        points: Option<Vec<DataPoint>>,
        store: &MemStore,
        version: &mut Version,
        outbox: &mut Outbox,
    ) {
        let l0: Vec<SsTableId> = version.l0().iter().map(|m| m.id).collect();
        let fresh = match &points {
            Some(points) => vec![points.clone()],
            None => l0
                .iter()
                .rev()
                .map(|id| store.get(*id).expect("get"))
                .collect(),
        };
        let plan = plan_merge(fresh, Vec::new(), 2, None);
        let obs = ObserverHandle::detached();
        let prepared =
            write_outputs(plan, store, &Written::new(2), &obs).expect("write");
        let consumed = if points.is_some() { Vec::new() } else { l0 };
        commit(
            &prepared,
            |removed, added| match points {
                Some(points) => VersionEdit::FlushToL0 {
                    batch: Arc::new(points),
                    tables: added,
                },
                None => VersionEdit::Replace {
                    removed,
                    added,
                    drain_l0: true,
                },
            },
            version,
            &mut Metrics::default(),
            &obs,
        )
        .expect("commit");
        let doomed = outbox.defer(&prepared.added, &consumed, store);
        assert!(doomed.is_empty(), "every input was synced");
    }

    #[test]
    fn a_horizon_records_l0_tables_in_l0_and_an_l0_merge_as_its_net_change() {
        let path = std::env::temp_dir().join(format!(
            "seplsm-compaction-l0-{}-{:?}.manifest",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut manifest = Manifest::open(&path).expect("open");
        let store = MemStore::new();
        let mut version = Version::new();
        let mut outbox = Outbox::default();
        let mut horizon_over = |version: &Version, outbox: &mut Outbox| {
            own_horizon(&store, outbox, version, Some(&mut manifest))
                .expect("horizon");
            let (mut series, _) =
                Manifest::replay(&path, true).expect("replay");
            series.remove(&None).unwrap_or_default()
        };
        // Two flushes into L0, overlapping: three tables in flush order.
        into_l0(Some(pts(&[10, 20, 30])), &store, &mut version, &mut outbox);
        into_l0(Some(pts(&[5, 25])), &store, &mut version, &mut outbox);
        let (run, l0) = horizon_over(&version, &mut outbox);
        assert!(run.is_empty(), "L0 tables replayed into the run: {run:?}");
        assert_eq!(l0, version.l0());
        assert_eq!(l0.len(), 3);
        // The merge of all three into the run: their removal and the
        // outputs' addition, and the durable inputs deleted only now.
        let inputs = version.live_table_ids();
        into_l0(None, &store, &mut version, &mut outbox);
        assert!(inputs.iter().all(|id| store.get(*id).is_ok()), "retired");
        let (run, l0) = horizon_over(&version, &mut outbox);
        assert!(l0.is_empty());
        assert_eq!(run, version.run().tables());
        assert!(inputs.iter().all(|id| store.get(*id).is_err()), "deleted");
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

    /// The ids the pool holds, owner by owner in key order and oldest
    /// first within each, and its point total.
    fn held(written: &Written) -> (Vec<SsTableId>, usize) {
        let held = written.pool.held.lock();
        let ids = held
            .owners
            .values()
            .flat_map(|owned| owned.tables.iter().map(|(id, _)| *id));
        (ids.collect(), held.points)
    }

    /// Table `id` of `size` points.
    fn table(id: u64, size: usize) -> (SsTableId, Vec<DataPoint>) {
        (SsTableId(id), pts(&[0, 1][..size]))
    }

    fn ids(ids: impl IntoIterator<Item = u64>) -> Vec<SsTableId> {
        ids.into_iter().map(SsTableId).collect()
    }

    #[test]
    fn the_largest_holder_gives_up_its_oldest_entry_first() {
        let pool = Written::new(2);
        let budget = pool.budget() as u64;
        let (cold, hot) = (pool.for_series(1), pool.for_series(2));
        cold.keep([table(0, 1), table(1, 1)].into_iter());
        // The hot series writes twice the budget, a table at a time: it
        // gives up its own oldest tables, never the cold series' two.
        for id in 2..2 + budget {
            hot.keep(std::iter::once(table(id, 2)));
        }
        let newest = 2 + budget - (budget - 2) / 2;
        let expected = ids((0..2).chain(newest..2 + budget));
        assert_eq!(held(&pool), (expected, budget as usize));
        // A take finds its entry whoever owns it, and the entry leaves.
        assert_eq!(hot.take(SsTableId(0)), Some(pts(&[0])));
        assert_eq!(cold.take(SsTableId(0)), None);

        // Equal holders: the lowest series key gives up first.
        let pool = Written::new(2);
        let (three, four, five) =
            (pool.for_series(3), pool.for_series(4), pool.for_series(5));
        four.keep((0..32).map(|id| table(id, 2)));
        three.keep((32..64).map(|id| table(id, 2)));
        five.keep(std::iter::once(table(64, 2)));
        let expected = ids((33..64).chain(0..32).chain([64]));
        assert_eq!(held(&pool).0, expected, "series 3 gave up table 32");
        five.keep(std::iter::once(table(65, 2)));
        let expected = ids((33..64).chain(1..32).chain([64, 65]));
        assert_eq!(held(&pool).0, expected, "then series 4, now larger");

        // A single owner, named or not, evicts in FIFO order.
        let only = Written::new(1).for_series(9);
        let tables = Written::TABLES as u64;
        only.keep((0..=tables).map(|id| table(id, 1)));
        assert_eq!(held(&only), (ids(1..=tables), Written::TABLES));
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
        own_horizon(store, &mut outbox, version, None).map(drop)
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
