//! Layer drills: inputs captured from the traced run (its point stream and
//! the table files it left behind) replayed straight into each layer's
//! public functions, in isolation, for the per-point costs that spans
//! around whole calls cannot separate (encode inside `put`, decode inside
//! `get`, planning inside a merge).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use seplsm_lsm::sstable::format::{
    decode, decode_range, encode_with, read_table_index,
};
use seplsm_lsm::store::load_index;
use seplsm_lsm::{
    merge_sorted, plan_merge, BlockCache, BlockKey, EncodeOptions, FileStore,
    FlushTrigger, PolicyBuffers, RunInput, SsTableId, SsTableMeta, TableStore,
    Wal,
};
use seplsm_types::{DataPoint, Policy, Result, TimeRange};

use crate::adapter::SSTABLE_POINTS;
use crate::stats::{median_f64, ratio};

/// Points replayed into the WAL and buffer drills, tables sampled for the
/// SSTable drills, and repetitions of each (the median is reported).
const DRILL_POINTS: usize = 50_000;
const DRILL_TABLES: usize = 48;
const REPEATS: usize = 5;

#[derive(Debug, Default)]
pub struct Drills {
    pub wal_append_ns: f64,
    pub buffer_insert_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub decode_range_ns: f64,
    pub index_load_us: f64,
    pub filter_probe_ns: f64,
    pub plan_ns: f64,
    pub merge_ns: f64,
    pub cache_lookup_ns: f64,
}

/// Median over `REPEATS` of `f`'s nanoseconds per `units` it reports.
fn per_unit(mut f: impl FnMut() -> Result<usize>) -> Result<f64> {
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let units = f()?;
        samples.push(ratio(t0.elapsed().as_nanos() as f64, units as f64));
    }
    Ok(median_f64(&samples))
}

impl Drills {
    /// Runs every drill. `scratch` is a directory for the WAL drill's file;
    /// `tables` is the run's table directory; the cache drill runs only for
    /// a workload that has a cache.
    pub fn run(
        stream: &[DataPoint],
        policy: Policy,
        tables: &Path,
        scratch: &Path,
        with_cache: bool,
    ) -> Result<Self> {
        let points = &stream[..stream.len().min(DRILL_POINTS)];
        let mut drills = Self {
            wal_append_ns: wal_append(points, scratch)?,
            buffer_insert_ns: buffer_insert(points, policy)?,
            ..Self::default()
        };
        let store = FileStore::open_with(tables, EncodeOptions::pruned())?;
        let ids = store.list()?;
        if ids.is_empty() {
            return Ok(drills);
        }
        let step = (ids.len() / DRILL_TABLES).max(1);
        let sample: Vec<SsTableId> = ids
            .iter()
            .copied()
            .step_by(step)
            .take(DRILL_TABLES)
            .collect();
        let mut raw = Vec::with_capacity(sample.len());
        let mut decoded = Vec::with_capacity(sample.len());
        for id in &sample {
            let bytes = std::fs::read(tables.join(format!("{:08}.sst", id.0)))?;
            decoded.push(decode(&bytes)?);
            raw.push(bytes);
        }
        let total_points: usize = decoded.iter().map(Vec::len).sum();

        drills.decode_ns = per_unit(|| {
            for bytes in &raw {
                black_box(decode(black_box(bytes))?);
            }
            Ok(total_points)
        })?;
        drills.encode_ns = per_unit(|| {
            for points in &decoded {
                black_box(encode_with(
                    black_box(points),
                    &EncodeOptions::pruned(),
                )?);
            }
            Ok(total_points)
        })?;
        // A narrow window in the middle of each table: one block decoded.
        drills.decode_range_ns = per_unit(|| {
            let mut scanned = 0;
            for (bytes, points) in raw.iter().zip(&decoded) {
                let mid = points[points.len() / 2].gen_time;
                let read = decode_range(bytes, TimeRange::new(mid, mid))?;
                scanned += read.points_scanned as usize;
                black_box(read);
            }
            Ok(scanned)
        })?;
        drills.index_load_us = per_unit(|| {
            for id in &sample {
                black_box(load_index(&store, *id)?);
            }
            Ok(sample.len())
        })? / 1e3;
        // Point probes just off the table's own grid, so the bloom filter
        // (not the min/max range) gives the answer.
        let indexes = raw
            .iter()
            .map(|bytes| read_table_index(bytes))
            .collect::<Result<Vec<_>>>()?;
        drills.filter_probe_ns = per_unit(|| {
            let mut probes = 0;
            for (index, points) in indexes.iter().zip(&decoded) {
                for p in points.iter().step_by(8) {
                    let tg = p.gen_time + 1;
                    black_box(index.may_contain(TimeRange::new(tg, tg)));
                    probes += 1;
                }
            }
            Ok(probes)
        })?;

        // A full buffer of the stream merged into the four tables it would
        // most plausibly overlap: the newest ones.
        let mut fresh: Vec<DataPoint> =
            points[..points.len().min(SSTABLE_POINTS)].to_vec();
        fresh.sort_by_key(|p| p.gen_time);
        let inputs: Vec<RunInput> = sample
            .iter()
            .zip(&decoded)
            .rev()
            .take(4)
            .map(|(id, points)| RunInput {
                meta: SsTableMeta::describe(*id, points),
                points: points.clone(),
            })
            .collect();
        drills.plan_ns = per_unit(|| {
            let plan = plan_merge(
                vec![fresh.clone()],
                inputs.clone(),
                SSTABLE_POINTS,
                None,
            );
            let merged = plan.merged_points as usize;
            black_box(plan);
            Ok(merged)
        })?;
        drills.merge_ns = per_unit(|| {
            let merged = merge_sorted(decoded.clone());
            let n = merged.len();
            black_box(merged);
            Ok(n)
        })?;
        if with_cache {
            drills.cache_lookup_ns = cache_lookup(&sample, &decoded)?;
        }
        Ok(drills)
    }
}

/// `Wal::append` alone: the file is opened before the clock starts and
/// synced after it stops.
fn wal_append(points: &[DataPoint], scratch: &Path) -> Result<f64> {
    let path = scratch.join("drill.wal");
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path)?;
        let t0 = Instant::now();
        for p in points {
            wal.append(black_box(p))?;
        }
        let ns = t0.elapsed().as_nanos() as f64;
        samples.push(ratio(ns, points.len() as f64));
        wal.sync()?;
    }
    let _ = std::fs::remove_file(&path);
    Ok(median_f64(&samples))
}

/// Classify-and-buffer cost, sealing included: the pivot follows the
/// newest generation time handed to a flush, as in the engines.
fn buffer_insert(points: &[DataPoint], policy: Policy) -> Result<f64> {
    per_unit(|| {
        let mut buffers = PolicyBuffers::for_policy(policy);
        let mut pivot = None;
        for p in points {
            let trigger = buffers.insert(*p, pivot);
            if trigger != FlushTrigger::None {
                let sealed = buffers.take(trigger);
                let newest = sealed.last().map(|p| p.gen_time);
                pivot = pivot.max(newest);
                black_box(sealed);
            }
        }
        black_box(buffers.buffered_points());
        Ok(points.len())
    })
}

/// Hit cost of the decoded-block cache, over blocks of the sampled tables.
fn cache_lookup(ids: &[SsTableId], decoded: &[Vec<DataPoint>]) -> Result<f64> {
    let capacity: usize = decoded.iter().map(Vec::len).sum();
    let cache = BlockCache::with_capacity(capacity * 2);
    let mut keys = Vec::new();
    for (id, points) in ids.iter().zip(decoded) {
        for (block, chunk) in points.chunks(128).enumerate() {
            let key = BlockKey {
                table: *id,
                block: block as u32,
            };
            cache.insert(key, std::sync::Arc::new(chunk.to_vec()));
            keys.push(key);
        }
    }
    per_unit(|| {
        for key in &keys {
            black_box(cache.lookup(*key));
        }
        Ok(keys.len())
    })
}
