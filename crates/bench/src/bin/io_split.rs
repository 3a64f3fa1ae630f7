//! **I/O split** — a benchmark workload's writes, replayed on the durable
//! stack under a trace-only `FaultPlan` and counted by `IoOp` class: where
//! its `fsyncs_per_kpoint` comes from, one class at a time.
//!
//! ```text
//! cargo run --release -p seplsm-bench --bin io_split -- \
//!     [--workload ingest-pc] [--seed 11] [--seconds 10] [--dir DIR]
//! ```
//!
//! `benchmark/` is frozen and a workspace of its own, so what its `run.sh
//! --workload W --seed S --seconds N` drives is rebuilt here from its shape
//! (`benchmark/src/workloads.rs`, `adapter.rs`): the same seeded stream of
//! integer-valued points, the same engine — `FileStore` with the pruned
//! encoding, WAL and manifest; a fleet of 64 series with one durable
//! directory, two flush workers and the arbiter — the same batches, each
//! closed by one log sync (`ingest-bg-open` paced at 30 000 points/s), the
//! same recent-window queries after them — they heat the fleet's arbiter,
//! whose resizes flush — and the same closing flush. `read-mix` first
//! writes its preload, drops the engine unflushed, and reopens it through
//! the cache; its reads, which cost no fsync, are left out. So the fsync
//! total per 1 000 acknowledged points is the benchmark's
//! `fsyncs_per_kpoint` at the same seed (the background worker races its
//! writer, there as here). Next to the counts:
//! the peaks, sampled after every batch, of what a horizon leaves for
//! later — live tables not yet synced (tmp files), durable inputs retired
//! but still on disk — and of the log's live bytes, and what `read-mix`'s
//! reopening replays.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seplsm_bench::args;
use seplsm_lsm::obs::{Event, Observer, RecoveryStepKind};
use seplsm_lsm::{
    ArbiterConfig, BlockCache, EncodeOptions, EngineConfig, FaultPlan,
    FileStore, IoOp, LsmEngine, MultiOpenOptions, MultiSeriesEngine,
    OpenOptions, SeriesId, TableStore, TieredEngine, TieredOpenOptions,
    WalStats,
};
use seplsm_types::{DataPoint, Error, Policy, Result, TimeRange};
use seplsm_workload::{paper_dataset, PAPER_DATASETS};

/// The benchmark's shape (`benchmark/src/adapter.rs`, `workloads.rs`).
const SSTABLE_POINTS: usize = 512;
const MEMORY_BUDGET: usize = 512;
const BATCH: usize = 128;
const FLEET_BATCH: usize = 256;
const FLEET_SERIES: u32 = 64;
const FLEET_WORKERS: usize = 2;
const OPEN_LOOP_RATE: u64 = 30_000;
/// Width of a recent-window query, in ms of generation time, and how many
/// of the fleet's hottest series one follows every batch.
const QUERY_MS: i64 = 5_000;
const FLEET_HOT_QUERIES: u32 = 3;
/// Points generated past the measured stream for the recovery tails: five
/// of 200. They shape the stream's generators, so they are generated too.
const TAIL_POINTS: usize = 5 * 200;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Inline,
    Background,
    Fleet,
}

struct Workload {
    name: &'static str,
    kind: Kind,
    separation: bool,
    dataset: &'static str,
    points_per_second: usize,
    preload_per_second: usize,
    reads_per_second: usize,
    /// Decoded-block cache as a share of the preloaded points.
    cache_share: Option<f64>,
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ingest-pc",
        kind: Kind::Inline,
        separation: false,
        dataset: "M12",
        points_per_second: 30_000,
        preload_per_second: 0,
        reads_per_second: 0,
        cache_share: None,
    },
    Workload {
        name: "ingest-ps",
        kind: Kind::Inline,
        separation: true,
        dataset: "M12",
        points_per_second: 30_000,
        preload_per_second: 0,
        reads_per_second: 0,
        cache_share: None,
    },
    Workload {
        name: "ingest-bg-open",
        kind: Kind::Background,
        separation: true,
        dataset: "M6",
        points_per_second: OPEN_LOOP_RATE as usize,
        preload_per_second: 0,
        reads_per_second: 0,
        cache_share: None,
    },
    Workload {
        name: "read-mix",
        kind: Kind::Inline,
        separation: true,
        dataset: "M6",
        points_per_second: 0,
        preload_per_second: 20_000,
        reads_per_second: 6_000,
        cache_share: Some(0.10),
    },
    Workload {
        name: "fleet-skew",
        kind: Kind::Fleet,
        separation: true,
        dataset: "M1",
        points_per_second: 15_000,
        preload_per_second: 0,
        reads_per_second: 0,
        cache_share: None,
    },
];

/// Every class, in the order `seplsm stats` prints them.
const IO_OPS: [IoOp; IoOp::COUNT] = [
    IoOp::StoreWrite,
    IoOp::StoreSync,
    IoOp::StoreRename,
    IoOp::StoreRead,
    IoOp::StoreDelete,
    IoOp::StoreList,
    IoOp::DirSync,
    IoOp::WalAppend,
    IoOp::WalSync,
    IoOp::WalRewrite,
    IoOp::WalRename,
    IoOp::ManifestAppend,
    IoOp::ManifestSync,
    IoOp::ManifestRewrite,
    IoOp::ManifestRename,
];

/// The classes that end in an fsync: the benchmark's `fsyncs_per_kpoint`.
const FSYNCS: [IoOp; 6] = [
    IoOp::StoreSync,
    IoOp::DirSync,
    IoOp::WalSync,
    IoOp::WalRewrite,
    IoOp::ManifestSync,
    IoOp::ManifestRewrite,
];

/// Values become small integers, as the benchmark makes them.
fn integer_valued(p: DataPoint) -> DataPoint {
    DataPoint::new(p.gen_time, p.arrival_time, (p.value * 10.0).round())
}

fn single_stream(
    dataset: &str,
    points: usize,
    seed: u64,
) -> Result<Vec<(u32, DataPoint)>> {
    let dataset = paper_dataset(dataset)
        .ok_or_else(|| Error::InvalidConfig(format!("no dataset {dataset}")))?;
    Ok(dataset
        .workload(points, seed)
        .generate()
        .into_iter()
        .map(|p| (0, integer_valued(p)))
        .collect())
}

/// `series` series cycling M1..M12, which one the next arrival belongs to
/// drawn from Zipf(1.0).
fn fleet_stream(
    series: u32,
    points: usize,
    seed: u64,
) -> Vec<(u32, DataPoint)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee_7000);
    let weights: Vec<f64> = (1..=series).map(|k| 1.0 / f64::from(k)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    let picks: Vec<u32> = (0..points)
        .map(|_| {
            let u: f64 = rng.gen();
            cdf.partition_point(|c| *c < u).min(series as usize - 1) as u32
        })
        .collect();
    let mut counts = vec![0usize; series as usize];
    for s in &picks {
        counts[*s as usize] += 1;
    }
    let mut per_series: Vec<std::vec::IntoIter<DataPoint>> = counts
        .iter()
        .enumerate()
        .map(|(s, n)| {
            PAPER_DATASETS[s % PAPER_DATASETS.len()]
                .workload(*n, seed.wrapping_add(s as u64))
                .generate()
                .into_iter()
        })
        .collect();
    picks
        .into_iter()
        .filter_map(|s| {
            let p = per_series[s as usize].next()?;
            Some((s, integer_valued(p)))
        })
        .collect()
}

/// An engine of any of the three kinds.
enum Engine {
    Inline(Box<LsmEngine>),
    Background(Box<TieredEngine>),
    Fleet(Box<MultiSeriesEngine>),
}

impl Engine {
    fn write_batch(&mut self, batch: &[(u32, DataPoint)]) -> Result<()> {
        for &(series, p) in batch {
            match self {
                Engine::Inline(e) => e.append(p).map(drop)?,
                Engine::Background(e) => e.append(p).map(drop)?,
                Engine::Fleet(e) => e.append(SeriesId(series), p).map(drop)?,
            }
        }
        match self {
            Engine::Inline(e) => e.sync_wal(),
            Engine::Background(e) => e.sync_wal(),
            Engine::Fleet(e) => e.sync_wal_all(),
        }
    }

    /// The dashboard read after a batch: `series`' newest `QUERY_MS`.
    fn query_recent(&self, series: u32, newest: i64) -> Result<()> {
        let range = TimeRange::new(newest - QUERY_MS, newest);
        match self {
            Engine::Inline(e) => e.query(range).map(drop),
            Engine::Background(e) => e.query(range).map(drop),
            Engine::Fleet(e) => e.query(SeriesId(series), range).map(drop),
        }
    }

    fn close(self) -> Result<()> {
        match self {
            Engine::Inline(mut e) => e.flush_all(),
            Engine::Background(e) => e.finish().map(drop),
            Engine::Fleet(mut e) => e.flush_all().map(drop),
        }
    }

    /// Tables the engine's version names.
    fn live_tables(&self) -> usize {
        match self {
            Engine::Inline(e) => e.version().live_table_ids().len(),
            Engine::Background(e) => e.table_layout().len(),
            Engine::Fleet(e) => e
                .series_ids()
                .into_iter()
                .filter_map(|id| e.engine(id))
                .map(|series| series.version().live_table_ids().len())
                .sum(),
        }
    }

    fn wal_stats(&self) -> Option<WalStats> {
        match self {
            Engine::Inline(e) => e.wal_stats(),
            Engine::Background(e) => e.wal_stats(),
            Engine::Fleet(e) => e.wal_stats(),
        }
    }
}

/// Adds up the points recovery replays from the log.
#[derive(Default)]
struct Replayed(AtomicU64);

impl Observer for Replayed {
    fn observe(&self, event: &Event) {
        if let Event::RecoveryStep {
            step: RecoveryStepKind::WalReplayed,
            items,
        } = event
        {
            self.0.fetch_add(*items, Ordering::Relaxed);
        }
    }
}

/// What the benchmark's adapter opens for `w` over `dir`: fresh, or —
/// `recover` — from what `dir` holds.
fn open(
    w: &Workload,
    dir: &Path,
    plan: Option<&Arc<FaultPlan>>,
    recover: bool,
    cache: Option<Arc<BlockCache>>,
    observer: Option<Arc<dyn Observer>>,
) -> Result<Engine> {
    let policy = if w.separation {
        Policy::separation_even(MEMORY_BUDGET)?
    } else {
        Policy::conventional(MEMORY_BUDGET)
    };
    let config = EngineConfig::new(policy).with_sstable_points(SSTABLE_POINTS);
    let mut store =
        FileStore::open_with(dir.join("tables"), EncodeOptions::pruned())?;
    if let Some(plan) = plan {
        store = store.with_faults(Arc::clone(plan));
    }
    let store: Arc<dyn TableStore> = Arc::new(store);
    Ok(match w.kind {
        Kind::Inline => {
            let mut o = OpenOptions::new(config)
                .store(store)
                .wal(dir.join("wal"))
                .manifest(dir.join("manifest"));
            if let Some(cache) = cache {
                o = o.cache(cache);
            }
            if let Some(observer) = observer {
                o = o.observer(observer);
            }
            if let Some(plan) = plan {
                o = o.faults(Arc::clone(plan));
            }
            let engine = if recover {
                o.open_or_recover()?.0
            } else {
                o.open()?
            };
            Engine::Inline(Box::new(engine))
        }
        Kind::Background => {
            let mut o = TieredOpenOptions::new(config)
                .store(store)
                .wal(dir.join("wal"))
                .manifest(dir.join("manifest"));
            if let Some(plan) = plan {
                o = o.faults(Arc::clone(plan));
            }
            let engine = if recover {
                o.open_or_recover()?.0
            } else {
                o.open()?
            };
            Engine::Background(Box::new(engine))
        }
        Kind::Fleet => {
            let budget = u64::from(FLEET_SERIES) * MEMORY_BUDGET as u64;
            let mut o = MultiOpenOptions::new(config)
                .store(store)
                .durable_dir(dir.join("fleet"))
                .workers(FLEET_WORKERS)
                .arbiter(ArbiterConfig::new(budget));
            if let Some(plan) = plan {
                o = o.faults(Arc::clone(plan));
            }
            let engine = if recover {
                o.open_or_recover()?.0
            } else {
                o.open()?
            };
            Engine::Fleet(Box::new(engine))
        }
    })
}

/// Table files in `dir`: `(live names, tmp names)`.
fn table_files(dir: &Path) -> Result<(usize, usize)> {
    let (mut live, mut tmp) = (0, 0);
    for entry in std::fs::read_dir(dir.join("tables"))? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".sst") {
            live += 1;
        } else if name.ends_with(".sst.tmp") {
            tmp += 1;
        }
    }
    Ok((live, tmp))
}

fn main() -> Result<()> {
    let name = args::flag("workload").unwrap_or_else(|| "ingest-pc".into());
    let seed: u64 = args::flag_or("seed", 11);
    let seconds: usize = args::flag_or("seconds", 10);
    let dir = args::flag("dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("seplsm-io-split-{}", std::process::id()))
    });
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| Error::InvalidConfig(format!("no workload {name}")))?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    let preload = w.preload_per_second * seconds;
    let reads = w.reads_per_second * seconds;
    // `read-mix` writes one batch per 50 reads after its preload.
    let measured = if reads > 0 {
        reads / 50 * BATCH
    } else {
        w.points_per_second * seconds
    };
    let total = preload + measured + TAIL_POINTS;
    let mut stream = match w.kind {
        Kind::Fleet => fleet_stream(FLEET_SERIES, total, seed),
        _ => single_stream(w.dataset, total, seed)?,
    };
    stream.truncate(total - TAIL_POINTS);
    let batch = if w.kind == Kind::Fleet {
        FLEET_BATCH
    } else {
        BATCH
    };

    if preload > 0 {
        // Dropped unflushed, so that the reopening has a log to replay.
        let mut engine = open(w, &dir, None, false, None, None)?;
        for chunk in stream[..preload].chunks(batch) {
            engine.write_batch(chunk)?;
        }
        drop(engine);
    }
    let plan = FaultPlan::trace_only(seed);
    let cache = w.cache_share.map(|share| {
        BlockCache::with_capacity(((preload as f64 * share) as usize).max(1))
    });
    let replayed = Arc::new(Replayed::default());
    let opened = Instant::now();
    let observer = Arc::clone(&replayed) as Arc<dyn Observer>;
    let mut engine =
        open(w, &dir, Some(&plan), preload > 0, cache, Some(observer))?;
    let set_up = opened.elapsed();

    let before = plan.counts();
    let (mut unsynced, mut retired, mut log_live) = (0, 0, 0);
    let pace = (w.kind == Kind::Background).then(|| {
        Duration::from_nanos(batch as u64 * 1_000_000_000 / OPEN_LOOP_RATE)
    });
    let mut newest = vec![i64::MIN; FLEET_SERIES as usize];
    let start = Instant::now();
    for (b, chunk) in stream[preload..].chunks(batch).enumerate() {
        if let Some(interval) = pace {
            let due = start + interval * b as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        engine.write_batch(chunk)?;
        for &(series, p) in chunk {
            let n = &mut newest[series as usize];
            *n = (*n).max(p.gen_time);
        }
        // The benchmark's ingest reads: series 0 after every second batch,
        // the fleet's three hottest after every one.
        let hot = match (w.kind, w.reads_per_second) {
            (_, reads) if reads > 0 => 0..0,
            (Kind::Fleet, _) => 0..FLEET_HOT_QUERIES,
            _ if b % 2 == 1 => 0..1,
            _ => 0..0,
        };
        for series in hot {
            if newest[series as usize] != i64::MIN {
                engine.query_recent(series, newest[series as usize])?;
            }
        }
        // Unsynced tables are the tmp files; the live names beyond the
        // version's synced tables are its retired inputs.
        let (named, tmp) = table_files(&dir)?;
        unsynced = unsynced.max(tmp);
        retired =
            retired.max((named + tmp).saturating_sub(engine.live_tables()));
        if let Some(stats) = engine.wal_stats() {
            log_live = log_live.max(stats.live_bytes);
        }
    }
    engine.close()?;
    let after = plan.counts();

    let points = (stream.len() - preload) as f64;
    let per_kpoint = |n: u64| n as f64 * 1000.0 / points;
    println!(
        "io_split workload={} seed={seed} seconds={seconds} points={}",
        w.name,
        stream.len() - preload
    );
    let delta = |op: IoOp| after[op as usize] - before[op as usize];
    for op in IO_OPS {
        let n = delta(op);
        println!(
            "{:<16} {n:>8}  ({:.2}/kpoint)",
            format!("{op:?}"),
            per_kpoint(n)
        );
    }
    let fsyncs: u64 = FSYNCS.iter().map(|op| delta(*op)).sum();
    println!(
        "{:<16} {fsyncs:>8}  ({:.2}/kpoint)",
        "fsyncs",
        per_kpoint(fsyncs)
    );
    println!(
        "peaks: {unsynced} tables unsynced, {retired} retired inputs on disk, \
         {log_live} B live in the log"
    );
    if preload > 0 {
        println!(
            "set-up: reopening replayed {} points in {:.1} ms",
            replayed.0.load(Ordering::Relaxed),
            set_up.as_secs_f64() * 1e3
        );
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
