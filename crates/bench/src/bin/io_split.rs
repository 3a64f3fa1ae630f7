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
//! the cache; its reads cost no fsync. So the fsync total per 1 000
//! acknowledged points is the benchmark's `fsyncs_per_kpoint` at the same
//! seed (the background worker races its writer, there as here). Those
//! reads are the same seeded read mix, 50 before each batch, and for each
//! read class — recent and historical query, get, aggregate, downsample —
//! it prints the `StoreRead` ops per read and, where
//! `/proc/thread-self/io` counts them, the `read` syscalls and bytes per
//! read: where the benchmark's `read_syscalls_per_op` and
//! `read_bytes_per_op` come from. Next to the counts:
//! the peaks, sampled after every batch, of what a horizon leaves for
//! later — live tables not yet synced, which the store stages in memory,
//! and their encoded bytes (`FileStore::staged_bytes`); durable inputs
//! retired but still on disk — and of the log's live bytes, and what
//! `read-mix`'s reopening replays.

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
/// `read-mix`: the aggregation window and the downsample's buckets, in ms
/// of generation time, and the reads before each write batch.
const AGG_MS: i64 = 500_000;
const BUCKET_MS: i64 = 10_000;
const READS_PER_BATCH: usize = 50;
/// `read-mix`'s read classes, in the order its draw picks them.
const READ_CLASSES: [&str; 5] =
    ["recent", "historical", "get", "aggregate", "downsample"];
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

/// One read of `read-mix`'s seeded mix (`benchmark/src/workloads.rs`,
/// `read_mix_ops`): 40 % recent-window query, 30 % uniformly placed
/// historical query, 10 % get, 10 % aggregate, 10 % downsample, drawn from
/// `rng` exactly as the benchmark draws them. Returns the read's class, an
/// index into [`READ_CLASSES`].
fn mix_read(
    engine: &LsmEngine,
    rng: &mut StdRng,
    newest: i64,
    delta_t: i64,
) -> Result<usize> {
    let window = |rng: &mut StdRng, width: i64| {
        let start = rng.gen_range(0..(newest - width).max(1));
        TimeRange::new(start, start + width)
    };
    Ok(match rng.gen_range(0..10u32) {
        0..=3 => {
            engine.query(TimeRange::new(newest - QUERY_MS, newest))?;
            0
        }
        4..=6 => {
            engine.query(window(rng, QUERY_MS))?;
            1
        }
        7 => {
            engine.get(rng.gen_range(0..newest / delta_t + 1) * delta_t)?;
            2
        }
        8 => {
            engine.aggregate(window(rng, AGG_MS))?;
            3
        }
        _ => {
            engine.downsample(window(rng, AGG_MS), BUCKET_MS)?;
            4
        }
    })
}

/// This thread's `read` syscalls and bytes so far, where the kernel keeps
/// count: the inline engine reads on the thread that asks.
fn thread_reads() -> Option<(u64, u64)> {
    let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
    let field = |name: &str| {
        io.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
    };
    Some((field("syscr:")?, field("rchar:")?))
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
/// `recover` — from what `dir` holds; and the store under it.
fn open(
    w: &Workload,
    dir: &Path,
    plan: Option<&Arc<FaultPlan>>,
    recover: bool,
    cache: Option<Arc<BlockCache>>,
    observer: Option<Arc<dyn Observer>>,
) -> Result<(Engine, Arc<FileStore>)> {
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
    let tables = Arc::new(store);
    let store = Arc::clone(&tables) as Arc<dyn TableStore>;
    let engine = match w.kind {
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
    };
    Ok((engine, tables))
}

/// Table files in `dir` under their live names.
fn table_files(dir: &Path) -> Result<usize> {
    let mut live = 0;
    for entry in std::fs::read_dir(dir.join("tables"))? {
        if entry?.file_name().to_string_lossy().ends_with(".sst") {
            live += 1;
        }
    }
    Ok(live)
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
        let (mut engine, _) = open(w, &dir, None, false, None, None)?;
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
    let (mut engine, store) =
        open(w, &dir, Some(&plan), preload > 0, cache, Some(observer))?;
    let set_up = opened.elapsed();

    let before = plan.counts();
    let (mut staged, mut staged_bytes, mut retired, mut log_live) =
        (0, 0, 0, 0);
    let pace = (w.kind == Kind::Background).then(|| {
        Duration::from_nanos(batch as u64 * 1_000_000_000 / OPEN_LOOP_RATE)
    });
    let mut newest = vec![i64::MIN; FLEET_SERIES as usize];
    if let Some(last) = stream[..preload].iter().map(|(_, p)| p.gen_time).max()
    {
        newest[0] = last;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ead_5eed);
    let delta_t = paper_dataset(w.dataset).map_or(1, |d| d.delta_t);
    // Per read class: reads, `StoreRead` ops, and `read` syscalls and bytes.
    let mut by_class = [(0u64, 0u64, 0u64, 0u64); READ_CLASSES.len()];
    let start = Instant::now();
    for (b, chunk) in stream[preload..].chunks(batch).enumerate() {
        if let Some(interval) = pace {
            let due = start + interval * b as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        if let (Engine::Inline(e), true) = (&engine, reads > 0) {
            for _ in 0..READS_PER_BATCH {
                // Reading the kernel's counters is itself counted, so
                // what one reading costs is measured next to each read.
                let (a, b) = (thread_reads(), thread_reads());
                let ops = plan.counts()[IoOp::StoreRead as usize];
                let class = mix_read(e, &mut rng, newest[0], delta_t)?;
                let row = &mut by_class[class];
                row.0 += 1;
                row.1 += plan.counts()[IoOp::StoreRead as usize] - ops;
                if let (Some(a), Some(b), Some(c)) = (a, b, thread_reads()) {
                    row.2 += (c.0 - b.0).saturating_sub(b.0 - a.0);
                    row.3 += (c.1 - b.1).saturating_sub(b.1 - a.1);
                }
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
        // Unsynced tables are the staged ones; the live names beyond the
        // version's synced tables are its retired inputs.
        let (named, now) = (table_files(&dir)?, store.staged_tables());
        staged = staged.max(now);
        staged_bytes = staged_bytes.max(store.staged_bytes());
        retired =
            retired.max((named + now).saturating_sub(engine.live_tables()));
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
    if reads > 0 {
        println!("reads            n  StoreRead/read  syscalls/read  B/read");
        for (class, (n, ops, calls, bytes)) in READ_CLASSES.iter().zip(by_class)
        {
            let per = |x: u64| x as f64 / n.max(1) as f64;
            println!(
                "{class:<10} {n:>6}  {:>14.2}  {:>13.2}  {:>6.0}",
                per(ops),
                per(calls),
                per(bytes)
            );
        }
    }
    println!(
        "peaks: {staged} tables staged ({staged_bytes} B), {retired} retired \
         inputs on disk, {log_live} B live in the log"
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
