//! The CLI subcommands.

use std::path::PathBuf;
use std::sync::Arc;

use seplsm_core::{tune, AdaptiveConfig, AdaptiveOpen, TunerOptions, WaModel};
use seplsm_dist::stats::percentile_sorted;
use seplsm_dist::{DelayDistribution, Empirical};
use seplsm_lsm::{
    AggregateSink, BlockCache, EngineConfig, FanoutSink, FaultPlan, FileStore,
    IoOp, JsonlSink, MemStore, Observer, OpenOptions, TableStore,
};
use seplsm_types::{DataPoint, Error, Policy, Result, TimeRange};
use seplsm_workload::{paper_dataset, S9Workload, VehicleWorkload};

use crate::csvio;
use crate::opts::Opts;

/// Top-level usage text.
pub const USAGE: &str = "\
seplsm — out-of-order time-series LSM toolkit

USAGE:
  seplsm generate --dataset <M1..M12|s9|vehicle> [--points N] [--seed S] --out FILE
  seplsm analyze  --input FILE [--budget N]
  seplsm ingest   --input FILE [--policy conventional|separation:<n_seq>|adaptive]
                  [--budget N] [--sstable N] [--dir DIR]
  seplsm query    --dir DIR --start T --end T [--budget N]
                  [--agg min|max|sum|count|mean [--bucket N]]
  seplsm stats    --input FILE [--policy conventional|separation:<n_seq>]
                  [--budget N] [--sstable N] [--trace FILE.jsonl]
                  [--cache POINTS] [--dir DIR]
  seplsm help
";

fn io_err(e: String) -> Error {
    Error::InvalidConfig(e)
}

/// `seplsm generate` — write a dataset as CSV.
pub fn generate(opts: &Opts) -> Result<()> {
    let dataset = opts.require("dataset").map_err(io_err)?;
    let out = PathBuf::from(opts.require("out").map_err(io_err)?);
    let points: usize = opts.get_or("points", 100_000);
    let seed: u64 = opts.get_or("seed", 1);

    let data = match dataset.to_ascii_lowercase().as_str() {
        "s9" | "s-9" => S9Workload::new(points, seed).generate(),
        "vehicle" | "h" => VehicleWorkload::new(points, seed).generate(),
        name => paper_dataset(name)
            .ok_or_else(|| {
                Error::InvalidConfig(format!(
                    "unknown dataset `{name}` (expected M1..M12, s9 or vehicle)"
                ))
            })?
            .workload(points, seed)
            .generate(),
    };
    csvio::write_csv(&out, &data)?;
    println!("wrote {} points to {}", data.len(), out.display());
    Ok(())
}

fn load_input(opts: &Opts) -> Result<Vec<DataPoint>> {
    let input = opts.require("input").map_err(io_err)?;
    let points = csvio::read_csv(input)?;
    if points.is_empty() {
        return Err(Error::InvalidConfig(format!("{input} holds no points")));
    }
    Ok(points)
}

fn estimate_delta_t(points: &[DataPoint]) -> Result<f64> {
    let mut gen_times: Vec<i64> = points.iter().map(|p| p.gen_time).collect();
    gen_times.sort_unstable();
    let mut gaps: Vec<i64> = gen_times
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&g| g > 0)
        .collect();
    gaps.sort_unstable();
    gaps.get(gaps.len() / 2).map(|&g| g as f64).ok_or_else(|| {
        Error::Model("dataset too small to estimate delta_t".into())
    })
}

/// `seplsm analyze` — delay profile + Algorithm 1 recommendation.
pub fn analyze(opts: &Opts) -> Result<()> {
    let points = load_input(opts)?;
    let budget: usize = opts.get_or("budget", 512);

    let mut delays: Vec<f64> =
        points.iter().map(|p| p.delay() as f64).collect();
    delays.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let ooo = seplsm_workload::fraction_out_of_order(&points);
    let delta_t = estimate_delta_t(&points)?;

    println!("points:            {}", points.len());
    println!("delta_t (median):  {delta_t} ms");
    println!("out-of-order:      {:.3}%", ooo * 100.0);
    println!(
        "delays:            p50 {:.0} ms, p95 {:.0} ms, p99 {:.0} ms, max {:.0} ms",
        percentile_sorted(&delays, 50.0),
        percentile_sorted(&delays, 95.0),
        percentile_sorted(&delays, 99.0),
        percentile_sorted(&delays, 100.0),
    );

    let dist = Arc::new(Empirical::from_samples(&delays))
        as Arc<dyn DelayDistribution>;
    let model = WaModel::new(dist, delta_t, budget);
    let outcome = tune(&model, TunerOptions::online(budget))?;
    println!("\nAlgorithm 1 (budget n = {budget}):");
    println!("  r_c        = {:.3}", outcome.r_c);
    println!(
        "  min r_s    = {:.3} at n_seq = {}",
        outcome.r_s_star, outcome.best_n_seq
    );
    println!("  decision   = {}", outcome.decision.name());
    Ok(())
}

fn parse_policy(spec: &str, budget: usize) -> Result<Option<Policy>> {
    match spec {
        "conventional" | "pi_c" => Ok(Some(Policy::conventional(budget))),
        "adaptive" => Ok(None),
        other => {
            if let Some(n_seq) = other.strip_prefix("separation:") {
                let n_seq: usize = n_seq.parse().map_err(|_| {
                    Error::InvalidConfig(format!("bad n_seq in `{other}`"))
                })?;
                Ok(Some(Policy::separation(budget, n_seq)?))
            } else if other == "separation" || other == "pi_s" {
                Ok(Some(Policy::separation_even(budget)?))
            } else {
                Err(Error::InvalidConfig(format!(
                    "unknown policy `{other}` \
                     (conventional | separation[:n_seq] | adaptive)"
                )))
            }
        }
    }
}

fn open_store(opts: &Opts) -> Result<Arc<dyn TableStore>> {
    Ok(match opts.get("dir") {
        Some(dir) => {
            Arc::new(FileStore::open(PathBuf::from(dir).join("tables"))?)
        }
        None => Arc::new(MemStore::new()),
    })
}

/// `seplsm ingest` — write a CSV through the engine and report WA.
pub fn ingest(opts: &Opts) -> Result<()> {
    let points = load_input(opts)?;
    let budget: usize = opts.get_or("budget", 512);
    let sstable: usize = opts.get_or("sstable", 512);
    let policy_spec = opts.get("policy").unwrap_or("conventional");
    let store = open_store(opts)?;

    match parse_policy(policy_spec, budget)? {
        Some(policy) => {
            let mut options = OpenOptions::new(
                EngineConfig::new(policy).with_sstable_points(sstable),
            )
            .store(store);
            if let Some(dir) = opts.get("dir") {
                options = options
                    .wal(PathBuf::from(dir).join("wal"))
                    .manifest(PathBuf::from(dir).join("manifest"));
            }
            let mut engine = options.open()?;
            for p in &points {
                engine.append(*p)?;
            }
            engine.flush_all()?;
            let m = engine.metrics();
            println!("policy:              {}", policy.name());
            println!("user points:         {}", m.user_points);
            println!("disk points written: {}", m.disk_points_written);
            println!("flushes/compactions: {}/{}", m.flushes, m.compactions);
            println!("write amplification: {:.3}", m.write_amplification());
        }
        None => {
            let mut engine = OpenOptions::new(
                EngineConfig::new(Policy::conventional(budget))
                    .with_sstable_points(sstable),
            )
            .store(store)
            .adaptive(AdaptiveConfig::new())?;
            for p in &points {
                engine.append(*p)?;
            }
            engine.engine_mut().flush_all()?;
            println!(
                "policy:              adaptive ({} tunes)",
                engine.tunes().len()
            );
            for t in engine.tunes() {
                println!(
                    "  at {:>9}: r_c={:.3} r_s*={:.3} -> {}",
                    t.at_user_points,
                    t.r_c,
                    t.r_s_star,
                    t.decision.name()
                );
            }
            let m = engine.engine().metrics();
            println!("write amplification: {:.3}", m.write_amplification());
        }
    }
    Ok(())
}

/// Which statistic `seplsm query --agg` reports out of the folded
/// min/max/sum/count quartet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggStat {
    Min,
    Max,
    Sum,
    Count,
    Mean,
}

impl AggStat {
    fn parse(spec: &str) -> Result<Self> {
        match spec {
            "min" => Ok(Self::Min),
            "max" => Ok(Self::Max),
            "sum" => Ok(Self::Sum),
            "count" => Ok(Self::Count),
            "mean" | "avg" => Ok(Self::Mean),
            other => Err(Error::InvalidConfig(format!(
                "unknown aggregate `{other}` (min|max|sum|count|mean)"
            ))),
        }
    }

    fn render(self, agg: &seplsm_lsm::Agg) -> String {
        match self {
            Self::Min => agg.min.to_string(),
            Self::Max => agg.max.to_string(),
            Self::Sum => agg.sum.to_string(),
            Self::Count => agg.count.to_string(),
            Self::Mean => match agg.mean() {
                Some(mean) => mean.to_string(),
                None => "nan".into(),
            },
        }
    }
}

/// The stderr pushdown report shared by the aggregate and downsample arms
/// of `seplsm query --agg`.
fn report_pushdown(stats: &seplsm_lsm::QueryStats) {
    eprintln!(
        "{} of {} blocks folded from index pre-aggregates, {} decoded \
         ({} disk points scanned); {} tables read, {} pruned",
        stats.blocks_folded,
        stats.blocks_folded + stats.agg_fallback_blocks,
        stats.agg_fallback_blocks,
        stats.disk_points_scanned,
        stats.tables_read,
        stats.tables_pruned
    );
}

/// `seplsm query` — range query against a persisted store; with `--agg`,
/// an aggregation (or `--bucket`-windowed downsampling) pushdown instead.
pub fn query(opts: &Opts) -> Result<()> {
    let dir = PathBuf::from(opts.require("dir").map_err(io_err)?);
    let start: i64 =
        opts.require("start")
            .map_err(io_err)?
            .parse()
            .map_err(|_| {
                Error::InvalidConfig("--start must be an integer".into())
            })?;
    let end: i64 =
        opts.require("end").map_err(io_err)?.parse().map_err(|_| {
            Error::InvalidConfig("--end must be an integer".into())
        })?;
    if start > end {
        return Err(Error::InvalidConfig("--start must be <= --end".into()));
    }
    let budget: usize = opts.get_or("budget", 512);

    let store: Arc<dyn TableStore> =
        Arc::new(FileStore::open(dir.join("tables"))?);
    let mut options =
        OpenOptions::new(EngineConfig::new(Policy::conventional(budget)))
            .store(store);
    if dir.join("wal").exists() {
        options = options.wal(dir.join("wal"));
    }
    if dir.join("manifest").exists() {
        options = options.manifest(dir.join("manifest"));
    }
    let (engine, _report) = options.open_or_recover()?;
    let range = TimeRange::new(start, end);
    if let Some(spec) = opts.get("agg") {
        let stat = AggStat::parse(spec)?;
        if let Some(raw) = opts.get("bucket") {
            let width: i64 = raw.parse().map_err(|_| {
                Error::InvalidConfig(
                    "--bucket must be a positive integer".into(),
                )
            })?;
            let (buckets, stats) = engine.downsample(range, width)?;
            for (bucket, agg) in &buckets {
                println!("{},{}", bucket, stat.render(agg));
            }
            report_pushdown(&stats);
        } else {
            let (agg, stats) = engine.aggregate(range)?;
            println!("{}", stat.render(&agg));
            report_pushdown(&stats);
        }
        return Ok(());
    }
    let (hits, stats) = engine.query(range)?;
    for p in &hits {
        println!("{},{},{}", p.gen_time, p.arrival_time, p.value);
    }
    eprintln!(
        "{} points; {} tables read, {} disk points scanned",
        hits.len(),
        stats.tables_read,
        stats.disk_points_scanned
    );
    Ok(())
}

/// `seplsm stats` — replay a workload through an instrumented engine and
/// print the storage kernel's aggregate event view; `--trace` additionally
/// writes the full typed event stream as JSONL.
pub fn stats(opts: &Opts) -> Result<()> {
    let points = load_input(opts)?;
    let budget: usize = opts.get_or("budget", 512);
    let sstable: usize = opts.get_or("sstable", 512);
    let policy_spec = opts.get("policy").unwrap_or("conventional");
    let Some(policy) = parse_policy(policy_spec, budget)? else {
        return Err(Error::InvalidConfig(
            "stats needs a fixed policy \
             (conventional | separation[:n_seq])"
                .into(),
        ));
    };

    let aggregate = AggregateSink::new();
    let mut sinks: Vec<Arc<dyn Observer>> = vec![aggregate.clone()];
    let jsonl = match opts.get("trace") {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            let sink = JsonlSink::new(Box::new(file));
            sinks.push(sink.clone());
            Some((sink, path.to_string()))
        }
        None => None,
    };

    // `--cache POINTS` routes every table read through a shared
    // decoded-block cache of that capacity: the queries' reads, and those of
    // the few merge inputs the pool of written tables no longer holds.
    let cache = opts
        .get("cache")
        .map(|raw| -> Result<Arc<BlockCache>> {
            let capacity: usize = raw.parse().map_err(|_| {
                Error::InvalidConfig(format!(
                    "--cache expects a point capacity, got `{raw}`"
                ))
            })?;
            Ok(BlockCache::with_capacity(capacity))
        })
        .transpose()?;

    let mut options = OpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(sstable),
    )
    .observer(FanoutSink::new(sinks));
    if let Some(cache) = &cache {
        options = options.cache(Arc::clone(cache));
    }
    // `--dir DIR` runs the durable stack (tables, WAL and manifest under
    // DIR) instead of the in-memory one, with a trace-only fault plan on all
    // three — one op numbering, as the benchmark wires it — to count every
    // disk touch by class.
    let mut plan = None;
    if let Some(dir) = opts.get("dir") {
        let dir = PathBuf::from(dir);
        let traced = FaultPlan::trace_only(0);
        let store = FileStore::open(dir.join("tables"))?
            .with_faults(Arc::clone(&traced));
        options = options
            .store(Arc::new(store))
            .wal(dir.join("wal"))
            .manifest(dir.join("manifest"))
            .faults(Arc::clone(&traced));
        plan = Some(traced);
    }
    let mut engine = options.open()?;
    for p in &points {
        engine.append(*p)?;
    }
    // Before the closing flush cuts the log to its header.
    let wal = engine.wal_stats();
    engine.flush_all()?;
    if cache.is_some() {
        // A verification scan after ingest: the run's blocks fault in (merge
        // inputs mostly came out of the pool, not through the cache),
        // warming it.
        engine.scan_all()?;
    }

    let m = engine.metrics();
    println!("policy:              {}", policy.name());
    println!("user points:         {}", m.user_points);
    println!("write amplification: {:.3}", m.write_amplification());
    println!();
    print!("{}", aggregate.report().render_table());
    if let Some(wal) = wal {
        println!(
            "wal before the closing flush: {} live B, {} dead B, \
             {} frames, {} cuts, {} logged B, {:.2} B/point, {} relogged B",
            wal.live_bytes,
            wal.dead_bytes,
            wal.frames,
            wal.cuts,
            wal.logged_bytes,
            wal.logged_bytes as f64 / wal.logged_points.max(1) as f64,
            wal.relogged_bytes
        );
    }
    if let Some(manifest) = engine.manifest_stats() {
        println!(
            "manifest at rest: {} records, {} live, {} commits, \
             {} rewrites",
            manifest.records,
            manifest.live,
            manifest.commits,
            manifest.rewrites
        );
    }
    if let Some(plan) = &plan {
        println!("{}", io_line(&plan.counts(), m.user_points));
    }
    if let Some(cache) = &cache {
        let cs = cache.stats();
        println!(
            "block cache:         {} resident points in {} blocks \
             (hit rate {:.1}%)",
            cs.resident_points,
            cs.resident_blocks,
            cs.hit_rate() * 100.0
        );
    }
    if let Some((sink, path)) = jsonl {
        sink.flush()?;
        eprintln!("trace written to {path}");
    }
    Ok(())
}

/// Every I/O class, in the order `seplsm stats` prints them.
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

/// The `io:` line: each class's count, and per 1 000 user points.
fn io_line(counts: &[u64; IoOp::COUNT], points: u64) -> String {
    let per_kpoint = |n: u64| n as f64 * 1000.0 / points.max(1) as f64;
    let classes: Vec<String> = IO_OPS
        .iter()
        .map(|&op| {
            let n = counts[op as usize];
            format!("{op:?} {n} ({:.2}/kpoint)", per_kpoint(n))
        })
        .collect();
    format!("io: {}", classes.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_policy_accepts_all_forms() {
        assert_eq!(
            parse_policy("conventional", 512).expect("ok"),
            Some(Policy::conventional(512))
        );
        assert_eq!(
            parse_policy("separation:100", 512).expect("ok"),
            Some(Policy::separation(512, 100).expect("valid"))
        );
        assert_eq!(
            parse_policy("separation", 512).expect("ok"),
            Some(Policy::separation_even(512).expect("valid"))
        );
        assert_eq!(parse_policy("adaptive", 512).expect("ok"), None);
    }

    #[test]
    fn parse_policy_rejects_nonsense() {
        assert!(parse_policy("bogus", 512).is_err());
        assert!(parse_policy("separation:zzz", 512).is_err());
        assert!(parse_policy("separation:512", 512).is_err()); // n_seq == n
    }

    #[test]
    fn agg_stat_parses_and_renders() {
        assert_eq!(AggStat::parse("min").expect("ok"), AggStat::Min);
        assert_eq!(AggStat::parse("mean").expect("ok"), AggStat::Mean);
        assert_eq!(AggStat::parse("avg").expect("ok"), AggStat::Mean);
        assert!(AggStat::parse("median").is_err());
        let mut agg = seplsm_lsm::Agg::default();
        assert_eq!(AggStat::Mean.render(&agg), "nan");
        assert_eq!(AggStat::Count.render(&agg), "0");
        for v in [2.0, 4.0] {
            agg.merge_point(v);
        }
        assert_eq!(AggStat::Min.render(&agg), "2");
        assert_eq!(AggStat::Max.render(&agg), "4");
        assert_eq!(AggStat::Sum.render(&agg), "6");
        assert_eq!(AggStat::Mean.render(&agg), "3");
    }

    #[test]
    fn io_line_names_every_class_once() {
        let mut counts = [0; IoOp::COUNT];
        counts[IoOp::StoreRead as usize] = 3;
        counts[IoOp::DirSync as usize] = 40;
        let line = io_line(&counts, 2_000);
        assert!(line.starts_with("io: StoreWrite 0 (0.00/kpoint), "));
        assert!(line.contains(", StoreRead 3 (1.50/kpoint), "), "{line}");
        assert!(line.contains(", DirSync 40 (20.00/kpoint), "), "{line}");
        for op in IO_OPS {
            assert_eq!(line.matches(&format!(" {op:?} ")).count(), 1);
        }
    }

    #[test]
    fn delta_t_estimation_uses_median_gap() {
        let points: Vec<DataPoint> = [0i64, 50, 100, 150, 5_000]
            .iter()
            .map(|&tg| DataPoint::new(tg, tg, 0.0))
            .collect();
        // Gaps: 50, 50, 50, 4850 -> median 50.
        assert_eq!(estimate_delta_t(&points).expect("ok"), 50.0);
    }
}
