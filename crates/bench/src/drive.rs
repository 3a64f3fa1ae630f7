//! Experiment drivers: feed datasets through engines and collect the
//! quantities the paper reports.

use std::path::Path;
use std::time::Instant;

use seplsm_core::{AdaptiveConfig, AdaptiveOpen, TuneRecord};
use seplsm_lsm::{
    AggregateReport, AggregateSink, DiskModel, EngineConfig, FanoutSink,
    JsonlSink, Metrics, Observer, OpenOptions, QueryStats, TieredOpenOptions,
};
use seplsm_types::{DataPoint, Policy, Result};
use seplsm_workload::{HistoricalQueries, RecentQueries};

/// Ingests `points` (already in arrival order) under `policy` and returns
/// the engine's final metrics.
pub fn measure_wa(
    points: &[DataPoint],
    policy: Policy,
    sstable_points: usize,
) -> Result<Metrics> {
    let mut engine = OpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(sstable_points),
    )
    .open()?;
    for p in points {
        engine.append(*p)?;
    }
    Ok(engine.metrics().clone())
}

/// Like [`measure_wa`] with the observability layer attached: aggregates
/// every storage-kernel event (returned as an [`AggregateReport`]) and, if
/// `trace` is given, writes the full typed event stream to it as JSONL.
/// Trace lines are numbered by sequence alone, so two runs of the same
/// seeded workload produce byte-identical traces.
pub fn measure_wa_traced(
    points: &[DataPoint],
    policy: Policy,
    sstable_points: usize,
    trace: Option<&Path>,
) -> Result<(Metrics, AggregateReport)> {
    let aggregate = AggregateSink::new();
    let mut sinks: Vec<std::sync::Arc<dyn Observer>> = vec![aggregate.clone()];
    let jsonl = match trace {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            let sink = JsonlSink::new(Box::new(file));
            sinks.push(sink.clone());
            Some(sink)
        }
        None => None,
    };
    let mut engine = OpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(sstable_points),
    )
    .observer(FanoutSink::new(sinks))
    .open()?;
    for p in points {
        engine.append(*p)?;
    }
    engine.flush_all()?;
    if let Some(sink) = jsonl {
        sink.flush()?;
    }
    Ok((engine.metrics().clone(), aggregate.report()))
}

/// Like [`measure_wa`] with the per-compaction subsequent-point probe on.
pub fn measure_wa_with_probe(
    points: &[DataPoint],
    policy: Policy,
    sstable_points: usize,
) -> Result<Metrics> {
    let mut engine = OpenOptions::new(
        EngineConfig::new(policy)
            .with_sstable_points(sstable_points)
            .with_subsequent_probe(),
    )
    .open()?;
    for p in points {
        engine.append(*p)?;
    }
    Ok(engine.metrics().clone())
}

/// Like [`measure_wa`] with WA snapshots every `snapshot_every` user points
/// (the Fig. 10 time series).
pub fn measure_wa_windowed(
    points: &[DataPoint],
    policy: Policy,
    sstable_points: usize,
    snapshot_every: u64,
) -> Result<Metrics> {
    let mut engine = OpenOptions::new(
        EngineConfig::new(policy)
            .with_sstable_points(sstable_points)
            .with_wa_snapshots(snapshot_every),
    )
    .open()?;
    for p in points {
        engine.append(*p)?;
    }
    Ok(engine.metrics().clone())
}

/// Runs the adaptive engine over `points`, returning its metrics and the
/// tuning decisions it took. `engine` carries the mechanics (initial
/// policy, table size, snapshots); `config` carries the controller knobs.
pub fn measure_adaptive(
    points: &[DataPoint],
    engine: EngineConfig,
    config: AdaptiveConfig,
) -> Result<(Metrics, Vec<TuneRecord>)> {
    let mut engine = OpenOptions::new(engine).adaptive(config)?;
    for p in points {
        engine.append(*p)?;
    }
    Ok((engine.engine().metrics().clone(), engine.tunes().to_vec()))
}

/// Aggregated result of a query workload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryReport {
    /// Queries executed (with a non-empty result, for RA averaging).
    pub queries: u64,
    /// Mean read amplification over non-empty queries.
    pub mean_read_amplification: f64,
    /// Mean simulated latency (ns) over all queries.
    pub mean_latency_ns: f64,
    /// Mean SSTables touched per query.
    pub mean_tables_read: f64,
    /// Mean points returned per query.
    pub mean_points_returned: f64,
}

fn summarize(per_query: &[QueryStats], disk: &DiskModel) -> QueryReport {
    if per_query.is_empty() {
        return QueryReport::default();
    }
    let ra: Vec<f64> = per_query
        .iter()
        .filter_map(QueryStats::read_amplification)
        .collect();
    let mean_ra = if ra.is_empty() {
        0.0
    } else {
        ra.iter().sum::<f64>() / ra.len() as f64
    };
    let n = per_query.len() as f64;
    QueryReport {
        queries: per_query.len() as u64,
        mean_read_amplification: mean_ra,
        mean_latency_ns: per_query
            .iter()
            .map(|s| disk.latency_ns(s))
            .sum::<f64>()
            / n,
        mean_tables_read: per_query
            .iter()
            .map(|s| s.tables_read as f64)
            .sum::<f64>()
            / n,
        mean_points_returned: per_query
            .iter()
            .map(|s| s.points_returned as f64)
            .sum::<f64>()
            / n,
    }
}

/// Runs the recent-data query workload of §V-D1 on the production-style
/// [`TieredEngine`](seplsm_lsm::TieredEngine) (overlapping level-1 files,
/// background compaction — the configuration the paper's query
/// experiments ran on): while ingesting
/// `points`, every `workload.every_points` appended points issue
/// `time ∈ (max_written − window, max_written]`. The engine flushes
/// synchronously (`sync_flush`): every query finds the worker idle, with
/// each flush and the L0 merge it made due done, so a run's answers and
/// statistics repeat exactly.
pub fn run_recent_queries(
    points: &[DataPoint],
    policy: Policy,
    sstable_points: usize,
    workload: RecentQueries,
    disk: &DiskModel,
) -> Result<QueryReport> {
    let mut engine = TieredOpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(sstable_points),
    )
    .sync_flush()
    .open()?;
    let mut per_query = Vec::new();
    for (i, p) in points.iter().enumerate() {
        engine.append(*p)?;
        if workload.due(i as u64 + 1) {
            let max_gen =
                engine.max_gen_time().expect("at least one point written");
            let (_, stats) = engine.query(workload.range(max_gen))?;
            per_query.push(stats);
        }
    }
    Ok(summarize(&per_query, disk))
}

/// Runs the historical query workload of §V-D2 after ingesting `points`
/// into a [`TieredEngine`](seplsm_lsm::TieredEngine). The level-1
/// backlog left by ingestion — the L0 tables below the worker's merge
/// threshold — is *not* force-compacted first: the paper attributes the
/// historical-query gap to exactly those not-yet-compacted overlapping
/// files (Fig. 15). The engine flushes synchronously (`sync_flush`), so
/// the last append returns with the worker idle and the backlog the same
/// from run to run.
pub fn run_historical_queries(
    points: &[DataPoint],
    policy: Policy,
    sstable_points: usize,
    workload: HistoricalQueries,
    disk: &DiskModel,
) -> Result<QueryReport> {
    let mut engine = TieredOpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(sstable_points),
    )
    .sync_flush()
    .open()?;
    let mut min_gen = i64::MAX;
    for p in points {
        engine.append(*p)?;
        min_gen = min_gen.min(p.gen_time);
    }
    let max_gen = engine.max_gen_time().expect("non-empty dataset");
    let mut per_query = Vec::new();
    for range in workload.ranges(min_gen, max_gen) {
        let (_, stats) = engine.query(range)?;
        per_query.push(stats);
    }
    Ok(summarize(&per_query, disk))
}

/// Runs Algorithm 1 on a known delay law and returns the recommended policy
/// (used by the query experiments, which run `π_s` "with the values
/// recommended by the system", §V-D1).
pub fn recommended_policy(
    dist: std::sync::Arc<dyn seplsm_dist::DelayDistribution>,
    delta_t: f64,
    budget: usize,
) -> Result<Policy> {
    use seplsm_core::{tune, TunerOptions, WaModel};
    let model = WaModel::new(dist, delta_t, budget);
    Ok(tune(&model, TunerOptions::online(budget))?.decision)
}

/// Result of the real-world-dataset pipeline: fit → tune → measure, the flow
/// of the paper's Figs. 11, 16(b) and 18(b).
#[derive(Debug, Clone)]
pub struct EstimateVsReal {
    /// Estimated generation interval (median of sorted gen-time gaps).
    pub delta_t: f64,
    /// Model estimate of WA under `π_c`.
    pub rc_model: f64,
    /// Measured WA under `π_c`.
    pub rc_measured: f64,
    /// Recommended in-order capacity `n̂*_seq`.
    pub n_seq_star: usize,
    /// Model estimate of WA under `π_s(n̂*_seq)`.
    pub rs_model: f64,
    /// Measured WA under `π_s(n̂*_seq)`.
    pub rs_measured: f64,
}

impl EstimateVsReal {
    /// `true` when the model picked the policy with the lower *measured* WA.
    pub fn decision_correct(&self) -> bool {
        let model_separation = self.rs_model < self.rc_model;
        let real_separation = self.rs_measured < self.rc_measured;
        model_separation == real_separation
    }
}

/// Fits the empirical delay distribution of `points`, estimates WA under both
/// policies (tuning `n_seq` with Algorithm 1), and measures the real WA of
/// both — the full analyzer pipeline on a recorded dataset.
pub fn estimate_and_measure(
    points: &[DataPoint],
    budget: usize,
    sstable_points: usize,
) -> Result<EstimateVsReal> {
    use seplsm_core::{tune, TunerOptions, WaModel};
    use seplsm_dist::Empirical;

    let delays: Vec<f64> = points.iter().map(|p| p.delay() as f64).collect();
    let mut gen_times: Vec<i64> = points.iter().map(|p| p.gen_time).collect();
    gen_times.sort_unstable();
    let mut gaps: Vec<i64> = gen_times
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&g| g > 0)
        .collect();
    gaps.sort_unstable();
    let delta_t = gaps.get(gaps.len() / 2).copied().ok_or_else(|| {
        seplsm_types::Error::Model("dataset too small for a delta_t".into())
    })? as f64;

    let dist = std::sync::Arc::new(Empirical::from_samples(&delays));
    let model = WaModel::new(dist, delta_t, budget);
    let outcome = tune(&model, TunerOptions::online(budget))?;

    let rc_measured =
        measure_wa(points, Policy::conventional(budget), sstable_points)?
            .write_amplification();
    let rs_measured = measure_wa(
        points,
        Policy::separation(budget, outcome.best_n_seq)?,
        sstable_points,
    )?
    .write_amplification();
    Ok(EstimateVsReal {
        delta_t,
        rc_model: outcome.r_c,
        rc_measured,
        n_seq_star: outcome.best_n_seq,
        rs_model: outcome.r_s_star,
        rs_measured,
    })
}

/// Measures ingestion throughput (points/ms) on the background-compaction
/// engine — the Table III setup. Returns `(points_per_ms, report_wa)`.
pub fn measure_throughput(
    points: &[DataPoint],
    policy: Policy,
    sstable_points: usize,
) -> Result<(f64, f64)> {
    let mut engine = TieredOpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(sstable_points),
    )
    .open()?;
    let start = Instant::now();
    for p in points {
        engine.append(*p)?;
    }
    let elapsed = start.elapsed();
    let report = engine.finish()?;
    let per_ms = points.len() as f64 / elapsed.as_secs_f64() / 1_000.0;
    Ok((per_ms, report.write_amplification()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seplsm_workload::SyntheticWorkload;

    fn dataset() -> Vec<DataPoint> {
        SyntheticWorkload::new(
            50,
            seplsm_dist::LogNormal::new(4.0, 1.5),
            20_000,
            1,
        )
        .generate()
    }

    #[test]
    fn measure_wa_reports_amplification() {
        let pts = dataset();
        let m = measure_wa(&pts, Policy::conventional(512), 512).expect("run");
        assert_eq!(m.user_points, 20_000);
        assert!(m.write_amplification() >= 0.9);
    }

    #[test]
    fn probe_records_compactions() {
        let pts = dataset();
        let m = measure_wa_with_probe(&pts, Policy::conventional(256), 256)
            .expect("run");
        assert!(!m.subsequent_counts.is_empty());
    }

    #[test]
    fn recent_queries_produce_a_report() {
        let pts = dataset();
        let report = run_recent_queries(
            &pts,
            Policy::conventional(512),
            512,
            RecentQueries::new(5_000, 1_000),
            &DiskModel::hdd(),
        )
        .expect("run");
        assert!(report.queries > 0);
        assert!(report.mean_read_amplification >= 0.0);
        assert!(report.mean_latency_ns > 0.0);
    }

    #[test]
    fn historical_queries_produce_a_report() {
        let pts = dataset();
        let report = run_historical_queries(
            &pts,
            Policy::separation(512, 256).expect("policy"),
            512,
            HistoricalQueries::new(5_000, 50, 3),
            &DiskModel::hdd(),
        )
        .expect("run");
        assert_eq!(report.queries, 50);
        assert!(report.mean_points_returned > 0.0);
    }

    #[test]
    fn throughput_is_positive() {
        let pts = dataset();
        let (per_ms, wa) =
            measure_throughput(&pts, Policy::conventional(512), 512)
                .expect("run");
        assert!(per_ms > 0.0);
        assert!(wa >= 1.0 - 1e-9);
    }
}
