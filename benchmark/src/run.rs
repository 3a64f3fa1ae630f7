//! One run of one workload: set-up (repeated, timed), the measured phase,
//! the checks against the oracle, and the timed recoveries.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use seplsm_lsm::{
    AdmissionStats, ArbiterStats, CacheStats, FaultPlan, IoOp, PacerStats,
    QueryStats,
};

use crate::adapter::{Engine, EngineSpec};
use crate::oracle::{digest, Answer, Oracle};
use crate::stats::{cpu_seconds, dir_bytes, median_f64, now_ns, ProcIo};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Op, Size, Workload, BUCKET_MS, RECOVER_CYCLES};

/// Set-up repetitions: at least `MIN_SETUPS`, then until they add up to
/// `SETUP_BUDGET_S` seconds or number `MAX_SETUPS`. A set-up takes a few
/// tens of milliseconds and needs the repeats for a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.8;

/// Latency samples (ns) of the measured phase, by operation type.
#[derive(Default)]
pub struct Latencies {
    pub batch: Vec<u64>,
    pub recent: Vec<u64>,
    pub historical: Vec<u64>,
    pub get: Vec<u64>,
    pub aggregate: Vec<u64>,
    pub downsample: Vec<u64>,
    /// Open loop only: how late each batch started after it was due.
    pub lateness: Vec<u64>,
}

impl Latencies {
    pub fn queries(&self) -> Vec<u64> {
        [self.recent.as_slice(), self.historical.as_slice()].concat()
    }

    pub fn aggs(&self) -> Vec<u64> {
        [self.aggregate.as_slice(), self.downsample.as_slice()].concat()
    }
}

/// Everything one run measured.
pub struct RunResult {
    pub setup_s: f64,
    /// Seconds the preload took (`read-mix`); not part of `setup_s`.
    pub preload_s: f64,
    /// When the measured phase ended, on the tracer's clock.
    pub measured_end_ns: u64,
    /// Wall time of the measured phase, closing flush included.
    pub wall_ns: u64,
    pub close_ns: u64,
    pub lat: Latencies,
    pub io: ProcIo,
    pub cpu: (f64, f64),
    /// Points of the write batches acknowledged in the measured phase.
    pub acked_points: u64,
    /// The engine's own counters behind `write_amp` (Eq. 1); after a
    /// reopen `user_points` also counts the points replayed from the WAL.
    pub user_points: u64,
    pub disk_points_written: u64,
    pub read_ops: u64,
    pub space_bytes: u64,
    pub live_points: u64,
    pub recover_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `QueryStats` summed over range queries, and over all reads.
    pub range_stats: QueryStats,
    pub read_stats: QueryStats,
    pub read_amp_sum: f64,
    pub read_amp_n: u64,
    pub admission: Option<AdmissionStats>,
    pub pacer: Option<PacerStats>,
    pub arbiter: Option<ArbiterStats>,
    pub hot_cold_ratio: f64,
    pub delayed_waves: u64,
    pub cache: Option<CacheStats>,
    /// Traced appends that were not kept as spans: `(count, total ns)`.
    pub fast_appends: (u64, u64),
    /// `(write stalls, stall ticks, delayed appends)` from `metrics()`.
    pub stalls: (u64, u64, u64),
    /// Every physical I/O op of the measured phase, in order.
    pub io_ops: Vec<IoOp>,
}

/// A workload bound to a seed, a size and a data directory.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub size: Size,
    pub dir: PathBuf,
}

impl Run {
    pub fn spec(
        &self,
        with_cache: bool,
        tracer: Option<Arc<Tracer>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> EngineSpec {
        EngineSpec {
            kind: self.workload.kind,
            policy: self.workload.policy(),
            cache_points: if with_cache {
                self.workload.cache_points(self.size)
            } else {
                None
            },
            dir: self.dir.clone(),
            tracer,
            faults,
        }
    }

    /// Ingests the preload into a fresh directory and drops the engine
    /// without `flush_all`, so the reopen has a WAL to replay. Done once per
    /// run and never traced; returns the seconds it took.
    fn preload(&self) -> seplsm_types::Result<f64> {
        let inputs = self.workload.inputs(self.seed, self.size);
        let t0 = now_ns();
        let mut engine = self.spec(false, None, None).open(false)?;
        for chunk in
            inputs.stream[..inputs.preload].chunks(self.workload.batch_points())
        {
            engine.write_batch(chunk)?;
        }
        drop(engine);
        Ok((now_ns() - t0) as f64 / 1e9)
    }

    /// One set-up: inputs from the seed and an open engine — a fresh one in
    /// a fresh directory, or for `read-mix` the preloaded directory
    /// reopened with `open_or_recover()` through the cache.
    fn set_up(
        &self,
        tracer: &Option<Arc<Tracer>>,
        plan: &Arc<FaultPlan>,
    ) -> seplsm_types::Result<(Inputs, Engine)> {
        let inputs = self.workload.inputs(self.seed, self.size);
        let preloaded = inputs.preload > 0;
        if !preloaded {
            remove_dir(&self.dir);
            std::fs::create_dir_all(&self.dir)?;
        }
        let engine = self
            .spec(true, tracer.clone(), Some(Arc::clone(plan)))
            .open(preloaded)?;
        Ok((inputs, engine))
    }

    /// Runs the workload once. Set-up is repeated (`repeat_setup`) until it
    /// has run `MIN_SETUPS` times and for `SETUP_BUDGET_S`, at most
    /// `MAX_SETUPS` times; `setup_s` is the median. The I/O op counter (a
    /// fault plan that injects nothing) is always attached: fsyncs per
    /// point is an end-to-end metric. With a tracer, the store decorator
    /// and the observer are attached as well.
    pub fn execute(
        &self,
        repeat_setup: bool,
        tracer: Option<Arc<Tracer>>,
    ) -> seplsm_types::Result<RunResult> {
        remove_dir(&self.dir);
        std::fs::create_dir_all(&self.dir)?;
        let preload_s = if self.workload.preload_points(self.size) > 0 {
            self.preload()?
        } else {
            0.0
        };
        let plan = FaultPlan::trace_only(self.seed);
        let mut times = Vec::new();
        let mut ready = None;
        loop {
            drop(ready.take());
            let t0 = now_ns();
            ready = Some(self.set_up(&tracer, &plan)?);
            times.push((now_ns() - t0) as f64 / 1e9);
            let enough = times.len() >= MIN_SETUPS
                && times.iter().sum::<f64>() >= SETUP_BUDGET_S;
            if !repeat_setup || enough || times.len() == MAX_SETUPS {
                break;
            }
        }
        let (inputs, engine) = ready.expect("at least one set-up");
        let ops_before = plan.ops() as usize;
        let mut result = self.measure(&inputs, engine, &tracer)?;
        result.setup_s = median_f64(&times);
        result.preload_s = preload_s;
        // Recoveries run without the plan, so its trace ends with the
        // measured phase.
        result.io_ops = plan.trace().split_off(ops_before);
        Ok(result)
    }

    fn measure(
        &self,
        inputs: &Inputs,
        mut engine: Engine,
        tracer: &Option<Arc<Tracer>>,
    ) -> seplsm_types::Result<RunResult> {
        let w = &self.workload;
        let mut lat = Latencies::default();
        let mut answers: Vec<Answer> = Vec::with_capacity(inputs.ops.len());
        let mut range_stats = QueryStats::default();
        let mut read_stats = QueryStats::default();
        let (mut read_amp_sum, mut read_amp_n) = (0.0, 0u64);
        // Nanoseconds between the due times of consecutive batches.
        let interval = w
            .open_loop_rate
            .map(|rate| w.batch_points() as u64 * 1_000_000_000 / rate);
        let mut batches = 0u64;
        let mut acked_points = 0u64;

        let io0 = ProcIo::read();
        let cpu0 = cpu_seconds();
        let start = now_ns();
        for (i, op) in inputs.ops.iter().enumerate() {
            if let Some(t) = tracer {
                t.set_op(i as u32);
            }
            let t0 = match (op, interval) {
                (Op::Batch { .. }, Some(interval)) => {
                    let due = start + batches * interval;
                    let now = now_ns();
                    if now < due {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    lat.lateness.push(now_ns().saturating_sub(due));
                    due
                }
                _ => now_ns(),
            };
            // Each arm stops the clock before it digests the answer.
            let (answer, stats) = match *op {
                Op::Batch { lo, hi } => {
                    batches += 1;
                    let r = engine.write_batch(&inputs.stream[lo..hi]);
                    lat.batch.push(now_ns() - t0);
                    if r.is_ok() {
                        acked_points += (hi - lo) as u64;
                    }
                    (r.map(|()| Answer::Written), None)
                }
                Op::Query {
                    series,
                    range,
                    recent,
                } => {
                    let r = engine.query(series, range);
                    let ns = now_ns() - t0;
                    if recent {
                        lat.recent.push(ns);
                    } else {
                        lat.historical.push(ns);
                    }
                    match r {
                        Ok((points, stats)) => {
                            (Ok(digest(&points)), Some(stats))
                        }
                        Err(e) => (Err(e), None),
                    }
                }
                Op::Get { series, tg } => {
                    let r = engine.get(series, tg);
                    lat.get.push(now_ns() - t0);
                    (r.map(Answer::Point), None)
                }
                Op::Aggregate { series, range } => {
                    let r = engine.aggregate(series, range);
                    lat.aggregate.push(now_ns() - t0);
                    match r {
                        Ok((agg, stats)) => (Ok(Answer::Agg(agg)), Some(stats)),
                        Err(e) => (Err(e), None),
                    }
                }
                Op::Downsample { series, range } => {
                    let r = engine.downsample(series, range, BUCKET_MS);
                    lat.downsample.push(now_ns() - t0);
                    match r {
                        Ok((b, stats)) => (Ok(Answer::Buckets(b)), Some(stats)),
                        Err(e) => (Err(e), None),
                    }
                }
            };
            if let Some(stats) = stats {
                read_stats.accumulate(&stats);
                if matches!(op, Op::Query { .. }) {
                    range_stats.accumulate(&stats);
                    if let Some(ra) = stats.read_amplification() {
                        read_amp_sum += ra;
                        read_amp_n += 1;
                    }
                }
            }
            answers.push(answer.unwrap_or(Answer::Failed));
        }
        // Counters that die with the background engine are read first.
        let admission = engine.admission_stats();
        let pacer = engine.pacer_stats();
        let kernel = engine.metrics();
        let t_close = now_ns();
        let closed = engine.close();
        let end = now_ns();
        let io = ProcIo::read().since(&io0);
        let cpu1 = cpu_seconds();
        // The clock has stopped: everything below is checking.

        let mut oracle = Oracle::new(inputs.series);
        oracle.write(&inputs.stream[..inputs.preload]);
        let mut failed = oracle.replay(&inputs.stream, &inputs.ops, &answers);
        let mut attempted = inputs.ops.len() as u64;

        let closed = match closed {
            Ok(closed) => Some(closed),
            Err(e) => {
                eprintln!("closing flush failed: {e}");
                None
            }
        };
        attempted += 1;
        let contents_ok =
            closed
                .as_ref()
                .is_some_and(|closed| match &closed.contents {
                    Some(points) => digest(points) == oracle.contents(0),
                    None => {
                        self.contents_match(&engine, &oracle, inputs.series)
                    }
                });
        if !contents_ok {
            failed += 1;
        }
        let space_bytes = dir_bytes(&self.dir);
        let live_points = oracle.live_points();
        let arbiter = engine.arbiter_stats();
        let hot_cold_ratio = hot_cold_ratio(&engine, inputs.series);
        let delayed_waves = engine.delayed_waves();
        let cache = engine.cache_stats();
        let fast_appends = engine.fast_appends();
        drop(engine);

        let (recover_ms, recover_failed) =
            self.recover_cycles(inputs, &mut oracle, tracer);
        attempted += RECOVER_CYCLES as u64;
        failed += recover_failed;

        let (user_points, disk_points_written) = closed
            .as_ref()
            .map_or((0, 0), |c| (c.user_points, c.disk_points_written));
        let stalls = kernel.map_or((0, 0, 0), |m| {
            (m.write_stalls, m.stall_ticks, m.delayed_appends)
        });
        Ok(RunResult {
            setup_s: 0.0,
            preload_s: 0.0,
            measured_end_ns: end,
            wall_ns: end - start,
            close_ns: end - t_close,
            read_ops: inputs.ops.iter().filter(|op| op.is_read()).count()
                as u64,
            lat,
            io,
            cpu: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1),
            acked_points,
            user_points,
            disk_points_written,
            space_bytes,
            live_points,
            recover_ms,
            attempted,
            failed,
            range_stats,
            read_stats,
            read_amp_sum,
            read_amp_n,
            admission,
            pacer,
            arbiter,
            hot_cold_ratio,
            delayed_waves,
            cache,
            fast_appends,
            stalls,
            io_ops: Vec::new(),
        })
    }

    fn contents_match(
        &self,
        engine: &Engine,
        oracle: &Oracle,
        series: u32,
    ) -> bool {
        (0..series).all(|s| match engine.full_read(s) {
            Ok(points) => digest(&points) == oracle.contents(s),
            Err(e) => {
                eprintln!("full read of series {s} failed: {e}");
                false
            }
        })
    }

    /// Appends an acknowledged tail, drops the engine without flushing,
    /// and times `open_or_recover`; the recovered engine must hold exactly
    /// what the oracle holds. Returns the times (ms) and the failures.
    fn recover_cycles(
        &self,
        inputs: &Inputs,
        oracle: &mut Oracle,
        tracer: &Option<Arc<Tracer>>,
    ) -> (Vec<f64>, u64) {
        let spec = self.spec(true, tracer.clone(), None);
        let mut times = Vec::with_capacity(RECOVER_CYCLES);
        let mut failed = 0;
        let mut engine = spec.open(true).ok();
        for tail in &inputs.tails {
            let acknowledged =
                engine.as_mut().is_some_and(|e| e.write_batch(tail).is_ok());
            drop(engine.take());
            if acknowledged {
                oracle.write(tail);
            }
            let t0 = now_ns();
            engine = match spec.open(true) {
                Ok(engine) => Some(engine),
                Err(e) => {
                    eprintln!("recovery failed: {e}");
                    None
                }
            };
            times.push((now_ns() - t0) as f64 / 1e6);
            let intact = acknowledged
                && engine.as_ref().is_some_and(|e| {
                    self.contents_match(e, oracle, inputs.series)
                });
            if !intact {
                failed += 1;
            }
        }
        (times, failed)
    }
}

/// Buffer capacity the arbiter gave the hottest series over the coldest.
fn hot_cold_ratio(engine: &Engine, series: u32) -> f64 {
    let hot = engine.series_capacity(0);
    let cold = engine.series_capacity(series.saturating_sub(1));
    match (hot, cold) {
        (Some(hot), Some(cold)) if cold > 0 => hot as f64 / cold as f64,
        _ => 0.0,
    }
}

/// Removes a run's data directory; a missing one is fine.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// A fresh data directory for this process under `root`.
pub fn data_dir(root: &Path, workload: &str) -> PathBuf {
    root.join(format!("data-{}-{workload}", std::process::id()))
}
