//! The only file that constructs an engine or calls into one.
//!
//! Every engine is opened through its builder (`OpenOptions`,
//! `TieredOpenOptions`, `MultiOpenOptions`) over a real [`FileStore`] in
//! the v3 format with WAL and manifest on, so a change to how engines are
//! built or called touches this file and nothing else in the benchmark.

use std::path::PathBuf;
use std::sync::Arc;

use seplsm_lsm::obs::Observer;
use seplsm_lsm::{
    AdmissionStats, Agg, ArbiterConfig, ArbiterStats, BlockCache, Bucket,
    CacheStats, EncodeOptions, EngineConfig, FaultPlan, FileStore, LsmEngine,
    Metrics, MultiOpenOptions, MultiSeriesEngine, OpenOptions, PacerStats,
    QueryStats, SeriesId, TableStore, TieredEngine, TieredOpenOptions,
};
use seplsm_types::{DataPoint, Error, Policy, Result, TimeRange, Timestamp};

use crate::stats::now_ns;
use crate::trace::{Kind, SpanObserver, TimedStore, Tracer};

/// Points per SSTable and per memory budget: the paper's defaults.
pub const SSTABLE_POINTS: usize = 512;
pub const MEMORY_BUDGET: usize = 512;

/// Which engine a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `LsmEngine`: flush and compaction run inside `append`.
    Inline,
    /// `TieredEngine`: a background thread flushes and compacts.
    Background,
    /// `MultiSeriesEngine` with a flush pool and the memory arbiter.
    Fleet { series: u32, workers: usize },
}

/// Everything needed to open (or reopen) one workload's engine.
pub struct EngineSpec {
    pub kind: EngineKind,
    pub policy: Policy,
    /// Decoded-block cache capacity in points, when the workload has one.
    pub cache_points: Option<usize>,
    pub dir: PathBuf,
    /// Present only in the traced run: store decorator, observer and I/O
    /// op trace are attached together.
    pub tracer: Option<Arc<Tracer>>,
    pub faults: Option<Arc<FaultPlan>>,
}

impl EngineSpec {
    fn config(&self) -> EngineConfig {
        EngineConfig::new(self.policy).with_sstable_points(SSTABLE_POINTS)
    }

    pub fn tables_dir(&self) -> PathBuf {
        self.dir.join("tables")
    }

    fn store(&self) -> Result<Arc<dyn TableStore>> {
        let store =
            FileStore::open_with(self.tables_dir(), EncodeOptions::pruned())?;
        let store: Arc<dyn TableStore> = match &self.faults {
            Some(plan) => Arc::new(store.with_faults(Arc::clone(plan))),
            None => Arc::new(store),
        };
        Ok(match &self.tracer {
            Some(tracer) => {
                Arc::new(TimedStore::new(store, Arc::clone(tracer)))
            }
            None => store,
        })
    }

    fn observer(&self) -> Option<Arc<dyn Observer>> {
        self.tracer
            .as_ref()
            .map(|t| Arc::new(SpanObserver(Arc::clone(t))) as Arc<dyn Observer>)
    }

    /// Opens a fresh engine (`recover == false`) or rebuilds one from the
    /// directory's manifest and WAL.
    pub fn open(&self, recover: bool) -> Result<Engine> {
        let cache = self.cache_points.map(BlockCache::with_capacity);
        let t0 = now_ns();
        let inner = match self.kind {
            EngineKind::Inline => {
                let mut o = OpenOptions::new(self.config())
                    .store(self.store()?)
                    .wal(self.dir.join("wal"))
                    .manifest(self.dir.join("manifest"));
                if let Some(cache) = &cache {
                    o = o.cache(Arc::clone(cache));
                }
                if let Some(sink) = self.observer() {
                    o = o.observer(sink);
                }
                if let Some(plan) = &self.faults {
                    o = o.faults(Arc::clone(plan));
                }
                Inner::Inline(Box::new(if recover {
                    o.open_or_recover()?.0
                } else {
                    o.open()?
                }))
            }
            EngineKind::Background => {
                let mut o = TieredOpenOptions::new(self.config())
                    .store(self.store()?)
                    .wal(self.dir.join("wal"))
                    .manifest(self.dir.join("manifest"));
                if let Some(sink) = self.observer() {
                    o = o.observer(sink);
                }
                if let Some(plan) = &self.faults {
                    o = o.faults(Arc::clone(plan));
                }
                Inner::Background(Some(Box::new(if recover {
                    o.open_or_recover()?.0
                } else {
                    o.open()?
                })))
            }
            EngineKind::Fleet { series, workers } => {
                let budget = u64::from(series) * MEMORY_BUDGET as u64;
                let mut o = MultiOpenOptions::new(self.config())
                    .store(self.store()?)
                    .durable_dir(self.dir.join("fleet"))
                    .workers(workers)
                    .arbiter(ArbiterConfig::new(budget));
                if let Some(sink) = self.observer() {
                    o = o.observer(sink);
                }
                if let Some(plan) = &self.faults {
                    o = o.faults(Arc::clone(plan));
                }
                Inner::Fleet(Box::new(if recover {
                    o.open_or_recover()?.0
                } else {
                    o.open()?
                }))
            }
        };
        if let (true, Some(tracer)) = (recover, &self.tracer) {
            tracer.span(Kind::Recover, t0, 0, 0);
        }
        Ok(Engine {
            inner,
            cache,
            tracer: self.tracer.clone(),
            fast_appends: (0, 0),
        })
    }
}

enum Inner {
    Inline(Box<LsmEngine>),
    /// `None` once `finish` has consumed the engine.
    Background(Option<Box<TieredEngine>>),
    Fleet(Box<MultiSeriesEngine>),
}

/// One open engine of any kind behind the calls the workloads make.
pub struct Engine {
    inner: Inner,
    cache: Option<Arc<BlockCache>>,
    tracer: Option<Arc<Tracer>>,
    /// Traced appends that did nothing but buffer a point are not kept as
    /// spans: `(count, total ns)`.
    fast_appends: (u64, u64),
}

/// What closing an engine reports: the write counters behind
/// `write_amp`, and for the background engine the stored points `finish`
/// returns (the only full read it offers after shutdown).
pub struct Closed {
    pub user_points: u64,
    pub disk_points_written: u64,
    pub contents: Option<Vec<DataPoint>>,
}

fn finished() -> Error {
    Error::InvalidConfig("background engine already finished".into())
}

/// Runs `call` inside a span of `kind` when a tracer is attached.
fn traced<T>(
    tracer: Option<&Tracer>,
    kind: Kind,
    call: impl FnOnce() -> Result<T>,
) -> Result<T> {
    match tracer {
        None => call(),
        Some(tracer) => {
            let t0 = now_ns();
            let out = call();
            tracer.span(kind, t0, 0, 0);
            out
        }
    }
}

/// One append. A traced append that only buffered its point is counted
/// in `fast_appends` and not kept as a span.
fn append(
    inner: &mut Inner,
    tracer: Option<&Tracer>,
    fast_appends: &mut (u64, u64),
    series: u32,
    p: DataPoint,
) -> Result<()> {
    let before = tracer.map(|t| (now_ns(), t.pushed()));
    match inner {
        Inner::Inline(e) => e.append(p).map(drop),
        Inner::Background(e) => {
            e.as_mut().ok_or_else(finished)?.append(p).map(drop)
        }
        Inner::Fleet(e) => e.append(SeriesId(series), p).map(drop),
    }?;
    if let (Some(tracer), Some((t0, pushed))) = (tracer, before) {
        if tracer.pushed() == pushed {
            fast_appends.0 += 1;
            fast_appends.1 += now_ns() - t0;
        } else {
            tracer.span(Kind::Append, t0, 0, 0);
        }
    }
    Ok(())
}

fn sync_wal(inner: &mut Inner, tracer: Option<&Tracer>) -> Result<()> {
    traced(tracer, Kind::WalSync, || match inner {
        Inner::Inline(e) => e.sync_wal(),
        Inner::Background(e) => e.as_mut().ok_or_else(finished)?.sync_wal(),
        Inner::Fleet(e) => e.sync_wal_all(),
    })
}

impl Engine {
    fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// One user write batch: `points` appended one by one, then the WAL
    /// fsynced. The batch is acknowledged when this returns.
    pub fn write_batch(&mut self, points: &[(u32, DataPoint)]) -> Result<()> {
        let Self {
            inner,
            tracer,
            fast_appends,
            ..
        } = self;
        let tracer = tracer.as_deref();
        traced(tracer, Kind::Batch, || {
            for &(series, p) in points {
                append(inner, tracer, fast_appends, series, p)?;
            }
            sync_wal(inner, tracer)
        })
    }

    pub fn query(
        &self,
        series: u32,
        range: TimeRange,
    ) -> Result<(Vec<DataPoint>, QueryStats)> {
        traced(self.tracer(), Kind::Query, || match &self.inner {
            Inner::Inline(e) => e.query(range),
            Inner::Background(e) => {
                e.as_ref().ok_or_else(finished)?.query(range)
            }
            Inner::Fleet(e) => e.query(SeriesId(series), range),
        })
    }

    /// Point lookup (inline and fleet engines only).
    pub fn get(&self, series: u32, tg: Timestamp) -> Result<Option<DataPoint>> {
        traced(self.tracer(), Kind::Get, || match &self.inner {
            Inner::Inline(e) => e.get(tg),
            Inner::Fleet(e) => e
                .engine(SeriesId(series))
                .ok_or(Error::UnknownSeries(series))?
                .get(tg),
            Inner::Background(_) => Err(unsupported("get")),
        })
    }

    pub fn aggregate(
        &self,
        series: u32,
        range: TimeRange,
    ) -> Result<(Agg, QueryStats)> {
        traced(self.tracer(), Kind::Aggregate, || match &self.inner {
            Inner::Inline(e) => e.aggregate(range),
            Inner::Fleet(e) => e.aggregate(SeriesId(series), range),
            Inner::Background(_) => Err(unsupported("aggregate")),
        })
    }

    pub fn downsample(
        &self,
        series: u32,
        range: TimeRange,
        width: i64,
    ) -> Result<(Vec<Bucket>, QueryStats)> {
        traced(self.tracer(), Kind::Downsample, || match &self.inner {
            Inner::Inline(e) => e.downsample(range, width),
            Inner::Fleet(e) => e.downsample(SeriesId(series), range, width),
            Inner::Background(_) => Err(unsupported("downsample")),
        })
    }

    /// Forces everything buffered to disk: `flush_all` for the inline and
    /// fleet engines, `finish` (which also stops the worker) for the
    /// background engine.
    pub fn close(&mut self) -> Result<Closed> {
        let Self { inner, tracer, .. } = self;
        traced(tracer.as_deref(), Kind::Close, || match inner {
            Inner::Inline(e) => {
                e.flush_all()?;
                Ok(Closed::of(e.metrics()))
            }
            Inner::Background(e) => {
                let report = e.take().ok_or_else(finished)?.finish()?;
                Ok(Closed {
                    user_points: report.user_points,
                    disk_points_written: report.disk_points_written,
                    contents: Some(report.points),
                })
            }
            Inner::Fleet(e) => {
                e.flush_all()?;
                Ok(Closed::of(&e.combined_metrics()))
            }
        })
    }

    /// Every stored point of `series`, by one query over the whole range
    /// (`scan_all` where the engine has it).
    pub fn full_read(&self, series: u32) -> Result<Vec<DataPoint>> {
        let all = TimeRange::new(Timestamp::MIN, Timestamp::MAX);
        match &self.inner {
            Inner::Inline(e) => e.scan_all(),
            Inner::Background(e) => {
                Ok(e.as_ref().ok_or_else(finished)?.query(all)?.0)
            }
            Inner::Fleet(e) => match e.engine(SeriesId(series)) {
                Some(engine) => engine.scan_all(),
                None => Ok(Vec::new()),
            },
        }
    }

    /// Kernel counters (summed over series for the fleet); `None` once the
    /// background engine has finished.
    pub fn metrics(&self) -> Option<Metrics> {
        match &self.inner {
            Inner::Inline(e) => Some(e.metrics().clone()),
            Inner::Background(e) => e.as_deref().map(TieredEngine::metrics),
            Inner::Fleet(e) => Some(e.combined_metrics()),
        }
    }

    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        match &self.inner {
            Inner::Inline(e) => Some(e.admission_stats()),
            Inner::Background(e) => {
                e.as_deref().map(TieredEngine::admission_stats)
            }
            Inner::Fleet(_) => None,
        }
    }

    pub fn pacer_stats(&self) -> Option<PacerStats> {
        match &self.inner {
            Inner::Background(e) => e.as_deref().map(TieredEngine::pacer_stats),
            _ => None,
        }
    }

    pub fn arbiter_stats(&self) -> Option<ArbiterStats> {
        match &self.inner {
            Inner::Fleet(e) => e.arbiter_stats(),
            _ => None,
        }
    }

    /// Arbiter-assigned buffer capacity of one fleet series.
    pub fn series_capacity(&self, series: u32) -> Option<u64> {
        match &self.inner {
            Inner::Fleet(e) => e.series_capacity(SeriesId(series)),
            _ => None,
        }
    }

    pub fn delayed_waves(&self) -> u64 {
        match &self.inner {
            Inner::Fleet(e) => e.fleet_delayed_waves(),
            _ => 0,
        }
    }

    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    pub fn fast_appends(&self) -> (u64, u64) {
        self.fast_appends
    }
}

impl Closed {
    fn of(metrics: &Metrics) -> Self {
        Self {
            user_points: metrics.user_points,
            disk_points_written: metrics.disk_points_written,
            contents: None,
        }
    }
}

fn unsupported(call: &str) -> Error {
    Error::InvalidConfig(format!("the background engine has no {call}"))
}
