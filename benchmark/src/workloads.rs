//! The five workloads: what each one ingests, which engine it drives and
//! the operation schedule it replays. Everything here is a function of the
//! seed and the size; no engine is touched.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seplsm_types::{DataPoint, Policy, TimeRange, Timestamp};
use seplsm_workload::{paper_dataset, PAPER_DATASETS};

use crate::adapter::{EngineKind, MEMORY_BUDGET};

/// Appends per write batch on a single-series engine, and on the fleet.
pub const BATCH: usize = 128;
pub const FLEET_BATCH: usize = 256;
/// Width of range queries and of the aggregation window, in ms of
/// generation time; buckets of a downsample.
pub const QUERY_MS: Timestamp = 5_000;
pub const AGG_MS: Timestamp = 500_000;
pub const BUCKET_MS: Timestamp = 10_000;
/// Drop-and-reopen cycles timed after each run, and the acknowledged but
/// unflushed points each one leaves in the WAL.
pub const RECOVER_CYCLES: usize = 5;
pub const TAIL_POINTS: usize = 200;
/// Arrival rate of the open-loop workload, points per second: under half
/// of the closed-loop capacity measured on the seed (80 000 on a good
/// minute of this sandbox's disk, far less on a bad one). A constant, never
/// re-derived per run.
pub const OPEN_LOOP_RATE: u64 = 30_000;
/// Fleet shape.
pub const FLEET_SERIES: u32 = 64;
pub const FLEET_WORKERS: usize = 2;
pub const FLEET_HOT_QUERIES: u32 = 3;

/// One step of a workload's schedule.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Append `stream[lo..hi]`, then fsync the WAL.
    Batch {
        lo: usize,
        hi: usize,
    },
    /// Range query; `recent` tells the window was anchored at the newest
    /// generation time (only used to split the per-layer latencies).
    Query {
        series: u32,
        range: TimeRange,
        recent: bool,
    },
    Get {
        series: u32,
        tg: Timestamp,
    },
    Aggregate {
        series: u32,
        range: TimeRange,
    },
    Downsample {
        series: u32,
        range: TimeRange,
    },
}

impl Op {
    pub fn is_read(&self) -> bool {
        !matches!(self, Op::Batch { .. })
    }
}

/// A workload's static description.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: EngineKind,
    pub separation: bool,
    dataset: &'static str,
    /// Stream points per second of `--seconds`: sizes were calibrated on
    /// the seed so the measured phase lasts about `--seconds`.
    points_per_second: usize,
    /// Points ingested during set-up (`read-mix` only), per second.
    preload_per_second: usize,
    /// Read operations per second of `--seconds` (`read-mix` only).
    reads_per_second: usize,
    /// `Some(rate)` for an open loop at `rate` points per second.
    pub open_loop_rate: Option<u64>,
    /// Decoded-block cache as a share of the preloaded points.
    cache_share: Option<f64>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ingest-pc",
        why: "M12, heaviest disorder, conventional policy, inline compaction, closed loop: merges, table get/put and encode/decode dominate",
        kind: EngineKind::Inline,
        separation: false,
        dataset: "M12",
        points_per_second: 30_000,
        preload_per_second: 0,
        reads_per_second: 0,
        open_loop_rate: None,
        cache_share: None,
    },
    Workload {
        name: "ingest-ps",
        why: "same M12 stream and seed under the separation policy: in-order flushes bypass merges, so a change that helps one policy and costs the other shows",
        kind: EngineKind::Inline,
        separation: true,
        dataset: "M12",
        points_per_second: 30_000,
        preload_per_second: 0,
        reads_per_second: 0,
        open_loop_rate: None,
        cache_share: None,
    },
    Workload {
        name: "ingest-bg-open",
        why: "M6 on the background-compaction engine, open loop at a fixed 30000 points/s timed from due time: stalls, admission and queries racing compaction",
        kind: EngineKind::Background,
        separation: true,
        dataset: "M6",
        points_per_second: OPEN_LOOP_RATE as usize,
        preload_per_second: 0,
        reads_per_second: 0,
        open_loop_rate: Some(OPEN_LOOP_RATE),
        cache_share: None,
    },
    Workload {
        name: "read-mix",
        why: "reads over preloaded, reopened M6 data through a block cache of 10 % of it: recent reads fit the cache, historical ones do not; few writes",
        kind: EngineKind::Inline,
        separation: true,
        dataset: "M6",
        points_per_second: 0,
        preload_per_second: 20_000,
        reads_per_second: 6_000,
        open_loop_rate: None,
        cache_share: Some(0.10),
    },
    Workload {
        name: "fleet-skew",
        why: "64 series cycling M1..M12 with Zipf(1.0) popularity on the multi-series engine: the only workload that runs the flush pool and the memory arbiter",
        kind: EngineKind::Fleet {
            series: FLEET_SERIES,
            workers: FLEET_WORKERS,
        },
        separation: true,
        dataset: "M1",
        points_per_second: 15_000,
        preload_per_second: 0,
        reads_per_second: 0,
        open_loop_rate: None,
        cache_share: None,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|w| w.name == name).copied()
}

/// The run's size: `--seconds`, divided by 50 under `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub seconds: u64,
    pub smoke: bool,
}

impl Size {
    fn scale(&self, per_second: usize) -> usize {
        let n = per_second * self.seconds as usize;
        if self.smoke {
            n / 50
        } else {
            n
        }
    }
}

/// Everything a run replays: generated once per set-up from the seed.
pub struct Inputs {
    /// `(series, point)` in arrival order.
    pub stream: Vec<(u32, DataPoint)>,
    /// Leading stream points ingested during set-up.
    pub preload: usize,
    pub ops: Vec<Op>,
    /// Later arrivals appended (and fsynced, never flushed) before each
    /// timed recovery.
    pub tails: Vec<Vec<(u32, DataPoint)>>,
    pub series: u32,
}

impl Workload {
    pub fn policy(&self) -> Policy {
        if self.separation {
            Policy::separation_even(MEMORY_BUDGET).expect("even split")
        } else {
            Policy::conventional(MEMORY_BUDGET)
        }
    }

    /// The same workload driven as a closed loop (capacity pre-phase).
    pub fn closed_loop(&self) -> Workload {
        Workload {
            open_loop_rate: None,
            ..*self
        }
    }

    pub fn batch_points(&self) -> usize {
        match self.kind {
            EngineKind::Fleet { .. } => FLEET_BATCH,
            _ => BATCH,
        }
    }

    pub fn stream_points(&self, size: Size) -> usize {
        size.scale(self.points_per_second)
    }

    pub fn preload_points(&self, size: Size) -> usize {
        size.scale(self.preload_per_second)
    }

    pub fn cache_points(&self, size: Size) -> Option<usize> {
        self.cache_share
            .map(|s| ((self.preload_points(size) as f64 * s) as usize).max(1))
    }

    /// Generates the stream, the schedule and the recovery tails.
    pub fn inputs(&self, seed: u64, size: Size) -> Inputs {
        let tail_total = RECOVER_CYCLES * TAIL_POINTS;
        let reads = size.scale(self.reads_per_second);
        let preload = self.preload_points(size);
        // `read-mix` writes one batch per 50 reads after its preload.
        let measured_writes = if reads > 0 {
            reads / 50 * BATCH
        } else {
            self.stream_points(size)
        };
        let total = preload + measured_writes + tail_total;
        let mut stream = match self.kind {
            EngineKind::Fleet { series, .. } => {
                fleet_stream(series, total, seed)
            }
            _ => single_stream(self.dataset, total, seed),
        };
        let tail_points = stream.split_off(total - tail_total);
        let tails =
            tail_points.chunks(TAIL_POINTS).map(<[_]>::to_vec).collect();
        let ops = if reads > 0 {
            self.read_mix_ops(&stream, preload, reads, seed)
        } else {
            self.ingest_ops(&stream)
        };
        let series = match self.kind {
            EngineKind::Fleet { series, .. } => series,
            _ => 1,
        };
        Inputs {
            stream,
            preload,
            ops,
            tails,
            series,
        }
    }

    /// Write batches with a sprinkle of dashboard reads: a recent-window
    /// query after every second batch (the fleet asks its hottest series
    /// after every batch, having far fewer batches).
    fn ingest_ops(&self, stream: &[(u32, DataPoint)]) -> Vec<Op> {
        let batch = self.batch_points();
        let fleet = matches!(self.kind, EngineKind::Fleet { .. });
        let mut newest = vec![Timestamp::MIN; FLEET_SERIES as usize];
        let mut ops = Vec::new();
        for (b, lo) in (0..stream.len()).step_by(batch).enumerate() {
            let hi = (lo + batch).min(stream.len());
            for (series, p) in &stream[lo..hi] {
                let n = &mut newest[*series as usize];
                *n = (*n).max(p.gen_time);
            }
            ops.push(Op::Batch { lo, hi });
            let hot = if fleet {
                0..FLEET_HOT_QUERIES
            } else if b % 2 == 1 {
                0..1
            } else {
                0..0
            };
            for series in hot {
                let end = newest[series as usize];
                if end == Timestamp::MIN {
                    continue;
                }
                ops.push(Op::Query {
                    series,
                    range: TimeRange::new(end - QUERY_MS, end),
                    recent: true,
                });
            }
        }
        ops
    }

    /// The seeded read mix of `read-mix`: 40 % recent-window query, 30 %
    /// uniformly placed historical query, 10 % get, 10 % aggregate, 10 %
    /// downsample, and one write batch per 50 reads so MemTable shadowing,
    /// cache invalidation and compaction run beside the reads.
    fn read_mix_ops(
        &self,
        stream: &[(u32, DataPoint)],
        preload: usize,
        reads: usize,
        seed: u64,
    ) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ead_5eed);
        let delta_t = paper_dataset(self.dataset).expect("dataset").delta_t;
        let mut newest = stream[..preload]
            .iter()
            .map(|(_, p)| p.gen_time)
            .max()
            .unwrap_or(0);
        let mut next = preload;
        let mut ops = Vec::with_capacity(reads + reads / 50);
        for r in 0..reads {
            let pick = rng.gen_range(0..10u32);
            let window = |rng: &mut StdRng, width: Timestamp| {
                let start = rng.gen_range(0..(newest - width).max(1));
                TimeRange::new(start, start + width)
            };
            ops.push(match pick {
                0..=3 => Op::Query {
                    series: 0,
                    range: TimeRange::new(newest - QUERY_MS, newest),
                    recent: true,
                },
                4..=6 => Op::Query {
                    series: 0,
                    range: window(&mut rng, QUERY_MS),
                    recent: false,
                },
                7 => Op::Get {
                    series: 0,
                    tg: rng.gen_range(0..newest / delta_t + 1) * delta_t,
                },
                8 => Op::Aggregate {
                    series: 0,
                    range: window(&mut rng, AGG_MS),
                },
                _ => Op::Downsample {
                    series: 0,
                    range: window(&mut rng, AGG_MS),
                },
            });
            if r % 50 == 49 && next + BATCH <= stream.len() {
                ops.push(Op::Batch {
                    lo: next,
                    hi: next + BATCH,
                });
                for (_, p) in &stream[next..next + BATCH] {
                    newest = newest.max(p.gen_time);
                }
                next += BATCH;
            }
        }
        ops
    }
}

/// Values become small integers, so that sums over any grouping of them
/// are exact and aggregates compare bit for bit with the oracle's.
fn integer_valued(p: DataPoint) -> DataPoint {
    DataPoint::new(p.gen_time, p.arrival_time, (p.value * 10.0).round())
}

fn single_stream(
    dataset: &str,
    points: usize,
    seed: u64,
) -> Vec<(u32, DataPoint)> {
    paper_dataset(dataset)
        .expect("dataset")
        .workload(points, seed)
        .generate()
        .into_iter()
        .map(|p| (0, integer_valued(p)))
        .collect()
}

/// `series` series cycling M1..M12, each arriving in its own order; which
/// series the next arrival belongs to is drawn from Zipf(1.0), so series 0
/// is the hottest.
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
        .map(|s| {
            let p = per_series[s as usize].next().expect("counted");
            (s, integer_valued(p))
        })
        .collect()
}
