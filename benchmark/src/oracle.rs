//! The reference model: a last-writer-wins map per series, fed the same
//! stream as the engine. Answers are recorded while the clock runs (as
//! digests, so recording costs little) and checked after it stops by
//! replaying the schedule against the model.

use std::collections::BTreeMap;

use seplsm_lsm::{Agg, Bucket};
use seplsm_types::{DataPoint, TimeRange, Timestamp};

use crate::workloads::{Op, BUCKET_MS};

/// What the engine answered to one read, reduced to what is compared.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Result of a write batch: nothing to compare.
    Written,
    /// A point sequence: length and an order-sensitive hash of every field.
    Points {
        count: u64,
        hash: u64,
    },
    Point(Option<DataPoint>),
    Agg(Agg),
    Buckets(Vec<Bucket>),
    /// The call returned `Err`.
    Failed,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Digest of a point sequence in order.
pub fn digest<'a>(points: impl IntoIterator<Item = &'a DataPoint>) -> Answer {
    let mut count = 0;
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for p in points {
        count += 1;
        hash = mix(hash, p.gen_time as u64);
        hash = mix(hash, p.arrival_time as u64);
        hash = mix(hash, p.value.to_bits());
    }
    Answer::Points { count, hash }
}

impl Answer {
    fn matches(&self, expected: &Answer) -> bool {
        match (self, expected) {
            (Answer::Agg(a), Answer::Agg(b)) => a.bits_eq(b),
            (Answer::Buckets(a), Answer::Buckets(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.0 == y.0 && x.1.bits_eq(&y.1))
            }
            (a, b) => a == b,
        }
    }
}

/// The model: one ordered map per series, newest write wins.
pub struct Oracle {
    series: Vec<BTreeMap<Timestamp, DataPoint>>,
}

impl Oracle {
    pub fn new(series: u32) -> Self {
        Self {
            series: vec![BTreeMap::new(); series as usize],
        }
    }

    pub fn write(&mut self, points: &[(u32, DataPoint)]) {
        for (s, p) in points {
            self.series[*s as usize].insert(p.gen_time, *p);
        }
    }

    fn range(
        &self,
        series: u32,
        range: TimeRange,
    ) -> impl Iterator<Item = &DataPoint> {
        self.series[series as usize]
            .range(range.start..=range.end)
            .map(|(_, p)| p)
    }

    /// Distinct live points across all series.
    pub fn live_points(&self) -> u64 {
        self.series.iter().map(|s| s.len() as u64).sum()
    }

    /// Digest of everything `series` holds.
    pub fn contents(&self, series: u32) -> Answer {
        digest(self.series[series as usize].values())
    }

    /// The answer the model gives to `op` in its current state.
    fn expect(&self, op: &Op) -> Answer {
        match *op {
            Op::Batch { .. } => Answer::Written,
            Op::Query { series, range, .. } => {
                digest(self.range(series, range))
            }
            Op::Get { series, tg } => {
                Answer::Point(self.series[series as usize].get(&tg).copied())
            }
            Op::Aggregate { series, range } => {
                let mut agg = Agg::default();
                for p in self.range(series, range) {
                    agg.merge_point(p.value);
                }
                Answer::Agg(agg)
            }
            Op::Downsample { series, range } => {
                let mut buckets: BTreeMap<Timestamp, Agg> = BTreeMap::new();
                for p in self.range(series, range) {
                    let key = p.gen_time.div_euclid(BUCKET_MS) * BUCKET_MS;
                    buckets.entry(key).or_default().merge_point(p.value);
                }
                Answer::Buckets(buckets.into_iter().collect())
            }
        }
    }

    /// Replays `ops` against the model, applying each batch and comparing
    /// each read with what the engine answered at that point. Returns the
    /// number of operations that failed or answered differently.
    pub fn replay(
        &mut self,
        stream: &[(u32, DataPoint)],
        ops: &[Op],
        answers: &[Answer],
    ) -> u64 {
        let mut failed = 0;
        for (op, answer) in ops.iter().zip(answers) {
            if let Op::Batch { lo, hi } = *op {
                self.write(&stream[lo..hi]);
            }
            if !answer.matches(&self.expect(op)) {
                failed += 1;
            }
        }
        failed
    }
}
