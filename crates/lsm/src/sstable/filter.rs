//! Per-table pruning filter: generation-time range + bloom filter.
//!
//! Every v3 SSTable carries one [`TableFilter`] in its filter block. Query
//! planning consults it to skip tables *without touching their data blocks*:
//! window queries prune on the closed `[min_tg, max_tg]` range, and point
//! lookups additionally probe a bloom filter over the exact generation
//! times, so a point query over a run of non-overlapping tables decodes no
//! blocks from tables that cannot contain the probe.
//!
//! The bloom filter is hand-rolled and fully deterministic: keys are mixed
//! with the splitmix64 finalizer and probed with double hashing (Kirsch &
//! Mitzenmacher), ~10 bits and 7 probes per key, so two encodes of the same
//! points are byte-identical. No wall clock, no RNG, no dependencies — this
//! is a seplint kernel module (R3/R4).

use bytes::{BufMut, BytesMut};
use seplsm_types::{Error, Result, TimeRange};

use super::crc32::crc32;
use crate::codec;

/// Bloom bits budgeted per key (false-positive rate ≈ 1%).
const BITS_PER_KEY: u64 = 10;
/// Probes per key (≈ 0.69 × bits-per-key).
const PROBES: u32 = 7;

/// Fixed prefix of the encoded filter:
/// `min_tg i64 | max_tg i64 | count u32 | probes u32 | nwords u32`.
const FILTER_FIXED: usize = 8 + 8 + 4 + 4 + 4;

/// A per-table pruning filter: the closed generation-time range the table
/// covers plus a bloom filter over the exact generation times.
///
/// Pruning is conservative by construction: [`TableFilter::may_contain`]
/// can return `true` for an absent key (bloom false positive) but never
/// `false` for a present one.
#[derive(Debug, Clone, PartialEq)]
pub struct TableFilter {
    min_tg: i64,
    max_tg: i64,
    count: u32,
    probes: u32,
    words: Vec<u64>,
}

/// The 64-bit splitmix64 finalizer: a full-avalanche mixer, so consecutive
/// generation times spread uniformly over the bloom bits.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TableFilter {
    /// Builds a filter over `gen_times` (the generation times of one table,
    /// in any order, at ~`BITS_PER_KEY` bits per key).
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] if `gen_times` is empty.
    pub fn build(gen_times: &[i64]) -> Result<Self> {
        let (first, rest) = gen_times.split_first().ok_or_else(|| {
            Error::InvalidConfig("cannot build a filter over no keys".into())
        })?;
        let mut min_tg = *first;
        let mut max_tg = *first;
        for &tg in rest {
            min_tg = min_tg.min(tg);
            max_tg = max_tg.max(tg);
        }
        let nbits = (gen_times.len() as u64 * BITS_PER_KEY).max(64);
        let nwords = nbits.div_ceil(64) as usize;
        let mut filter = Self {
            min_tg,
            max_tg,
            count: gen_times.len() as u32,
            probes: PROBES,
            words: vec![0u64; nwords],
        };
        for &tg in gen_times {
            let (h1, h2) = Self::hash_pair(tg);
            let nbits = filter.nbits();
            for i in 0..filter.probes {
                let bit =
                    h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % nbits;
                filter.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        Ok(filter)
    }

    /// Double-hashing pair for one key; `h2` is forced odd so the probe
    /// sequence cycles through distinct bits.
    fn hash_pair(tg: i64) -> (u64, u64) {
        let h = splitmix64(tg as u64);
        (h, h.rotate_left(31) | 1)
    }

    fn nbits(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// Smallest generation time in the table.
    pub fn min_tg(&self) -> i64 {
        self.min_tg
    }

    /// Largest generation time in the table.
    pub fn max_tg(&self) -> i64 {
        self.max_tg
    }

    /// Number of keys the filter was built over.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether the table's time range intersects `range` at all.
    pub fn overlaps(&self, range: TimeRange) -> bool {
        self.max_tg >= range.start && self.min_tg <= range.end
    }

    /// Whether the table may contain a point generated exactly at `tg`.
    /// `false` is definitive; `true` may be a bloom false positive.
    pub fn may_contain_point(&self, tg: i64) -> bool {
        if tg < self.min_tg || tg > self.max_tg {
            return false;
        }
        let (h1, h2) = Self::hash_pair(tg);
        let nbits = self.nbits();
        for i in 0..self.probes {
            let bit = h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % nbits;
            if self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Whether the table may contain any point in `range`: range pruning
    /// for windows, plus the bloom probe when the window is a single
    /// instant. `false` is definitive.
    pub fn may_contain(&self, range: TimeRange) -> bool {
        if !self.overlaps(range) {
            return false;
        }
        if range.start == range.end {
            return self.may_contain_point(range.start);
        }
        true
    }

    /// Encoded size in bytes (fixed prefix + bloom words + CRC).
    pub fn encoded_len(&self) -> usize {
        FILTER_FIXED + self.words.len() * 8 + 4
    }

    /// Appends the wire encoding to `buf`:
    ///
    /// ```text
    /// +--------+--------+-------+--------+--------+-----------+-------+
    /// | min_tg | max_tg | count | probes | nwords | words…    | crc32 |
    /// | i64 LE | i64 LE | u32   | u32    | u32    | u64 LE ×n | u32   |
    /// +--------+--------+-------+--------+--------+-----------+-------+
    /// ```
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_i64_le(self.min_tg);
        buf.put_i64_le(self.max_tg);
        buf.put_u32_le(self.count);
        buf.put_u32_le(self.probes);
        buf.put_u32_le(self.words.len() as u32);
        for w in &self.words {
            buf.put_u64_le(*w);
        }
        let crc = crc32(&buf[start..]);
        buf.put_u32_le(crc);
    }

    /// Decodes (and CRC-validates) a filter block produced by
    /// [`TableFilter::encode_into`]. `bytes` must be exactly the block.
    ///
    /// # Errors
    /// [`Error::Corrupt`] on truncation, CRC mismatch, or nonsense fields.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < FILTER_FIXED + 4 {
            return Err(Error::Corrupt(format!(
                "filter block too short: {} bytes",
                bytes.len()
            )));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = codec::read_u32_le(crc_bytes, 0)?;
        let actual = crc32(body);
        if stored != actual {
            return Err(Error::Corrupt(format!(
                "filter CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let min_tg = codec::read_i64_le(body, 0)?;
        let max_tg = codec::read_i64_le(body, 8)?;
        let count = codec::read_u32_le(body, 16)?;
        let probes = codec::read_u32_le(body, 20)?;
        let nwords = codec::read_u32_le(body, 24)? as usize;
        if body.len() != FILTER_FIXED + nwords * 8 {
            return Err(Error::Corrupt(format!(
                "filter length {} disagrees with {nwords} words",
                bytes.len()
            )));
        }
        if count == 0 || nwords == 0 || probes == 0 || min_tg > max_tg {
            return Err(Error::Corrupt("filter header is nonsense".into()));
        }
        let mut words = Vec::with_capacity(nwords);
        for i in 0..nwords {
            words.push(codec::read_u64_le(body, FILTER_FIXED + i * 8)?);
        }
        Ok(Self {
            min_tg,
            max_tg,
            count,
            probes,
            words,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: i64) -> Vec<i64> {
        (0..n).map(|i| i * 37 + 1_000).collect()
    }

    #[test]
    fn no_false_negatives() {
        let tgs = keys(5_000);
        let f = TableFilter::build(&tgs).expect("build");
        for &tg in &tgs {
            assert!(f.may_contain_point(tg), "false negative at {tg}");
            assert!(f.may_contain(TimeRange::new(tg, tg)));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let tgs = keys(10_000);
        let f = TableFilter::build(&tgs).expect("build");
        // Probe in-range instants that are *not* keys (keys are ≡ 1000 mod 37).
        let mut fp = 0u32;
        let mut probes = 0u32;
        for i in 0..10_000i64 {
            let tg = i * 37 + 1_001;
            if tg > f.max_tg() {
                break;
            }
            probes += 1;
            if f.may_contain_point(tg) {
                fp += 1;
            }
        }
        assert!(probes > 5_000);
        let rate = f64::from(fp) / f64::from(probes);
        assert!(rate < 0.03, "false positive rate {rate} too high");
    }

    #[test]
    fn range_pruning_uses_min_max() {
        let f = TableFilter::build(&[100, 200, 300]).expect("build");
        assert_eq!(f.min_tg(), 100);
        assert_eq!(f.max_tg(), 300);
        assert_eq!(f.count(), 3);
        assert!(!f.may_contain(TimeRange::new(0, 99)));
        assert!(!f.may_contain(TimeRange::new(301, 400)));
        assert!(f.may_contain(TimeRange::new(50, 100)));
        assert!(f.may_contain(TimeRange::new(150, 250)));
        assert!(!f.may_contain_point(99));
        assert!(!f.may_contain_point(301));
    }

    #[test]
    fn unsorted_input_and_negative_times_work() {
        let f = TableFilter::build(&[5, -3, 9, 0]).expect("build");
        assert_eq!(f.min_tg(), -3);
        assert_eq!(f.max_tg(), 9);
        assert!(f.may_contain_point(-3));
        assert!(f.may_contain_point(9));
    }

    #[test]
    fn rejects_empty() {
        assert!(TableFilter::build(&[]).is_err());
    }

    #[test]
    fn round_trips_and_is_deterministic() {
        let tgs = keys(777);
        let f = TableFilter::build(&tgs).expect("build");
        let mut a = BytesMut::new();
        f.encode_into(&mut a);
        assert_eq!(a.len(), f.encoded_len());
        let mut b = BytesMut::new();
        TableFilter::build(&tgs).expect("build").encode_into(&mut b);
        assert_eq!(a, b, "encoding must be deterministic");
        let back = TableFilter::decode(&a).expect("decode");
        assert_eq!(back, f);
    }

    #[test]
    fn decode_detects_corruption_anywhere() {
        let f = TableFilter::build(&keys(64)).expect("build");
        let mut buf = BytesMut::new();
        f.encode_into(&mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.to_vec();
            bad[i] ^= 0x20;
            assert!(
                TableFilter::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        for cut in [0, 1, FILTER_FIXED, buf.len() - 1] {
            assert!(TableFilter::decode(&buf[..cut]).is_err());
        }
    }
}
