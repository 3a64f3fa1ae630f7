//! The byte layout of the write-ahead log's packed frames (module docs of
//! `crates/lsm/src/wal.rs`), re-derived here from the documentation alone:
//! the integration tests that assert exact file lengths hold the encoder to
//! the documented format instead of echoing it.

use seplsm::DataPoint;

/// A points frame before its points: `len | crc | kind | series`.
const POINTS_FRAME: u64 = 13;
/// A checkpoint frame before its points: the same plus `lo | hi`.
pub const CHECKPOINT_FRAME: u64 = 29;

fn uvarint_len(v: u64) -> u64 {
    u64::from((64 - v.leading_zeros()).max(1).div_ceil(7))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Bytes of `points` alone when they are packed, in this order, into one
/// frame.
pub fn point_bytes(points: &[DataPoint]) -> u64 {
    let (mut prev_arrival, mut prev_bits) = (0i64, 0u64);
    points
        .iter()
        .map(|p| {
            let bits = p.value.to_bits();
            let step = zigzag(p.arrival_time.wrapping_sub(prev_arrival));
            let delay = zigzag(p.arrival_time.wrapping_sub(p.gen_time));
            let value = (bits ^ prev_bits).reverse_bits();
            (prev_arrival, prev_bits) = (p.arrival_time, bits);
            uvarint_len(step) + uvarint_len(delay) + uvarint_len(value)
        })
        .sum()
}

/// Bytes of `points` packed into one frame, their count included: nothing
/// at all for no points.
fn packed(points: &[DataPoint]) -> u64 {
    if points.is_empty() {
        return 0;
    }
    uvarint_len(points.len() as u64) + point_bytes(points)
}

/// Size of the points frame holding `points`.
pub fn points_frame(points: &[DataPoint]) -> u64 {
    POINTS_FRAME + packed(points)
}

/// Size of a checkpoint frame carrying `points`.
pub fn checkpoint_frame(points: &[DataPoint]) -> u64 {
    CHECKPOINT_FRAME + packed(points)
}
