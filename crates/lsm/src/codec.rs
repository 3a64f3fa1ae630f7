//! Checked little-endian slice decoding shared by the WAL, manifest and
//! SSTable decoders.
//!
//! Every decoder validates record lengths before reading fields, but the
//! conversions still go through these helpers so that a length-arithmetic
//! bug surfaces as [`Error::Corrupt`] instead of a panic: the library
//! crates are panic-free by lint (clippy `unwrap_used`/`expect_used`/`panic`,
//! denied workspace-wide).

use seplsm_types::{Error, Result};

/// Copies `N` bytes starting at `off`, or reports a truncation.
fn take<const N: usize>(buf: &[u8], off: usize) -> Result<[u8; N]> {
    match buf.get(off..).and_then(|tail| tail.get(..N)) {
        Some(bytes) => {
            let mut out = [0u8; N];
            out.copy_from_slice(bytes);
            Ok(out)
        }
        None => Err(Error::Corrupt(format!(
            "truncated record: need {N} bytes at offset {off}, have {}",
            buf.len()
        ))),
    }
}

/// Reads a little-endian `u16` at `off`.
pub(crate) fn read_u16_le(buf: &[u8], off: usize) -> Result<u16> {
    Ok(u16::from_le_bytes(take(buf, off)?))
}

/// Reads a little-endian `u32` at `off`.
pub(crate) fn read_u32_le(buf: &[u8], off: usize) -> Result<u32> {
    Ok(u32::from_le_bytes(take(buf, off)?))
}

/// Reads a little-endian `u64` at `off`.
pub(crate) fn read_u64_le(buf: &[u8], off: usize) -> Result<u64> {
    Ok(u64::from_le_bytes(take(buf, off)?))
}

/// Reads a little-endian `i64` at `off`.
pub(crate) fn read_i64_le(buf: &[u8], off: usize) -> Result<i64> {
    Ok(i64::from_le_bytes(take(buf, off)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_round_trip() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&(-42i64).to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(read_u16_le(&buf, 0).unwrap(), 0xBEEF);
        assert_eq!(read_u32_le(&buf, 2).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_i64_le(&buf, 6).unwrap(), -42);
        assert_eq!(read_u64_le(&buf, 14).unwrap(), u64::MAX);
    }

    #[test]
    fn short_reads_are_corruption_not_panics() {
        let buf = [0u8; 3];
        assert!(read_u32_le(&buf, 0).is_err());
        assert!(read_u16_le(&buf, 2).is_err());
        // Offset past the end, and offset arithmetic that would overflow.
        assert!(read_u64_le(&buf, 100).is_err());
        assert!(read_u16_le(&buf, usize::MAX).is_err());
    }
}
