//! SSTable dialects this code reads and no longer writes.
//!
//! Three things the suites that hold the old readers to account share:
//!
//! * the table files under `tests/fixtures/tables/`, written by the last
//!   build that could write every dialect, with the generator they were
//!   written from — so what a file must decode to is recomputed here, not
//!   stored beside it;
//! * a v1 and a v2 *writer*, laid out from the module docs of
//!   `crates/lsm/src/sstable/format.rs` alone (the product has none), for
//!   the properties over arbitrary points a fixed file cannot give.
//!   `tests/old_tables.rs` checks that it reproduces the fixtures byte for
//!   byte;
//! * every way table bytes become points ([`read_every_way`]).
#![allow(dead_code)]

use bytes::{BufMut, Bytes, BytesMut};
use seplsm::{DataPoint, TimeRange};
use seplsm_lsm::sstable::bits::BitWriter;
use seplsm_lsm::sstable::compress::{encode_f64s, encode_i64s};
use seplsm_lsm::sstable::crc32::crc32;
use seplsm_lsm::sstable::format::{
    decode, decode_index_block, decode_index_block_bytes, decode_range,
    encode_with, read_table_index, ByteSpan, EncodeOptions, RangeRead,
    TableIndex,
};
use seplsm_lsm::sstable::varint::{put_ivarint, put_uvarint};
use seplsm_lsm::sstable::{SsTableId, SsTableMeta};
use seplsm_lsm::store::load_index;
use seplsm_lsm::TableStore;
use seplsm_types::{Error, Result};

/// A dialect the test-only writer can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// Version 1: flat varint records under one whole-file CRC.
    V1,
    /// Version 2: compressed blocks of this many points behind a leading
    /// index.
    V2(usize),
}

/// Points `first .. first + n` of the series every fixture but the
/// `-extremes` pair was cut from: a 50 ms grid, delays cycling below
/// 991 ms, values rising by halves.
pub fn series_points(first: usize, n: usize) -> Vec<DataPoint> {
    (first..first + n)
        .map(|i| {
            DataPoint::with_delay(
                i as i64 * 50 + 1_000_000,
                (i as i64 * 37) % 991,
                i as f64 * 0.5,
            )
        })
        .collect()
}

/// The `-extremes` fixtures: generation times at both ends of `i64`,
/// negative delays, and the values a careless codec loses.
pub fn extreme_points() -> Vec<DataPoint> {
    vec![
        DataPoint::with_delay(i64::MIN + 2, 3, f64::NAN),
        DataPoint::with_delay(i64::MIN + 9, 0, f64::NEG_INFINITY),
        DataPoint::with_delay(-5, -5, -0.0),
        DataPoint::with_delay(0, 0, 0.0),
        DataPoint::with_delay(7, 1_000_000, f64::INFINITY),
        DataPoint::with_delay(i64::MAX - 9, -1_000_000, f64::MIN_POSITIVE),
        DataPoint::with_delay(i64::MAX - 1, -3, f64::MAX),
    ]
}

/// One table file an old build wrote, and what it holds.
pub struct Fixture {
    /// File stem under `tests/fixtures/tables/`.
    pub name: &'static str,
    /// The file, as committed.
    pub bytes: &'static [u8],
    /// The dialect [`encode`] reproduces it in (`None`: a v3 table with
    /// 52-byte index entries in 128-point blocks, which nothing here
    /// writes).
    pub dialect: Option<Dialect>,
    /// The points it was written from.
    pub points: Vec<DataPoint>,
}

impl Fixture {
    /// The version the file's header carries.
    pub fn version(&self) -> u16 {
        match self.dialect {
            Some(Dialect::V1) => 1,
            Some(Dialect::V2(_)) => 2,
            None => 3,
        }
    }

    /// Points per block (a v1 table is one block).
    pub fn block_points(&self) -> usize {
        match self.dialect {
            Some(Dialect::V1) => self.points.len(),
            Some(Dialect::V2(block_points)) => block_points,
            None => 128,
        }
    }
}

macro_rules! fixture {
    ($name:literal, $dialect:expr, $points:expr) => {
        Fixture {
            name: $name,
            bytes: include_bytes!(concat!(
                "../fixtures/tables/",
                $name,
                ".sst"
            )),
            dialect: $dialect,
            points: $points,
        }
    };
}

/// Every file under `tests/fixtures/tables/`.
pub fn fixtures() -> Vec<Fixture> {
    use Dialect::{V1, V2};
    vec![
        fixture!("v1-1", Some(V1), series_points(0, 1)),
        fixture!("v1-64", Some(V1), series_points(0, 64)),
        fixture!("v1-512", Some(V1), series_points(0, 512)),
        fixture!("v1-extremes", Some(V1), extreme_points()),
        fixture!("v2-bp1-64", Some(V2(1)), series_points(0, 64)),
        fixture!("v2-bp7-64", Some(V2(7)), series_points(0, 64)),
        fixture!("v2-bp13-512", Some(V2(13)), series_points(0, 512)),
        fixture!("v2-bp128-512", Some(V2(128)), series_points(512, 512)),
        fixture!("v2-bp3-extremes", Some(V2(3)), extreme_points()),
        fixture!("v3e52-bp128-512", None, series_points(1024, 512)),
    ]
}

/// Whether two point lists agree bit for bit (NaN payloads and the sign of
/// zero included, which `==` on `f64` cannot say).
pub fn same_points(a: &[DataPoint], b: &[DataPoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(a, b)| {
            (a.gen_time, a.arrival_time, a.value.to_bits())
                == (b.gen_time, b.arrival_time, b.value.to_bits())
        })
}

const MAGIC: &[u8; 4] = b"SLSM";

/// Encodes `points` (non-empty, strictly increasing generation times) the
/// way builds up to PR 23 did under `dialect`.
pub fn encode(points: &[DataPoint], dialect: Dialect) -> Bytes {
    assert!(points.windows(2).all(|w| w[0].gen_time < w[1].gen_time));
    let (first, last) = (points[0].gen_time, points[points.len() - 1].gen_time);
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    match dialect {
        Dialect::V1 => {
            buf.put_u16_le(1);
            buf.put_u16_le(0); // flags
            buf.put_u32_le(points.len() as u32);
            buf.put_i64_le(first);
            buf.put_i64_le(last);
            let mut prev = None;
            for p in points {
                match prev {
                    None => put_ivarint(&mut buf, p.gen_time),
                    Some(prev) => {
                        put_uvarint(&mut buf, (p.gen_time - prev) as u64)
                    }
                }
                prev = Some(p.gen_time);
                put_ivarint(&mut buf, p.delay());
                buf.put_u64_le(p.value.to_bits());
            }
        }
        Dialect::V2(block_points) => {
            let blocks: Vec<(&[DataPoint], Vec<u8>)> = points
                .chunks(block_points)
                .map(|chunk| (chunk, v2_block(chunk)))
                .collect();
            buf.put_u16_le(2);
            buf.put_u16_le(1); // flags: compressed
            buf.put_u32_le(points.len() as u32);
            buf.put_i64_le(first);
            buf.put_i64_le(last);
            buf.put_u32_le(block_points as u32);
            buf.put_u32_le(blocks.len() as u32);
            let mut offset = 0u32;
            for (chunk, block) in &blocks {
                buf.put_i64_le(chunk[0].gen_time);
                buf.put_i64_le(chunk[chunk.len() - 1].gen_time);
                buf.put_u32_le(chunk.len() as u32);
                buf.put_u32_le(offset);
                buf.put_u32_le(block.len() as u32);
                offset += block.len() as u32;
            }
            let header_crc = crc32(&buf);
            buf.put_u32_le(header_crc);
            for (_, block) in &blocks {
                buf.put_slice(block);
            }
        }
    }
    let file_crc = crc32(&buf);
    buf.put_u32_le(file_crc);
    buf.freeze()
}

/// `points` in every dialect a reader may meet: v1, v2 at block sizes that
/// do and do not divide a table, and v3 as the product writes it.
pub fn every_dialect(points: &[DataPoint]) -> Vec<Bytes> {
    use Dialect::{V1, V2};
    let mut tables: Vec<Bytes> = [V1, V2(1), V2(7), V2(13), V2(128)]
        .into_iter()
        .map(|dialect| encode(points, dialect))
        .collect();
    tables.push(encode_with(points, &EncodeOptions::default()).expect("v3"));
    tables
}

/// One v2 block: the three bit streams back to back, then their CRC.
fn v2_block(chunk: &[DataPoint]) -> Vec<u8> {
    let column = |f: fn(&DataPoint) -> i64| -> Vec<i64> {
        chunk.iter().map(f).collect()
    };
    let values: Vec<f64> = chunk.iter().map(|p| p.value).collect();
    let mut bits = BitWriter::new();
    encode_i64s(&mut bits, &column(|p| p.gen_time));
    encode_i64s(&mut bits, &column(DataPoint::delay));
    encode_f64s(&mut bits, &values);
    let mut block = bits.finish();
    let block_crc = crc32(&block);
    block.extend_from_slice(&block_crc.to_le_bytes());
    block
}

/// A read-only one-table store over arbitrary (possibly damaged) bytes,
/// serving whole-file and ranged reads — enough for `load_index` to take
/// the ranged walk and for the trait's default `get_range`.
pub struct RawTable(pub Bytes);

/// The id [`RawTable`] answers to.
pub const RAW_ID: SsTableId = SsTableId(0);

impl TableStore for RawTable {
    fn put(&self, _: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
        Err(Error::InvalidConfig("RawTable is read-only".into()))
    }
    fn get(&self, _: SsTableId) -> Result<Vec<DataPoint>> {
        decode(&self.0)
    }
    fn delete(&self, _: SsTableId) -> Result<()> {
        Ok(())
    }
    fn list(&self) -> Result<Vec<SsTableId>> {
        Ok(vec![RAW_ID])
    }
    fn read_raw(&self, _: SsTableId) -> Result<Option<Bytes>> {
        Ok(Some(self.0.clone()))
    }
    fn table_len(&self, _: SsTableId) -> Result<Option<u64>> {
        Ok(Some(self.0.len() as u64))
    }
    fn read_span(&self, _: SsTableId, span: ByteSpan) -> Result<Option<Bytes>> {
        let (start, end) = (span.offset as usize, span.end() as usize);
        if start > end || end > self.0.len() {
            return Err(Error::Corrupt("span outside table".into()));
        }
        Ok(Some(self.0.slice(start..end)))
    }
}

/// Reads `range` out of table `id` through every entry point that turns
/// table bytes into points, each with its own accounting: the two format
/// functions over whole bytes, the two block decoders under an index from
/// either constructor, and the store's default `get_range`.
pub fn read_every_way(
    store: &dyn TableStore,
    id: SsTableId,
    range: TimeRange,
) -> Vec<(&'static str, Result<RangeRead>)> {
    let raw = store.read_raw(id).expect("read_raw").expect("raw bytes");
    let via_index = |index: &TableIndex,
                     block: &dyn Fn(usize) -> Result<Vec<DataPoint>>|
     -> Result<RangeRead> {
        let mut read = RangeRead::default();
        if !index.may_contain(range) {
            return Ok(read);
        }
        for (b, _) in index.overlapping(range) {
            let points = block(b)?;
            read.blocks_read += 1;
            read.points_scanned += points.len() as u64;
            read.points.extend(
                points.into_iter().filter(|p| range.contains(p.gen_time)),
            );
        }
        Ok(read)
    };
    let span_bytes = |index: &TableIndex, b: usize| {
        store
            .read_span(id, index.block_span(b)?)?
            .ok_or_else(|| Error::Corrupt("store serves no byte spans".into()))
    };
    vec![
        ("decode_range", decode_range(&raw, range)),
        ("TableStore::get_range", store.get_range(id, range)),
        (
            "read_table_index + decode_index_block",
            read_table_index(&raw).and_then(|index| {
                via_index(&index, &|b| decode_index_block(&raw, &index, b))
            }),
        ),
        (
            "read_table_index + decode_index_block_bytes",
            read_table_index(&raw).and_then(|index| {
                via_index(&index, &|b| {
                    let bytes = span_bytes(&index, b)?;
                    decode_index_block_bytes(&index, b, &bytes)
                })
            }),
        ),
        (
            "load_index + decode_index_block_bytes",
            load_index(store, id).and_then(|loaded| {
                let (index, _) = loaded.expect("store serves raw bytes");
                via_index(&index, &|b| {
                    let bytes = span_bytes(&index, b)?;
                    decode_index_block_bytes(&index, b, &bytes)
                })
            }),
        ),
    ]
}
