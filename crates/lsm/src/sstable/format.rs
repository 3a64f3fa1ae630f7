//! The SSTable binary formats.
//!
//! Three dialects exist on disk. **Version 3 is the only one this code
//! writes** ([`encode_with`]); versions 1 and 2, and v3 tables with 52-byte
//! index entries, were written by earlier builds and are only ever *read* —
//! their parsers take outside input, so they stay, and `tests/old_tables.rs`
//! holds them to table files an old build wrote
//! (`tests/fixtures/tables/`). An old table is upgraded by compaction: the
//! merge that consumes it writes v3.
//!
//! **Version 1** (read-only) — flat varint records:
//!
//! ```text
//! +--------+---------+-------+-------+--------+--------+-----------+-------+
//! | magic  | version | flags | count | min_tg | max_tg | records…  | crc32 |
//! | 4B     | u16 LE  | u16   | u32   | i64 LE | i64 LE |           | u32   |
//! +--------+---------+-------+-------+--------+--------+-----------+-------+
//! ```
//!
//! Records are sorted by generation time. The first record stores its
//! generation time as an absolute zigzag varint; subsequent records store the
//! (strictly positive) delta to the previous generation time as a plain
//! varint. Every record stores its *delay* (`t_a − t_g`) as a zigzag varint —
//! delays are small, arrival timestamps are not — followed by the `f64` value
//! bits. The trailing CRC-32 covers all preceding bytes.
//!
//! **Version 2** (read-only) — compressed blocks with a leading index:
//!
//! ```text
//! +-----------------+------------+---------------------+----------+
//! | header + index  | header_crc | blocks…             | file_crc |
//! +-----------------+------------+---------------------+----------+
//! header = magic "SLSM" | version=2 u16 | flags=1 u16 | count u32
//!          | min_tg i64 | max_tg i64 | block_points u32 | block_count u32
//! index  = per block: first_tg i64, last_tg i64, count u32,
//!          offset u32 (from the first block), len u32
//! block  = delta-of-delta timestamps ++ delta-of-delta delays
//!          ++ Gorilla XOR values ++ block_crc u32
//! ```
//!
//! `header_crc` covers header + index, `file_crc` every byte before it.
//!
//! The per-block index and CRCs make *block-granular* reads possible
//! ([`decode_range`]): a range query only decodes (and accounts for) the
//! blocks its range overlaps — IoTDB's chunk-read behaviour at a finer
//! granularity (see the `ablation_block_reads` bench).
//!
//! **Version 3** — what is written: compressed blocks with a *trailing* index,
//! per-block `min/max/sum` pre-aggregates, a per-table pruning filter
//! ([`super::filter::TableFilter`]) and a fixed footer, so a reader that
//! can serve byte ranges never has to touch the data region to plan a
//! query (AeternusDB-style: header first, footer last, no backward
//! seeking while writing):
//!
//! ```text
//! +--------------+-----------+------------+--------------+-----------+--------+
//! | header (36B) | blocks…   | index blk  | filter blk   | metaindex | footer |
//! +--------------+-----------+------------+--------------+-----------+--------+
//! header    = magic "SLSM" | version=3 u16 | flags u16 | count u32
//!             | min_tg i64 | max_tg i64 | block_points u32 | header_crc u32
//! block     = delta-of-delta timestamps ++ delta-of-delta delays
//!             ++ Gorilla XOR values ++ block_crc u32        (same as v2)
//! index blk = count u32 | min_tg i64 | max_tg i64 | block_count u32
//!             | per block: first i64, last i64, count u32, offset u32,
//!               len u32, min_val f64, max_val f64, sum f64,
//!               agg_count u32                               | index_crc u32
//! filterblk = TableFilter wire format (own CRC)
//! metaindex = index_off u64 | index_len u32 | filter_off u64
//!             | filter_len u32 | metaindex_crc u32           (28 bytes)
//! footer    = metaindex_off u64 | metaindex_len u32 | footer_crc u32
//!             | magic "SL3F"                                 (20 bytes)
//! ```
//!
//! A reader locates everything from the last 20 bytes: footer → metaindex
//! → index + filter ([`parse_v3_footer`], [`parse_v3_metaindex`],
//! [`parse_v3_index`]). Every region carries its own CRC (there is no
//! whole-file CRC — that would force whole-file reads), so a torn write
//! that loses the tail is detected by the missing footer magic.
//!
//! # Where versions fork
//!
//! Exactly once, when bytes become a [`TableIndex`]. There are two
//! constructors: [`read_table_index`] over a whole in-memory table (it
//! sniffs the header's version) and `store::load_index` over a store that
//! serves byte spans (it probes for a v3 footer and otherwise falls back to
//! the first). Both run the same v3 tail walk, parameterised by how a
//! [`ByteSpan`] is fetched. Everything downstream — [`decode`],
//! [`decode_range`], [`decode_index_block`], [`decode_index_block_bytes`],
//! the stores' reads, query planning — is written once against the index:
//!
//! | dialect | index carries | blocks |
//! |---------|---------------|--------|
//! | v1 | header count/min/max as one block spanning the file | flat records; the block's CRC *is* the whole-file CRC |
//! | v2 | per-block first/last/count/span; a 4-byte whole-file CRC trails the data | compressed, own CRC |
//! | v3 | the same plus per-block pre-aggregates (absent in the 52-byte entries of early v3 tables: an entry without its trailing `agg_count`) and the pruning filter | compressed, own CRC |
//!
//! What stays per-dialect is what each dialect's bytes can vouch for. v1
//! has no region CRCs, so its constructor verifies the whole-file CRC
//! before trusting the header and its block decode verifies it again on
//! whatever bytes it is handed. v2's whole-file CRC is only affordable on
//! a full [`decode`]; range reads rely on the header and block CRCs. v3's
//! fixed header is cross-checked against the index only by the in-memory
//! constructor — the ranged walk never fetches it, the index block repeats
//! its contents under its own CRC. The pre-aggregate and filter audits of
//! a full decode run wherever the index carries them.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use seplsm_types::{DataPoint, Error, Result, TimeRange};

use crate::codec;

use super::bits::{BitReader, BitWriter};
use super::compress::{decode_f64s, decode_i64s, encode_f64s, encode_i64s};
use super::crc32::crc32;
use super::filter::TableFilter;
use super::varint::{get_ivarint, get_uvarint};

const MAGIC: &[u8; 4] = b"SLSM";
const VERSION: u16 = 1;
const VERSION_BLOCKS: u16 = 2;
/// v1 fixed header: magic(4) + version(2) + flags(2) + count(4) + min(8) +
/// max(8).
const V1_FIXED: usize = 28;
/// Smallest possible v1 record: a 1-byte gen-time varint, a 1-byte delay
/// varint, and an 8-byte value — the divisor that bounds a decoded record
/// count against the remaining payload.
const MIN_V1_RECORD: usize = 10;
/// v2 fixed header size: magic(4) + version(2) + flags(2) + count(4) +
/// min(8) + max(8) + block_points(4) + block_count(4).
const V2_FIXED: usize = 36;
/// v2 index entry: first(8) + last(8) + count(4) + offset(4) + len(4).
const V2_INDEX_ENTRY: usize = 28;
/// On-disk version tag of the pruned (v3) layout; what
/// [`sniff_version`] returns for tables carrying a filter block.
pub const VERSION_PRUNED: u16 = 3;

/// SSTable build options.
#[derive(Debug, Clone, Copy)]
pub struct EncodeOptions {
    /// Points per compressed block.
    pub block_points: usize,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        Self { block_points: 128 }
    }
}

impl EncodeOptions {
    /// The defaults, by the layout's name ("pruned": v3 is the dialect
    /// with a pruning filter).
    pub fn pruned() -> Self {
        Self::default()
    }
}

/// Result of a block-granular range read.
#[derive(Debug, Clone, Default)]
pub struct RangeRead {
    /// Points whose generation time falls inside the requested range.
    pub points: Vec<DataPoint>,
    /// Points decoded to serve the read (whole overlapping blocks).
    pub points_scanned: u64,
    /// Blocks decoded.
    pub blocks_read: u64,
}

fn validate_input(points: &[DataPoint]) -> Result<()> {
    if points.is_empty() {
        return Err(Error::InvalidConfig(
            "cannot encode an empty SSTable".into(),
        ));
    }
    for w in points.windows(2) {
        if w[1].gen_time <= w[0].gen_time {
            return Err(Error::InvalidConfig(format!(
                "SSTable points must have strictly increasing gen_time \
                 (prev={}, next={})",
                w[0].gen_time, w[1].gen_time
            )));
        }
    }
    Ok(())
}

/// One compressed block under construction.
struct BlockBuild {
    first: i64,
    last: i64,
    count: u32,
    agg: BlockAggregates,
    payload: Vec<u8>,
}

/// Chunks `points` into compressed blocks of at most `block_points` each
/// (delta-of-delta timestamps/delays + Gorilla values + block CRC).
fn build_blocks(points: &[DataPoint], block_points: usize) -> Vec<BlockBuild> {
    let mut blocks = Vec::new();
    for chunk in points.chunks(block_points) {
        let tgs: Vec<i64> = chunk.iter().map(|p| p.gen_time).collect();
        let delays: Vec<i64> = chunk.iter().map(DataPoint::delay).collect();
        let values: Vec<f64> = chunk.iter().map(|p| p.value).collect();
        let mut w = BitWriter::new();
        encode_i64s(&mut w, &tgs);
        encode_i64s(&mut w, &delays);
        encode_f64s(&mut w, &values);
        let mut payload = w.finish();
        let block_crc = crc32(&payload);
        payload.extend_from_slice(&block_crc.to_le_bytes());
        blocks.push(BlockBuild {
            first: tgs[0],
            last: tgs[tgs.len() - 1],
            count: chunk.len() as u32,
            agg: block_aggregates(chunk).unwrap_or(BlockAggregates {
                min: 0.0,
                max: 0.0,
                sum: 0.0,
                count: 0,
            }),
            payload,
        });
    }
    blocks
}

/// v3 fixed header: magic(4) + version(2) + flags(2) + count(4) + min(8) +
/// max(8) + block_points(4) + header_crc(4).
const V3_FIXED: usize = 36;
/// v3 index entry: first(8) + last(8) + count(4) + offset(4) + len(4) +
/// min_val(8) + max_val(8) + sum(8) + agg_count(4).
const V3_INDEX_ENTRY: usize = 56;
/// The pre-`agg_count` v3 index entry width. Tables written before the
/// aggregate count was added parse fine — their blocks just take the
/// decode path instead of the pushdown fold (`agg: None`).
const V3_INDEX_ENTRY_LEGACY: usize = 52;
/// v3 index block prefix: count(4) + min_tg(8) + max_tg(8) + block_count(4).
const V3_INDEX_FIXED: usize = 24;
/// v3 metaindex block: index span (8+4) + filter span (8+4) + crc(4).
pub const V3_METAINDEX: usize = 28;
/// v3 footer: metaindex_off(8) + metaindex_len(4) + crc(4) + magic(4).
pub const V3_FOOTER: usize = 20;
const FOOTER_MAGIC: &[u8; 4] = b"SL3F";

/// A byte range within an encoded table — the unit of the store's ranged
/// reads (`TableStore::read_span`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteSpan {
    /// Absolute byte offset from the start of the table file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl ByteSpan {
    /// The byte range one past the end of this span.
    pub fn end(&self) -> u64 {
        self.offset.saturating_add(self.len)
    }
}

/// Per-block value pre-aggregates stored in the v3 index, following the
/// HTAP-pushdown layout: an aggregate query (or audit) over whole blocks
/// never decodes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockAggregates {
    /// Smallest value in the block (`f64::min` fold).
    pub min: f64,
    /// Largest value in the block (`f64::max` fold).
    pub max: f64,
    /// Sum of the block's values (in-order fold, so it is deterministic).
    pub sum: f64,
    /// Points folded into the aggregate — redundant with the index entry's
    /// structural count, which gives the audit a free cross-check and lets
    /// a pushdown `mean` come straight off the index.
    pub count: u32,
}

impl BlockAggregates {
    /// Bitwise equality — the audit's comparison, exact even for NaN and
    /// signed zero.
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.min.to_bits() == other.min.to_bits()
            && self.max.to_bits() == other.max.to_bits()
            && self.sum.to_bits() == other.sum.to_bits()
            && self.count == other.count
    }
}

/// Computes the aggregates the v3 encoder stores for `points` (`None` for
/// an empty slice). The audit recomputes with this exact fold and compares
/// bitwise.
pub fn block_aggregates(points: &[DataPoint]) -> Option<BlockAggregates> {
    let (first, rest) = points.split_first()?;
    let mut agg = BlockAggregates {
        min: first.value,
        max: first.value,
        sum: first.value,
        count: 1,
    };
    for p in rest {
        agg.min = agg.min.min(p.value);
        agg.max = agg.max.max(p.value);
        agg.sum += p.value;
        agg.count += 1;
    }
    Some(agg)
}

/// Returns the format version if `data` starts with a plausible SSTable
/// header, without validating anything else.
pub fn sniff_version(data: &[u8]) -> Option<u16> {
    if data.len() < 6 || &data[..4] != MAGIC {
        return None;
    }
    codec::read_u16_le(data, 4).ok()
}

/// Encodes `points` (non-empty, strictly increasing generation times) as
/// a version-3 table of `options.block_points`-point blocks.
///
/// # Errors
/// [`Error::InvalidConfig`] if the input is empty or not strictly sorted.
pub fn encode_with(
    points: &[DataPoint],
    options: &EncodeOptions,
) -> Result<Bytes> {
    let block_points = options.block_points.max(1);
    validate_input(points)?;
    let blocks = build_blocks(points, block_points);
    let gen_times: Vec<i64> = points.iter().map(|p| p.gen_time).collect();
    let filter = TableFilter::build(&gen_times)?;

    let data_len: usize = blocks.iter().map(|b| b.payload.len()).sum();
    let index_len = V3_INDEX_FIXED + blocks.len() * V3_INDEX_ENTRY + 4;
    let mut buf = BytesMut::with_capacity(
        V3_FIXED
            + data_len
            + index_len
            + filter.encoded_len()
            + V3_METAINDEX
            + V3_FOOTER,
    );

    // Fixed header.
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION_PRUNED);
    buf.put_u16_le(1); // flags: compressed
    buf.put_u32_le(points.len() as u32);
    buf.put_i64_le(points[0].gen_time);
    buf.put_i64_le(points[points.len() - 1].gen_time);
    buf.put_u32_le(block_points as u32);
    let header_crc = crc32(&buf);
    buf.put_u32_le(header_crc);
    debug_assert_eq!(buf.len(), V3_FIXED);

    // Data blocks.
    for b in &blocks {
        buf.put_slice(&b.payload);
    }

    // Index block (self-contained: repeats count/min/max so a ranged
    // reader never needs the header).
    let index_off = buf.len();
    buf.put_u32_le(points.len() as u32);
    buf.put_i64_le(points[0].gen_time);
    buf.put_i64_le(points[points.len() - 1].gen_time);
    buf.put_u32_le(blocks.len() as u32);
    let mut offset = 0u32;
    for b in &blocks {
        buf.put_i64_le(b.first);
        buf.put_i64_le(b.last);
        buf.put_u32_le(b.count);
        buf.put_u32_le(offset);
        buf.put_u32_le(b.payload.len() as u32);
        buf.put_u64_le(b.agg.min.to_bits());
        buf.put_u64_le(b.agg.max.to_bits());
        buf.put_u64_le(b.agg.sum.to_bits());
        buf.put_u32_le(b.agg.count);
        offset += b.payload.len() as u32;
    }
    let index_crc = crc32(&buf[index_off..]);
    buf.put_u32_le(index_crc);
    let index_len = buf.len() - index_off;

    // Filter block.
    let filter_off = buf.len();
    filter.encode_into(&mut buf);
    let filter_len = buf.len() - filter_off;

    // Metaindex.
    let meta_off = buf.len();
    buf.put_u64_le(index_off as u64);
    buf.put_u32_le(index_len as u32);
    buf.put_u64_le(filter_off as u64);
    buf.put_u32_le(filter_len as u32);
    let meta_crc = crc32(&buf[meta_off..]);
    buf.put_u32_le(meta_crc);

    // Footer.
    let footer_off = buf.len();
    buf.put_u64_le(meta_off as u64);
    buf.put_u32_le(V3_METAINDEX as u32);
    let footer_crc = crc32(&buf[footer_off..]);
    buf.put_u32_le(footer_crc);
    buf.put_slice(FOOTER_MAGIC);
    Ok(buf.freeze())
}

/// Parses and validates a v3 footer from `tail`, the *last* bytes of a
/// table file (at least [`V3_FOOTER`] of them), returning the metaindex
/// span. This is the crash-recovery probe: a torn v3 write fails here.
///
/// # Errors
/// [`Error::Corrupt`] on truncation, bad footer magic, or CRC mismatch.
pub fn parse_v3_footer(tail: &[u8]) -> Result<ByteSpan> {
    if tail.len() < V3_FOOTER {
        return Err(Error::Corrupt(format!(
            "v3 footer needs {V3_FOOTER} bytes, have {}",
            tail.len()
        )));
    }
    let f = &tail[tail.len() - V3_FOOTER..];
    if &f[V3_FOOTER - 4..] != FOOTER_MAGIC {
        return Err(Error::Corrupt("missing v3 footer magic".into()));
    }
    verify_crc(&f[..V3_FOOTER - 4], "v3 footer")?;
    Ok(ByteSpan {
        offset: codec::read_u64_le(f, 0)?,
        len: u64::from(codec::read_u32_le(f, 8)?),
    })
}

/// Parses and validates a v3 metaindex block (exactly [`V3_METAINDEX`]
/// bytes), returning the `(index, filter)` spans.
///
/// # Errors
/// [`Error::Corrupt`] on truncation or CRC mismatch.
pub fn parse_v3_metaindex(bytes: &[u8]) -> Result<(ByteSpan, ByteSpan)> {
    if bytes.len() != V3_METAINDEX {
        return Err(Error::Corrupt(format!(
            "v3 metaindex is {V3_METAINDEX} bytes, have {}",
            bytes.len()
        )));
    }
    verify_crc(bytes, "v3 metaindex")?;
    let index = ByteSpan {
        offset: codec::read_u64_le(bytes, 0)?,
        len: u64::from(codec::read_u32_le(bytes, 8)?),
    };
    let filter = ByteSpan {
        offset: codec::read_u64_le(bytes, 12)?,
        len: u64::from(codec::read_u32_le(bytes, 20)?),
    };
    Ok((index, filter))
}

/// Parses and validates a v3 index block (exactly the bytes named by the
/// metaindex), returning a [`TableIndex`] with `filter: None` — the caller
/// attaches the filter it decoded from the filter block.
///
/// # Errors
/// [`Error::Corrupt`] on truncation, CRC mismatch, or inconsistent counts.
pub fn parse_v3_index(bytes: &[u8]) -> Result<TableIndex> {
    if bytes.len() < V3_INDEX_FIXED + 4 {
        return Err(Error::Corrupt("v3 index block too short".into()));
    }
    let body = verify_crc(bytes, "v3 index")?;
    let count = codec::read_u32_le(body, 0)? as usize;
    let min_tg = codec::read_i64_le(body, 4)?;
    let max_tg = codec::read_i64_le(body, 12)?;
    let block_count = codec::read_u32_le(body, 20)? as usize;
    // Two generations of index entry share the wire format: current entries
    // carry a trailing agg_count (56 bytes); legacy ones stop after the sum
    // (52 bytes). The body length names the width unambiguously because
    // block_count >= 1 (count == 0 is rejected below).
    let entry_width = if body.len()
        == V3_INDEX_FIXED + block_count * V3_INDEX_ENTRY
    {
        V3_INDEX_ENTRY
    } else if body.len() == V3_INDEX_FIXED + block_count * V3_INDEX_ENTRY_LEGACY
    {
        V3_INDEX_ENTRY_LEGACY
    } else {
        return Err(Error::Corrupt(format!(
            "v3 index length {} disagrees with {block_count} blocks",
            bytes.len()
        )));
    };
    let mut blocks = Vec::with_capacity(block_count);
    let mut total: u64 = 0;
    for i in 0..block_count {
        let at = V3_INDEX_FIXED + i * entry_width;
        let count = codec::read_u32_le(body, at + 16)?;
        // Legacy entries have no aggregate count, so their pre-aggregates
        // cannot feed the pushdown fold — leave them as `agg: None` and the
        // planner takes the decode path for the whole table.
        let agg = if entry_width == V3_INDEX_ENTRY {
            let agg = BlockAggregates {
                min: f64::from_bits(codec::read_u64_le(body, at + 28)?),
                max: f64::from_bits(codec::read_u64_le(body, at + 36)?),
                sum: f64::from_bits(codec::read_u64_le(body, at + 44)?),
                count: codec::read_u32_le(body, at + 52)?,
            };
            if agg.count != count {
                return Err(Error::Corrupt(format!(
                    "v3 index entry {i} aggregate count {} disagrees with \
                     block count {count}",
                    agg.count
                )));
            }
            Some(agg)
        } else {
            None
        };
        let span = BlockSpan {
            first: codec::read_i64_le(body, at)?,
            last: codec::read_i64_le(body, at + 8)?,
            count,
            offset: codec::read_u32_le(body, at + 20)?,
            len: codec::read_u32_le(body, at + 24)?,
            agg,
        };
        total += u64::from(span.count);
        blocks.push(span);
    }
    if total != count as u64 || count == 0 || min_tg > max_tg {
        return Err(Error::Corrupt(format!(
            "v3 block counts sum to {total}, index says {count}"
        )));
    }
    Ok(TableIndex {
        count,
        min_tg,
        max_tg,
        blocks,
        version: VERSION_PRUNED,
        data_start: V3_FIXED,
        file_crc_len: 0,
        filter: None,
    })
}

/// One block's descriptor in a [`TableIndex`]: generation-time bounds, point
/// count, and the byte span of the encoded block within the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSpan {
    /// Generation time of the block's first point.
    pub first: i64,
    /// Generation time of the block's last point.
    pub last: i64,
    /// Points in the block.
    pub count: u32,
    /// Byte offset of the block relative to the table's data region.
    pub offset: u32,
    /// Encoded block length in bytes (including the block CRC).
    pub len: u32,
    /// Value pre-aggregates (v3 tables only).
    pub agg: Option<BlockAggregates>,
}

/// A parsed table index: enough metadata to prune blocks against a time
/// range and decode individual blocks via [`decode_index_block`] without
/// re-parsing the header per read.
///
/// This is the seam between the wire dialects and everything that reads
/// points: which dialect a table is in is decided once, by the constructor
/// ([`read_table_index`] or `store::load_index`), and recorded here as
/// data. For v2/v3 tables `blocks` is the real per-block index; a v1 table
/// is modelled as a single block spanning the whole file.
#[derive(Debug, Clone, PartialEq)]
pub struct TableIndex {
    /// Total points in the table.
    pub count: usize,
    /// Smallest generation time in the table.
    pub min_tg: i64,
    /// Largest generation time in the table.
    pub max_tg: i64,
    /// Per-block descriptors, in generation-time order.
    pub blocks: Vec<BlockSpan>,
    version: u16,
    data_start: usize,
    /// Length of the whole-file CRC trailing the data region, which no
    /// block may run into and a full decode verifies: 4 for v2; 0 for v3
    /// (per-region CRCs only) and for v1, whose one block is the whole
    /// file and carries the CRC as its own.
    file_crc_len: usize,
    /// The table's pruning filter (v3 tables only).
    pub filter: Option<TableFilter>,
}

impl TableIndex {
    /// The table's format version (1, 2 or 3).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Absolute byte offset where the data region starts.
    pub fn data_start(&self) -> usize {
        self.data_start
    }

    /// The absolute byte span of `block` within the table file — what a
    /// ranged reader fetches before calling [`decode_index_block_bytes`].
    ///
    /// # Errors
    /// [`Error::Corrupt`] if `block` is out of range.
    pub fn block_span(&self, block: usize) -> Result<ByteSpan> {
        let span = self.blocks.get(block).ok_or_else(|| {
            Error::Corrupt(format!(
                "block {block} out of range ({} blocks)",
                self.blocks.len()
            ))
        })?;
        Ok(ByteSpan {
            offset: self.data_start as u64 + u64::from(span.offset),
            len: u64::from(span.len),
        })
    }

    /// Whether this table may hold any point in `range`, judged from the
    /// index (and, for v3, the pruning filter) alone — no data blocks are
    /// touched. `false` is definitive; `true` may be a false positive.
    pub fn may_contain(&self, range: TimeRange) -> bool {
        if self.max_tg < range.start || self.min_tg > range.end {
            return false;
        }
        if let Some(filter) = &self.filter {
            if !filter.may_contain(range) {
                return false;
            }
        }
        // Range falls inside the table's [min, max] but may still miss
        // every block (a gap between block spans).
        self.overlapping(range).next().is_some()
    }

    /// The blocks whose generation-time span overlaps `range`, each with
    /// its position in [`blocks`](Self::blocks) — what every range read
    /// iterates.
    pub fn overlapping(
        &self,
        range: TimeRange,
    ) -> impl Iterator<Item = (usize, &BlockSpan)> {
        self.blocks
            .iter()
            .enumerate()
            .filter(move |(_, b)| b.last >= range.start && b.first <= range.end)
    }
}

/// First constructor of a [`TableIndex`]: parses the index of a whole
/// in-memory table in any dialect. This and `store::load_index` (the ranged
/// twin, for stores that serve byte spans) are the only places a version
/// number is looked at; everything that reads points goes through the
/// index they return.
///
/// No data block is decoded: v2 validates its header + index CRC, v3 its
/// header and every tail region, v1 its whole-file CRC (nothing else
/// protects its header) and its record count against the payload.
///
/// # Errors
/// [`Error::Corrupt`] on bad magic, unsupported version, truncation, a CRC
/// mismatch in the parsed regions, or metadata that disagrees with itself.
pub fn read_table_index(data: &[u8]) -> Result<TableIndex> {
    match sniff_version(data) {
        Some(VERSION) => parse_v1_header(data),
        Some(VERSION_BLOCKS) => parse_v2_header(data),
        Some(VERSION_PRUNED) => parse_v3(data),
        Some(version) => Err(Error::Corrupt(format!(
            "unsupported SSTable version {version}"
        ))),
        None => Err(Error::Corrupt("bad SSTable magic".into())),
    }
}

/// Models a v1 table as one block spanning the whole file. The whole-file
/// CRC is all that protects a v1 header, so it is verified here, before
/// the header's min/max are trusted to rule a range out.
fn parse_v1_header(data: &[u8]) -> Result<TableIndex> {
    let body = verify_crc(data, "SSTable")?;
    let Some(payload) = body.len().checked_sub(V1_FIXED) else {
        return Err(Error::Corrupt(format!(
            "SSTable too short: {} bytes",
            data.len()
        )));
    };
    let count = codec::read_u32_le(data, 8)? as usize;
    let min_tg = codec::read_i64_le(data, 12)?;
    let max_tg = codec::read_i64_le(data, 20)?;
    // A v1 record occupies at least two 1-byte varints plus an 8-byte
    // value, so a count claiming more records than the payload can hold is
    // corruption — reject it before it sizes an allocation.
    if count > payload / MIN_V1_RECORD {
        return Err(Error::Corrupt(format!(
            "v1 record count {count} exceeds the {payload} payload bytes"
        )));
    }
    Ok(TableIndex {
        count,
        min_tg,
        max_tg,
        blocks: vec![BlockSpan {
            first: min_tg,
            last: max_tg,
            count: count as u32,
            offset: 0,
            len: data.len() as u32,
            agg: None,
        }],
        version: VERSION,
        data_start: 0,
        file_crc_len: 0,
        filter: None,
    })
}

/// Parses and CRC-validates the v2 header + index region.
fn parse_v2_header(data: &[u8]) -> Result<TableIndex> {
    if data.len() < V2_FIXED + 4 {
        return Err(Error::Corrupt("v2 SSTable too short for header".into()));
    }
    let count = codec::read_u32_le(data, 8)? as usize;
    let block_count = codec::read_u32_le(data, 32)? as usize;
    let header_len = V2_FIXED + block_count * V2_INDEX_ENTRY;
    if data.len() < header_len + 4 {
        return Err(Error::Corrupt("v2 SSTable truncated in index".into()));
    }
    let header = verify_crc(&data[..header_len + 4], "v2 header")?;
    let mut blocks = Vec::with_capacity(block_count);
    let mut total: u64 = 0;
    for i in 0..block_count {
        let at = V2_FIXED + i * V2_INDEX_ENTRY;
        let span = BlockSpan {
            first: codec::read_i64_le(header, at)?,
            last: codec::read_i64_le(header, at + 8)?,
            count: codec::read_u32_le(header, at + 16)?,
            offset: codec::read_u32_le(header, at + 20)?,
            len: codec::read_u32_le(header, at + 24)?,
            agg: None,
        };
        total += u64::from(span.count);
        blocks.push(span);
    }
    if total != count as u64 {
        return Err(Error::Corrupt(format!(
            "v2 block counts sum to {total}, header says {count}"
        )));
    }
    Ok(TableIndex {
        count,
        min_tg: codec::read_i64_le(header, 12)?,
        max_tg: codec::read_i64_le(header, 20)?,
        blocks,
        version: VERSION_BLOCKS,
        data_start: header_len + 4,
        file_crc_len: 4,
        filter: None,
    })
}

/// Parses a whole in-memory v3 table: the tail walk over slices of `data`,
/// plus the one check only a reader holding the whole file can make — the
/// fixed header's CRC and its agreement with the index block that repeats
/// it (the ranged walk never reads the header).
fn parse_v3(data: &[u8]) -> Result<TableIndex> {
    if data.len() < V3_FIXED + V3_FOOTER {
        return Err(Error::Corrupt(format!(
            "v3 SSTable too short: {} bytes",
            data.len()
        )));
    }
    let header = verify_crc(&data[..V3_FIXED], "v3 header")?;
    let fetch = |span: ByteSpan| {
        data.get(span.offset as usize..span.end() as usize)
            .ok_or_else(|| Error::Corrupt("v3 span outside table".into()))
    };
    let index = v3_index(v3_footer(data.len() as u64, fetch)?, fetch)?;
    if codec::read_u32_le(header, 8)? as usize != index.count
        || codec::read_i64_le(header, 12)? != index.min_tg
        || codec::read_i64_le(header, 20)? != index.max_tg
    {
        return Err(Error::Corrupt(
            "v3 header/index/filter metadata disagree".into(),
        ));
    }
    Ok(index)
}

/// Footer step of the v3 tail walk: fetches the last [`V3_FOOTER`] bytes
/// of a `len`-byte table and returns the metaindex span they name. `fetch`
/// is how a [`ByteSpan`] becomes bytes — a slice of the in-memory table, or
/// `TableStore::read_span`. A table that fails here is not a complete v3
/// table: a v1/v2 one, or a torn v3 write.
pub(crate) fn v3_footer<B: AsRef<[u8]>>(
    len: u64,
    fetch: impl Fn(ByteSpan) -> Result<B>,
) -> Result<ByteSpan> {
    let Some(tail_start) = len.checked_sub(V3_FOOTER as u64) else {
        return Err(Error::Corrupt(format!(
            "v3 footer needs {V3_FOOTER} bytes, have {len}"
        )));
    };
    let tail = fetch(ByteSpan {
        offset: tail_start,
        len: V3_FOOTER as u64,
    })?;
    let meta = parse_v3_footer(tail.as_ref())?;
    if meta.offset < V3_FIXED as u64 || meta.end() > tail_start {
        return Err(Error::Corrupt("v3 metaindex span out of bounds".into()));
    }
    Ok(meta)
}

/// The rest of the v3 tail walk: metaindex → index + filter, every span
/// bounds-checked before it is fetched, the redundant copies (index vs
/// filter) cross-checked, and every data block confined to the data region
/// `[V3_FIXED, index_off)`. Data blocks are not touched.
pub(crate) fn v3_index<B: AsRef<[u8]>>(
    meta: ByteSpan,
    fetch: impl Fn(ByteSpan) -> Result<B>,
) -> Result<TableIndex> {
    let (index_span, filter_span) = parse_v3_metaindex(fetch(meta)?.as_ref())?;
    for span in [index_span, filter_span] {
        if span.offset < V3_FIXED as u64 || span.end() > meta.offset {
            return Err(Error::Corrupt("v3 block span out of bounds".into()));
        }
    }
    let mut index = parse_v3_index(fetch(index_span)?.as_ref())?;
    let filter = TableFilter::decode(fetch(filter_span)?.as_ref())?;
    if filter.min_tg() != index.min_tg
        || filter.max_tg() != index.max_tg
        || filter.count() as usize != index.count
    {
        return Err(Error::Corrupt(
            "v3 header/index/filter metadata disagree".into(),
        ));
    }
    for b in 0..index.blocks.len() {
        if index.block_span(b)?.end() > index_span.offset {
            return Err(Error::Corrupt(
                "v3 data block span out of bounds".into(),
            ));
        }
    }
    index.filter = Some(filter);
    Ok(index)
}

/// Decodes and validates an SSTable in any dialect, returning its points:
/// every block is decoded, and the points must match the index's count,
/// be strictly increasing across block boundaries and start/end at the
/// index's min/max. What else is audited depends on what the index
/// carries: the whole-file CRC of a v2 table (a v1 table's is part of its
/// one block), each block's stored pre-aggregates (bit-exact), and that the
/// pruning filter admits every stored point.
///
/// # Errors
/// [`Error::Corrupt`] on bad magic, unsupported version, CRC mismatch,
/// truncation, or header/index/record inconsistencies.
pub fn decode(data: &[u8]) -> Result<Vec<DataPoint>> {
    let index = read_table_index(data)?;
    if index.file_crc_len > 0 {
        verify_crc(data, "SSTable")?;
    }
    let mut points = Vec::with_capacity(index.count);
    for (b, span) in index.blocks.iter().enumerate() {
        let block = decode_index_block(data, &index, b)?;
        if let Some(stored) = span.agg {
            match block_aggregates(&block) {
                Some(actual) if actual.bits_eq(&stored) => {}
                _ => {
                    return Err(Error::Corrupt(
                        "block aggregates disagree with index".into(),
                    ))
                }
            }
        }
        points.extend(block);
    }
    if points.len() != index.count {
        return Err(Error::Corrupt("point count mismatch".into()));
    }
    if points.windows(2).any(|w| w[1].gen_time <= w[0].gen_time) {
        return Err(Error::Corrupt(
            "blocks are not sorted across boundaries".into(),
        ));
    }
    match (points.first(), points.last()) {
        (Some(first), Some(last))
            if first.gen_time == index.min_tg
                && last.gen_time == index.max_tg => {}
        _ => {
            return Err(Error::Corrupt(
                "index min/max do not match records".into(),
            ))
        }
    }
    if let Some(filter) = &index.filter {
        if points.iter().any(|p| !filter.may_contain_point(p.gen_time)) {
            return Err(Error::Corrupt(
                "filter reports a stored point absent".into(),
            ));
        }
    }
    Ok(points)
}

/// Block-granular range read: decodes only the blocks whose generation-time
/// range overlaps `range` — none at all when the index (or its filter)
/// rules the range out — and reports exactly how much was scanned. The
/// returned points are filtered to `range`. A v1 table is one block.
///
/// # Errors
/// [`Error::Corrupt`] on any validation failure in the touched region.
pub fn decode_range(data: &[u8], range: TimeRange) -> Result<RangeRead> {
    let index = read_table_index(data)?;
    let mut read = RangeRead::default();
    if !index.may_contain(range) {
        return Ok(read);
    }
    for (b, _) in index.overlapping(range) {
        let block = decode_index_block(data, &index, b)?;
        read.blocks_read += 1;
        read.points_scanned += block.len() as u64;
        read.points
            .extend(block.into_iter().filter(|p| range.contains(p.gen_time)));
    }
    Ok(read)
}

/// Decodes (and CRC-validates) one block named by `index.blocks[block]`
/// out of the whole table `data`.
///
/// # Errors
/// [`Error::Corrupt`] if `block` is out of range, its span leaves the
/// file, or the block fails validation.
pub fn decode_index_block(
    data: &[u8],
    index: &TableIndex,
    block: usize,
) -> Result<Vec<DataPoint>> {
    let span = index.block_span(block)?;
    // A block may not run into the whole-file CRC trailing a v2 table.
    let limit = data.len().saturating_sub(index.file_crc_len);
    let bytes = usize::try_from(span.end())
        .ok()
        .filter(|&end| end <= limit)
        .and_then(|end| data.get(span.offset as usize..end))
        .ok_or_else(|| Error::Corrupt("block extends past file".into()))?;
    decode_index_block_bytes(index, block, bytes)
}

/// Decodes one block from exactly its own bytes (as named by
/// [`TableIndex::block_span`]) — what [`decode_index_block`] slices out of
/// a whole table and what a ranged reader fetched from the store instead.
///
/// # Errors
/// [`Error::Corrupt`] if `block` is out of range, `bytes` has the wrong
/// length, or the block fails validation.
pub fn decode_index_block_bytes(
    index: &TableIndex,
    block: usize,
    bytes: &[u8],
) -> Result<Vec<DataPoint>> {
    let span = index.blocks.get(block).ok_or_else(|| {
        Error::Corrupt(format!(
            "block {block} out of range ({} blocks)",
            index.blocks.len()
        ))
    })?;
    if bytes.len() != span.len as usize {
        return Err(Error::Corrupt(format!(
            "block {block} span is {} bytes, got {}",
            span.len,
            bytes.len()
        )));
    }
    if index.version == VERSION {
        decode_v1_records(bytes, span)
    } else {
        decode_block_common(bytes, span)
    }
}

/// Splits `region` into its body and the little-endian CRC-32 that trails
/// it, verifying the CRC over the body.
fn verify_crc<'a>(region: &'a [u8], what: &str) -> Result<&'a [u8]> {
    let Some(body_len) = region.len().checked_sub(4) else {
        return Err(Error::Corrupt(format!("{what} too short for a CRC")));
    };
    let (body, crc_bytes) = region.split_at(body_len);
    let stored = codec::read_u32_le(crc_bytes, 0)?;
    let actual = crc32(body);
    if stored != actual {
        return Err(Error::Corrupt(format!(
            "{what} CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(body)
}

/// Decodes a v1 table's single "block" — the whole file, so this is where
/// the v1 whole-file CRC, trailing-bytes and header min/max checks live.
fn decode_v1_records(file: &[u8], span: &BlockSpan) -> Result<Vec<DataPoint>> {
    let body = verify_crc(file, "SSTable")?;
    let mut buf = body.get(V1_FIXED..).ok_or_else(|| {
        Error::Corrupt(format!("SSTable too short: {} bytes", file.len()))
    })?;
    let count = span.count as usize;
    // Bounded against the payload when the index was built
    // ([`parse_v1_header`]), so a corrupt count cannot size this.
    let mut points = Vec::with_capacity(count);
    let mut prev_tg = None::<i64>;
    for _ in 0..count {
        let gen_time = match prev_tg {
            None => get_ivarint(&mut buf)?,
            Some(prev) => {
                let delta = get_uvarint(&mut buf)?;
                prev.checked_add(delta as i64).ok_or_else(|| {
                    Error::Corrupt("gen_time delta overflow".into())
                })?
            }
        };
        prev_tg = Some(gen_time);
        let delay = get_ivarint(&mut buf)?;
        if buf.remaining() < 8 {
            return Err(Error::Corrupt("truncated record value".into()));
        }
        let value = f64::from_bits(buf.get_u64_le());
        points.push(DataPoint::with_delay(gen_time, delay, value));
    }
    if buf.has_remaining() {
        return Err(Error::Corrupt(format!(
            "{} trailing bytes after {count} records",
            buf.remaining()
        )));
    }
    check_block_ends(&points, span)?;
    Ok(points)
}

/// Decodes one compressed block given exactly its bytes
/// (`payload ++ crc32`), shared by the v2 and v3 formats.
fn decode_block_common(
    block: &[u8],
    span: &BlockSpan,
) -> Result<Vec<DataPoint>> {
    let payload = verify_crc(block, "block")?;
    let count = span.count as usize;
    // Each of the three bit streams spends at least one bit per record, so
    // a count beyond the payload's bit budget is corrupt; rejecting it here
    // also caps the slice allocations inside the stream decoders.
    if count > payload.len() * 8 {
        return Err(Error::Corrupt(format!(
            "block count {count} exceeds the {}-byte payload's capacity",
            payload.len()
        )));
    }
    let mut reader = BitReader::new(payload);
    let tgs = decode_i64s(&mut reader, count)?;
    let delays = decode_i64s(&mut reader, count)?;
    let values = decode_f64s(&mut reader, count)?;
    let mut points = Vec::with_capacity(count);
    for i in 0..count {
        points.push(DataPoint::with_delay(tgs[i], delays[i], values[i]));
    }
    check_block_ends(&points, span)?;
    Ok(points)
}

/// A decoded block must start and end at the generation times its index
/// entry (for v1: the file header) names.
fn check_block_ends(points: &[DataPoint], span: &BlockSpan) -> Result<()> {
    if points.first().map(|p| p.gen_time) != Some(span.first)
        || points.last().map(|p| p.gen_time) != Some(span.last)
    {
        return Err(Error::Corrupt(
            "block contents disagree with index entry".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points(n: usize) -> Vec<DataPoint> {
        points_from(0, n)
    }

    /// Points `first .. first + n` of the series the table fixtures were
    /// cut from.
    fn points_from(first: usize, n: usize) -> Vec<DataPoint> {
        (first..first + n)
            .map(|i| {
                DataPoint::with_delay(
                    (i as i64) * 50 + 1_000_000,
                    (i as i64 * 37) % 991,
                    i as f64 * 0.5,
                )
            })
            .collect()
    }

    /// A table file an older build wrote (`tests/fixtures/tables/`; which
    /// points each holds is in the README there).
    macro_rules! old_table {
        ($name:literal) => {
            include_bytes!(concat!(
                "../../../../tests/fixtures/tables/",
                $name,
                ".sst"
            ))
            .as_slice()
        };
    }

    #[test]
    fn round_trips_typical_table() {
        let back = decode(old_table!("v1-512")).expect("decode");
        assert_eq!(back, sample_points(512));
    }

    #[test]
    fn round_trips_single_point_and_negative_delay() {
        let back = decode(old_table!("v1-1")).expect("decode");
        assert_eq!(back, sample_points(1));
        let back = decode(old_table!("v1-extremes")).expect("decode");
        assert_eq!((back[2].gen_time, back[2].delay()), (-5, -5));
        assert_eq!(back[6].gen_time, i64::MAX - 1);
        assert_eq!(back[6].delay(), -3);
    }

    #[test]
    fn preserves_value_bit_patterns() {
        let back = decode(old_table!("v1-extremes")).expect("decode");
        assert!(back[0].value.is_nan());
        assert_eq!(back[1].value, f64::NEG_INFINITY);
        assert_eq!(back[2].value.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back[4].value, f64::INFINITY);
    }

    #[test]
    fn delta_compression_beats_fixed_width() {
        let pts = sample_points(1000);
        let bytes =
            encode_with(&pts, &EncodeOptions::default()).expect("encode");
        // Fixed-width would be 24 bytes per point; index, filter and footer
        // included, the table must still come in under half of that.
        assert!(
            bytes.len() < 1000 * 24 / 2 + 64,
            "encoded size {} too large",
            bytes.len()
        );
    }

    #[test]
    fn rejects_empty_input() {
        assert!(encode_with(&[], &EncodeOptions::default()).is_err());
    }

    #[test]
    fn rejects_unsorted_input() {
        let options = EncodeOptions::default();
        let pts = vec![DataPoint::new(10, 10, 0.0), DataPoint::new(5, 5, 0.0)];
        assert!(encode_with(&pts, &options).is_err());
        let dup =
            vec![DataPoint::new(10, 10, 0.0), DataPoint::new(10, 11, 0.0)];
        assert!(encode_with(&dup, &options).is_err());
    }

    #[test]
    fn detects_corruption_anywhere() {
        let bytes = old_table!("v1-64");
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn detects_truncation() {
        let bytes = old_table!("v1-64");
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes"
            );
        }
    }

    #[test]
    fn v2_round_trips_typical_table() {
        let back = decode(old_table!("v2-bp128-512")).expect("decode");
        assert_eq!(back, points_from(512, 512));
    }

    #[test]
    fn v2_round_trips_odd_sizes_and_single_point() {
        // Single-point blocks, and block sizes that leave a ragged last
        // block of 1 (64 = 9 × 7 + 1) and of 5 (512 = 39 × 13 + 5) points.
        for (bytes, n, blocks) in [
            (old_table!("v2-bp1-64"), 64, 64),
            (old_table!("v2-bp7-64"), 64, 10),
            (old_table!("v2-bp13-512"), 512, 40),
        ] {
            assert_eq!(decode(bytes).expect("decode"), sample_points(n));
            let index = read_table_index(bytes).expect("index");
            assert_eq!(index.blocks.len(), blocks, "n={n}");
        }
    }

    #[test]
    fn v2_compresses_grid_data_substantially() {
        // 512 points each of one regular grid: the block dialect is
        // several times smaller than the flat one.
        let (v1, v2) = (old_table!("v1-512"), old_table!("v2-bp128-512"));
        assert!(
            v2.len() * 3 < v1.len(),
            "v2 {} bytes vs v1 {} bytes",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn v2_preserves_special_values_and_negative_delays() {
        let back = decode(old_table!("v2-bp3-extremes")).expect("decode");
        assert_eq!(back.len(), 7);
        assert!(back[0].value.is_nan());
        assert_eq!(back[0].gen_time, i64::MIN + 2);
        assert_eq!(back[2].delay(), -5);
        assert_eq!(back[2].value.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back[4].value, f64::INFINITY);
        assert_eq!(back[5].delay(), -1_000_000);
    }

    #[test]
    fn v2_detects_corruption_anywhere() {
        let bytes = old_table!("v2-bp128-512");
        for i in (0..bytes.len()).step_by(11) {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    /// Generation time of the first point of `v2-bp128-512`.
    const FIRST: i64 = 1_000_000 + 512 * 50;

    #[test]
    fn decode_range_reads_only_overlapping_blocks() {
        // Points 512..1024, 4 blocks of 128, from gen time FIRST on.
        let bytes = old_table!("v2-bp128-512");
        // Range covering the table's points 130..=140 (inside block 1).
        let range =
            seplsm_types::TimeRange::new(FIRST + 130 * 50, FIRST + 140 * 50);
        let read = decode_range(bytes, range).expect("range read");
        assert_eq!(read.blocks_read, 1);
        assert_eq!(read.points_scanned, 128);
        assert_eq!(read.points.len(), 11);
        assert!(read.points.iter().all(|p| range.contains(p.gen_time)));
        // Disjoint range: nothing decoded.
        let miss =
            decode_range(bytes, seplsm_types::TimeRange::new(0, FIRST - 1))
                .expect("miss");
        assert_eq!(miss.blocks_read, 0);
        assert_eq!(miss.points_scanned, 0);
        assert!(miss.points.is_empty());
    }

    #[test]
    fn decode_range_spanning_blocks() {
        let bytes = old_table!("v2-bp128-512");
        let range =
            seplsm_types::TimeRange::new(FIRST + 120 * 50, FIRST + 260 * 50);
        let read = decode_range(bytes, range).expect("range read");
        assert_eq!(read.blocks_read, 3); // blocks 0,1,2
        assert_eq!(read.points_scanned, 384);
        assert_eq!(read.points.len(), 141);
    }

    #[test]
    fn decode_range_on_v1_scans_whole_table() {
        let bytes = old_table!("v1-64");
        let range = seplsm_types::TimeRange::new(1_000_000, 1_000_000 + 5 * 50);
        let read = decode_range(bytes, range).expect("range read");
        assert_eq!(read.blocks_read, 1);
        assert_eq!(read.points_scanned, 64);
        assert_eq!(read.points.len(), 6);
    }

    #[test]
    fn v2_block_granular_read_survives_corruption_elsewhere() {
        // Corrupting block 3 must not break a read confined to block 0.
        let mut bad = old_table!("v2-bp128-512").to_vec();
        let n = bad.len();
        bad[n - 10] ^= 0xff; // inside the last block
        let range = seplsm_types::TimeRange::new(FIRST, FIRST + 10 * 50);
        let ok = decode_range(&bad, range).expect("block 0 still readable");
        assert_eq!(ok.points.len(), 11);
        // But reading the damaged block fails loudly.
        let tail_range =
            seplsm_types::TimeRange::new(FIRST + 500 * 50, FIRST + 511 * 50);
        assert!(decode_range(&bad, tail_range).is_err());
    }

    #[test]
    fn table_index_names_every_v2_block() {
        let pts = sample_points(512); // 40 blocks: 39 × 13 + 5
        let bytes = old_table!("v2-bp13-512");
        let index = read_table_index(bytes).expect("index");
        assert_eq!(index.count, 512);
        assert_eq!(index.min_tg, pts[0].gen_time);
        assert_eq!(index.max_tg, pts[511].gen_time);
        assert_eq!(index.blocks.len(), 40);
        let mut all = Vec::new();
        for b in 0..index.blocks.len() {
            let block =
                decode_index_block(bytes, &index, b).expect("decode block");
            assert_eq!(block.len(), index.blocks[b].count as usize);
            assert_eq!(block[0].gen_time, index.blocks[b].first);
            assert_eq!(block[block.len() - 1].gen_time, index.blocks[b].last);
            all.extend(block);
        }
        assert_eq!(all, pts);
    }

    #[test]
    fn table_index_models_v1_as_one_block() {
        let pts = sample_points(64);
        let bytes = old_table!("v1-64");
        let index = read_table_index(bytes).expect("index");
        assert_eq!(index.count, 64);
        assert_eq!(index.blocks.len(), 1);
        assert_eq!(index.blocks[0].first, pts[0].gen_time);
        assert_eq!(index.blocks[0].last, pts[63].gen_time);
        assert_eq!(decode_index_block(bytes, &index, 0).expect("decode"), pts);
        assert!(decode_index_block(bytes, &index, 1).is_err());
    }

    #[test]
    fn table_index_rejects_corrupt_v2_header() {
        let mut bytes = old_table!("v2-bp128-512").to_vec();
        bytes[10] ^= 0x04; // inside the fixed header
        assert!(read_table_index(&bytes).is_err());
    }

    #[test]
    fn v3_round_trips_typical_table() {
        let pts = sample_points(512);
        let bytes =
            encode_with(&pts, &EncodeOptions::default()).expect("encode");
        assert_eq!(sniff_version(&bytes), Some(VERSION_PRUNED));
        assert_eq!(decode(&bytes).expect("decode"), pts);
    }

    #[test]
    fn v3_round_trips_odd_sizes_and_single_point() {
        for n in [1usize, 2, 127, 128, 129, 300] {
            let pts = sample_points(n);
            let bytes =
                encode_with(&pts, &EncodeOptions::pruned()).expect("encode");
            assert_eq!(decode(&bytes).expect("decode"), pts, "n={n}");
        }
    }

    #[test]
    fn v3_preserves_special_values_and_negative_delays() {
        let pts = vec![
            DataPoint::new(-100, -150, f64::NAN),
            DataPoint::new(0, 0, f64::INFINITY),
            DataPoint::new(7, 1_000_000, -0.0),
        ];
        let bytes =
            encode_with(&pts, &EncodeOptions::pruned()).expect("encode");
        let back = decode(&bytes).expect("decode");
        assert!(back[0].value.is_nan());
        assert_eq!(back[0].delay(), -50);
        assert_eq!(back[1].value, f64::INFINITY);
        assert_eq!(back[2].value.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn v3_detects_corruption_anywhere() {
        let pts = sample_points(300);
        let bytes =
            encode_with(&pts, &EncodeOptions::pruned()).expect("encode");
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn v3_detects_truncation() {
        let bytes = encode_with(&sample_points(64), &EncodeOptions::pruned())
            .expect("encode");
        for cut in
            [0, 1, 10, V3_FIXED, bytes.len() - 1, bytes.len() - V3_FOOTER]
        {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
            assert!(read_table_index(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn v3_footer_locates_metaindex() {
        let bytes = encode_with(&sample_points(64), &EncodeOptions::pruned())
            .expect("encode");
        let meta = parse_v3_footer(&bytes).expect("footer");
        assert_eq!(meta.len, V3_METAINDEX as u64);
        assert_eq!(meta.end(), (bytes.len() - V3_FOOTER) as u64);
        let (index_span, filter_span) = parse_v3_metaindex(
            &bytes[meta.offset as usize..meta.end() as usize],
        )
        .expect("metaindex");
        let index = parse_v3_index(
            &bytes[index_span.offset as usize..index_span.end() as usize],
        )
        .expect("index");
        assert_eq!(index.count, 64);
        assert!(index.filter.is_none());
        let filter = TableFilter::decode(
            &bytes[filter_span.offset as usize..filter_span.end() as usize],
        )
        .expect("filter");
        assert_eq!(filter.count(), 64);
        // A v2 table has no v3 footer.
        assert!(parse_v3_footer(old_table!("v2-bp7-64")).is_err());
    }

    #[test]
    fn v3_index_carries_filter_and_aggregates() {
        let pts = sample_points(300); // 3 blocks: 128 + 128 + 44
        let bytes =
            encode_with(&pts, &EncodeOptions::pruned()).expect("encode");
        let index = read_table_index(&bytes).expect("index");
        assert_eq!(index.version(), VERSION_PRUNED);
        assert_eq!(index.blocks.len(), 3);
        let filter = index.filter.as_ref().expect("v3 filter");
        for p in &pts {
            assert!(filter.may_contain_point(p.gen_time));
        }
        let mut all = Vec::new();
        for (b, span) in index.blocks.iter().enumerate() {
            let block =
                decode_index_block(&bytes, &index, b).expect("decode block");
            let agg = span.agg.expect("v3 aggregates");
            assert!(block_aggregates(&block).expect("nonempty").bits_eq(&agg));
            // The ranged-read twin decodes from exactly the span's bytes.
            let abs = index.block_span(b).expect("span");
            let same = decode_index_block_bytes(
                &index,
                b,
                &bytes[abs.offset as usize..abs.end() as usize],
            )
            .expect("decode from span bytes");
            assert_eq!(same, block);
            all.extend(block);
        }
        assert_eq!(all, pts);
    }

    /// Reads `range` through every in-crate entry point: `decode_range`,
    /// both block decoders under the slice constructor's index, and the
    /// ranged walk (the v3 tail fetched span by span, never the header).
    fn read_every_way(
        bytes: &[u8],
        range: TimeRange,
    ) -> Vec<(&'static str, Result<RangeRead>)> {
        let via_index = |index: &TableIndex, whole: bool| {
            let mut read = RangeRead::default();
            if !index.may_contain(range) {
                return Ok(read);
            }
            for (b, _) in index.overlapping(range) {
                let points = if whole {
                    decode_index_block(bytes, index, b)?
                } else {
                    let span = index.block_span(b)?;
                    let block =
                        &bytes[span.offset as usize..span.end() as usize];
                    decode_index_block_bytes(index, b, block)?
                };
                read.blocks_read += 1;
                read.points_scanned += points.len() as u64;
                read.points.extend(
                    points.into_iter().filter(|p| range.contains(p.gen_time)),
                );
            }
            Ok(read)
        };
        let fetch = |span: ByteSpan| {
            bytes
                .get(span.offset as usize..span.end() as usize)
                .ok_or_else(|| Error::Corrupt("span outside table".into()))
        };
        vec![
            ("decode_range", decode_range(bytes, range)),
            (
                "decode_index_block",
                read_table_index(bytes).and_then(|i| via_index(&i, true)),
            ),
            (
                "decode_index_block_bytes",
                read_table_index(bytes).and_then(|i| via_index(&i, false)),
            ),
            (
                "ranged walk",
                v3_footer(bytes.len() as u64, fetch)
                    .and_then(|meta| v3_index(meta, fetch))
                    .and_then(|i| via_index(&i, false)),
            ),
        ]
    }

    #[test]
    fn v3_legacy_entries_parse_without_aggregates_and_still_decode() {
        let pts = points_from(1024, 512); // 4 blocks of 128
        let bytes = old_table!("v3e52-bp128-512");
        assert_eq!(sniff_version(bytes), Some(VERSION_PRUNED));
        let index = read_table_index(bytes).expect("index");
        assert_eq!(index.blocks.len(), 4);
        assert!(index.blocks.iter().all(|b| b.agg.is_none()));
        // Full decode (the audit path) must not demand aggregates …
        assert_eq!(decode(bytes).expect("decode"), pts);
        // … and ranged reads still work block-granularly, identically
        // through every entry point.
        let range =
            TimeRange::new(pts[130].gen_time, pts[130].gen_time + 10 * 50);
        for (entry, read) in read_every_way(bytes, range) {
            let read = read.expect(entry);
            assert_eq!(read.blocks_read, 1, "{entry}");
            assert_eq!(read.points_scanned, 128, "{entry}");
            assert_eq!(read.points, pts[130..=140], "{entry}");
        }
        // A flipped byte anywhere is rejected by the full decode, and by
        // every ranged entry point it is within reach of.
        for pos in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[pos] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at byte {pos}");
            for (entry, read) in read_every_way(&bad, range) {
                let Ok(read) = read else { continue };
                assert_eq!(read.points, pts[130..=140], "{entry} byte {pos}");
                assert_eq!((read.blocks_read, read.points_scanned), (1, 128));
            }
        }
    }

    #[test]
    fn v3_rejects_lying_aggregate_count() {
        // An entry whose agg_count disagrees with its structural count must
        // be rejected at parse time, before any fold trusts it.
        let pts = sample_points(64);
        let bytes = encode_with(&pts, &EncodeOptions::pruned())
            .expect("encode")
            .to_vec();
        let meta = parse_v3_footer(&bytes).expect("footer");
        let (index_span, _) = parse_v3_metaindex(
            &bytes[meta.offset as usize..meta.end() as usize],
        )
        .expect("metaindex");
        let mut bad = bytes.clone();
        // First entry's agg_count lives at +52 within the entry.
        let at = index_span.offset as usize + V3_INDEX_FIXED + 52;
        bad[at] ^= 0x01;
        // Re-seal the index CRC so only the count lie remains.
        let body_end = index_span.end() as usize - 4;
        let crc = crc32(&bad[index_span.offset as usize..body_end]);
        bad[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
        let err = read_table_index(&bad).expect_err("lying agg_count");
        assert!(err.to_string().contains("aggregate count"), "{err}");
    }

    #[test]
    fn v3_decode_range_prunes_blocks_and_point_misses() {
        let pts = sample_points(512); // tg = 1_000_000 + i*50
        let bytes =
            encode_with(&pts, &EncodeOptions::pruned()).expect("encode");
        // Window inside block 1 decodes exactly one block.
        let range = seplsm_types::TimeRange::new(
            1_000_000 + 130 * 50,
            1_000_000 + 140 * 50,
        );
        let read = decode_range(&bytes, range).expect("range read");
        assert_eq!(read.blocks_read, 1);
        assert_eq!(read.points.len(), 11);
        // A point probe at a non-key instant inside the covered range is
        // pruned by the bloom filter: no blocks decoded.
        let miss_tg = 1_000_000 + 25; // between keys
        let miss = decode_range(
            &bytes,
            seplsm_types::TimeRange::new(miss_tg, miss_tg),
        )
        .expect("miss");
        assert_eq!(miss.blocks_read, 0);
        assert!(miss.points.is_empty());
        // A point probe at a real key still finds it.
        let hit_tg = pts[200].gen_time;
        let hit =
            decode_range(&bytes, seplsm_types::TimeRange::new(hit_tg, hit_tg))
                .expect("hit");
        assert_eq!(hit.points.len(), 1);
    }

    #[test]
    fn v3_index_may_contain_has_no_false_negatives() {
        let pts = sample_points(256);
        let bytes =
            encode_with(&pts, &EncodeOptions::pruned()).expect("encode");
        let index = read_table_index(&bytes).expect("index");
        for p in &pts {
            assert!(index.may_contain(seplsm_types::TimeRange::new(
                p.gen_time, p.gen_time
            )));
        }
        assert!(!index.may_contain(seplsm_types::TimeRange::new(0, 999_999)));
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let bytes = old_table!("v1-1").to_vec();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        // Fix up CRC so the magic check itself is exercised.
        let crc = crc32(&bad_magic[..bad_magic.len() - 4]);
        let n = bad_magic.len();
        bad_magic[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = decode(&bad_magic).expect_err("bad magic");
        assert!(err.to_string().contains("magic"), "{err}");

        let mut bad_ver = bytes;
        bad_ver[4] = 99;
        let crc = crc32(&bad_ver[..bad_ver.len() - 4]);
        let n = bad_ver.len();
        bad_ver[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = decode(&bad_ver).expect_err("bad version");
        assert!(err.to_string().contains("version"), "{err}");
    }
}
