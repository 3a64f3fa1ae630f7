//! Write-ahead log: makes buffered MemTable contents durable.
//!
//! One append-only file of CRC-framed records, shared by every series its
//! owner hosts (a single-series engine logs as series 0; a fleet keeps one
//! log for all of its series).
//!
//! # Format
//!
//! An 8-byte magic, then frames:
//!
//! ```text
//! len u32 | crc u32 | kind u8 | series u32 | [lo i64 | hi i64] | points
//! ```
//!
//! all little-endian; `len` is the byte length of everything after `crc`,
//! which the CRC-32 covers. Five kinds, two of them written:
//!
//! | kind | frame                 | range       | points | written |
//! |------|-----------------------|-------------|--------|---------|
//! | `0`  | points                | —           | raw    | never (PR ≤ 21) |
//! | `1`  | checkpoint            | all of time | raw    | never (PR 15–19) |
//! | `2`  | checkpoint            | `lo`, `hi`  | raw    | never (PR 21) |
//! | `3`  | points                | —           | packed | by every physical write |
//! | `4`  | checkpoint            | `lo`, `hi`  | packed | by [`Wal::checkpoint`] and by a cut |
//!
//! * A *points* frame says its points were appended to `series`.
//! * A *checkpoint* says every earlier point of `series` with
//!   `lo ≤ gen_time ≤ hi` is superseded — its owner made it durable in a
//!   committed table — except the points carried in the frame, which are the
//!   points of that range still volatile when the frame was queued.
//! * *Raw* points are `n × (gen_time i64, arrival_time i64, value bits u64)`,
//!   24 bytes each, `n` given by the frame's length.
//! * *Packed* points are nothing at all when there are none (an empty
//!   checkpoint is 29 bytes), and otherwise
//!
//!   ```text
//!   n uvarint | n × ( ivarint(arrival − previous arrival)
//!                   · ivarint(arrival − gen_time)
//!                   · uvarint(reverse_bits(value bits ^ previous value bits)) )
//!   ```
//!
//!   LEB128 varints, zigzag for the signed ones, "previous" being 0 at the
//!   start of every frame and every difference wrapping, so any timestamp and
//!   any bit pattern round-trips. The points stay in the order they were
//!   written. Arrivals are near-monotone (one byte), a delay is the paper's
//!   small non-negative quantity (one or two), and a slowly changing or
//!   integer-valued double differs from its neighbour in its top bits only,
//!   which `reverse_bits` turns into a short varint: 6 B a point on the
//!   paper's datasets. A payload of random bits costs 10, so the worst case
//!   is 30 B a point against the raw 24.
//!
//! Replay walks the frames in file order and keeps, per series, a list of
//! points: a points frame extends it, a checkpoint removes the points inside
//! its range and then extends it with the ones it carries. Two points of one
//! generation time are always both inside or both outside a range, so the
//! list keeps them in the order they were written: last writer last. A log
//! an older build left is continued, not converted: its frames are read as
//! they stand and new ones follow them.
//!
//! A checkpoint says what *became durable*, not what is left, and says it by
//! generation time, not by position in the file. That is what lets its owner
//! queue it late: a fleet checkpoints a flush only after the fleet-wide
//! manifest commit, the background engine only once a later hand-off finds
//! the batch retired, and points logged in between may fall inside the
//! flushed range. The rule for every caller is the same — see
//! [`Wal::checkpoint`] — and a flush never re-logs the buffers it did not
//! take: under the separation policy `C_nonseq` sits below every `C_seq`
//! flush's range, so the frame is 29 bytes and carries nothing.
//!
//! A file without the magic is the oldest format (28-byte `crc | point`
//! records, one series per file): it is read as series 0 and rewritten in
//! this format when opened.
//!
//! # Writing
//!
//! [`Wal::append_for`] only pushes into the log's own pending buffer. Pending
//! points are grouped per series into one points frame each, packed when the
//! frame is sealed, and leave in one physical write when 342 points are
//! pending (8 KiB of raw ones) or at [`Wal::sync`], which also fsyncs.
//! [`Wal::checkpoint`] queues a checkpoint frame and drops the series'
//! pending points inside its range (its owner just made them durable
//! elsewhere or lists them among the carried ones: a point flushed before it
//! was ever written never reaches the file); it does no I/O of its own and
//! rides on the next write. The file is only ever *cut* — rewritten from the
//! owner's in-memory survivors by [`Wal::rewrite`] — when a checkpoint
//! reports that the dead bytes outweigh the live ones, and when the owner
//! comes to rest. The file is never read after it is opened.
//!
//! # Accounting
//!
//! The log is accounted point by point: its *live* bytes are, for every
//! logged point replay would still return, the bytes that point took in the
//! frame that holds it; its *dead* bytes are everything else past the magic —
//! superseded points, frame prefixes, point counts, checkpoint ranges. To
//! know what a range supersedes the log keeps, per series, the generation
//! time and the encoded size of its live points (9 bytes each, and never more
//! of them than the owner has volatile points plus what it has flushed but
//! not yet checkpointed). [`Wal::stats`] therefore always equals what parsing
//! the logical log — the file plus the frames queued behind it — would
//! recompute, which is what it is seeded from at open.
//!
//! # Damage
//!
//! A frame that fails its length or CRC check, or whose packed points do not
//! fill its body exactly, ends the valid prefix. If no valid frame follows it
//! the damage is a torn tail — a write cut short by a crash — which is
//! dropped silently and truncated away at open: a torn checkpoint is ignored
//! whole, range included, so the points it would have superseded still
//! apply. A checkpoint that never reached the disk leaves the same state.
//! Either way replay returns *more* than the owner still needed, never less,
//! and the merge pipeline deduplicates by generation time. Damage in front of
//! still-valid frames is corruption: an error in strict mode, a counted drop
//! in salvage mode. So is a file at least one record long that starts with
//! neither the magic nor a valid fixed record — a framed log with a damaged
//! header reads like that, and is never mistaken for an empty one.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use seplsm_types::{DataPoint, Error, Result, TimeRange, Timestamp};

use crate::codec;
use crate::fault::{self, FaultPlan, IoOp};
use crate::obs::{Event, ObserverHandle};
use crate::sstable::crc32::crc32;
use crate::sstable::varint::{
    get_ivarint, get_uvarint, put_ivarint, put_uvarint,
};
use crate::store::sync_dir;

/// First bytes of a framed log.
const MAGIC: [u8; 8] = *b"SEPWAL2\n";
/// One raw point: gen_time i64 LE + arrival_time i64 LE + value bits u64 LE.
const RAW_POINT: usize = 24;
/// The most one packed point takes: three ten-byte varints.
const PACKED_POINT_MAX: usize = 30;
/// Frame prefix outside the CRC: len u32 LE + crc u32 LE.
const FRAME_HEAD: usize = 8;
/// Frame body before the range or the points: kind u8 + series u32 LE.
const BODY_HEAD: usize = 5;
/// A checkpoint's range: lo i64 LE + hi i64 LE.
const RANGE: usize = 16;
/// The most points whose frame body — kind, series, range, count and the
/// points at their largest — is certain to fit the prefix's `len`.
const FRAME_POINTS_MAX: usize =
    (u32::MAX as usize - BODY_HEAD - RANGE - 10) / PACKED_POINT_MAX;
/// The kinds older builds wrote, with raw points: points, a checkpoint of
/// all time (no range on the wire), a range checkpoint.
const KIND_RAW_POINTS: u8 = 0;
const KIND_RAW_CHECKPOINT_ALL: u8 = 1;
const KIND_RAW_CHECKPOINT: u8 = 2;
/// The kinds this build writes, with packed points.
const KIND_POINTS: u8 = 3;
const KIND_CHECKPOINT: u8 = 4;
/// Every generation time: what a cut's frames and a
/// `KIND_RAW_CHECKPOINT_ALL` supersede.
const ALL_TIME: TimeRange = TimeRange {
    start: Timestamp::MIN,
    end: Timestamp::MAX,
};
/// Record of the oldest format: crc u32 LE + one raw point.
const LEGACY_RECORD: usize = 4 + RAW_POINT;
/// Pending points are written out once there are this many: 8 KiB of raw
/// points, whatever they pack down to.
const SPILL_POINTS: usize = (8usize * 1024).div_ceil(RAW_POINT);
/// The log is worth cutting when its dead bytes exceed
/// `max(CUT_FACTOR × live bytes, CUT_FLOOR)`: a cut copies the live bytes,
/// so the copy traffic stays below 1/`CUT_FACTOR` of what was logged.
const CUT_FACTOR: u64 = 8;
const CUT_FLOOR: u64 = 64 * 1024;

/// Size and history of a log, for `seplsm stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// The bytes every logged point replay would still return takes in its
    /// frame.
    pub live_bytes: u64,
    /// Everything else past the magic — superseded points, frame prefixes,
    /// point counts, checkpoint ranges — reclaimed by the next cut.
    pub dead_bytes: u64,
    /// Frames encoded since the log was opened.
    pub frames: u64,
    /// Times the file was cut since the log was opened.
    pub cuts: u64,
    /// Bytes of the points checkpoint frames carried since the log was
    /// opened: points logged a second time because they sat inside a
    /// flushed range without having been flushed. (What a cut copies is not
    /// in here; the cut rule bounds that by itself.)
    pub relogged_bytes: u64,
    /// Appended points sealed into points frames since the log was opened.
    /// (A point flushed while it was still pending never is.)
    pub logged_points: u64,
    /// Bytes of every frame sealed since the log was opened — prefixes,
    /// ranges, checkpoints and a cut's frames included: what the log cost,
    /// to be held against `logged_points`.
    pub logged_bytes: u64,
}

/// What a log holds, demultiplexed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Per series, the logged points no intact checkpoint supersedes, in
    /// the order they were written. Series with nothing to replay are
    /// absent.
    pub series: BTreeMap<u32, Vec<DataPoint>>,
    /// Points lost past the valid prefix, as far as they can be counted: one
    /// for the damaged frame, plus the points of every frame behind it whose
    /// length and CRC still hold (a file of the oldest format: the whole
    /// records that fit). Only ever non-zero for a salvage replay or a torn
    /// tail.
    pub dropped: u64,
}

impl Replay {
    /// Number of points across all series.
    pub fn points(&self) -> usize {
        self.series.values().map(Vec::len).sum()
    }
}

/// A logged point replay would return, as the accounting knows it: its
/// generation time and the bytes it takes in its frame. Packed, because the
/// log keeps one for every point it still holds — up to a horizon's worth,
/// 32 768 at 512-point tables — at 9 bytes where a pair would take 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(C, packed)]
struct LivePoint {
    gen_time: Timestamp,
    size: u8,
}

impl LivePoint {
    fn new(gen_time: Timestamp, size: u8) -> Self {
        Self { gen_time, size }
    }
}

/// What the log tracks per series.
#[derive(Debug, Default)]
struct SeriesLog {
    /// The points appended since the last physical write, in that order:
    /// the next points frame.
    pending: Vec<DataPoint>,
    /// Points of this series were appended since the last fsync and are
    /// not known to be durable elsewhere: what [`Wal::sync`] exists for.
    unsynced: bool,
    /// The points in sealed frames (written or queued) that replay would
    /// return, in no particular order.
    live: Vec<LivePoint>,
}

/// An append-only, checksummed, series-tagged log of data points.
pub struct Wal {
    file: File,
    path: PathBuf,
    series: BTreeMap<u32, SeriesLog>,
    /// Points pending across all series.
    pending_points: usize,
    /// Sealed frames waiting for the next physical write.
    queued: Vec<u8>,
    /// Physical length of the file.
    file_len: u64,
    /// Encoded bytes across every series' `live`.
    live_bytes: u64,
    frames: u64,
    cuts: u64,
    relogged_bytes: u64,
    logged_points: u64,
    logged_bytes: u64,
    faults: Option<Arc<FaultPlan>>,
    obs: ObserverHandle,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Appends `points` packed (see the module docs), pushes onto `live`, for
/// each, its generation time and the bytes it took, and returns the bytes
/// they took together (their count not included).
fn encode_points(
    out: &mut Vec<u8>,
    points: &[DataPoint],
    live: &mut Vec<LivePoint>,
) -> u64 {
    if points.is_empty() {
        return 0;
    }
    put_uvarint(out, points.len() as u64);
    let first = out.len();
    let (mut prev_arrival, mut prev_bits) = (0i64, 0u64);
    for p in points {
        let at = out.len();
        let bits = p.value.to_bits();
        put_ivarint(out, p.arrival_time.wrapping_sub(prev_arrival));
        put_ivarint(out, p.arrival_time.wrapping_sub(p.gen_time));
        put_uvarint(out, (bits ^ prev_bits).reverse_bits());
        (prev_arrival, prev_bits) = (p.arrival_time, bits);
        // At most `PACKED_POINT_MAX` bytes.
        live.push(LivePoint::new(p.gen_time, (out.len() - at) as u8));
    }
    (out.len() - first) as u64
}

/// The points packed in `body`, each with the bytes it took, or `None` when
/// `body` is not exactly one packed run.
fn decode_points(mut body: &[u8]) -> Option<Vec<(DataPoint, u8)>> {
    if body.is_empty() {
        return Some(Vec::new());
    }
    let n = get_uvarint(&mut body).ok()?;
    // A point is three varints: a count the body cannot hold is refused
    // before anything is allocated for it. No points are written as no bytes.
    if n == 0 || n > (body.len() / 3) as u64 {
        return None;
    }
    let mut points = Vec::with_capacity(n as usize);
    let (mut prev_arrival, mut prev_bits) = (0i64, 0u64);
    for _ in 0..n {
        let before = body.len();
        let arrival = prev_arrival.wrapping_add(get_ivarint(&mut body).ok()?);
        let gen_time = arrival.wrapping_sub(get_ivarint(&mut body).ok()?);
        let bits = prev_bits ^ get_uvarint(&mut body).ok()?.reverse_bits();
        (prev_arrival, prev_bits) = (arrival, bits);
        points.push((
            DataPoint::new(gen_time, arrival, f64::from_bits(bits)),
            (before - body.len()) as u8,
        ));
    }
    body.is_empty().then_some(points)
}

/// The raw points filling `body`, or `None` when it is not a whole number
/// of them.
fn decode_raw_points(body: &[u8]) -> Option<Vec<(DataPoint, u8)>> {
    if body.len() % RAW_POINT != 0 {
        return None;
    }
    body.chunks_exact(RAW_POINT)
        .map(|rec| Some((decode_raw_point(rec).ok()?, RAW_POINT as u8)))
        .collect()
}

fn decode_raw_point(rec: &[u8]) -> Result<DataPoint> {
    Ok(DataPoint::new(
        codec::read_i64_le(rec, 0)?,
        codec::read_i64_le(rec, 8)?,
        f64::from_bits(codec::read_u64_le(rec, 16)?),
    ))
}

/// What sealing one frame added to the log.
struct Sealed {
    /// Bytes of the frame, prefix included.
    frame_bytes: u64,
    /// Bytes of its points alone.
    point_bytes: u64,
}

/// Appends one sealed frame to `out` — a checkpoint of `range` carrying
/// `points`, or without a range a points frame — and pushes what the points
/// took onto `live`. Nothing is touched when it fails.
fn push_frame(
    out: &mut Vec<u8>,
    series: u32,
    range: Option<TimeRange>,
    points: &[DataPoint],
    live: &mut Vec<LivePoint>,
) -> Result<Sealed> {
    if points.len() > FRAME_POINTS_MAX {
        return Err(Error::InvalidConfig(format!(
            "{} points do not fit one WAL frame",
            points.len()
        )));
    }
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEAD]);
    out.push(if range.is_some() {
        KIND_CHECKPOINT
    } else {
        KIND_POINTS
    });
    out.extend_from_slice(&series.to_le_bytes());
    if let Some(range) = range {
        out.extend_from_slice(&range.start.to_le_bytes());
        out.extend_from_slice(&range.end.to_le_bytes());
    }
    let point_bytes = encode_points(out, points, live);
    let frame = &mut out[start..];
    // `FRAME_POINTS_MAX` keeps the body inside a u32.
    let len = (frame.len() - FRAME_HEAD) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&frame[FRAME_HEAD..]);
    frame[4..FRAME_HEAD].copy_from_slice(&crc.to_le_bytes());
    Ok(Sealed {
        frame_bytes: frame.len() as u64,
        point_bytes,
    })
}

/// One valid frame of `data`.
struct Frame {
    series: u32,
    /// The range a checkpoint supersedes; `None` for a points frame.
    superseded: Option<TimeRange>,
    /// The points, each with the bytes it takes in the frame.
    points: Vec<(DataPoint, u8)>,
    /// Bytes the frame occupies, prefix included.
    size: usize,
}

/// The frame starting at `off`, or `None` when the bytes there are not a
/// whole frame with a matching CRC.
fn frame_at(data: &[u8], off: usize) -> Option<Frame> {
    let body_len = codec::read_u32_le(data, off).ok()? as usize;
    let stored = codec::read_u32_le(data, off + 4).ok()?;
    let start = off + FRAME_HEAD;
    if body_len < BODY_HEAD || body_len > data.len().saturating_sub(start) {
        return None;
    }
    let body = &data[start..start + body_len];
    if stored != crc32(body) {
        return None;
    }
    let kind = body[0];
    let series = codec::read_u32_le(body, 1).ok()?;
    let (superseded, points_at) = match kind {
        KIND_RAW_POINTS | KIND_POINTS => (None, BODY_HEAD),
        KIND_RAW_CHECKPOINT_ALL => (Some(ALL_TIME), BODY_HEAD),
        KIND_RAW_CHECKPOINT | KIND_CHECKPOINT => {
            let range = TimeRange {
                start: codec::read_i64_le(body, BODY_HEAD).ok()?,
                end: codec::read_i64_le(body, BODY_HEAD + 8).ok()?,
            };
            if range.start > range.end {
                return None;
            }
            (Some(range), BODY_HEAD + RANGE)
        }
        _ => return None,
    };
    let points = body.get(points_at..)?;
    let points = match kind {
        KIND_POINTS | KIND_CHECKPOINT => decode_points(points)?,
        _ => decode_raw_points(points)?,
    };
    Some(Frame {
        series,
        superseded,
        points,
        size: FRAME_HEAD + body_len,
    })
}

/// What the bytes of a log file amount to.
#[derive(Default)]
struct Parsed {
    /// The file predates the framed format (see the module docs).
    legacy: bool,
    /// Per series, the points no later checkpoint supersedes, in the order
    /// they were written, each with the bytes it takes in its frame.
    series: BTreeMap<u32, Vec<(DataPoint, u8)>>,
    /// Byte length of the valid prefix.
    good_len: usize,
    /// Damage past `good_len` sits in front of still-valid frames.
    corrupt: bool,
    /// Points lost past `good_len` (see [`Replay::dropped`]).
    dropped: u64,
}

impl Parsed {
    fn replay(self, strict: bool) -> Result<Replay> {
        if strict && self.corrupt {
            return Err(Error::Corrupt(format!(
                "WAL damaged at offset {} with valid records after it",
                self.good_len
            )));
        }
        let series = self
            .series
            .into_iter()
            .filter(|(_, points)| !points.is_empty())
            .map(|(series, points)| {
                (series, points.into_iter().map(|(p, _)| p).collect())
            })
            .collect();
        Ok(Replay {
            series,
            dropped: self.dropped,
        })
    }

    /// What the accounting is seeded from: [`Wal::reset`]'s argument.
    fn live(&self) -> impl Iterator<Item = (u32, Vec<LivePoint>)> + '_ {
        self.series.iter().map(|(series, points)| {
            let live = points
                .iter()
                .map(|(p, size)| LivePoint::new(p.gen_time, *size));
            (*series, live.collect())
        })
    }
}

/// Looks at the damage that starts at `from`: whether a frame still holds
/// anywhere behind it — frames are not aligned, so every later offset is a
/// candidate — and the points lost, as [`Replay::dropped`] counts them.
fn damage_at(data: &[u8], from: usize) -> (bool, u64) {
    if from >= data.len() {
        return (false, 0);
    }
    let (mut frames_follow, mut dropped) = (false, 1);
    let mut off = from + 1;
    while off < data.len() {
        match frame_at(data, off) {
            Some(frame) => {
                frames_follow = true;
                dropped += frame.points.len() as u64;
                off += frame.size;
            }
            None => off += 1,
        }
    }
    (frames_follow, dropped)
}

/// Parses a whole log file. A file that is empty or holds only part of the
/// magic is a log whose creation was cut short: empty.
fn parse(data: &[u8]) -> Parsed {
    if data.len() < MAGIC.len() && MAGIC.starts_with(data) {
        return Parsed::default();
    }
    if !data.starts_with(&MAGIC) {
        let mut parsed = parse_legacy(data);
        // Not one valid record in at least a record's worth of bytes, or a
        // frame somewhere in fewer: this is no torn first write but a file
        // whose front is damaged — a framed log with a flipped header bit
        // looks exactly like this, and its frames must not be taken for a
        // tail to truncate.
        if parsed.good_len == 0 {
            let (frames_follow, dropped) = damage_at(data, 0);
            if frames_follow || parsed.dropped > 0 {
                parsed.corrupt = true;
                parsed.dropped = dropped;
            }
        }
        return parsed;
    }
    let mut parsed = Parsed::default();
    let mut off = MAGIC.len();
    while let Some(frame) = frame_at(data, off) {
        let points = parsed.series.entry(frame.series).or_default();
        if let Some(range) = frame.superseded {
            points.retain(|(p, _)| !range.contains(p.gen_time));
        }
        points.extend(frame.points);
        off += frame.size;
    }
    parsed.good_len = off;
    // A torn tail has nothing valid after it.
    (parsed.corrupt, parsed.dropped) = damage_at(data, off);
    parsed
}

/// The oldest format: fixed-size `crc | point` records of one series.
fn parse_legacy(data: &[u8]) -> Parsed {
    let valid = |rec: &[u8]| {
        codec::read_u32_le(rec, 0).is_ok_and(|crc| crc == crc32(&rec[4..]))
    };
    let mut records = data.chunks_exact(LEGACY_RECORD);
    let mut points = Vec::new();
    for rec in records.by_ref() {
        if !valid(rec) {
            break;
        }
        match decode_raw_point(&rec[4..]) {
            Ok(p) => points.push((p, RAW_POINT as u8)),
            Err(_) => break,
        }
    }
    let good_len = points.len() * LEGACY_RECORD;
    Parsed {
        legacy: true,
        series: BTreeMap::from([(0, points)]),
        good_len,
        // `records` resumes after the first invalid record.
        corrupt: records.any(valid),
        dropped: ((data.len() - good_len) / LEGACY_RECORD) as u64,
    }
}

fn read_file(path: &Path) -> Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(data) => Ok(Some(data)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending.
    ///
    /// Stale `wal.tmp` debris from a crashed cut is swept. Everything past
    /// the valid prefix — a torn tail, or damage this caller chose not to
    /// hear about (see `Wal::recover`) — is truncated away, because
    /// appending behind it would hide the new frames from replay. A log in
    /// the oldest, fixed-record format is rewritten in this one; a framed
    /// log of an older build is continued as it stands.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::recover(path.as_ref(), false)?.0)
    }

    /// [`Wal::open`], also returning what the log held — the one time the
    /// file is read. With `strict`, damage in front of still-valid frames is
    /// [`Error::Corrupt`] and the file is left untouched; without, the
    /// longest valid prefix is used and the loss is counted in
    /// [`Replay::dropped`].
    ///
    /// The two fsyncs this may cost (a created file's directory entry, a
    /// truncated tail) run before any fault plan can be attached.
    pub(crate) fn recover(path: &Path, strict: bool) -> Result<(Self, Replay)> {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(parent) = parent {
            std::fs::create_dir_all(parent)?;
        }
        match std::fs::remove_file(path.with_extension("wal.tmp")) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let data = read_file(path)?;
        let created = data.is_none();
        let data = data.unwrap_or_default();
        let parsed = parse(&data);
        if strict && parsed.corrupt {
            return Err(Error::Corrupt(format!(
                "WAL {} damaged at offset {} with valid records after it",
                path.display(),
                parsed.good_len
            )));
        }
        let mut file =
            OpenOptions::new().create(true).append(true).open(path)?;
        if created {
            // The new directory entry must survive a crash by itself: the
            // first acknowledged batch may be the only thing ever written
            // into this directory.
            if let Some(parent) = parent {
                // seplint: allow(R6): un-hookable, runs before attach_faults
                sync_dir(parent)?;
            }
        }
        let mut file_len = data.len() as u64;
        if parsed.good_len < MAGIC.len() && !parsed.legacy {
            // New, or cut short while being created. The magic needs no
            // fsync of its own: it reaches the disk with the first synced
            // frame, and until then a short file still reads as empty.
            file.set_len(0)?;
            file.write_all(&MAGIC)?;
            file_len = MAGIC.len() as u64;
        } else if (parsed.good_len as u64) < file_len && !parsed.legacy {
            file.set_len(parsed.good_len as u64)?;
            // seplint: allow(R6): un-hookable, runs before attach_faults
            file.sync_all()?;
            file_len = parsed.good_len as u64;
        }
        let mut wal = Self {
            file,
            path: path.to_path_buf(),
            series: BTreeMap::new(),
            pending_points: 0,
            queued: Vec::new(),
            file_len,
            live_bytes: 0,
            frames: 0,
            cuts: 0,
            relogged_bytes: 0,
            logged_points: 0,
            logged_bytes: 0,
            faults: None,
            obs: ObserverHandle::detached(),
        };
        let replay = if parsed.legacy {
            let replay = parsed.replay(strict)?;
            let points = replay.series.get(&0).cloned().unwrap_or_default();
            wal.replace(&[(0, points)])?;
            replay
        } else {
            wal.reset(parsed.live());
            parsed.replay(strict)?
        };
        Ok((wal, replay))
    }

    /// Attaches a fault plan: every subsequent write, fsync and cut consults
    /// the plan first. Used by the crash-schedule harness.
    pub fn attach_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Attaches an observer: physical writes, syncs and checkpoints emit
    /// [`Event::WalAppend`] / [`Event::WalSync`] / [`Event::WalTruncate`].
    pub fn attach_observer(&mut self, obs: ObserverHandle) {
        self.obs = obs;
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Live and dead bytes of the logical log (queued frames included; see
    /// the module docs for what counts as which), and what was encoded, cut
    /// and re-logged since open.
    pub fn stats(&self) -> WalStats {
        let logical_len = self.file_len + self.queued.len() as u64;
        WalStats {
            live_bytes: self.live_bytes,
            dead_bytes: logical_len
                .saturating_sub(MAGIC.len() as u64)
                .saturating_sub(self.live_bytes),
            frames: self.frames,
            cuts: self.cuts,
            relogged_bytes: self.relogged_bytes,
            logged_points: self.logged_points,
            logged_bytes: self.logged_bytes,
        }
    }

    /// Appends one point of series 0 (buffered; call [`Wal::sync`] for
    /// durability).
    pub fn append(&mut self, p: &DataPoint) -> Result<()> {
        self.append_for(0, p)
    }

    /// Appends one point of `series` (buffered; call [`Wal::sync`] for
    /// durability). Touches the disk only when the pending buffer is full.
    pub fn append_for(&mut self, series: u32, p: &DataPoint) -> Result<()> {
        let log = self.series.entry(series).or_default();
        log.pending.push(*p);
        log.unsynced = true;
        self.pending_points += 1;
        if self.pending_points >= SPILL_POINTS {
            self.write_out()?;
        }
        Ok(())
    }

    /// Seals the pending points — one points frame per series — and
    /// writes every queued frame with one `write`.
    fn write_out(&mut self) -> Result<()> {
        for (series, log) in &mut self.series {
            if log.pending.is_empty() {
                continue;
            }
            let sealed = push_frame(
                &mut self.queued,
                *series,
                None,
                &log.pending,
                &mut log.live,
            )?;
            self.pending_points -= log.pending.len();
            self.logged_points += log.pending.len() as u64;
            log.pending.clear();
            self.live_bytes += sealed.point_bytes;
            self.frames += 1;
            self.logged_bytes += sealed.frame_bytes;
        }
        if self.queued.is_empty() {
            return Ok(());
        }
        let len = self.queued.len();
        if let Some(crash) = fault::write_hooked(
            self.faults.as_ref(),
            IoOp::WalAppend,
            &mut self.file,
            &self.queued,
        )? {
            // The modelled power cut happened mid-write: a prefix of the
            // frames reached the file, then the op fails.
            return Err(crash);
        }
        self.queued.clear();
        self.file_len += len as u64;
        self.obs.emit(|| Event::WalAppend { bytes: len as u64 });
        Ok(())
    }

    /// Writes everything pending and fsyncs the file. A log with nothing
    /// appended since its last sync or cut — or whose every such point a
    /// checkpoint has since found in a committed table — is already
    /// durable: no I/O (a queued checkpoint waits for the next append).
    pub fn sync(&mut self) -> Result<()> {
        if !self.series.values().any(|log| log.unsynced) {
            return Ok(());
        }
        self.write_out()?;
        fault::hook(self.faults.as_ref(), IoOp::WalSync)?;
        self.file.sync_all()?;
        self.series
            .values_mut()
            .for_each(|log| log.unsynced = false);
        self.obs.emit(|| Event::WalSync);
        Ok(())
    }

    /// Records that every point of `series` logged so far with a generation
    /// time in `flushed` is durable in a committed table, except
    /// `survivors_in_range`.
    ///
    /// The contract, the same for every owner: call it only after the
    /// tables holding the flushed points are durable under a durable
    /// manifest record, and list in `survivors_in_range` **every volatile
    /// point of the series inside the range, wherever it sits** — MemTables,
    /// the tail of a policy migration, batches still in a flush pipeline —
    /// in the order they were written. Any range is correct under that
    /// rule; the range of the points a flush took is the one that carries
    /// least. Because the frame names generation times rather than a
    /// position in the file, it may be queued long after the flush (points
    /// logged in between that fall inside the range are simply volatile
    /// points inside the range).
    ///
    /// The series' pending points inside the range are dropped — each is in
    /// the tables just committed or among the survivors — and a checkpoint
    /// frame carrying the survivors is queued behind the frames it
    /// supersedes. No I/O, no fsync, and a clean log stays clean: the frame
    /// rides on the next write. A series left with nothing in the log owes
    /// the next sync nothing any more. Until the frame is durable a crash
    /// replays the superseded points too, which recovery tolerates (see the
    /// module docs).
    ///
    /// Returns whether the dead bytes now outweigh the live ones enough for
    /// a cut to pay for itself: the owner then hands [`Wal::rewrite`] the
    /// survivors of *all* its series.
    ///
    /// # Errors
    /// More survivors than one frame can carry.
    pub fn checkpoint(
        &mut self,
        series: u32,
        flushed: TimeRange,
        survivors_in_range: &[DataPoint],
    ) -> Result<bool> {
        debug_assert!(
            survivors_in_range
                .iter()
                .all(|p| flushed.contains(p.gen_time)),
            "a checkpoint carries only points inside its range"
        );
        let mut carried = Vec::with_capacity(survivors_in_range.len());
        let sealed = push_frame(
            &mut self.queued,
            series,
            Some(flushed),
            survivors_in_range,
            &mut carried,
        )?;
        let log = self.series.entry(series).or_default();
        let pending = log.pending.len();
        log.pending.retain(|p| !flushed.contains(p.gen_time));
        self.pending_points -= pending - log.pending.len();
        log.live.retain(|point| {
            let superseded = flushed.contains(point.gen_time);
            if superseded {
                self.live_bytes -= u64::from(point.size);
            }
            !superseded
        });
        log.live.append(&mut carried);
        log.unsynced &= !(log.live.is_empty() && log.pending.is_empty());
        self.live_bytes += sealed.point_bytes;
        self.frames += 1;
        self.logged_bytes += sealed.frame_bytes;
        self.relogged_bytes += sealed.point_bytes;
        self.obs.emit(|| Event::WalTruncate {
            survivors: survivors_in_range.len() as u64,
        });
        Ok(self.cut_due())
    }

    fn cut_due(&self) -> bool {
        let stats = self.stats();
        stats.dead_bytes > (CUT_FACTOR * stats.live_bytes).max(CUT_FLOOR)
    }

    /// Cuts the log down to `live`: per series, every point of its owner
    /// that is not yet in a committed table — whether or not this log has
    /// seen it. Pending points and queued frames are covered by `live` and
    /// discarded; the result is durable and clean when this returns, and a
    /// crash leaves either the old contents or the new ones.
    ///
    /// With nothing live the file is truncated to its header where it
    /// stands (one fsync; no I/O at all if it already is that short);
    /// otherwise it is replaced through a tmp file, a rename and a
    /// directory fsync.
    pub fn rewrite(&mut self, live: &[(u32, Vec<DataPoint>)]) -> Result<()> {
        if live.iter().any(|(_, points)| !points.is_empty()) {
            return self.replace(live);
        }
        let header = MAGIC.len() as u64;
        if self.file_len > header {
            fault::hook(self.faults.as_ref(), IoOp::WalRewrite)?;
            // The file is in append mode: later frames land at the new end.
            self.file.set_len(header)?;
            self.file.sync_all()?;
            self.file_len = header;
            self.cuts += 1;
        }
        self.reset([]);
        Ok(())
    }

    /// Forgets everything not yet written: the file now holds exactly the
    /// points of `live`, durably.
    fn reset(&mut self, live: impl IntoIterator<Item = (u32, Vec<LivePoint>)>) {
        for log in self.series.values_mut() {
            log.pending.clear();
            log.unsynced = false;
            log.live.clear();
        }
        self.live_bytes = 0;
        for (series, points) in live {
            self.live_bytes +=
                points.iter().map(|p| u64::from(p.size)).sum::<u64>();
            self.series.entry(series).or_default().live = points;
        }
        self.pending_points = 0;
        self.queued.clear();
    }

    /// Replaces the file with a fresh one holding one checkpoint frame — of
    /// all time — per non-empty series of `live`.
    fn replace(&mut self, live: &[(u32, Vec<DataPoint>)]) -> Result<()> {
        let mut buf = MAGIC.to_vec();
        let mut kept = Vec::with_capacity(live.len());
        for (series, points) in live {
            if !points.is_empty() {
                let mut sizes = Vec::with_capacity(points.len());
                let sealed = push_frame(
                    &mut buf,
                    *series,
                    Some(ALL_TIME),
                    points,
                    &mut sizes,
                )?;
                kept.push((*series, sizes));
                self.frames += 1;
                self.logged_bytes += sealed.frame_bytes;
            }
        }
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut f = File::create(&tmp)?;
            if let Some(crash) = fault::write_hooked(
                self.faults.as_ref(),
                IoOp::WalRewrite,
                &mut f,
                &buf,
            )? {
                // Tmp debris stays behind; swept on the next open.
                f.sync_all()?;
                return Err(crash);
            }
            f.sync_all()?;
        }
        fault::hook(self.faults.as_ref(), IoOp::WalRename)?;
        std::fs::rename(&tmp, &self.path)?;
        if let Some(parent) =
            self.path.parent().filter(|p| !p.as_os_str().is_empty())
        {
            fault::hook(self.faults.as_ref(), IoOp::DirSync)?;
            sync_dir(parent)?;
        }
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.file_len = buf.len() as u64;
        self.cuts += 1;
        self.reset(kept);
        Ok(())
    }

    /// Reads the log at `path` without touching it. A torn tail is dropped
    /// silently (indistinguishable from a power cut mid-write); damage in
    /// front of still-valid frames is [`Error::Corrupt`]. A missing file is
    /// an empty log.
    pub fn replay(path: impl AsRef<Path>) -> Result<Replay> {
        parse(&read_file(path.as_ref())?.unwrap_or_default()).replay(true)
    }

    /// Salvage replay: the longest valid prefix, never failing on damage;
    /// [`Replay::dropped`] reports (rather than hides) the loss.
    pub fn replay_salvage(path: impl AsRef<Path>) -> Result<Replay> {
        parse(&read_file(path.as_ref())?.unwrap_or_default()).replay(false)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "seplsm-wal-{tag}-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    /// A fresh log at a fresh path, tracing its I/O.
    fn traced(tag: &str) -> (PathBuf, Arc<FaultPlan>, Wal) {
        let path = temp_path(tag);
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::trace_only(0);
        let mut wal = Wal::open(&path).expect("open");
        wal.attach_faults(Arc::clone(&plan));
        (path, plan, wal)
    }

    fn pt(i: i64) -> DataPoint {
        DataPoint::new(i, i + 7, i as f64 * 0.5)
    }

    fn series0(path: &Path) -> Vec<DataPoint> {
        let mut replay = Wal::replay(path).expect("replay");
        replay.series.remove(&0).unwrap_or_default()
    }

    fn gens(points: &[DataPoint]) -> Vec<i64> {
        points.iter().map(|p| p.gen_time).collect()
    }

    fn range(start: i64, end: i64) -> TimeRange {
        TimeRange::new(start, end)
    }

    /// Bytes `points` take packed into one frame: their count, and the
    /// points alone.
    fn packed(points: &[DataPoint]) -> (u64, u64) {
        let mut out = Vec::new();
        let point_bytes = encode_points(&mut out, points, &mut Vec::new());
        (out.len() as u64 - point_bytes, point_bytes)
    }

    /// Size of a points frame (`flushed` absent) or a checkpoint holding
    /// `points`.
    fn frame_size(flushed: Option<TimeRange>, points: &[DataPoint]) -> u64 {
        let (count, point_bytes) = packed(points);
        let head = FRAME_HEAD + BODY_HEAD + flushed.map_or(0, |_| RANGE);
        head as u64 + count + point_bytes
    }

    /// A frame as an older build wrote it: fixture bytes for the kinds this
    /// build only reads.
    fn raw_frame(
        kind: u8,
        series: u32,
        flushed: Option<TimeRange>,
        points: &[DataPoint],
    ) -> Vec<u8> {
        let mut body = vec![kind];
        body.extend_from_slice(&series.to_le_bytes());
        if let Some(flushed) = flushed {
            body.extend_from_slice(&flushed.start.to_le_bytes());
            body.extend_from_slice(&flushed.end.to_le_bytes());
        }
        for p in points {
            body.extend_from_slice(&raw_point(p));
        }
        framed(&body)
    }

    fn raw_point(p: &DataPoint) -> Vec<u8> {
        let mut rec = p.gen_time.to_le_bytes().to_vec();
        rec.extend_from_slice(&p.arrival_time.to_le_bytes());
        rec.extend_from_slice(&p.value.to_bits().to_le_bytes());
        rec
    }

    /// `body` behind a prefix that vouches for it.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(body).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    }

    fn legacy_record(p: &DataPoint) -> Vec<u8> {
        let point = raw_point(p);
        let mut rec = crc32(&point).to_le_bytes().to_vec();
        rec.extend_from_slice(&point);
        rec
    }

    /// Where each frame of a log file starts.
    fn frame_starts(data: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut off = MAGIC.len();
        while let Some(frame) = frame_at(data, off) {
            starts.push(off);
            off += frame.size;
        }
        assert_eq!(off, data.len(), "every byte belongs to a frame");
        starts
    }

    /// The accounting rule: `stats()` is what a parse of the logical log —
    /// the file and the frames queued behind it — recomputes.
    fn assert_accounting(wal: &Wal) {
        let mut logical = std::fs::read(&wal.path).expect("read");
        assert_eq!(logical.len() as u64, wal.file_len);
        logical.extend_from_slice(&wal.queued);
        let parsed = parse(&logical);
        assert_eq!(parsed.good_len, logical.len());
        let live: u64 = parsed
            .series
            .values()
            .flatten()
            .map(|(_, size)| u64::from(*size))
            .sum();
        let stats = wal.stats();
        assert_eq!(stats.live_bytes, live);
        assert_eq!(
            stats.dead_bytes,
            (logical.len() - MAGIC.len()) as u64 - live
        );
        // And point for point, not only in total.
        for (series, points) in &parsed.series {
            let mut want: Vec<LivePoint> = points
                .iter()
                .map(|(p, size)| LivePoint::new(p.gen_time, *size))
                .collect();
            let mut have = wal
                .series
                .get(series)
                .map_or(Vec::new(), |l| l.live.clone());
            want.sort_unstable();
            have.sort_unstable();
            assert_eq!(have, want, "series {series}");
        }
    }

    // ------------------------------------------------------------------
    // The codec.

    fn bit_exact(p: &DataPoint) -> (i64, i64, u64) {
        (p.gen_time, p.arrival_time, p.value.to_bits())
    }

    fn round_trip(points: &[DataPoint]) -> Vec<u8> {
        let (mut out, mut sizes) = (Vec::new(), Vec::new());
        let point_bytes = encode_points(&mut out, points, &mut sizes);
        assert_eq!(
            point_bytes,
            sizes
                .iter()
                .map(|p: &LivePoint| u64::from(p.size))
                .sum::<u64>()
        );
        let decoded = decode_points(&out).expect("decodes");
        assert_eq!(
            decoded
                .iter()
                .map(|(p, _)| bit_exact(p))
                .collect::<Vec<_>>(),
            points.iter().map(bit_exact).collect::<Vec<_>>()
        );
        assert_eq!(
            decoded
                .iter()
                .map(|(p, size)| LivePoint::new(p.gen_time, *size))
                .collect::<Vec<_>>(),
            sizes,
            "both sides agree on what each point took"
        );
        assert!(sizes.iter().all(|p| (3..=30).contains(&p.size)));
        out
    }

    /// The documented layout, byte for byte (cross-checked against an
    /// independent encoder): a format change has to show up here.
    #[test]
    fn packed_frames_have_the_documented_bytes() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let (mut out, mut live) = (Vec::new(), Vec::new());
        let points = [
            DataPoint::new(100, 107, 50.0),
            DataPoint::new(110, 118, 55.5),
        ];
        let sealed =
            push_frame(&mut out, 0, None, &points, &mut live).expect("frame");
        assert_eq!(
            hex(&out),
            "11000000e8b82842\
             03 00000000 02 d6010e82a402 161080800d"
                .replace(' ', "")
        );
        assert_eq!(live, [LivePoint::new(100, 6), LivePoint::new(110, 5)]);
        assert_eq!((sealed.frame_bytes, sealed.point_bytes), (25, 11));
        out.clear();
        let flushed = Some(range(-10, 10));
        let carried = [DataPoint::new(-5, 3, -0.0)];
        push_frame(&mut out, 7, flushed, &carried, &mut live).expect("frame");
        assert_eq!(
            hex(&out),
            "190000005e9f7b53\
             04 07000000 f6ffffffffffffff 0a00000000000000 01 061001"
                .replace(' ', "")
        );
        // No points, no bytes: the empty checkpoint is prefix + range.
        out.clear();
        push_frame(&mut out, 7, flushed, &[], &mut live).expect("frame");
        assert_eq!(out.len(), 29);
        assert!(frame_at(&out, 0).is_some_and(|f| f.points.is_empty()));
    }

    #[test]
    fn adversarial_points_round_trip_bit_exact() {
        let times = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // the smallest subnormal
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_dead_beef_0001), // a signalling NaN payload
            f64::from_bits(u64::MAX),
            std::f64::consts::PI,
        ];
        // Every pairing of extreme times, in both orders of delay, with
        // every value next to every other (equal neighbours included).
        let mut points = Vec::new();
        for (i, gen_time) in times.iter().enumerate() {
            for (j, arrival) in times.iter().enumerate() {
                let value = values[(i * times.len() + j) % values.len()];
                points.push(DataPoint::new(*gen_time, *arrival, value));
            }
        }
        for a in values {
            for b in values {
                points.push(DataPoint::new(5, 5, a));
                points.push(DataPoint::new(5, 5, b));
            }
        }
        round_trip(&points);
        for p in &points {
            round_trip(std::slice::from_ref(p));
        }
        // The documented worst case: random payload bits, wild times.
        let worst = [DataPoint::new(
            0,
            i64::MAX,
            f64::from_bits(0x8000_0000_0000_0001),
        )];
        assert_eq!(round_trip(&worst).len(), 1 + PACKED_POINT_MAX);
        // And the common case: one byte each for arrival and delay.
        let calm: Vec<DataPoint> = (0..50)
            .map(|i| DataPoint::new(1_000 + i * 10, 1_003 + i * 10, 20.0))
            .collect();
        assert_eq!(round_trip(&calm).len(), 1 + (2 + 1 + 2) + 49 * 3);
    }

    #[test]
    fn a_body_that_is_not_exactly_one_packed_run_is_not_a_frame() {
        let points: Vec<DataPoint> = (0..5).map(pt).collect();
        let whole = round_trip(&points);
        let body = |points: &[u8]| {
            let mut body = vec![KIND_POINTS, 0, 0, 0, 0];
            body.extend_from_slice(points);
            framed(&body)
        };
        assert!(frame_at(&body(&whole), 0).is_some());
        // Short by any number of bytes, or with anything behind it.
        for cut in 1..whole.len() {
            assert!(frame_at(&body(&whole[..cut]), 0).is_none(), "{cut}");
        }
        let mut trailing = whole.clone();
        trailing.push(0);
        assert!(frame_at(&body(&trailing), 0).is_none());
        // A count the body cannot hold is refused before it sizes anything.
        for n in [6u64, 1 << 32, u64::MAX] {
            let mut lying = Vec::new();
            put_uvarint(&mut lying, n);
            lying.extend_from_slice(&whole[1..]);
            assert!(decode_points(&lying).is_none(), "{n}");
        }
        // Zero points are written as no bytes, never as a count of zero.
        assert!(decode_points(&[0]).is_none());
        assert_eq!(decode_points(&[]), Some(Vec::new()));
        // A checkpoint's points are held to the same rule.
        let mut checkpoint = vec![KIND_CHECKPOINT, 0, 0, 0, 0];
        checkpoint.extend_from_slice(&0i64.to_le_bytes());
        checkpoint.extend_from_slice(&9i64.to_le_bytes());
        checkpoint.extend_from_slice(&whole);
        assert!(frame_at(&framed(&checkpoint), 0).is_some());
        checkpoint.pop();
        assert!(frame_at(&framed(&checkpoint), 0).is_none());
    }

    fn any_point() -> impl Strategy<Value = DataPoint> {
        // Half the points look like a series — near-monotone arrivals,
        // small delays, slowly changing values — half like nothing at all.
        prop_oneof![
            (0i64..1_000_000, -50i64..5_000, 0u64..64).prop_map(
                |(arrival, delay, step)| DataPoint::new(
                    arrival - delay,
                    arrival,
                    20.0 + step as f64 * 0.25
                )
            ),
            (any::<i64>(), any::<i64>(), any::<u64>()).prop_map(
                |(gen_time, arrival, bits)| DataPoint::new(
                    gen_time,
                    arrival,
                    f64::from_bits(bits)
                )
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_points_round_trip_bit_exact(
            points in proptest::collection::vec(any_point(), 0..40),
        ) {
            round_trip(&points);
        }

        /// A CRC vouches for the bytes, not for their meaning: whatever
        /// sits under a valid one is a frame or is not, and never a panic.
        #[test]
        fn arbitrary_bytes_under_a_valid_crc_never_panic(
            kind in 0u8..6,
            tail in proptest::collection::vec(any::<u8>(), 0..80),
            points in proptest::collection::vec(any_point(), 1..6),
            flip in any::<usize>(),
        ) {
            let mut body = vec![kind];
            body.extend_from_slice(&tail);
            let _ = frame_at(&framed(&body), 0);
            // Near misses: a good frame with one byte of its body changed,
            // the prefix recomputed over the damage.
            let mut good = Vec::new();
            push_frame(&mut good, 1, Some(ALL_TIME), &points, &mut Vec::new())
                .expect("frame");
            let mut body = good[FRAME_HEAD..].to_vec();
            let at = flip % body.len();
            body[at] = body[at].wrapping_add(1 + (flip >> 32) as u8 % 255);
            if let Some(frame) = frame_at(&framed(&body), 0) {
                let taken: usize =
                    frame.points.iter().map(|(_, size)| *size as usize).sum();
                prop_assert!(taken < body.len());
            }
        }
    }

    // ------------------------------------------------------------------
    // The log.

    #[test]
    fn append_sync_replay_round_trips() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let pts: Vec<DataPoint> = (0..100).map(pt).collect();
        let stats = {
            let mut wal = Wal::open(&path).expect("open");
            for p in &pts {
                wal.append(p).expect("append");
            }
            wal.sync().expect("sync");
            wal.stats()
        };
        assert_eq!(series0(&path), pts);
        // One frame for the whole batch: after the 8-byte magic a 13-byte
        // prefix, the count, and 4.9 B a point where raw ones took 24.
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len(),
            8 + 13 + 1 + 490
        );
        assert_eq!((stats.live_bytes, stats.dead_bytes), (490, 14));
        assert_eq!((stats.logged_points, stats.logged_bytes), (100, 504));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert_eq!(Wal::replay(&path).expect("replay"), Replay::default());
    }

    #[test]
    fn a_batch_is_one_frame_per_series_in_one_write() {
        let (path, plan, mut wal) = traced("batch");
        for i in 0..30 {
            wal.append_for((i % 3) as u32, &pt(i)).expect("append");
        }
        assert_eq!(plan.ops(), 0, "appends only fill the pending buffer");
        wal.sync().expect("sync");
        assert_eq!(plan.trace(), vec![IoOp::WalAppend, IoOp::WalSync]);
        assert_eq!(wal.stats().frames, 3);
        let replay = Wal::replay(&path).expect("replay");
        for s in 0..3u32 {
            let want: Vec<i64> =
                (0..30).filter(|i| i % 3 == i64::from(s)).collect();
            assert_eq!(gens(&replay.series[&s]), want, "append order kept");
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_full_pending_buffer_is_written_without_an_fsync() {
        let (path, plan, mut wal) = traced("spill");
        // As many points as filled 8 KiB when they were logged raw: the
        // physical writes fall where they always fell.
        assert_eq!(SPILL_POINTS, 342);
        let per_spill = SPILL_POINTS as i64;
        for i in 0..per_spill - 1 {
            wal.append_for((i % 2) as u32, &pt(i)).expect("append");
        }
        assert_eq!(plan.ops(), 0);
        wal.append(&pt(per_spill - 1)).expect("append");
        assert_eq!(plan.trace(), vec![IoOp::WalAppend]);
        wal.append(&pt(per_spill)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(
            plan.trace(),
            vec![IoOp::WalAppend, IoOp::WalAppend, IoOp::WalSync]
        );
        assert_eq!(Wal::replay(&path).expect("replay").points(), 343);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_tail_frame_is_dropped() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).expect("open");
            wal.append(&pt(1)).expect("append");
            wal.sync().expect("sync");
            wal.append(&pt(2)).expect("append");
            wal.sync().expect("sync");
        }
        // Chop half of the last frame off.
        let data = std::fs::read(&path).expect("read");
        std::fs::write(&path, &data[..data.len() - 10]).expect("truncate");
        assert_eq!(gens(&series0(&path)), vec![1]);
        // The torn frame is the one thing lost.
        assert_eq!(Wal::replay(&path).expect("replay").dropped, 1);
        // Re-open for appending (the crash-recovery path) and keep writing:
        // the new frame must not land behind the garbage.
        {
            let mut wal = Wal::open(&path).expect("re-open repairs tail");
            wal.append(&pt(3)).expect("append");
            wal.sync().expect("sync");
        }
        assert_eq!(gens(&series0(&path)), vec![1, 3]);
        assert_eq!(Wal::replay(&path).expect("replay").dropped, 0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn open_sweeps_stale_rewrite_tmp() {
        let path = temp_path("tmp-sweep");
        let _ = std::fs::remove_file(&path);
        let tmp = path.with_extension("wal.tmp");
        std::fs::write(&tmp, b"half a rewrite").expect("stale tmp");
        let _wal = Wal::open(&path).expect("open");
        assert!(!tmp.exists(), "open must sweep rewrite debris");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn only_a_missing_or_cut_short_log_is_touched_at_open() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-wal-create-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("log.wal");
        // Created with its directory; the open-time fsyncs precede any
        // fault plan, so a plan attached afterwards has counted nothing.
        let plan = FaultPlan::trace_only(0);
        let mut wal = Wal::open(&path).expect("create");
        wal.attach_faults(Arc::clone(&plan));
        assert_eq!(std::fs::read(&path).expect("read"), MAGIC);
        wal.append(&pt(1)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(plan.trace(), vec![IoOp::WalAppend, IoOp::WalSync]);
        drop(wal);
        // A log that already exists is opened as it stands.
        let whole = std::fs::read(&path).expect("read");
        let (_, replay) = Wal::recover(&path, true).expect("reopen");
        assert_eq!(replay.points(), 1);
        assert_eq!(std::fs::read(&path).expect("read"), whole);
        // One cut short while it was being created reads as empty and gets
        // its header back.
        std::fs::write(&path, &MAGIC[..3]).expect("cut short");
        let (_, replay) = Wal::recover(&path, true).expect("reopen");
        assert_eq!(replay, Replay::default());
        assert_eq!(std::fs::read(&path).expect("read"), MAGIC);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_damaged_header_is_corruption_not_an_empty_log() {
        let path = temp_path("header");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).expect("open");
            for i in 0..3 {
                wal.append_for(i as u32, &pt(i)).expect("append");
                wal.append_for(i as u32, &pt(i + 10)).expect("append");
            }
            wal.sync().expect("sync");
        }
        let whole = std::fs::read(&path).expect("read");
        for byte in 0..MAGIC.len() {
            let mut data = whole.clone();
            data[byte] ^= 0x01;
            std::fs::write(&path, &data).expect("flip");
            assert!(matches!(Wal::replay(&path), Err(Error::Corrupt(_))));
            // Strict recovery refuses and leaves the frames in place.
            assert!(matches!(
                Wal::recover(&path, true),
                Err(Error::Corrupt(_))
            ));
            assert_eq!(std::fs::read(&path).expect("read"), data);
        }
        // Salvage counts the loss — the header, and the two points of each
        // of the three frames still standing behind it — and starts a fresh
        // log.
        let (_, replay) = Wal::recover(&path, false).expect("salvage");
        assert_eq!((replay.points(), replay.dropped), (0, 1 + 3 * 2));
        assert_eq!(std::fs::read(&path).expect("read"), MAGIC);
        // So does a log too short for a record of the oldest format: the
        // frame behind the damaged header gives it away.
        let mut tiny = MAGIC.to_vec();
        push_frame(&mut tiny, 0, None, &[pt(1)], &mut Vec::new())
            .expect("frame");
        assert!(tiny.len() < LEGACY_RECORD);
        tiny[3] ^= 0x10;
        std::fs::write(&path, &tiny).expect("tiny log");
        assert!(matches!(Wal::replay(&path), Err(Error::Corrupt(_))));
        let replay = Wal::replay_salvage(&path).expect("salvage");
        assert_eq!((replay.points(), replay.dropped), (0, 1 + 1));
        // A headerless file too short to hold one record of either format
        // is still just a first write cut short.
        std::fs::write(&path, [0xabu8; LEGACY_RECORD - 1]).expect("stub");
        let (_, replay) = Wal::recover(&path, true).expect("torn first write");
        assert_eq!(replay, Replay::default());
        assert_eq!(std::fs::read(&path).expect("read"), MAGIC);
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// Five frames of one, two, … five points, with a byte of the third
    /// one's points flipped.
    fn corrupted_mid_log(tag: &str) -> PathBuf {
        let path = temp_path(tag);
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).expect("open");
        for frame in 0..5 {
            for i in 0..=frame {
                wal.append(&pt(frame * 10 + i)).expect("append");
            }
            wal.sync().expect("sync");
        }
        let mut data = std::fs::read(&path).expect("read");
        let third = frame_starts(&data)[2];
        data[third + FRAME_HEAD + BODY_HEAD + 2] ^= 0xff;
        std::fs::write(&path, &data).expect("rewrite");
        path
    }

    #[test]
    fn mid_log_corruption_is_an_error_in_strict_and_counted_in_salvage() {
        let path = corrupted_mid_log("corrupt");
        assert!(matches!(Wal::replay(&path), Err(Error::Corrupt(_))));
        let replay = Wal::replay_salvage(&path).expect("salvage replay");
        assert_eq!(gens(&replay.series[&0]), vec![0, 10, 11]);
        // One for the damaged frame, whose count can no longer be trusted,
        // and the four and five points of the frames still whole behind it.
        assert_eq!(replay.dropped, 1 + 4 + 5);
        // Strict recovery refuses and leaves the evidence in place.
        let before = std::fs::read(&path).expect("read");
        assert!(Wal::recover(&path, true).is_err());
        assert_eq!(std::fs::read(&path).expect("read"), before);
        // Salvage recovery keeps the prefix and appends behind it.
        let (mut wal, replay) = Wal::recover(&path, false).expect("salvage");
        assert_eq!((replay.points(), replay.dropped), (3, 10));
        wal.append(&pt(9)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(gens(&series0(&path)), vec![0, 10, 11, 9]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn sync_of_a_clean_log_does_no_io() {
        let (path, plan, mut wal) = traced("clean-sync");
        wal.sync().expect("nothing appended yet");
        assert_eq!(plan.ops(), 0, "a fresh log is clean");
        wal.append(&pt(1)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(plan.trace(), vec![IoOp::WalAppend, IoOp::WalSync]);
        wal.sync().expect("second sync");
        assert_eq!(plan.ops(), 2, "back-to-back sync: zero ops");
        // A checkpoint does not make a clean log dirty; it rides on the
        // next batch.
        wal.checkpoint(0, ALL_TIME, &[pt(1)]).expect("checkpoint");
        wal.sync().expect("sync after checkpoint");
        assert_eq!(plan.ops(), 2);
        wal.append(&pt(2)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(plan.trace()[2..], [IoOp::WalAppend, IoOp::WalSync]);
        assert_eq!(gens(&series0(&path)), vec![1, 2]);
        // A flush that leaves nothing of the series in the log took the
        // unsynced points into its tables: the series has nothing left to
        // sync — but another series still does.
        wal.append(&pt(3)).expect("append");
        wal.checkpoint(0, range(1, 3), &[]).expect("checkpoint");
        wal.sync().expect("sync");
        assert_eq!(plan.ops(), 4);
        wal.append_for(1, &pt(4)).expect("append");
        wal.append(&pt(5)).expect("append");
        wal.checkpoint(0, range(5, 5), &[]).expect("checkpoint");
        wal.sync().expect("sync");
        assert_eq!(plan.trace()[4..], [IoOp::WalAppend, IoOp::WalSync]);
        let replay = Wal::replay(&path).expect("replay");
        assert_eq!(replay.series, BTreeMap::from([(1, vec![pt(4)])]));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_checkpoint_supersedes_its_series_only() {
        let (path, _plan, mut wal) = traced("checkpoint");
        let (mut ones, mut twos) = (Vec::new(), Vec::new());
        for i in 0..4 {
            wal.append_for(1, &pt(i)).expect("append");
            wal.append_for(2, &pt(10 + i)).expect("append");
            ones.push(pt(i));
            twos.push(pt(10 + i));
        }
        wal.sync().expect("sync");
        wal.append_for(1, &pt(4)).expect("append");
        wal.append_for(1, &pt(9)).expect("append");
        // Series 1 flushed [1, 4] except point 3: the pending point 4 went
        // into the tables, so it must not come back; point 0 below the range
        // and the pending point 9 above it are none of the flush's business.
        wal.checkpoint(1, range(1, 4), &[pt(3)])
            .expect("checkpoint");
        wal.append_for(1, &pt(5)).expect("append");
        wal.sync().expect("sync");
        let replay = Wal::replay(&path).expect("replay");
        assert_eq!(gens(&replay.series[&1]), vec![0, 3, 9, 5]);
        assert_eq!(gens(&replay.series[&2]), vec![10, 11, 12, 13]);
        // Two 4-point frames, the checkpoint carrying one point, one
        // 2-point frame. Live: point 0 as the first of its frame, 3 as the
        // checkpoint's only one, 9 and 5 in theirs, and all of series 2.
        let stats = wal.stats();
        assert_eq!(
            stats.live_bytes,
            packed(&[pt(0)]).1
                + packed(&[pt(3)]).1
                + packed(&[pt(9), pt(5)]).1
                + packed(&twos).1
        );
        assert_eq!(
            stats.live_bytes + stats.dead_bytes,
            frame_size(None, &ones)
                + frame_size(None, &twos)
                + frame_size(Some(range(1, 4)), &[pt(3)])
                + frame_size(None, &[pt(9), pt(5)])
        );
        assert_eq!((stats.frames, stats.cuts), (4, 0));
        assert_eq!(stats.relogged_bytes, packed(&[pt(3)]).1);
        assert_eq!(stats.logged_points, 4 + 4 + 2, "point 4 never was");
        assert_eq!(stats.logged_bytes, stats.live_bytes + stats.dead_bytes);
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len(),
            8 + stats.live_bytes + stats.dead_bytes
        );
        assert_accounting(&wal);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn out_of_range_pending_points_stay_owed_to_the_next_sync() {
        let (path, plan, mut wal) = traced("owed");
        wal.append(&pt(1)).expect("append");
        wal.append(&pt(50)).expect("append");
        // The flush took point 1 before it was ever written: it never
        // reaches the file. Point 50 is still only in memory.
        wal.checkpoint(0, range(0, 10), &[]).expect("checkpoint");
        assert_eq!(plan.ops(), 0);
        wal.sync().expect("sync");
        assert_eq!(plan.trace(), vec![IoOp::WalAppend, IoOp::WalSync]);
        assert_eq!(gens(&series0(&path)), vec![50]);
        // The empty checkpoint, then a frame of one five-byte point.
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len(),
            8 + 29 + (13 + 1 + 5)
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn overwrites_of_one_generation_time_replay_last_writer_last() {
        let (path, _plan, mut wal) = traced("overwrite");
        let v = |gen_time, value| DataPoint::new(gen_time, 0, value);
        wal.append(&v(5, 1.0)).expect("append");
        wal.append(&v(7, 1.0)).expect("append");
        wal.sync().expect("sync");
        wal.append(&v(5, 2.0)).expect("append");
        wal.sync().expect("sync");
        // A flush of [6, 8] leaves both writes of 5 where they are; one of
        // [5, 5] that finds a third write buffered carries only that one.
        wal.checkpoint(0, range(6, 8), &[]).expect("checkpoint");
        wal.append(&v(5, 3.0)).expect("append");
        wal.sync().expect("sync");
        let values = |points: &[DataPoint]| -> Vec<f64> {
            points.iter().map(|p| p.value).collect()
        };
        assert_eq!(values(&series0(&path)), vec![1.0, 2.0, 3.0]);
        wal.checkpoint(0, range(5, 5), &[v(5, 3.0)])
            .expect("checkpoint");
        wal.append(&v(5, 4.0)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(values(&series0(&path)), vec![3.0, 4.0]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// A log whose first half an older build wrote — raw points frames, a
    /// checkpoint of all time, a range checkpoint — and whose second half
    /// this build appends replays as one log.
    #[test]
    fn an_older_build_s_checkpoint_reads_as_one_of_all_time() {
        let path = temp_path("old-kinds");
        let mut data = MAGIC.to_vec();
        let mut old = |kind, series, flushed, points: &[DataPoint]| {
            data.extend(raw_frame(kind, series, flushed, points));
        };
        old(KIND_RAW_POINTS, 0, None, &[pt(1), pt(2), pt(3)]);
        old(KIND_RAW_POINTS, 1, None, &[pt(4)]);
        old(KIND_RAW_CHECKPOINT_ALL, 0, None, &[pt(2)]);
        old(KIND_RAW_POINTS, 0, None, &[pt(5), pt(8)]);
        old(KIND_RAW_CHECKPOINT, 0, Some(range(6, 9)), &[pt(9)]);
        std::fs::write(&path, &data).expect("old log");
        let replay = Wal::replay(&path).expect("replay");
        assert_eq!(gens(&replay.series[&0]), vec![2, 5, 9]);
        assert_eq!(gens(&replay.series[&1]), vec![4]);
        // Opened as it stands, accounted point by point — a raw point is
        // 24 bytes — and continued with this build's kinds.
        let (mut wal, replay) = Wal::recover(&path, true).expect("recover");
        assert_eq!(replay.points(), 4);
        assert_eq!(std::fs::read(&path).expect("read"), data);
        let stats = wal.stats();
        assert_eq!(stats.live_bytes, 4 * 24);
        assert_eq!(stats.dead_bytes, data.len() as u64 - 8 - 4 * 24);
        assert_accounting(&wal);
        wal.append(&pt(6)).expect("append");
        wal.checkpoint(0, range(5, 6), &[]).expect("checkpoint");
        wal.append(&pt(7)).expect("append");
        wal.append_for(1, &pt(3)).expect("append");
        wal.sync().expect("sync");
        assert_accounting(&wal);
        // The new checkpoint superseded a raw point; raw and packed points
        // of one series replay in the order they were written.
        let replay = Wal::replay(&path).expect("replay");
        assert_eq!(gens(&replay.series[&0]), vec![2, 9, 7]);
        assert_eq!(gens(&replay.series[&1]), vec![4, 3]);
        let written = std::fs::read(&path).expect("read");
        assert_eq!(written[..data.len()], data, "the old half is untouched");
        let kinds: Vec<u8> = frame_starts(&written)
            .iter()
            .map(|start| written[start + FRAME_HEAD])
            .collect();
        assert_eq!(kinds, [0, 0, 1, 0, 2, 4, 3, 3]);
        // A cut leaves nothing of the old kinds behind.
        wal.rewrite(&[(0, vec![pt(9), pt(7)])]).expect("cut");
        let written = std::fs::read(&path).expect("read");
        assert_eq!(frame_starts(&written).len(), 1);
        assert_eq!(written[MAGIC.len() + FRAME_HEAD], KIND_CHECKPOINT);
        assert_eq!(gens(&series0(&path)), vec![9, 7]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn the_empty_cut_truncates_in_place_with_one_fsync() {
        let (path, plan, mut wal) = traced("in-place");
        for i in 0..10 {
            wal.append(&pt(i)).expect("append");
        }
        wal.sync().expect("sync");
        // Pending points and queued frames are cut with the rest.
        wal.append(&pt(10)).expect("append");
        wal.checkpoint(0, ALL_TIME, &[]).expect("checkpoint");
        let before = plan.ops() as usize;
        wal.rewrite(&[]).expect("cut");
        assert_eq!(
            plan.trace()[before..],
            [IoOp::WalRewrite],
            "no rename, no directory fsync"
        );
        assert!(!path.with_extension("wal.tmp").exists());
        assert_eq!(std::fs::read(&path).expect("read"), MAGIC);
        assert_eq!(wal.stats().cuts, 1);
        // The log is clean and at rest: neither a sync nor a second cut
        // costs anything.
        wal.sync().expect("sync");
        wal.rewrite(&[(0, vec![])]).expect("cut");
        assert_eq!(plan.ops() as usize, before + 1);
        // Appends continue at the new end of the same file.
        wal.append(&pt(20)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(gens(&series0(&path)), vec![20]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_cut_with_survivors_replaces_the_file() {
        let (path, plan, mut wal) = traced("replace");
        for i in 0..10 {
            wal.append_for(1, &pt(i)).expect("append");
            wal.append_for(2, &pt(i)).expect("append");
        }
        wal.sync().expect("sync");
        let before = plan.ops() as usize;
        wal.rewrite(&[
            (1, vec![pt(100)]),
            (2, vec![]),
            (3, vec![pt(300), pt(301)]),
        ])
        .expect("cut");
        assert_eq!(
            plan.trace()[before..],
            [IoOp::WalRewrite, IoOp::WalRename, IoOp::DirSync]
        );
        assert_accounting(&wal);
        wal.append_for(1, &pt(200)).expect("append");
        wal.sync().expect("sync");
        let replay = Wal::replay(&path).expect("replay");
        assert_eq!(gens(&replay.series[&1]), vec![100, 200]);
        assert!(!replay.series.contains_key(&2));
        assert_eq!(gens(&replay.series[&3]), vec![300, 301]);
        // Two checkpoint frames and one points frame, each with its count,
        // hold four live points.
        let stats = wal.stats();
        assert_eq!(
            stats.live_bytes,
            packed(&[pt(100)]).1
                + packed(&[pt(300), pt(301)]).1
                + packed(&[pt(200)]).1
        );
        assert_eq!(stats.dead_bytes, 2 * (29 + 1) + (13 + 1));
        assert_eq!(stats.relogged_bytes, 0, "a cut's copy is not a re-log");
        assert_accounting(&wal);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_cut_is_due_only_past_the_dead_bytes_threshold() {
        let (path, _plan, mut wal) = traced("cut-due");
        let batch: Vec<DataPoint> = (0..100).map(pt).collect();
        let mut due = false;
        while !due {
            for p in &batch {
                wal.append(p).expect("append");
            }
            wal.sync().expect("sync");
            due = wal.checkpoint(0, range(0, 99), &[]).expect("checkpoint");
            let dead = wal.stats().dead_bytes;
            assert_eq!(due, dead > CUT_FLOOR, "{dead} dead bytes");
        }
        // With many live bytes the bar is 8 × live, not the floor.
        let live: Vec<DataPoint> = (0..4000).map(pt).collect();
        assert!(packed(&live).1 * CUT_FACTOR > 2 * CUT_FLOOR);
        assert!(!wal.checkpoint(0, ALL_TIME, &live).expect("checkpoint"));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_fixed_record_log_is_read_and_rewritten_framed() {
        let path = temp_path("legacy");
        let mut data = Vec::new();
        for i in 0..5 {
            data.extend(legacy_record(&pt(i)));
        }
        // A torn sixth record.
        data.extend_from_slice(&legacy_record(&pt(5))[..10]);
        std::fs::write(&path, &data).expect("legacy log");
        assert_eq!(gens(&series0(&path)), vec![0, 1, 2, 3, 4]);
        let (mut wal, replay) = Wal::recover(&path, true).expect("recover");
        assert_eq!(gens(&replay.series[&0]), vec![0, 1, 2, 3, 4]);
        assert!(std::fs::read(&path).expect("read").starts_with(&MAGIC));
        assert_accounting(&wal);
        wal.append(&pt(9)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(gens(&series0(&path)), vec![0, 1, 2, 3, 4, 9]);
        // Damage in front of valid records is still corruption.
        data[LEGACY_RECORD + 8] ^= 0xff;
        std::fs::write(&path, &data).expect("corrupt legacy log");
        assert!(Wal::replay(&path).is_err());
        assert!(Wal::recover(&path, true).is_err());
        let replay = Wal::replay_salvage(&path).expect("salvage");
        assert_eq!((replay.points(), replay.dropped), (1, 4));
        std::fs::remove_file(&path).expect("cleanup");
    }

    // ------------------------------------------------------------------
    // Model-based property: whatever a crash leaves of the file, replay
    // returns exactly what the frames that are wholly there amount to, and
    // that is never less than what the owner still needed.

    #[derive(Debug, Clone)]
    enum Op {
        Append {
            series: u32,
            gen_time: i64,
        },
        /// Flush the points of `series` inside `[lo, hi]`, except every
        /// `keep`-th of them (none kept for 0), which stay buffered.
        Checkpoint {
            series: u32,
            lo: i64,
            hi: i64,
            keep: usize,
        },
        Sync,
        Cut,
        Reopen,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Half the ops append; few generation times, so a series logs the
        // same one twice.
        (0u8..12, 0u32..3, 0i64..6, 0i64..6, 0usize..4).prop_map(
            |(kind, series, a, b, keep)| match kind {
                0..=5 => Op::Append {
                    series,
                    gen_time: a,
                },
                6..=7 => Op::Checkpoint {
                    series,
                    lo: a.min(b),
                    hi: a.max(b),
                    keep,
                },
                8..=9 => Op::Sync,
                10 => Op::Cut,
                _ => Op::Reopen,
            },
        )
    }

    type Contents = BTreeMap<u32, Vec<DataPoint>>;

    /// One frame of the model.
    #[derive(Debug, Clone)]
    struct ModelFrame {
        series: u32,
        superseded: Option<TimeRange>,
        points: Vec<DataPoint>,
    }

    impl ModelFrame {
        fn size(&self) -> usize {
            frame_size(self.superseded, &self.points) as usize
        }
    }

    /// What replay must return when the file holds exactly `frames`.
    fn fold<'a>(frames: impl IntoIterator<Item = &'a ModelFrame>) -> Contents {
        let mut out = Contents::new();
        for f in frames {
            let points = out.entry(f.series).or_default();
            if let Some(range) = f.superseded {
                points.retain(|p| !range.contains(p.gen_time));
            }
            points.extend(f.points.iter().copied());
        }
        out.retain(|_, points| !points.is_empty());
        out
    }

    /// The log's owner and the file, as the format documents them.
    #[derive(Default)]
    struct Model {
        /// What the owner still holds in memory, per series, in the order
        /// replay would return it.
        buffers: Contents,
        /// What the owner flushed into (imagined) committed tables.
        flushed: Vec<(u32, DataPoint)>,
        /// `buffers` as of the last sync that reached the disk: what a
        /// crash may not lose unless it is in `flushed`.
        acknowledged: Vec<(u32, DataPoint)>,
        pending: Contents,
        queued: Vec<ModelFrame>,
        file: Vec<ModelFrame>,
        /// Frames of `file` a crash cannot take away.
        synced: usize,
        /// Series with points appended since the last sync that no
        /// checkpoint has since found flushed.
        unsynced: std::collections::BTreeSet<u32>,
    }

    impl Model {
        fn write_out(&mut self) {
            for (series, points) in std::mem::take(&mut self.pending) {
                if !points.is_empty() {
                    self.queued.push(ModelFrame {
                        series,
                        superseded: None,
                        points,
                    });
                }
            }
            self.file.append(&mut self.queued);
        }

        fn volatile(&self) -> Vec<(u32, DataPoint)> {
            self.buffers
                .iter()
                .flat_map(|(s, points)| points.iter().map(|p| (*s, *p)))
                .collect()
        }
    }

    /// The model's points are told apart by their arrival time.
    fn holds(contents: &Contents, series: u32, p: &DataPoint) -> bool {
        contents
            .get(&series)
            .is_some_and(|points| points.contains(p))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn replay_is_the_frames_since_each_last_intact_checkpoint(
            ops in proptest::collection::vec(op(), 1..40),
            case in 0u32..u32::MAX,
        ) {
            let path = temp_path(&format!("model-{case}"));
            let cut_copy = temp_path(&format!("model-{case}-cut"));
            let _ = std::fs::remove_file(&path);
            let mut wal = Wal::open(&path).expect("open");
            let mut model = Model::default();
            let mut clock = 0i64;
            for op in ops {
                match op {
                    Op::Append { series, gen_time } => {
                        clock += 1;
                        // Arrivals that jump, delays of either sign, values
                        // that repeat and values that share no bit.
                        let arrival = clock * (1 + i64::from(series) * 1000);
                        let value = match clock % 4 {
                            0 => f64::from_bits(
                                0x9e37_79b9_7f4a_7c15u64
                                    .wrapping_mul(clock as u64),
                            ),
                            _ => (clock / 4) as f64,
                        };
                        // (The model compares points with `==`.)
                        let value = if value.is_nan() { 0.5 } else { value };
                        let p = DataPoint::new(gen_time, arrival, value);
                        wal.append_for(series, &p).expect("append");
                        model.pending.entry(series).or_default().push(p);
                        model.buffers.entry(series).or_default().push(p);
                        model.unsynced.insert(series);
                    }
                    Op::Checkpoint { series, lo, hi, keep } => {
                        let flushed = range(lo, hi);
                        let buffer = model.buffers.entry(series).or_default();
                        let (inside, outside): (Vec<DataPoint>, Vec<_>) =
                            buffer
                                .iter()
                                .copied()
                                .partition(|p| flushed.contains(p.gen_time));
                        // Whole generation times stay or go: an owner keeps
                        // one value per generation time.
                        let (survivors, gone): (Vec<DataPoint>, Vec<_>) =
                            inside.into_iter().partition(|p| {
                                keep > 0 && p.gen_time % keep as i64 == 0
                            });
                        wal.checkpoint(series, flushed, &survivors)
                            .expect("checkpoint");
                        *buffer = outside;
                        buffer.extend(&survivors);
                        model.flushed.extend(gone.iter().map(|p| (series, *p)));
                        if let Some(pending) = model.pending.get_mut(&series) {
                            pending.retain(|p| !flushed.contains(p.gen_time));
                        }
                        model.queued.push(ModelFrame {
                            series,
                            superseded: Some(flushed),
                            points: survivors,
                        });
                        let logged = fold(model.file.iter().chain(&model.queued));
                        let pending = model.pending.get(&series);
                        if !logged.contains_key(&series)
                            && pending.is_none_or(Vec::is_empty)
                        {
                            model.unsynced.remove(&series);
                        }
                    }
                    Op::Sync => {
                        wal.sync().expect("sync");
                        if !model.unsynced.is_empty() {
                            model.write_out();
                            model.synced = model.file.len();
                            model.unsynced.clear();
                            model.acknowledged = model.volatile();
                        }
                    }
                    Op::Cut => {
                        let live: Vec<(u32, Vec<DataPoint>)> =
                            model.buffers.clone().into_iter().collect();
                        wal.rewrite(&live).expect("cut");
                        model.file = live
                            .into_iter()
                            .filter(|(_, points)| !points.is_empty())
                            .map(|(series, points)| ModelFrame {
                                series,
                                superseded: Some(ALL_TIME),
                                points,
                            })
                            .collect();
                        model.synced = model.file.len();
                        model.pending.clear();
                        model.queued.clear();
                        model.unsynced.clear();
                        model.acknowledged = model.volatile();
                    }
                    Op::Reopen => {
                        // Dropped without a sync: only what was written
                        // is there, and the owner restarts from it.
                        drop(wal);
                        let (reopened, replay) =
                            Wal::recover(&path, true).expect("recover");
                        wal = reopened;
                        model.pending.clear();
                        model.queued.clear();
                        model.unsynced.clear();
                        model.buffers = fold(&model.file);
                        model.acknowledged = model.volatile();
                        prop_assert_eq!(&replay.series, &model.buffers);
                    }
                }
                // After every step the accounting is what a fresh parse of
                // the logical log recomputes.
                assert_accounting(&wal);
            }
            // Everything the owner holds and the log has sealed is what the
            // logical log replays to, point for point.
            let mut sealed = model.buffers.clone();
            for (series, pending) in &model.pending {
                if let Some(points) = sealed.get_mut(series) {
                    points.retain(|p| !pending.contains(p));
                }
            }
            let sorted = |mut contents: Contents| {
                contents.retain(|_, points| !points.is_empty());
                for points in contents.values_mut() {
                    points.sort_by_key(|p| p.arrival_time);
                }
                contents
            };
            prop_assert_eq!(
                sorted(fold(model.file.iter().chain(&model.queued))),
                sorted(sealed)
            );
            drop(wal);
            // Everything ever written is in the file; a crash keeps at
            // least the synced frames and any prefix of the rest.
            let data = std::fs::read(&path).expect("read");
            let mut ends = vec![MAGIC.len()];
            for f in &model.file {
                ends.push(ends[ends.len() - 1] + f.size());
            }
            prop_assert_eq!(data.len(), ends[ends.len() - 1]);
            for cut in ends[model.synced]..=data.len() {
                std::fs::write(&cut_copy, &data[..cut]).expect("cut copy");
                let whole = ends.iter().filter(|end| **end <= cut).count() - 1;
                let replay = Wal::replay(&cut_copy).expect("strict replay");
                prop_assert_eq!(
                    &replay.series,
                    &fold(&model.file[..whole]),
                    "file cut at byte {} of {}", cut, data.len()
                );
                // A torn checkpoint is ignored whole: never less than what
                // was acknowledged and is not in a table.
                for (series, p) in &model.acknowledged {
                    prop_assert!(
                        holds(&replay.series, *series, p)
                            || model.flushed.contains(&(*series, *p)),
                        "file cut at byte {} of {} lost {:?}",
                        cut, data.len(), p
                    );
                }
            }
            // A damaged range never widens what a checkpoint supersedes:
            // the frame stops being one, which is corruption in front of
            // valid frames and a torn tail at the end.
            for (i, f) in model.file.iter().enumerate() {
                if f.superseded.is_none() {
                    continue;
                }
                let before = fold(&model.file[..i]);
                for byte in 0..RANGE {
                    let mut damaged = data.clone();
                    damaged[ends[i] + FRAME_HEAD + BODY_HEAD + byte] ^= 0x40;
                    std::fs::write(&cut_copy, &damaged).expect("damaged copy");
                    match Wal::replay(&cut_copy) {
                        Ok(replay) => {
                            prop_assert_eq!(i + 1, model.file.len());
                            prop_assert_eq!(&replay.series, &before);
                        }
                        Err(e) => prop_assert!(matches!(e, Error::Corrupt(_))),
                    }
                    let salvaged =
                        Wal::replay_salvage(&cut_copy).expect("salvage");
                    prop_assert_eq!(&salvaged.series, &before);
                }
            }
            let _ = std::fs::remove_file(&cut_copy);
            std::fs::remove_file(&path).expect("cleanup");
        }
    }
}
