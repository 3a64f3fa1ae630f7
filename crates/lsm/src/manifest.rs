//! The manifest: a durable log of table membership.
//!
//! Recovery without a manifest rebuilds the level-1 run by reading and
//! describing every stored table — O(data). The manifest makes recovery
//! O(metadata): every table added to or removed from the run or L0 is
//! logged as a fixed-size checksummed record.
//!
//! **Series.** One log serves one engine or a whole fleet. Every change
//! belongs to a series, keyed by `Option<u32>`: `None` is the one unnamed
//! series of an engine's own log, `Some(n)` series `n` of a fleet's shared
//! log. The format is the same for both; only a group header's `count`
//! field tells them apart (zero for the unnamed series, `n + 1` for series
//! `n`), so an engine's log holds the bytes it held before fleets shared
//! one. A header is covered by its own record CRC, so damage to the series
//! field is damage to the log, never another series' tables.
//!
//! **Edit groups.** A flush or merge changes several tables at once, and a
//! half-applied change (outputs added, inputs not yet removed) is not a
//! state the engine was ever in. [`Manifest::commit_groups`] therefore
//! appends each series' change as one *edit group* — a header record
//! carrying the body's record count and CRC-32, then the body records —
//! and the groups of every series in a single write, followed by one fsync:
//! no tmp file, no rename, no directory fsync. Replay applies a group all
//! or nothing: a group whose body is incomplete or fails its CRC at the
//! tail of the log is dropped whole (a torn commit), and [`Manifest::open`]
//! truncates it away before anything is appended behind it. A lone edit of
//! the unnamed series needs no header — one record is already atomic — so
//! logs written before groups existed are the degenerate case of this
//! format and replay unchanged. A named series' change always carries its
//! header, and a header with no body announces a series that holds no
//! table yet.
//!
//! **Compaction.** Removed tables leave dead records behind (their add,
//! the remove, group headers). When a commit would leave them outnumbering
//! the live ones, it rewrites the log from the live tables instead
//! ([`Manifest::rewrite`]: tmp file, fsync, rename, directory fsync); a
//! shared log, whose rewrite copies every series' tables, waits until the
//! dead records outnumber the live ones several times over. Owners also
//! rewrite at open and compact at rest ([`Manifest::compact`]), so a log at
//! rest holds exactly one record per live table plus one header per named
//! series, and stays proportional to the live table count.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use seplsm_types::{Error, Result, TimeRange};

use crate::codec;
use crate::fault::{self, FaultPlan, IoOp};
use crate::obs::{Event, ManifestRecordKind, ObserverHandle};
use crate::sstable::crc32::crc32;
use crate::sstable::{SsTableId, SsTableMeta};
use crate::store::sync_dir;

const TAG_ADD: u8 = 1;
const TAG_REMOVE: u8 = 2;
/// A table joining L0 (tiered engines).
const TAG_ADD_L0: u8 = 3;
/// Header of an edit group: the id field holds the number of body records
/// that follow, the first four bytes after it the CRC-32 of the body, the
/// count field the group's series + 1 (zero: the unnamed series).
const TAG_GROUP: u8 = 4;
/// Every L0 table leaves at once (a merge drained L0).
const TAG_DRAIN_L0: u8 = 5;
/// Record payload: tag(1) + id(8) + start(8) + end(8) + count(4).
const PAYLOAD: usize = 29;
/// Record: payload + crc32.
const RECORD: usize = PAYLOAD + 4;
/// Dead records a log may always carry before a commit turns into a
/// rewrite, so a log of a handful of tables is not rewritten on every merge.
const COMPACT_MIN_DEAD: u64 = 32;
/// A shared log is rewritten once its dead records outnumber the live ones
/// this many times: its rewrite copies every series' tables, so the copy
/// traffic stays below 1/`FLEET_DEAD_FACTOR` of what the commits appended.
const FLEET_DEAD_FACTOR: u64 = 4;

/// The live tables of one series: `(run, l0)`, each in log order.
pub type Levels = (Vec<SsTableMeta>, Vec<SsTableMeta>);

/// One series' live tables: what a commit weighs the log's dead records
/// against, and what a rewrite keeps.
#[derive(Debug, Clone, Copy)]
pub struct SeriesTables<'a> {
    /// The series the tables belong to: `None` for an engine's own log.
    pub series: Option<u32>,
    /// Its run, in range order.
    pub run: &'a [SsTableMeta],
    /// Its L0, in flush order.
    pub l0: &'a [SsTableMeta],
}

impl SeriesTables<'_> {
    /// Records a rewrite keeps for the series: one per live table, plus
    /// the header of a named series.
    fn records(&self) -> u64 {
        (self.run.len() + self.l0.len()) as u64
            + u64::from(self.series.is_some())
    }
}

/// Size and history of a manifest, for `seplsm stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManifestStats {
    /// Records in the file — live, dead and group headers alike.
    pub records: u64,
    /// Records a rewrite would keep, as of the last commit or rewrite: one
    /// per live table, plus one header per named series.
    pub live: u64,
    /// Commits made durable since the log was opened: one per append and
    /// fsync, however many series' groups it carried.
    pub commits: u64,
    /// Times the log was rewritten from the live tables since it was opened.
    pub rewrites: u64,
}

/// One table-membership change; [`Manifest::commit_groups`] logs a slice of
/// them as one atomic edit group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestEdit {
    /// A table joins the run.
    Add(SsTableMeta),
    /// A table joins L0.
    AddL0(SsTableMeta),
    /// A table leaves whichever level holds it.
    Remove(SsTableId),
    /// Every L0 table leaves.
    DrainL0,
}

impl ManifestEdit {
    fn encode(&self) -> [u8; RECORD] {
        let gone = TimeRange::new(0, 0);
        match self {
            Self::Add(m) => encode_record(TAG_ADD, m.id.0, m.range, m.count),
            Self::AddL0(m) => {
                encode_record(TAG_ADD_L0, m.id.0, m.range, m.count)
            }
            Self::Remove(id) => encode_record(TAG_REMOVE, id.0, gone, 0),
            Self::DrainL0 => encode_record(TAG_DRAIN_L0, 0, gone, 0),
        }
    }

    fn kind(&self) -> ManifestRecordKind {
        match self {
            Self::Add(_) => ManifestRecordKind::Add,
            Self::AddL0(_) => ManifestRecordKind::AddL0,
            Self::Remove(_) => ManifestRecordKind::Remove,
            Self::DrainL0 => ManifestRecordKind::DrainL0,
        }
    }
}

fn encode_record(
    tag: u8,
    id: u64,
    range: TimeRange,
    count: u32,
) -> [u8; RECORD] {
    let mut rec = [0u8; RECORD];
    rec[0] = tag;
    rec[1..9].copy_from_slice(&id.to_le_bytes());
    rec[9..17].copy_from_slice(&range.start.to_le_bytes());
    rec[17..25].copy_from_slice(&range.end.to_le_bytes());
    rec[25..29].copy_from_slice(&count.to_le_bytes());
    let crc = crc32(&rec[..PAYLOAD]);
    rec[PAYLOAD..].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// The header record of a group of series `tag - 1` (zero: the unnamed
/// series) whose body is `body`.
fn encode_group_header(body: &[u8], tag: u32) -> [u8; RECORD] {
    let records = (body.len() / RECORD) as u64;
    let start = i64::from(crc32(body));
    encode_record(TAG_GROUP, records, TimeRange::new(start, start), tag)
}

/// Appends `edits` of `series` to `buf` as one unit: a lone edit of the
/// unnamed series as itself, anything else — a longer change, or any change
/// of a named series — behind a group header tagged `series + 1` (zero:
/// the unnamed series).
fn encode_unit(
    buf: &mut Vec<u8>,
    series: Option<u32>,
    edits: &[ManifestEdit],
) -> Result<()> {
    let tag = match (series, edits) {
        (None, [edit]) => {
            buf.extend_from_slice(&edit.encode());
            return Ok(());
        }
        (None, _) => 0,
        (Some(n), _) => n.checked_add(1).ok_or_else(|| {
            Error::InvalidConfig(format!(
                "series {n} cannot be named in a manifest"
            ))
        })?,
    };
    // The header's slot: it goes first but is computed from the body.
    let header_at = buf.len();
    buf.extend_from_slice(&[0u8; RECORD]);
    for edit in edits {
        buf.extend_from_slice(&edit.encode());
    }
    let header = encode_group_header(&buf[header_at + RECORD..], tag);
    buf[header_at..header_at + RECORD].copy_from_slice(&header);
    Ok(())
}

fn record_ok(rec: &[u8]) -> bool {
    let stored = u32::from_le_bytes([
        rec[PAYLOAD],
        rec[PAYLOAD + 1],
        rec[PAYLOAD + 2],
        rec[PAYLOAD + 3],
    ]);
    stored == crc32(&rec[..PAYLOAD])
}

/// The CRC-valid record starting at `offset`, if `data` holds one.
fn record_at(data: &[u8], offset: usize) -> Option<&[u8]> {
    let rec = data.get(offset..offset.checked_add(RECORD)?)?;
    record_ok(rec).then_some(rec)
}

/// Byte length of the body the group header `rec` announces, or `None` for
/// any other record (or a length no file could hold).
fn group_body_len(rec: &[u8]) -> Option<usize> {
    if rec[0] != TAG_GROUP {
        return None;
    }
    let records = usize::try_from(codec::read_u64_le(rec, 1).ok()?).ok()?;
    records.checked_mul(RECORD)
}

/// `true` when the group announced by `header` is wholly present at
/// `body_start`: every body record CRC-valid, and the body CRC matching.
fn group_complete(
    data: &[u8],
    header: &[u8],
    body_start: usize,
    body_len: usize,
) -> bool {
    let Some(body) = body_start
        .checked_add(body_len)
        .and_then(|end| data.get(body_start..end))
    else {
        return false;
    };
    let stored = codec::read_i64_le(header, 9).ok();
    body.chunks(RECORD).all(record_ok) && stored == Some(i64::from(crc32(body)))
}

/// Walks `data` as a sequence of *units* — a single record, or a group
/// header plus its body. Returns `(good_len, tail_is_garbage)`: `good_len`
/// is the byte length of the contiguous prefix of complete, CRC-valid
/// units, and `tail_is_garbage` is true when no CRC-valid record exists at
/// any record-aligned offset past the one damaged unit that follows it —
/// i.e. the damage is a torn tail, not corruption in front of valid data.
fn scan(data: &[u8]) -> (usize, bool) {
    let mut good_len = 0;
    // Extent of the damaged unit at `good_len`: one record, or a whole
    // group when its (valid) header says how far the torn commit reached.
    let mut damaged = RECORD;
    while let Some(rec) = record_at(data, good_len) {
        let body_start = good_len + RECORD;
        match group_body_len(rec) {
            None => good_len = body_start,
            Some(body_len)
                if group_complete(data, rec, body_start, body_len) =>
            {
                good_len = body_start + body_len;
            }
            Some(body_len) => {
                damaged = RECORD.saturating_add(body_len);
                break;
            }
        }
    }
    let mut offset = good_len.saturating_add(damaged);
    while offset < data.len() {
        if record_at(data, offset).is_some() {
            return (good_len, false);
        }
        offset += RECORD;
    }
    (good_len, true)
}

/// An append-only, checksummed log of table-membership changes.
pub struct Manifest {
    file: File,
    path: PathBuf,
    /// Records in the log file — live, dead and group headers alike.
    records: u64,
    /// Records a rewrite would keep, as of the last change recorded with
    /// its levels.
    live: u64,
    commits: u64,
    rewrites: u64,
    /// A commit or a rewrite failed part-way: the same change will be
    /// offered again, and the tail of the file may already hold it (or the
    /// file may be one a rewrite replaced). The next commit
    /// rewrites the log instead of appending behind that.
    tail_in_doubt: bool,
    faults: Option<Arc<FaultPlan>>,
    obs: ObserverHandle,
}

impl std::fmt::Debug for Manifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manifest")
            .field("path", &self.path)
            .finish()
    }
}

impl Manifest {
    /// Opens (creating if needed) the manifest at `path` for appending.
    ///
    /// Stale `manifest.tmp` debris from a crashed rewrite is swept, and a
    /// torn tail (a garbage final stretch or an incomplete edit group with
    /// nothing valid after it) is truncated back to the last complete unit
    /// so appends never land after garbage or inside a dead group's body.
    /// Mid-log corruption is left for replay to report.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("manifest.tmp");
        match std::fs::remove_file(&tmp) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let len = Self::repair_tail(&path)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            file,
            path,
            records: (len / RECORD) as u64,
            live: 0,
            commits: 0,
            rewrites: 0,
            tail_in_doubt: false,
            faults: None,
            obs: ObserverHandle::detached(),
        })
    }

    /// Truncates `path` to its last complete unit when the tail is
    /// garbage-only; no-op for a missing, clean, or mid-log-corrupt file.
    /// Returns the file's resulting length.
    fn repair_tail(path: &Path) -> Result<usize> {
        let Some(data) = Self::read_log(path)? else {
            return Ok(0);
        };
        let (good_len, tail_is_garbage) = scan(&data);
        if tail_is_garbage && good_len < data.len() {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(good_len as u64)?;
            // Open-time repair: no fault plan (the I/O-op counter) can be
            // attached to a manifest that does not exist yet.
            // seplint: allow(R6): un-hookable, runs before attach_faults
            f.sync_all()?;
            return Ok(good_len);
        }
        Ok(data.len())
    }

    /// Attaches a fault plan: every subsequent append/sync/rewrite consults
    /// the plan first. Used by the crash-schedule harness.
    pub fn attach_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Attaches an observer: every logged record and rewrite emits an
    /// [`Event::ManifestRecord`].
    pub fn attach_observer(&mut self, obs: ObserverHandle) {
        self.obs = obs;
    }

    /// Path of the manifest file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records, live records, commits and rewrites of this log.
    pub fn stats(&self) -> ManifestStats {
        ManifestStats {
            records: self.records,
            live: self.live,
            commits: self.commits,
            rewrites: self.rewrites,
        }
    }

    /// `true` when appending `added` more records to a log that will then
    /// mirror `live` live ones would leave the dead records outnumbering
    /// the live ones `factor` times over (past a small fixed allowance):
    /// rewriting the log from the live tables is then the cheaper way to
    /// record the change.
    fn compaction_due(&self, added: usize, live: u64, factor: u64) -> bool {
        let records = self.records + added as u64;
        records.saturating_sub(live) > (factor * live).max(COMPACT_MIN_DEAD)
    }

    /// Appends `buf` — whole units carrying `edits` — to the file in one
    /// write; [`Manifest::sync`] makes it durable. A torn write leaves a
    /// prefix of it in the file.
    fn append<'a>(
        &mut self,
        buf: &[u8],
        edits: impl Iterator<Item = &'a ManifestEdit>,
    ) -> Result<()> {
        fault::write_hooked(
            self.faults.as_ref(),
            IoOp::ManifestAppend,
            &self.path,
            buf,
            || Ok(&mut self.file),
        )?;
        self.records += (buf.len() / RECORD) as u64;
        for edit in edits {
            self.obs
                .emit(|| Event::ManifestRecord { kind: edit.kind() });
        }
        Ok(())
    }

    /// Makes everything appended durable: one fsync.
    fn sync(&mut self) -> Result<()> {
        fault::hook(self.faults.as_ref(), IoOp::ManifestSync)?;
        self.file.sync_all()?;
        self.commits += 1;
        Ok(())
    }

    /// Durably records one edit group per `(series, edits)` of `groups` —
    /// one append and one fsync for all of them — a change that leaves
    /// `live` as the tables of every series the log knows. When the groups
    /// would leave the log more dead than live (several times over once a
    /// named series is live: a shared log's rewrite copies every series),
    /// or an earlier attempt at them failed part-way, the log is rewritten
    /// from `live` instead, which records the same state. Replay applies
    /// each group whole or not at all; no groups is a no-op.
    pub fn commit_groups(
        &mut self,
        groups: &[(Option<u32>, &[ManifestEdit])],
        live: &[SeriesTables<'_>],
    ) -> Result<()> {
        if groups.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for (series, edits) in groups {
            encode_unit(&mut buf, *series, edits)?;
        }
        let live_records = live.iter().map(SeriesTables::records).sum();
        let shared = live.iter().any(|tables| tables.series.is_some());
        let factor = if shared { FLEET_DEAD_FACTOR } else { 1 };
        if self.tail_in_doubt
            || self.compaction_due(buf.len() / RECORD, live_records, factor)
        {
            return self.rewrite(live);
        }
        self.tail_in_doubt = true;
        self.append(&buf, groups.iter().flat_map(|(_, edits)| edits.iter()))?;
        self.sync()?;
        self.tail_in_doubt = false;
        self.live = live_records;
        Ok(())
    }

    /// Rewrites the log down to what [`Manifest::rewrite`] keeps of `live`,
    /// unless it already is.
    pub fn compact(&mut self, live: &[SeriesTables<'_>]) -> Result<()> {
        let at_rest: u64 = live.iter().map(SeriesTables::records).sum();
        if self.records == at_rest && !self.tail_in_doubt {
            return Ok(());
        }
        self.rewrite(live)
    }

    /// Atomically rewrites the log from `live`, per series its run, then
    /// its L0: the unnamed series as bare records, a named one as one group
    /// (a header alone when it holds no table).
    pub fn rewrite(&mut self, live: &[SeriesTables<'_>]) -> Result<()> {
        let mut buf = Vec::new();
        for tables in live {
            let run = tables.run.iter().copied().map(ManifestEdit::Add);
            let edits =
                run.chain(tables.l0.iter().copied().map(ManifestEdit::AddL0));
            if tables.series.is_none() {
                edits.for_each(|edit| buf.extend_from_slice(&edit.encode()));
            } else {
                let edits: Vec<ManifestEdit> = edits.collect();
                encode_unit(&mut buf, tables.series, &edits)?;
            }
        }
        self.replace(&buf)
    }

    /// Replaces the log with `buf` — whole units, all of them live: tmp
    /// file, fsync, rename, directory fsync.
    fn replace(&mut self, buf: &[u8]) -> Result<()> {
        self.tail_in_doubt = true;
        let tmp = self.path.with_extension("manifest.tmp");
        // Torn, tmp debris stays behind; swept on the next open.
        fault::write_hooked(
            self.faults.as_ref(),
            IoOp::ManifestRewrite,
            &tmp,
            buf,
            || File::create(&tmp),
        )?
        .sync_all()?;
        fault::hook(self.faults.as_ref(), IoOp::ManifestRename)?;
        std::fs::rename(&tmp, &self.path)?;
        if let Some(parent) =
            self.path.parent().filter(|p| !p.as_os_str().is_empty())
        {
            fault::hook(self.faults.as_ref(), IoOp::DirSync)?;
            sync_dir(parent)?;
        }
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.records = (buf.len() / RECORD) as u64;
        self.live = self.records;
        self.rewrites += 1;
        self.tail_in_doubt = false;
        self.obs.emit(|| Event::ManifestRecord {
            kind: ManifestRecordKind::Rewrite,
        });
        Ok(())
    }

    /// Replays the manifest at `path`: per series it names (`None`: the
    /// records outside any named group), the live `(run, l0)` tables, each
    /// in log order, plus the number of whole records dropped past the
    /// last complete unit. A missing file is an empty log.
    ///
    /// `strict` drops a torn tail — a truncated or garbage final stretch,
    /// or an incomplete edit group, with no valid record after it — and
    /// reports damage in front of still-valid records as corruption;
    /// otherwise the longest valid prefix is used whatever follows it
    /// (records with valid CRCs but malformed contents are still errors).
    /// Which series a caller accepts is its own business: an engine takes
    /// only the unnamed one, a fleet only named ones.
    pub fn replay(
        path: impl AsRef<Path>,
        strict: bool,
    ) -> Result<(BTreeMap<Option<u32>, Levels>, u64)> {
        let Some(data) = Self::read_log(path.as_ref())? else {
            return Ok((BTreeMap::new(), 0));
        };
        let (good_len, tail_is_garbage) = scan(&data);
        if strict && !tail_is_garbage {
            return Err(Error::Corrupt(format!(
                "manifest record at offset {good_len} fails CRC \
                 with valid records after it"
            )));
        }
        let dropped = ((data.len() - good_len) / RECORD) as u64;
        Ok((Self::decode_prefix(&data, good_len)?, dropped))
    }

    fn read_log(path: &Path) -> Result<Option<Vec<u8>>> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
                Ok(Some(data))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Applies the records of `data[..good_len]` — a prefix of complete
    /// units, per [`scan`] — in log order, each to the series its group
    /// header names (a record outside any group: the unnamed series).
    /// `scan` has already vouched for every body in the prefix, so a header
    /// only says whose the next records are — and, named, that its series
    /// exists.
    fn decode_prefix(
        data: &[u8],
        good_len: usize,
    ) -> Result<BTreeMap<Option<u32>, Levels>> {
        let mut series: BTreeMap<Option<u32>, Levels> = BTreeMap::new();
        // The series of the group being read and its records still to come.
        let (mut group, mut group_left) = (None, 0u64);
        let mut offset = 0;
        while offset + RECORD <= good_len {
            let rec = &data[offset..offset + RECORD];
            offset += RECORD;
            let id = codec::read_u64_le(rec, 1)?;
            if rec[0] == TAG_GROUP {
                group = codec::read_u32_le(rec, 25)?.checked_sub(1);
                group_left = id;
                if group.is_some() {
                    series.entry(group).or_default();
                }
                continue;
            }
            let owner = if group_left > 0 { group } else { None };
            group_left = group_left.saturating_sub(1);
            let (run, l0) = series.entry(owner).or_default();
            let id = SsTableId(id);
            match rec[0] {
                level @ (TAG_ADD | TAG_ADD_L0) => {
                    let start = codec::read_i64_le(rec, 9)?;
                    let end = codec::read_i64_le(rec, 17)?;
                    let count = codec::read_u32_le(rec, 25)?;
                    if start > end {
                        return Err(Error::Corrupt(format!(
                            "manifest add for {id} has inverted range"
                        )));
                    }
                    let meta = SsTableMeta {
                        id,
                        range: TimeRange::new(start, end),
                        count,
                    };
                    if level == TAG_ADD {
                        run.push(meta);
                    } else {
                        l0.push(meta);
                    }
                }
                TAG_REMOVE => {
                    run.retain(|m| m.id != id);
                    l0.retain(|m| m.id != id);
                }
                TAG_DRAIN_L0 => l0.clear(),
                tag => {
                    return Err(Error::Corrupt(format!(
                        "manifest record at offset {} has unknown tag {tag}",
                        offset - RECORD
                    )))
                }
            }
        }
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "seplsm-manifest-{tag}-{}-{:?}.manifest",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn meta(id: u64, start: i64, end: i64, count: u32) -> SsTableMeta {
        SsTableMeta {
            id: SsTableId(id),
            range: TimeRange::new(start, end),
            count,
        }
    }

    /// Appends `edits` of the unnamed series as one unit, made durable: a
    /// commit with no live tables to weigh it against, so never a rewrite.
    fn log(m: &mut Manifest, edits: &[ManifestEdit]) {
        let mut buf = Vec::new();
        encode_unit(&mut buf, None, edits).expect("encode");
        m.append(&buf, edits.iter()).expect("append");
        m.sync().expect("sync");
    }

    /// The live tables of the one `series` whose run is `run`.
    fn run_of(
        series: Option<u32>,
        run: &[SsTableMeta],
    ) -> [SeriesTables<'_>; 1] {
        [SeriesTables {
            series,
            run,
            l0: &[],
        }]
    }

    /// The levels of an engine's own log at `path`, replayed strictly.
    fn own(path: &Path) -> Result<Levels> {
        let (mut series, _) = Manifest::replay(path, true)?;
        let levels = series.remove(&None).unwrap_or_default();
        assert!(series.is_empty(), "named series in an engine's log");
        Ok(levels)
    }

    #[test]
    fn add_remove_replay() {
        let path = temp_path("basic");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::open(&path).expect("open");
            log(&mut m, &[ManifestEdit::Add(meta(1, 0, 99, 10))]);
            log(&mut m, &[ManifestEdit::Add(meta(2, 100, 199, 10))]);
            log(&mut m, &[ManifestEdit::Remove(SsTableId(1))]);
            log(&mut m, &[ManifestEdit::Add(meta(3, 0, 99, 12))]);
        }
        let (live, _) = own(&path).expect("replay");
        let ids: Vec<u64> = live.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(live[1].count, 12);
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// A commit of `series` whose fsync failed, offered again, is recorded
    /// by a rewrite: the failed group may or may not be in the file, and the
    /// same change must not land behind it.
    fn retry_after_a_failed_fsync(series: Option<u32>) {
        let path = temp_path(&format!("retry-{series:?}"));
        let _ = std::fs::remove_file(&path);
        let (a, b) = (meta(1, 0, 99, 10), meta(2, 100, 199, 10));
        let mut m = Manifest::open(&path).expect("open");
        let first = [ManifestEdit::Add(a)];
        m.commit_groups(&[(series, &first)], &run_of(series, &[a]))
            .expect("first");
        // Op 0 is the next commit's append, op 1 its fsync.
        let plan = FaultPlan::new(0, Fault::FailOnce { at: 1 });
        m.attach_faults(Arc::clone(&plan));
        let edits = [ManifestEdit::Add(b)];
        let groups = [(series, &edits[..])];
        let both = [a, b];
        let live = run_of(series, &both);
        assert!(m.commit_groups(&groups, &live).is_err());
        m.commit_groups(&groups, &live).expect("retry");
        assert_eq!(
            plan.trace()[2..],
            [IoOp::ManifestRewrite, IoOp::ManifestRename, IoOp::DirSync]
        );
        assert_eq!((m.stats().commits, m.stats().rewrites), (1, 1));
        drop(m);
        let (replayed, _) = Manifest::replay(&path, true).expect("replay");
        assert_eq!(replayed.keys().collect::<Vec<_>>(), [&series]);
        assert_eq!(replayed[&series].0, [a, b], "recorded once, not twice");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_commit_that_failed_at_its_fsync_is_retried_as_a_rewrite() {
        retry_after_a_failed_fsync(None);
    }

    #[test]
    fn a_failed_fleet_commit_is_retried_as_a_rewrite() {
        retry_after_a_failed_fsync(Some(2));
    }

    #[test]
    fn rewrite_compacts_history() {
        let path = temp_path("rewrite");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path).expect("open");
        for i in 0..100 {
            let start = i as i64 * 10;
            log(&mut m, &[ManifestEdit::Add(meta(i, start, start + 9, 1))]);
            if i > 0 {
                log(&mut m, &[ManifestEdit::Remove(SsTableId(i - 1))]);
            }
        }
        let size_before = std::fs::metadata(&path).expect("stat").len();
        m.rewrite(&run_of(None, &[meta(99, 990, 999, 1)]))
            .expect("rewrite");
        let size_after = std::fs::metadata(&path).expect("stat").len();
        assert!(size_after < size_before / 10);
        let (live, _) = own(&path).expect("replay");
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id.0, 99);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn l0_records_replay_into_their_own_level() {
        let path = temp_path("levels");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::open(&path).expect("open");
            log(&mut m, &[ManifestEdit::Add(meta(1, 0, 99, 10))]);
            log(&mut m, &[ManifestEdit::AddL0(meta(2, 50, 150, 8))]);
            log(&mut m, &[ManifestEdit::AddL0(meta(3, 60, 160, 8))]);
            log(&mut m, &[ManifestEdit::Remove(SsTableId(2))]);
        }
        let (run, l0) = own(&path).expect("replay");
        assert_eq!(run.iter().map(|m| m.id.0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(l0.iter().map(|m| m.id.0).collect::<Vec<_>>(), vec![3]);
        // A rewrite keeps both levels, as bare records.
        let mut m = Manifest::open(&path).expect("reopen");
        let live = [SeriesTables {
            series: None,
            run: &run,
            l0: &l0,
        }];
        m.rewrite(&live).expect("rewrite");
        assert_eq!(m.stats().records, 2);
        assert_eq!(own(&path).expect("replay"), (run, l0));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn missing_manifest_is_empty() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let (series, dropped) = Manifest::replay(&path, true).expect("replay");
        assert!(series.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn append_after_torn_tail_truncates_then_stays_readable() {
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::open(&path).expect("open");
            log(&mut m, &[ManifestEdit::Add(meta(1, 0, 9, 1))]);
            log(&mut m, &[ManifestEdit::Add(meta(2, 10, 19, 1))]);
        }
        let data = std::fs::read(&path).expect("read");
        std::fs::write(&path, &data[..data.len() - 7]).expect("truncate");
        // Re-open for appending: before the torn-tail fix the next record
        // landed after the garbage, shifting every later record's framing.
        {
            let mut m = Manifest::open(&path).expect("re-open repairs tail");
            log(&mut m, &[ManifestEdit::Add(meta(3, 20, 29, 1))]);
        }
        let (live, _) = own(&path).expect("must stay readable");
        let ids: Vec<u64> = live.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![1, 3], "torn record dropped, new one kept");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn open_sweeps_stale_rewrite_tmp() {
        let path = temp_path("tmp-sweep");
        let _ = std::fs::remove_file(&path);
        let tmp = path.with_extension("manifest.tmp");
        std::fs::write(&tmp, b"half a rewrite").expect("stale tmp");
        let _m = Manifest::open(&path).expect("open");
        assert!(!tmp.exists(), "open must sweep rewrite debris");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn salvage_replay_recovers_prefix_and_reports_loss() {
        let path = temp_path("salvage");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::open(&path).expect("open");
            for i in 0..4 {
                let start = i as i64 * 10;
                log(&mut m, &[ManifestEdit::Add(meta(i, start, start + 9, 1))]);
            }
        }
        let mut data = std::fs::read(&path).expect("read");
        data[RECORD + 3] ^= 0xff; // corrupt the second record
        std::fs::write(&path, &data).expect("rewrite");
        assert!(own(&path).is_err(), "strict replay refuses");
        let (mut series, dropped) =
            Manifest::replay(&path, false).expect("salvage");
        let (run, l0) = series.remove(&None).expect("the unnamed series");
        assert_eq!(run.len(), 1, "valid prefix recovered");
        assert!(l0.is_empty());
        assert_eq!(dropped, 3, "loss is reported, not hidden");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_dropped_corruption_is_detected() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::open(&path).expect("open");
            log(&mut m, &[ManifestEdit::Add(meta(1, 0, 9, 1))]);
            log(&mut m, &[ManifestEdit::Add(meta(2, 10, 19, 1))]);
        }
        let data = std::fs::read(&path).expect("read");
        // Torn tail: drop 5 bytes.
        std::fs::write(&path, &data[..data.len() - 5]).expect("truncate");
        let (live, _) = own(&path).expect("tolerates torn tail");
        assert_eq!(live.len(), 1);
        // Mid-log corruption: flip a byte in record 0.
        let mut bad = data.clone();
        bad[3] ^= 0xff;
        std::fs::write(&path, &bad).expect("corrupt");
        assert!(own(&path).is_err());
        std::fs::remove_file(&path).expect("cleanup");
    }

    fn ids(metas: &[SsTableMeta]) -> Vec<u64> {
        metas.iter().map(|m| m.id.0).collect()
    }

    /// A two-table run, then a merge replacing table 1 by tables 3 and 4
    /// while draining an L0 table — logged as one group.
    fn write_seed_and_group(path: &Path) -> Manifest {
        let mut m = Manifest::open(path).expect("open");
        log(
            &mut m,
            &[
                ManifestEdit::Add(meta(1, 0, 99, 10)),
                ManifestEdit::Add(meta(2, 100, 199, 10)),
            ],
        );
        log(&mut m, &[ManifestEdit::AddL0(meta(9, 50, 150, 4))]);
        log(
            &mut m,
            &[
                ManifestEdit::DrainL0,
                ManifestEdit::Remove(SsTableId(1)),
                ManifestEdit::Add(meta(3, 0, 49, 7)),
                ManifestEdit::Add(meta(4, 50, 99, 7)),
            ],
        );
        m
    }

    /// The unnamed series' levels and the records dropped, replayed in
    /// salvage mode.
    fn salvage(path: &Path) -> (Levels, u64) {
        let (mut series, dropped) =
            Manifest::replay(path, false).expect("salvage replay");
        (series.remove(&None).unwrap_or_default(), dropped)
    }

    #[test]
    fn commit_is_one_append_and_one_fsync() {
        // One group for a change of several tables.
        let path = temp_path("group-ops");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::trace_only(0);
        let mut m = Manifest::open(&path).expect("open");
        m.attach_faults(Arc::clone(&plan));
        let (a, b) = (meta(2, 0, 9, 1), meta(3, 10, 19, 1));
        let edits = [
            ManifestEdit::Remove(SsTableId(1)),
            ManifestEdit::Add(a),
            ManifestEdit::Add(b),
        ];
        m.commit_groups(&[(None, &edits)], &run_of(None, &[a, b]))
            .expect("commit");
        assert_eq!(
            plan.trace(),
            vec![IoOp::ManifestAppend, IoOp::ManifestSync]
        );
        assert_eq!(m.records, 4, "header + three edits");
        m.commit_groups(&[], &run_of(None, &[a, b]))
            .expect("empty commit");
        assert_eq!(plan.ops(), 2, "an empty commit touches nothing");
        // A lone edit needs no header: it is the pre-group record format.
        let c = meta(4, 20, 29, 1);
        let lone = [ManifestEdit::Add(c)];
        m.commit_groups(&[(None, &lone)], &run_of(None, &[a, b, c]))
            .expect("single");
        assert_eq!(m.records, 5);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_fleet_commit_is_one_append_and_one_fsync_for_every_series() {
        let path = temp_path("fleet-ops");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::trace_only(0);
        let mut m = Manifest::open(&path).expect("open");
        m.attach_faults(Arc::clone(&plan));
        let (a, b, c) =
            (meta(1, 0, 9, 4), meta(2, 10, 19, 4), meta(3, 0, 9, 4));
        let s3 = [ManifestEdit::Add(a), ManifestEdit::Add(b)];
        let s7 = [ManifestEdit::Add(c)];
        let runs = [(3, vec![a, b]), (7, vec![c])];
        let live = live_of(&runs);
        m.commit_groups(&[(Some(3), &s3), (Some(7), &s7)], &live)
            .expect("commit");
        assert_eq!(
            plan.trace(),
            vec![IoOp::ManifestAppend, IoOp::ManifestSync]
        );
        // A named series' change carries its header even when it is one
        // record long: two headers, three edits.
        let stats = m.stats();
        assert_eq!((stats.records, stats.live, stats.commits), (5, 5, 1));
        m.commit_groups(&[], &live).expect("nothing to commit");
        assert_eq!(plan.ops(), 2, "an empty commit touches nothing");
        // Series 3 merges its tables away; series 7 is untouched.
        let d = meta(4, 0, 19, 8);
        let merge = [
            ManifestEdit::Remove(a.id),
            ManifestEdit::Remove(b.id),
            ManifestEdit::Add(d),
        ];
        let runs = [(3, vec![d]), (7, vec![c])];
        let live = live_of(&runs);
        m.commit_groups(&[(Some(3), &merge)], &live)
            .expect("commit");
        drop(m);
        let (series, dropped) = Manifest::replay(&path, true).expect("replay");
        assert_eq!(dropped, 0);
        // Every record is a named series': nothing for an engine to take.
        assert_eq!(
            series.keys().copied().collect::<Vec<_>>(),
            [Some(3), Some(7)]
        );
        assert_eq!(ids(&series[&Some(3)].0), vec![4]);
        assert_eq!(ids(&series[&Some(7)].0), vec![3]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn groups_replay_in_log_order() {
        let path = temp_path("group-replay");
        let _ = std::fs::remove_file(&path);
        drop(write_seed_and_group(&path));
        let (run, l0) = own(&path).expect("replay");
        assert_eq!(ids(&run), vec![2, 3, 4]);
        assert!(l0.is_empty(), "the group drained L0");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_group_is_dropped_whole_at_every_cut() {
        let path = temp_path("group-torn");
        let _ = std::fs::remove_file(&path);
        drop(write_seed_and_group(&path));
        let data = std::fs::read(&path).expect("read");
        // Seed group (1 + 2 records) and the lone L0 add precede the merge
        // group (1 + 4 records).
        let group_start = 4 * RECORD;
        assert_eq!(data.len(), group_start + 5 * RECORD);
        for cut in group_start..data.len() {
            std::fs::write(&path, &data[..cut]).expect("truncate");
            let (run, l0) =
                own(&path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(ids(&run), vec![1, 2], "cut at {cut}: half a merge");
            assert_eq!(ids(&l0), vec![9], "cut at {cut}: half a drain");
            let ((run, l0), dropped) = salvage(&path);
            assert_eq!((ids(&run), ids(&l0)), (vec![1, 2], vec![9]));
            assert_eq!(dropped as usize, (cut - group_start) / RECORD);
        }
        // Re-opening cuts the dead group away, so the next commit does not
        // land inside its body.
        std::fs::write(&path, &data[..data.len() - 40]).expect("truncate");
        {
            let mut m = Manifest::open(&path).expect("re-open repairs");
            assert_eq!(m.records, 4);
            log(&mut m, &[ManifestEdit::Add(meta(5, 200, 299, 3))]);
        }
        let (run, l0) = own(&path).expect("replay");
        assert_eq!(ids(&run), vec![1, 2, 5]);
        assert_eq!(ids(&l0), vec![9]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn damaged_group_in_front_of_valid_records_is_corruption() {
        let path = temp_path("group-corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = write_seed_and_group(&path);
            log(&mut m, &[ManifestEdit::Add(meta(5, 200, 299, 3))]);
        }
        let mut data = std::fs::read(&path).expect("read");
        data[6 * RECORD + 3] ^= 0xff; // inside the merge group's body
        std::fs::write(&path, &data).expect("corrupt");
        assert!(own(&path).is_err(), "strict refuses");
        let ((run, l0), dropped) = salvage(&path);
        assert_eq!((ids(&run), ids(&l0)), (vec![1, 2], vec![9]));
        assert_eq!(dropped, 6, "the whole group and what follows it");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn compaction_is_due_once_dead_records_outnumber_live_ones() {
        let path = temp_path("due");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path).expect("open");
        let live: Vec<SsTableMeta> = (0..100)
            .map(|i| meta(i, i as i64 * 10, i as i64 * 10 + 9, 1))
            .collect();
        m.rewrite(&run_of(None, &live)).expect("seed");
        assert_eq!(m.records, 100);
        assert!(!m.compaction_due(0, 100, 1));
        // 100 live; a group of 100 edits + header makes 101 dead.
        assert!(!m.compaction_due(99 + 1, 100, 1), "100 dead: not yet");
        assert!(m.compaction_due(100 + 1, 100, 1), "101 dead > 100 live");
        // A shared log waits for several times as many.
        let factor = FLEET_DEAD_FACTOR;
        assert!(!m.compaction_due(100 * factor as usize, 100, factor));
        assert!(m.compaction_due(100 * factor as usize + 1, 100, factor));
        // A small log gets a fixed allowance instead of the ratio.
        m.rewrite(&run_of(None, &live[..2])).expect("shrink");
        assert!(!m.compaction_due(COMPACT_MIN_DEAD as usize, 2, 1));
        assert!(m.compaction_due(COMPACT_MIN_DEAD as usize + 1, 2, 1));
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// The live tables of a fleet whose series hold `runs` and no L0.
    fn live_of(runs: &[(u32, Vec<SsTableMeta>)]) -> Vec<SeriesTables<'_>> {
        runs.iter()
            .map(|(series, run)| SeriesTables {
                series: Some(*series),
                run,
                l0: &[],
            })
            .collect()
    }

    #[test]
    fn a_fleet_rewrite_keeps_a_header_for_a_series_without_tables() {
        let path = temp_path("fleet-rest");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path).expect("open");
        let a = meta(1, 0, 9, 4);
        let runs = [(0, vec![a]), (5, Vec::new())];
        let live = live_of(&runs);
        m.rewrite(&live).expect("rewrite");
        assert_eq!(m.stats().records, 3, "two headers, one table");
        m.compact(&live).expect("compact");
        assert_eq!(m.stats().rewrites, 1, "already at rest");
        let (series, _) = Manifest::replay(&path, true).expect("replay");
        assert_eq!(series.len(), 2, "the empty series is still named");
        assert_eq!(series[&Some(5)], (Vec::new(), Vec::new()));
        // A single engine's log, on the other hand, names no series: its
        // group headers keep the zero they always had in that field.
        let single = temp_path("fleet-rest-single");
        let _ = std::fs::remove_file(&single);
        let mut m = Manifest::open(&single).expect("open");
        let group = [ManifestEdit::Add(a), ManifestEdit::Remove(a.id)];
        m.commit_groups(&[(None, &group)], &run_of(None, &[]))
            .expect("group");
        let data = std::fs::read(&single).expect("read");
        assert_eq!(data[..RECORD][0], TAG_GROUP);
        assert_eq!(data[25..PAYLOAD], [0u8; 4]);
        let (series, _) = Manifest::replay(&single, true).expect("replay");
        assert_eq!(series.keys().collect::<Vec<_>>(), [&None]);
        std::fs::remove_file(&path).expect("cleanup");
        std::fs::remove_file(&single).expect("cleanup");
    }

    /// One unit of the model log: a group of series `tag - 1` (zero: the
    /// unnamed series) adding `adds` fresh tables and removing the
    /// `removes` oldest ones of that series.
    type ModelUnit = (u32, usize, usize);

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(48)
        )]

        /// Tagged and untagged units interleaved in one log, against a
        /// model of the levels per tag: truncated at every byte, replay
        /// holds exactly the units that are wholly there — each group all
        /// or nothing, each in its own series; and a flipped byte in any
        /// header's series field is corruption (or, in the last unit of
        /// the file, a torn tail), never another series' tables.
        #[test]
        fn tagged_groups_replay_per_series_at_every_truncation(
            units in proptest::collection::vec(
                (0u32..4u32, 0usize..4usize, 0usize..3usize),
                1..10,
            ),
            case in 0u64..u64::MAX,
        ) {
            let path = std::env::temp_dir().join(format!(
                "seplsm-manifest-tagged-{}-{case:016x}.manifest",
                std::process::id(),
            ));
            let _ = std::fs::remove_file(&path);
            let mut manifest = Manifest::open(&path).expect("open");
            let mut model: BTreeMap<Option<u32>, Levels> = BTreeMap::new();
            // The model and the file length after each unit; and where the
            // units that start with a header start.
            let mut states = vec![(0usize, model.clone())];
            let mut headers = Vec::new();
            let mut next_id = 0u64;
            let units: Vec<ModelUnit> = units;
            for (tag, adds, removes) in units {
                let series = tag.checked_sub(1);
                let (run, _) = model.entry(series).or_default();
                let removes = removes.min(run.len());
                let mut edits: Vec<ManifestEdit> = run
                    .drain(..removes)
                    .map(|m| ManifestEdit::Remove(m.id))
                    .collect();
                for _ in 0..adds {
                    next_id += 1;
                    let start = next_id as i64 * 10;
                    let table = meta(next_id, start, start + 9, 1);
                    run.push(table);
                    edits.push(ManifestEdit::Add(table));
                }
                if series.is_none() && edits.is_empty() {
                    continue; // the unnamed series has no header to write
                }
                let mut buf = Vec::new();
                encode_unit(&mut buf, series, &edits).expect("encode");
                let start = states.last().expect("seeded").0;
                if buf[0] == TAG_GROUP {
                    headers.push((start, states.len() - 1));
                }
                manifest.append(&buf, edits.iter()).expect("append");
                manifest.sync().expect("sync");
                states.push((start + buf.len(), model.clone()));
            }
            drop(manifest);
            let data = std::fs::read(&path).expect("read");
            proptest::prop_assert_eq!(
                data.len(),
                states.last().expect("seeded").0
            );
            let expect_at = |len: usize| {
                let (_, model) = states
                    .iter()
                    .rev()
                    .find(|(end, _)| *end <= len)
                    .expect("the empty log");
                let mut model = model.clone();
                // A series the log never gave a table or a header is not
                // one replay can know about.
                model.retain(|series, (run, l0)| {
                    series.is_some() || !(run.is_empty() && l0.is_empty())
                });
                model
            };
            let normal = |mut got: BTreeMap<Option<u32>, Levels>| {
                got.retain(|series, (run, l0)| {
                    series.is_some() || !(run.is_empty() && l0.is_empty())
                });
                got
            };
            for cut in 0..=data.len() {
                std::fs::write(&path, &data[..cut]).expect("truncate");
                let (got, _) = Manifest::replay(&path, true)
                    .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
                proptest::prop_assert_eq!(
                    normal(got),
                    expect_at(cut),
                    "cut at {}", cut
                );
            }
            for (at, before) in headers {
                for byte in 25..PAYLOAD {
                    let mut bad = data.clone();
                    bad[at + byte] ^= 0x41;
                    std::fs::write(&path, &bad).expect("corrupt");
                    let (prefix, _) =
                        Manifest::replay(&path, false).expect("salvage");
                    proptest::prop_assert_eq!(
                        normal(prefix),
                        expect_at(states[before].0),
                        "salvage past a damaged header at {}", at
                    );
                    match Manifest::replay(&path, true) {
                        Err(Error::Corrupt(_)) => {}
                        Ok((got, _)) => {
                            // Only a damaged unit with nothing valid behind
                            // it reads as a torn tail.
                            proptest::prop_assert_eq!(
                                normal(got),
                                expect_at(states[before].0)
                            );
                            proptest::prop_assert_eq!(
                                at + RECORD,
                                data.len(),
                                "header at {} read as a torn tail", at
                            );
                        }
                        Err(e) => panic!("header at {at}: {e}"),
                    }
                }
            }
            std::fs::remove_file(&path).expect("cleanup");
        }
    }

    /// The manifest records of one version edit.
    fn journal(edit: &crate::version::VersionEdit) -> Vec<ManifestEdit> {
        use crate::version::VersionEdit;
        match edit {
            VersionEdit::RegisterFlushing(_) => Vec::new(),
            VersionEdit::FlushToL0 { tables, .. } => {
                tables.iter().copied().map(ManifestEdit::AddL0).collect()
            }
            VersionEdit::Replace {
                removed,
                added,
                drain_l0,
            } => drain_l0
                .then_some(ManifestEdit::DrainL0)
                .into_iter()
                .chain(removed.iter().copied().map(ManifestEdit::Remove))
                .chain(added.iter().copied().map(ManifestEdit::Add))
                .collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(64)
        )]

        /// For any sequence of version edits — in-order appends, flushes to
        /// L0, merges with and without an L0 drain — each recorded as one
        /// group through `commit_groups` (which interleaves its own
        /// rewrites) with forced compactions in between, replaying the log
        /// yields exactly the version it was recorded from, after every
        /// step.
        #[test]
        fn replaying_the_delta_log_equals_the_recorded_version(
            ops in proptest::collection::vec(
                (0u8..5u8, 0usize..64usize, 1usize..4usize),
                1..60,
            ),
            case in 0u64..u64::MAX,
        ) {
            use crate::version::{Version, VersionEdit};

            let path = std::env::temp_dir().join(format!(
                "seplsm-manifest-prop-{}-{case:016x}.manifest",
                std::process::id(),
            ));
            let _ = std::fs::remove_file(&path);
            let mut manifest = Manifest::open(&path).expect("open");
            let mut version = Version::new();
            let mut next_id = 0u64;
            let mut fresh = |start: i64, end: i64| {
                next_id += 1;
                meta(next_id, start, end, 1)
            };
            for (kind, pick, n) in ops {
                let tail = version.run().last_gen_time().unwrap_or(-1);
                let edits = match kind {
                    // In-order flush of `n` tables past the run tail.
                    0 => vec![VersionEdit::Replace {
                        removed: Vec::new(),
                        added: (0..n as i64)
                            .map(|i| {
                                let start = tail + 1 + i * 10;
                                fresh(start, start + 9)
                            })
                            .collect(),
                        drain_l0: false,
                    }],
                    // Background flush: `n` overlapping L0 tables.
                    1 => vec![VersionEdit::FlushToL0 {
                        batch: Arc::new(Vec::new()),
                        tables: (0..n as i64)
                            .map(|i| fresh(i, tail.max(0) + 5))
                            .collect(),
                    }],
                    // Merge: up to `n` adjacent run tables are rewritten
                    // into two tables over the same span (or, on an empty
                    // run, a first table appears); odd picks drain L0.
                    2 | 3 => {
                        let tables = version.run().tables();
                        let lo = pick % tables.len().max(1);
                        let hi = (lo + n).min(tables.len());
                        let removed: Vec<SsTableId> =
                            tables[lo..hi].iter().map(|m| m.id).collect();
                        let (start, end) = match (tables.get(lo), hi) {
                            (Some(first), hi) if hi > lo => {
                                (first.range.start, tables[hi - 1].range.end)
                            }
                            _ => (tail + 1, tail + 10),
                        };
                        let mid = start + (end - start) / 2;
                        let mut added = vec![fresh(start, mid)];
                        if mid < end {
                            added.push(fresh(mid + 1, end));
                        }
                        vec![VersionEdit::Replace {
                            removed,
                            added,
                            drain_l0: kind == 3,
                        }]
                    }
                    // The engine comes to rest: forced compaction.
                    _ => {
                        manifest
                            .compact(&[version.series_tables(None)])
                            .expect("compact");
                        Vec::new()
                    }
                };
                version.apply(&edits).expect("apply");
                let group: Vec<ManifestEdit> =
                    edits.iter().flat_map(journal).collect();
                let groups = [(None, group.as_slice())];
                let groups = if group.is_empty() { &[][..] } else { &groups };
                manifest
                    .commit_groups(groups, &[version.series_tables(None)])
                    .expect("record");
                let (run, l0) = own(&path).expect("replay");
                proptest::prop_assert_eq!(
                    crate::level::Run::from_tables(run).expect("run").tables(),
                    version.run().tables()
                );
                proptest::prop_assert_eq!(l0.as_slice(), version.l0());
                proptest::prop_assert!(
                    manifest.records
                        >= (version.run().len() + version.l0().len()) as u64
                );
            }
            std::fs::remove_file(&path).expect("cleanup");
        }
    }
}
