//! The manifest: a durable log of table membership.
//!
//! Recovery without a manifest rebuilds the level-1 run by reading and
//! describing every stored table — O(data). The manifest makes recovery
//! O(metadata): every table added to or removed from the run or L0 is
//! logged as a fixed-size checksummed record.
//!
//! **Edit groups.** A flush or merge changes several tables at once, and a
//! half-applied change (outputs added, inputs not yet removed) is not a
//! state the engine was ever in. [`Manifest::commit`] therefore appends the
//! whole change as one *edit group* — a header record carrying the body's
//! record count and CRC-32, then the body records — in a single write,
//! followed by one fsync: no tmp file, no rename, no directory fsync.
//! Replay applies a group all or nothing: a group whose body is incomplete
//! or fails its CRC at the tail of the log is dropped whole (a torn
//! commit), and [`Manifest::open`] truncates it away before anything is
//! appended behind it. A single-record change needs no header — one record
//! is already atomic — so logs written before groups existed are the
//! degenerate case of this format and replay unchanged.
//!
//! **Shared logs.** A fleet keeps one manifest for all of its series. A
//! group header's `count` field — zero in every log written before fleets
//! shared one — names the series the group belongs to (`series + 1`; zero
//! is the one unnamed series of a single-engine log, whose bytes are
//! therefore what they always were). A tagged change always carries its
//! header, a tagged header with no body announces a series that holds no
//! table yet, and [`Manifest::commit_fleet`] appends the groups of many
//! series in one write behind one fsync. [`Manifest::replay_fleet`] returns
//! the levels per series under the same all-or-nothing and torn-tail
//! rules; a header is covered by its own record CRC, so damage to the
//! series field is damage to the log, never another series' tables.
//!
//! **Compaction.** Removed tables leave dead records behind (their add,
//! the remove, group headers). When a change would leave them outnumbering
//! the live ones, [`Manifest::commit_or_rewrite`] rewrites the log from the
//! live tables ([`Manifest::rewrite_levels`]: tmp file, fsync, rename,
//! directory fsync) instead of appending; a shared log, whose rewrite
//! copies every series' tables, waits until the dead records outnumber the
//! live ones several times over. Engines also rewrite at open and
//! at `flush_all`/`finish` ([`Manifest::compact`]), so a log at rest holds
//! exactly one record per live table (a shared log: plus one header per
//! series) and stays proportional to the live table count.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
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
/// A table joining L0 (tiered engines); run-level recovery must use
/// [`Manifest::replay_levels`] to see these.
const TAG_ADD_L0: u8 = 3;
/// Header of an edit group: the id field holds the number of body records
/// that follow, the first four bytes after it the CRC-32 of the body, the
/// count field the group's series + 1 (zero: the log's one unnamed series).
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

/// One series' live tables, as the rewrite of a shared log takes them.
#[derive(Debug, Clone, Copy)]
pub struct SeriesTables<'a> {
    /// The series the tables belong to.
    pub series: u32,
    /// Its run, in range order.
    pub run: &'a [SsTableMeta],
    /// Its L0, in flush order.
    pub l0: &'a [SsTableMeta],
}

/// Size and history of a manifest, for `seplsm stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManifestStats {
    /// Records in the file — live, dead and group headers alike.
    pub records: u64,
    /// Records a rewrite would keep, as of the last change recorded with
    /// its levels: one per live table, plus one header per series of a
    /// shared log.
    pub live: u64,
    /// Edit groups (or bare records) made durable since the log was opened.
    pub commits: u64,
    /// Times the log was rewritten from the live tables since it was opened.
    pub rewrites: u64,
}

/// One table-membership change; [`Manifest::commit`] logs a slice of them
/// as one atomic edit group.
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

/// The header tag naming `series` in a shared log.
fn series_tag(series: u32) -> Result<u32> {
    series.checked_add(1).ok_or_else(|| {
        Error::InvalidConfig(format!(
            "series {series} cannot be named in a shared manifest"
        ))
    })
}

/// Appends `edits` to `buf` as one unit: a lone untagged record as itself,
/// anything else — a longer change, or any change of a named series —
/// behind a group header.
fn encode_unit(buf: &mut Vec<u8>, tag: u32, edits: &[ManifestEdit]) {
    if tag == 0 && edits.len() == 1 {
        buf.extend_from_slice(&edits[0].encode());
        return;
    }
    // The header's slot: it goes first but is computed from the body.
    let header_at = buf.len();
    buf.extend_from_slice(&[0u8; RECORD]);
    for edit in edits {
        buf.extend_from_slice(&edit.encode());
    }
    let header = encode_group_header(&buf[header_at + RECORD..], tag);
    buf[header_at..header_at + RECORD].copy_from_slice(&header);
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

/// The records a rewrite keeps for one series: its run, then its L0.
fn snapshot_edits<'a>(
    run: &'a [SsTableMeta],
    l0: &'a [SsTableMeta],
) -> impl Iterator<Item = ManifestEdit> + 'a {
    let run = run.iter().copied().map(ManifestEdit::Add);
    run.chain(l0.iter().copied().map(ManifestEdit::AddL0))
}

/// Records of a shared log at rest: one header per series, one record per
/// live table.
fn fleet_live(live: &[SeriesTables<'_>]) -> u64 {
    live.iter()
        .map(|s| 1 + (s.run.len() + s.l0.len()) as u64)
        .sum()
}

/// An append-only, checksummed log of table-membership changes.
pub struct Manifest {
    writer: BufWriter<File>,
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
    /// writer may be left on a file a rewrite replaced). The next commit
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
            writer: BufWriter::new(file),
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

    /// Appends `buf` — whole units carrying `edits` — in one write.
    /// Buffered: [`Manifest::sync`] makes it durable.
    fn append<'a>(
        &mut self,
        buf: &[u8],
        edits: impl Iterator<Item = &'a ManifestEdit>,
    ) -> Result<()> {
        if let Some(crash) = fault::write_hooked(
            self.faults.as_ref(),
            IoOp::ManifestAppend,
            &mut self.writer,
            buf,
        )? {
            self.writer.flush()?;
            return Err(crash);
        }
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
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        self.commits += 1;
        Ok(())
    }

    /// Durably logs `edits` as one atomic edit group: one append, one
    /// fsync. After a crash, replay sees all of the edits or none of them.
    /// Empty input is a no-op.
    pub fn commit(&mut self, edits: &[ManifestEdit]) -> Result<()> {
        if edits.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity((edits.len() + 1) * RECORD);
        encode_unit(&mut buf, 0, edits);
        self.append(&buf, edits.iter())?;
        self.sync()
    }

    /// Durably records `edits`, a change that leaves `run` + `l0` as the
    /// live tables: [`Manifest::commit`], or — when the group would leave
    /// the log more dead than live, or an earlier attempt at it failed
    /// part-way — a rewrite from the live tables, which records the same
    /// state. No edits is a no-op.
    pub fn commit_or_rewrite(
        &mut self,
        edits: &[ManifestEdit],
        run: &[SsTableMeta],
        l0: &[SsTableMeta],
    ) -> Result<()> {
        if edits.is_empty() {
            return Ok(());
        }
        let live = (run.len() + l0.len()) as u64;
        let added = edits.len() + usize::from(edits.len() > 1);
        if self.tail_in_doubt || self.compaction_due(added, live, 1) {
            return self.rewrite_levels(run, l0);
        }
        self.tail_in_doubt = true;
        self.commit(edits)?;
        self.tail_in_doubt = false;
        self.live = live;
        Ok(())
    }

    /// Durably records one edit group per `(series, edits)` of `groups` in
    /// a shared log — one append and one fsync for all of them — a change
    /// that leaves `live` as the tables of every series the log knows. When
    /// the groups would leave the log several times more dead than live, or
    /// an earlier attempt at them failed part-way, the log is rewritten
    /// from `live` instead, which records the same state. Each group is
    /// applied whole or not at all by replay; no groups is a no-op.
    pub fn commit_fleet(
        &mut self,
        groups: &[(u32, &[ManifestEdit])],
        live: &[SeriesTables<'_>],
    ) -> Result<()> {
        if groups.is_empty() {
            return Ok(());
        }
        let edits = || groups.iter().flat_map(|(_, edits)| edits.iter());
        let added = edits().count() + groups.len();
        let live_records = fleet_live(live);
        if self.tail_in_doubt
            || self.compaction_due(added, live_records, FLEET_DEAD_FACTOR)
        {
            return self.rewrite_fleet(live);
        }
        let mut buf = Vec::with_capacity(added * RECORD);
        for (series, edits) in groups {
            encode_unit(&mut buf, series_tag(*series)?, edits);
        }
        self.tail_in_doubt = true;
        self.append(&buf, edits())?;
        self.sync()?;
        self.tail_in_doubt = false;
        self.live = live_records;
        Ok(())
    }

    /// Rewrites the log down to one record per live table, unless it
    /// already is.
    pub fn compact(
        &mut self,
        run: &[SsTableMeta],
        l0: &[SsTableMeta],
    ) -> Result<()> {
        if self.records == (run.len() + l0.len()) as u64 {
            return Ok(());
        }
        self.rewrite_levels(run, l0)
    }

    /// Rewrites a shared log down to one header per series and one record
    /// per live table, unless it already is.
    pub fn compact_fleet(&mut self, live: &[SeriesTables<'_>]) -> Result<()> {
        if self.records == fleet_live(live) && !self.tail_in_doubt {
            return Ok(());
        }
        self.rewrite_fleet(live)
    }

    /// Atomically rewrites the log as a flat list of the live run tables.
    pub fn rewrite(&mut self, live: &[SsTableMeta]) -> Result<()> {
        self.rewrite_levels(live, &[])
    }

    /// Atomically rewrites the log from both levels: the live run tables
    /// followed by the live L0 tables.
    pub fn rewrite_levels(
        &mut self,
        run: &[SsTableMeta],
        l0: &[SsTableMeta],
    ) -> Result<()> {
        let mut buf = Vec::with_capacity((run.len() + l0.len()) * RECORD);
        for edit in snapshot_edits(run, l0) {
            buf.extend_from_slice(&edit.encode());
        }
        self.replace(&buf)
    }

    /// Atomically rewrites a shared log from every series' live tables: per
    /// series of `live`, one group holding its run, then its L0.
    pub fn rewrite_fleet(&mut self, live: &[SeriesTables<'_>]) -> Result<()> {
        let mut buf = Vec::with_capacity(fleet_live(live) as usize * RECORD);
        for series in live {
            let edits: Vec<ManifestEdit> =
                snapshot_edits(series.run, series.l0).collect();
            encode_unit(&mut buf, series_tag(series.series)?, &edits);
        }
        self.replace(&buf)
    }

    /// Replaces the log with `buf` — whole units, all of them live: tmp
    /// file, fsync, rename, directory fsync.
    fn replace(&mut self, buf: &[u8]) -> Result<()> {
        self.tail_in_doubt = true;
        let tmp = self.path.with_extension("manifest.tmp");
        {
            let mut f = File::create(&tmp)?;
            if let Some(crash) = fault::write_hooked(
                self.faults.as_ref(),
                IoOp::ManifestRewrite,
                &mut f,
                buf,
            )? {
                // Tmp debris stays behind; swept on the next open.
                f.sync_all()?;
                return Err(crash);
            }
            f.sync_all()?;
        }
        fault::hook(self.faults.as_ref(), IoOp::ManifestRename)?;
        std::fs::rename(&tmp, &self.path)?;
        if let Some(parent) =
            self.path.parent().filter(|p| !p.as_os_str().is_empty())
        {
            fault::hook(self.faults.as_ref(), IoOp::DirSync)?;
            sync_dir(parent)?;
        }
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        self.records = (buf.len() / RECORD) as u64;
        self.live = self.records;
        self.rewrites += 1;
        self.tail_in_doubt = false;
        self.obs.emit(|| Event::ManifestRecord {
            kind: ManifestRecordKind::Rewrite,
        });
        Ok(())
    }

    /// Replays a run-only manifest at `path`, returning the live table
    /// metadata in log order.
    ///
    /// A torn final record is dropped; mid-log corruption is reported.
    /// A missing file yields an empty set. A manifest containing L0 records
    /// (a tiered engine's) is rejected — use [`Manifest::replay_levels`].
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<SsTableMeta>> {
        let (run, l0) = Self::replay_levels(path)?;
        if !l0.is_empty() {
            return Err(Error::Corrupt(
                "manifest contains L0 records; replay with replay_levels"
                    .into(),
            ));
        }
        Ok(run)
    }

    /// Replays the manifest at `path`, returning the live `(run, l0)` table
    /// metadata, each in log order.
    ///
    /// A torn tail — a truncated or garbage final stretch, or an incomplete
    /// edit group, with no valid record after it — is dropped whole;
    /// corruption in front of still-valid records is reported. A missing
    /// file yields empty sets. A log holding series-tagged groups (a
    /// fleet's) is rejected — use [`Manifest::replay_fleet`].
    pub fn replay_levels(path: impl AsRef<Path>) -> Result<Levels> {
        Self::unnamed_series(Self::load(path.as_ref(), true)?.0)
    }

    /// Salvage replay: decodes the longest prefix of complete units plus
    /// the number of whole records dropped after it, never failing on CRC
    /// corruption (records with valid CRCs but malformed contents are still
    /// errors). Used by salvage-mode recovery, which reports the loss.
    pub fn replay_levels_salvage(
        path: impl AsRef<Path>,
    ) -> Result<(Vec<SsTableMeta>, Vec<SsTableMeta>, u64)> {
        let (series, dropped) = Self::load(path.as_ref(), false)?;
        let (run, l0) = Self::unnamed_series(series)?;
        Ok((run, l0, dropped))
    }

    /// Replays the shared manifest at `path`: per series it names, the live
    /// `(run, l0)` tables, plus the number of whole records dropped past
    /// the last complete unit. `strict` treats the tail like
    /// [`Manifest::replay_levels`] does (a torn one is dropped, damage in
    /// front of valid records is an error); otherwise the longest valid
    /// prefix is used whatever follows it. A record outside any tagged
    /// group is not a fleet's and is rejected in either mode.
    pub fn replay_fleet(
        path: impl AsRef<Path>,
        strict: bool,
    ) -> Result<(BTreeMap<u32, Levels>, u64)> {
        let (tagged, dropped) = Self::load(path.as_ref(), strict)?;
        let mut series = BTreeMap::new();
        for (tag, levels) in tagged {
            let Some(id) = tag.checked_sub(1) else {
                return Err(Error::Corrupt(
                    "shared manifest holds records of an unnamed series; \
                     replay with replay_levels"
                        .into(),
                ));
            };
            series.insert(id, levels);
        }
        Ok((series, dropped))
    }

    /// The levels of a single-engine log: everything must be untagged.
    fn unnamed_series(mut tagged: BTreeMap<u32, Levels>) -> Result<Levels> {
        let levels = tagged.remove(&0).unwrap_or_default();
        if !tagged.is_empty() {
            return Err(Error::Corrupt(
                "manifest holds series-tagged groups; replay with \
                 replay_fleet"
                    .into(),
            ));
        }
        Ok(levels)
    }

    /// Reads and decodes the log at `path`: the levels per group tag (zero:
    /// untagged records) and the whole records dropped past the last
    /// complete unit. A missing file is an empty log.
    fn load(path: &Path, strict: bool) -> Result<(BTreeMap<u32, Levels>, u64)> {
        let Some(data) = Self::read_log(path)? else {
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
    /// header names (a record outside any group: tag zero). `scan` has
    /// already vouched for every body in the prefix, so a header only says
    /// whose the next records are — and, tagged, that its series exists.
    fn decode_prefix(
        data: &[u8],
        good_len: usize,
    ) -> Result<BTreeMap<u32, Levels>> {
        let mut series: BTreeMap<u32, Levels> = BTreeMap::new();
        // The tag of the group being read and its records still to come.
        let (mut group_tag, mut group_left) = (0u32, 0u64);
        let mut offset = 0;
        while offset + RECORD <= good_len {
            let rec = &data[offset..offset + RECORD];
            offset += RECORD;
            let id = codec::read_u64_le(rec, 1)?;
            if rec[0] == TAG_GROUP {
                group_tag = codec::read_u32_le(rec, 25)?;
                group_left = id;
                if group_tag != 0 {
                    series.entry(group_tag).or_default();
                }
                continue;
            }
            let tag = if group_left > 0 { group_tag } else { 0 };
            group_left = group_left.saturating_sub(1);
            let (run, l0) = series.entry(tag).or_default();
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

    #[test]
    fn add_remove_replay() {
        let path = temp_path("basic");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::open(&path).expect("open");
            m.commit(&[ManifestEdit::Add(meta(1, 0, 99, 10))])
                .expect("add");
            m.commit(&[ManifestEdit::Add(meta(2, 100, 199, 10))])
                .expect("add");
            m.commit(&[ManifestEdit::Remove(SsTableId(1))])
                .expect("remove");
            m.commit(&[ManifestEdit::Add(meta(3, 0, 99, 12))])
                .expect("add");
        }
        let live = Manifest::replay(&path).expect("replay");
        let ids: Vec<u64> = live.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(live[1].count, 12);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_commit_that_failed_at_its_fsync_is_retried_as_a_rewrite() {
        use crate::fault::{Fault, FaultPlan};
        let path = temp_path("retry");
        let _ = std::fs::remove_file(&path);
        let (a, b) = (meta(1, 0, 99, 10), meta(2, 100, 199, 10));
        let mut m = Manifest::open(&path).expect("open");
        m.commit_or_rewrite(&[ManifestEdit::Add(a)], &[a], &[])
            .expect("first");
        // Op 0 is the next group's append, op 1 its fsync.
        m.attach_faults(FaultPlan::new(0, Fault::FailOnce { at: 1 }));
        let edits = [ManifestEdit::Add(b)];
        assert!(m.commit_or_rewrite(&edits, &[a, b], &[]).is_err());
        // The failed group is still on its way to the file: the same
        // change offered again must not land behind it.
        m.commit_or_rewrite(&edits, &[a, b], &[]).expect("retry");
        assert_eq!((m.stats().commits, m.stats().rewrites), (1, 1));
        drop(m);
        assert_eq!(Manifest::replay(&path).expect("replay"), [a, b]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rewrite_compacts_history() {
        let path = temp_path("rewrite");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path).expect("open");
        for i in 0..100 {
            m.commit(&[ManifestEdit::Add(meta(
                i,
                i as i64 * 10,
                i as i64 * 10 + 9,
                1,
            ))])
            .expect("add");
            if i > 0 {
                m.commit(&[ManifestEdit::Remove(SsTableId(i - 1))])
                    .expect("remove");
            }
        }
        let size_before = std::fs::metadata(&path).expect("stat").len();
        m.rewrite(&[meta(99, 990, 999, 1)]).expect("rewrite");
        let size_after = std::fs::metadata(&path).expect("stat").len();
        assert!(size_after < size_before / 10);
        let live = Manifest::replay(&path).expect("replay");
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
            m.commit(&[ManifestEdit::Add(meta(1, 0, 99, 10))])
                .expect("add run");
            m.commit(&[ManifestEdit::AddL0(meta(2, 50, 150, 8))])
                .expect("add l0");
            m.commit(&[ManifestEdit::AddL0(meta(3, 60, 160, 8))])
                .expect("add l0");
            m.commit(&[ManifestEdit::Remove(SsTableId(2))])
                .expect("remove spans levels");
        }
        let (run, l0) = Manifest::replay_levels(&path).expect("replay");
        assert_eq!(run.iter().map(|m| m.id.0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(l0.iter().map(|m| m.id.0).collect::<Vec<_>>(), vec![3]);
        // Run-only replay refuses a tiered manifest instead of losing L0.
        assert!(Manifest::replay(&path).is_err());
        // rewrite_levels compacts both levels in place.
        let mut m = Manifest::open(&path).expect("reopen");
        m.rewrite_levels(&run, &l0).expect("rewrite");
        let (run2, l02) = Manifest::replay_levels(&path).expect("replay");
        assert_eq!(run2, run);
        assert_eq!(l02, l0);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn missing_manifest_is_empty() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert!(Manifest::replay(&path).expect("replay").is_empty());
    }

    #[test]
    fn append_after_torn_tail_truncates_then_stays_readable() {
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::open(&path).expect("open");
            m.commit(&[ManifestEdit::Add(meta(1, 0, 9, 1))])
                .expect("add");
            m.commit(&[ManifestEdit::Add(meta(2, 10, 19, 1))])
                .expect("add");
        }
        let data = std::fs::read(&path).expect("read");
        std::fs::write(&path, &data[..data.len() - 7]).expect("truncate");
        // Re-open for appending: before the torn-tail fix the next record
        // landed after the garbage, shifting every later record's framing.
        {
            let mut m = Manifest::open(&path).expect("re-open repairs tail");
            m.commit(&[ManifestEdit::Add(meta(3, 20, 29, 1))])
                .expect("add");
        }
        let live = Manifest::replay(&path).expect("must stay readable");
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
                m.commit(&[ManifestEdit::Add(meta(
                    i,
                    i as i64 * 10,
                    i as i64 * 10 + 9,
                    1,
                ))])
                .expect("add");
            }
        }
        let mut data = std::fs::read(&path).expect("read");
        data[RECORD + 3] ^= 0xff; // corrupt the second record
        std::fs::write(&path, &data).expect("rewrite");
        assert!(Manifest::replay(&path).is_err(), "strict replay refuses");
        let (run, l0, dropped) =
            Manifest::replay_levels_salvage(&path).expect("salvage");
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
            m.commit(&[ManifestEdit::Add(meta(1, 0, 9, 1))])
                .expect("add");
            m.commit(&[ManifestEdit::Add(meta(2, 10, 19, 1))])
                .expect("add");
        }
        let data = std::fs::read(&path).expect("read");
        // Torn tail: drop 5 bytes.
        std::fs::write(&path, &data[..data.len() - 5]).expect("truncate");
        let live = Manifest::replay(&path).expect("tolerates torn tail");
        assert_eq!(live.len(), 1);
        // Mid-log corruption: flip a byte in record 0.
        let mut bad = data.clone();
        bad[3] ^= 0xff;
        std::fs::write(&path, &bad).expect("corrupt");
        assert!(Manifest::replay(&path).is_err());
        std::fs::remove_file(&path).expect("cleanup");
    }

    fn ids(metas: &[SsTableMeta]) -> Vec<u64> {
        metas.iter().map(|m| m.id.0).collect()
    }

    /// A two-table run, then a merge replacing table 1 by tables 3 and 4
    /// while draining an L0 table — committed as one group.
    fn write_seed_and_group(path: &Path) -> Manifest {
        let mut m = Manifest::open(path).expect("open");
        m.commit(&[
            ManifestEdit::Add(meta(1, 0, 99, 10)),
            ManifestEdit::Add(meta(2, 100, 199, 10)),
        ])
        .expect("seed");
        m.commit(&[ManifestEdit::AddL0(meta(9, 50, 150, 4))])
            .expect("l0");
        m.commit(&[
            ManifestEdit::DrainL0,
            ManifestEdit::Remove(SsTableId(1)),
            ManifestEdit::Add(meta(3, 0, 49, 7)),
            ManifestEdit::Add(meta(4, 50, 99, 7)),
        ])
        .expect("merge");
        m
    }

    #[test]
    fn commit_is_one_append_and_one_fsync() {
        let path = temp_path("group-ops");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::trace_only(0);
        let mut m = Manifest::open(&path).expect("open");
        m.attach_faults(Arc::clone(&plan));
        m.commit(&[
            ManifestEdit::Remove(SsTableId(1)),
            ManifestEdit::Add(meta(2, 0, 9, 1)),
            ManifestEdit::Add(meta(3, 10, 19, 1)),
        ])
        .expect("commit");
        assert_eq!(
            plan.trace(),
            vec![IoOp::ManifestAppend, IoOp::ManifestSync]
        );
        assert_eq!(m.records, 4, "header + three edits");
        m.commit(&[]).expect("empty commit");
        assert_eq!(plan.ops(), 2, "an empty commit touches nothing");
        // A lone edit needs no header: it is the pre-group record format.
        m.commit(&[ManifestEdit::Add(meta(4, 20, 29, 1))])
            .expect("single");
        assert_eq!(m.records, 5);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn groups_replay_in_log_order() {
        let path = temp_path("group-replay");
        let _ = std::fs::remove_file(&path);
        drop(write_seed_and_group(&path));
        let (run, l0) = Manifest::replay_levels(&path).expect("replay");
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
            let (run, l0) = Manifest::replay_levels(&path)
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(ids(&run), vec![1, 2], "cut at {cut}: half a merge");
            assert_eq!(ids(&l0), vec![9], "cut at {cut}: half a drain");
            let (run, l0, dropped) =
                Manifest::replay_levels_salvage(&path).expect("salvage replay");
            assert_eq!((ids(&run), ids(&l0)), (vec![1, 2], vec![9]));
            assert_eq!(dropped as usize, (cut - group_start) / RECORD);
        }
        // Re-opening cuts the dead group away, so the next commit does not
        // land inside its body.
        std::fs::write(&path, &data[..data.len() - 40]).expect("truncate");
        {
            let mut m = Manifest::open(&path).expect("re-open repairs");
            assert_eq!(m.records, 4);
            m.commit(&[ManifestEdit::Add(meta(5, 200, 299, 3))])
                .expect("commit");
        }
        let (run, l0) = Manifest::replay_levels(&path).expect("replay");
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
            m.commit(&[ManifestEdit::Add(meta(5, 200, 299, 3))])
                .expect("later commit");
        }
        let mut data = std::fs::read(&path).expect("read");
        data[6 * RECORD + 3] ^= 0xff; // inside the merge group's body
        std::fs::write(&path, &data).expect("corrupt");
        assert!(Manifest::replay_levels(&path).is_err(), "strict refuses");
        let (run, l0, dropped) =
            Manifest::replay_levels_salvage(&path).expect("salvage");
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
        m.rewrite(&live).expect("seed");
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
        m.rewrite(&live[..2]).expect("shrink");
        assert!(!m.compaction_due(COMPACT_MIN_DEAD as usize, 2, 1));
        assert!(m.compaction_due(COMPACT_MIN_DEAD as usize + 1, 2, 1));
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// The live tables of a fleet whose series hold `runs` and no L0.
    fn live_of(runs: &[(u32, Vec<SsTableMeta>)]) -> Vec<SeriesTables<'_>> {
        runs.iter()
            .map(|(series, run)| SeriesTables {
                series: *series,
                run,
                l0: &[],
            })
            .collect()
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
        m.commit_fleet(&[(3, &s3), (7, &s7)], &live)
            .expect("commit");
        assert_eq!(
            plan.trace(),
            vec![IoOp::ManifestAppend, IoOp::ManifestSync]
        );
        // A named series' change carries its header even when it is one
        // record long: two headers, three edits.
        let stats = m.stats();
        assert_eq!((stats.records, stats.live, stats.commits), (5, 5, 1));
        m.commit_fleet(&[], &live).expect("nothing to commit");
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
        m.commit_fleet(&[(3, &merge)], &live).expect("commit");
        drop(m);
        let (series, dropped) =
            Manifest::replay_fleet(&path, true).expect("replay");
        assert_eq!(dropped, 0);
        assert_eq!(series.keys().copied().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(ids(&series[&3].0), vec![4]);
        assert_eq!(ids(&series[&7].0), vec![3]);
        // It is not a single engine's log, and says so.
        assert!(matches!(
            Manifest::replay_levels(&path),
            Err(Error::Corrupt(_))
        ));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn a_fleet_rewrite_keeps_a_header_for_a_series_without_tables() {
        let path = temp_path("fleet-rest");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path).expect("open");
        let a = meta(1, 0, 9, 4);
        let runs = [(0, vec![a]), (5, Vec::new())];
        let live = live_of(&runs);
        m.rewrite_fleet(&live).expect("rewrite");
        assert_eq!(m.stats().records, 3, "two headers, one table");
        m.compact_fleet(&live).expect("compact");
        assert_eq!(m.stats().rewrites, 1, "already at rest");
        let (series, _) = Manifest::replay_fleet(&path, true).expect("replay");
        assert_eq!(series.len(), 2, "the empty series is still named");
        assert_eq!(series[&5], (Vec::new(), Vec::new()));
        // A single engine's log, on the other hand, names no series: its
        // group headers keep the zero they always had in that field.
        let single = temp_path("fleet-rest-single");
        let _ = std::fs::remove_file(&single);
        let mut m = Manifest::open(&single).expect("open");
        m.commit(&[ManifestEdit::Add(a), ManifestEdit::Remove(a.id)])
            .expect("group");
        let data = std::fs::read(&single).expect("read");
        assert_eq!(data[..RECORD][0], TAG_GROUP);
        assert_eq!(data[25..PAYLOAD], [0u8; 4]);
        assert!(matches!(
            Manifest::replay_fleet(&single, true),
            Err(Error::Corrupt(_))
        ));
        std::fs::remove_file(&path).expect("cleanup");
        std::fs::remove_file(&single).expect("cleanup");
    }

    #[test]
    fn a_failed_fleet_commit_is_retried_as_a_rewrite() {
        use crate::fault::Fault;

        let path = temp_path("fleet-retry");
        let _ = std::fs::remove_file(&path);
        // Op 0 the append, op 1 the fsync that fails: the group may or may
        // not be in the file when the caller offers it again.
        let plan = FaultPlan::new(0, Fault::FailOnce { at: 1 });
        let mut m = Manifest::open(&path).expect("open");
        m.attach_faults(Arc::clone(&plan));
        let a = meta(1, 0, 9, 4);
        let edits = [ManifestEdit::Add(a)];
        let runs = [(2, vec![a])];
        let live = live_of(&runs);
        assert!(m.commit_fleet(&[(2, &edits)], &live).is_err());
        m.commit_fleet(&[(2, &edits)], &live).expect("retry");
        assert_eq!(
            plan.trace()[2..],
            [IoOp::ManifestRewrite, IoOp::ManifestRename, IoOp::DirSync]
        );
        drop(m);
        let (series, _) = Manifest::replay_fleet(&path, true).expect("replay");
        assert_eq!(ids(&series[&2].0), vec![1], "recorded once, not twice");
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// One unit of the model log: a group of `tag` (zero: the unnamed
    /// series) adding `adds` fresh tables and removing the `removes`
    /// oldest ones of that series.
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
            let mut model: BTreeMap<u32, Levels> = BTreeMap::new();
            // The model and the file length after each unit; and where the
            // units that start with a header start.
            let mut states = vec![(0usize, model.clone())];
            let mut headers = Vec::new();
            let mut next_id = 0u64;
            let units: Vec<ModelUnit> = units;
            for (tag, adds, removes) in units {
                let (run, _) = model.entry(tag).or_default();
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
                if tag == 0 && edits.is_empty() {
                    continue; // the unnamed series has no header to write
                }
                let mut buf = Vec::new();
                encode_unit(&mut buf, tag, &edits);
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
                model.retain(|tag, (run, l0)| {
                    *tag != 0 || !(run.is_empty() && l0.is_empty())
                });
                model
            };
            let normal = |mut got: BTreeMap<u32, Levels>| {
                got.retain(|tag, (run, l0)| {
                    *tag != 0 || !(run.is_empty() && l0.is_empty())
                });
                got
            };
            for cut in 0..=data.len() {
                std::fs::write(&path, &data[..cut]).expect("truncate");
                let (got, _) = Manifest::load(&path, true)
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
                        Manifest::load(&path, false).expect("salvage");
                    proptest::prop_assert_eq!(
                        normal(prefix),
                        expect_at(states[before].0),
                        "salvage past a damaged header at {}", at
                    );
                    match Manifest::load(&path, true) {
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

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(64)
        )]

        /// For any sequence of version edits — in-order appends, flushes to
        /// L0, merges with and without an L0 drain — recorded through
        /// `Version::record` (which interleaves its own compactions) with
        /// forced compactions in between, replaying the log yields exactly
        /// the version it was recorded from, after every step.
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
                        version
                            .compact_manifest(&mut manifest)
                            .expect("compact");
                        Vec::new()
                    }
                };
                version.apply(&edits).expect("apply");
                version.record(&mut manifest, &edits).expect("record");
                let (run, l0) =
                    Manifest::replay_levels(&path).expect("replay");
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
