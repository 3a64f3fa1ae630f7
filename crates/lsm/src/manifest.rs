//! The manifest: a durable log of run membership.
//!
//! Recovery without a manifest rebuilds the level-1 run by reading and
//! describing every stored table — O(data).
//! The manifest makes recovery O(metadata): every table added to or removed
//! from the run is logged as a fixed-size checksummed record, and the log is
//! rewritten (compacted) after each merge so it stays proportional to the
//! live table count.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use seplsm_types::{Error, Result, TimeRange};

use crate::codec;
use crate::fault::{self, FaultPlan, IoOp, WriteCheck};
use crate::obs::{Event, ManifestRecordKind, ObserverHandle};
use crate::sstable::crc32::crc32;
use crate::sstable::{SsTableId, SsTableMeta};
use crate::store::sync_dir;

const TAG_ADD: u8 = 1;
const TAG_REMOVE: u8 = 2;
/// A table joining L0 (tiered engines); run-level recovery must use
/// [`Manifest::replay_levels`] to see these.
const TAG_ADD_L0: u8 = 3;
/// Record payload: tag(1) + id(8) + start(8) + end(8) + count(4).
const PAYLOAD: usize = 29;
/// Record: payload + crc32.
const RECORD: usize = PAYLOAD + 4;

fn encode_record(
    tag: u8,
    id: SsTableId,
    range: TimeRange,
    count: u32,
) -> [u8; RECORD] {
    let mut rec = [0u8; RECORD];
    rec[0] = tag;
    rec[1..9].copy_from_slice(&id.0.to_le_bytes());
    rec[9..17].copy_from_slice(&range.start.to_le_bytes());
    rec[17..25].copy_from_slice(&range.end.to_le_bytes());
    rec[25..29].copy_from_slice(&count.to_le_bytes());
    let crc = crc32(&rec[..PAYLOAD]);
    rec[PAYLOAD..].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// Walks `data` as a sequence of fixed-size manifest records. Returns
/// `(good_len, tail_is_garbage)`: `good_len` is the byte length of the
/// contiguous CRC-valid prefix, and `tail_is_garbage` is true when no
/// CRC-valid record exists at any record-aligned offset past `good_len`.
fn scan(data: &[u8]) -> (usize, bool) {
    let record_ok = |rec: &[u8]| -> bool {
        let stored = u32::from_le_bytes([
            rec[PAYLOAD],
            rec[PAYLOAD + 1],
            rec[PAYLOAD + 2],
            rec[PAYLOAD + 3],
        ]);
        stored == crc32(&rec[..PAYLOAD])
    };
    let mut good_len = 0;
    while good_len + RECORD <= data.len() {
        if !record_ok(&data[good_len..good_len + RECORD]) {
            break;
        }
        good_len += RECORD;
    }
    let mut offset = good_len + RECORD;
    while offset + RECORD <= data.len() {
        if record_ok(&data[offset..offset + RECORD]) {
            return (good_len, false);
        }
        offset += RECORD;
    }
    (good_len, true)
}

/// An append-only, checksummed log of run-membership changes.
pub struct Manifest {
    writer: BufWriter<File>,
    path: PathBuf,
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
    /// torn tail (garbage final stretch with nothing valid after it) is
    /// truncated back to the last good record boundary so appends never
    /// land after garbage. Mid-log corruption is left for replay to report.
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
        Self::repair_tail(&path)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            writer: BufWriter::new(file),
            path,
            faults: None,
            obs: ObserverHandle::detached(),
        })
    }

    /// Truncates `path` to its last good record boundary when the tail is
    /// garbage-only; no-op for a missing, clean, or mid-log-corrupt file.
    fn repair_tail(path: &Path) -> Result<()> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        }
        let (good_len, tail_is_garbage) = scan(&data);
        if tail_is_garbage && good_len < data.len() {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(good_len as u64)?;
            f.sync_all()?;
        }
        Ok(())
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

    fn append_record(&mut self, rec: &[u8]) -> Result<()> {
        match fault::hook_write(
            self.faults.as_ref(),
            IoOp::ManifestAppend,
            rec.len(),
        )? {
            WriteCheck::Proceed => {
                self.writer.write_all(rec)?;
                Ok(())
            }
            WriteCheck::Torn { keep } => {
                self.writer.write_all(&rec[..keep.min(rec.len())])?;
                self.writer.flush()?;
                let index = self
                    .faults
                    .as_ref()
                    .map_or(0, |p| p.ops().saturating_sub(1));
                Err(fault::injected_crash(IoOp::ManifestAppend, index))
            }
        }
    }

    /// Logs a table joining the run.
    pub fn log_add(&mut self, meta: &SsTableMeta) -> Result<()> {
        self.append_record(&encode_record(
            TAG_ADD, meta.id, meta.range, meta.count,
        ))?;
        self.obs.emit(|| Event::ManifestRecord {
            kind: ManifestRecordKind::Add,
        });
        Ok(())
    }

    /// Logs a table joining L0 (the tiered engine's overlapping level).
    pub fn log_add_l0(&mut self, meta: &SsTableMeta) -> Result<()> {
        self.append_record(&encode_record(
            TAG_ADD_L0, meta.id, meta.range, meta.count,
        ))?;
        self.obs.emit(|| Event::ManifestRecord {
            kind: ManifestRecordKind::AddL0,
        });
        Ok(())
    }

    /// Logs a table leaving the run.
    pub fn log_remove(&mut self, id: SsTableId) -> Result<()> {
        self.append_record(&encode_record(
            TAG_REMOVE,
            id,
            TimeRange::new(0, 0),
            0,
        ))?;
        self.obs.emit(|| Event::ManifestRecord {
            kind: ManifestRecordKind::Remove,
        });
        Ok(())
    }

    /// Flushes and fsyncs the log.
    pub fn sync(&mut self) -> Result<()> {
        fault::hook(self.faults.as_ref(), IoOp::ManifestSync)?;
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        Ok(())
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
        let tmp = self.path.with_extension("manifest.tmp");
        let mut buf = Vec::with_capacity((run.len() + l0.len()) * RECORD);
        for meta in run {
            buf.extend_from_slice(&encode_record(
                TAG_ADD, meta.id, meta.range, meta.count,
            ));
        }
        for meta in l0 {
            buf.extend_from_slice(&encode_record(
                TAG_ADD_L0, meta.id, meta.range, meta.count,
            ));
        }
        {
            let mut f = File::create(&tmp)?;
            match fault::hook_write(
                self.faults.as_ref(),
                IoOp::ManifestRewrite,
                buf.len(),
            )? {
                WriteCheck::Proceed => f.write_all(&buf)?,
                WriteCheck::Torn { keep } => {
                    f.write_all(&buf[..keep.min(buf.len())])?;
                    f.sync_all()?;
                    // Tmp debris stays behind; swept on the next open.
                    let index = self
                        .faults
                        .as_ref()
                        .map_or(0, |p| p.ops().saturating_sub(1));
                    return Err(fault::injected_crash(
                        IoOp::ManifestRewrite,
                        index,
                    ));
                }
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
    /// A torn tail — a truncated or garbage final stretch with no valid
    /// record after it — is dropped; corruption in front of still-valid
    /// records is reported. A missing file yields empty sets.
    pub fn replay_levels(
        path: impl AsRef<Path>,
    ) -> Result<(Vec<SsTableMeta>, Vec<SsTableMeta>)> {
        let path = path.as_ref();
        let data = match Self::read_log(path)? {
            Some(data) => data,
            None => return Ok((Vec::new(), Vec::new())),
        };
        let (good_len, tail_is_garbage) = scan(&data);
        if !tail_is_garbage {
            return Err(Error::Corrupt(format!(
                "manifest record at offset {good_len} fails CRC \
                 with valid records after it"
            )));
        }
        Self::decode_prefix(&data, good_len)
    }

    /// Salvage replay: decodes the longest valid prefix plus the number of
    /// whole records dropped after it, never failing on CRC corruption
    /// (records with valid CRCs but malformed contents are still errors).
    /// Used by salvage-mode recovery, which reports the loss.
    pub fn replay_levels_salvage(
        path: impl AsRef<Path>,
    ) -> Result<(Vec<SsTableMeta>, Vec<SsTableMeta>, u64)> {
        let path = path.as_ref();
        let data = match Self::read_log(path)? {
            Some(data) => data,
            None => return Ok((Vec::new(), Vec::new(), 0)),
        };
        let (good_len, _) = scan(&data);
        let dropped = ((data.len() - good_len) / RECORD) as u64;
        let (run, l0) = Self::decode_prefix(&data, good_len)?;
        Ok((run, l0, dropped))
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

    fn decode_prefix(
        data: &[u8],
        good_len: usize,
    ) -> Result<(Vec<SsTableMeta>, Vec<SsTableMeta>)> {
        let mut run: Vec<SsTableMeta> = Vec::new();
        let mut l0: Vec<SsTableMeta> = Vec::new();
        let mut offset = 0;
        while offset + RECORD <= good_len {
            let rec = &data[offset..offset + RECORD];
            let id = SsTableId(codec::read_u64_le(rec, 1)?);
            match rec[0] {
                tag @ (TAG_ADD | TAG_ADD_L0) => {
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
                    if tag == TAG_ADD {
                        run.push(meta);
                    } else {
                        l0.push(meta);
                    }
                }
                TAG_REMOVE => {
                    run.retain(|m| m.id != id);
                    l0.retain(|m| m.id != id);
                }
                tag => {
                    return Err(Error::Corrupt(format!(
                        "manifest record at offset {offset} \
                         has unknown tag {tag}"
                    )))
                }
            }
            offset += RECORD;
        }
        Ok((run, l0))
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
            m.log_add(&meta(1, 0, 99, 10)).expect("add");
            m.log_add(&meta(2, 100, 199, 10)).expect("add");
            m.log_remove(SsTableId(1)).expect("remove");
            m.log_add(&meta(3, 0, 99, 12)).expect("add");
            m.sync().expect("sync");
        }
        let live = Manifest::replay(&path).expect("replay");
        let ids: Vec<u64> = live.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(live[1].count, 12);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rewrite_compacts_history() {
        let path = temp_path("rewrite");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::open(&path).expect("open");
        for i in 0..100 {
            m.log_add(&meta(i, i as i64 * 10, i as i64 * 10 + 9, 1))
                .expect("add");
            if i > 0 {
                m.log_remove(SsTableId(i - 1)).expect("remove");
            }
        }
        m.sync().expect("sync");
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
            m.log_add(&meta(1, 0, 99, 10)).expect("add run");
            m.log_add_l0(&meta(2, 50, 150, 8)).expect("add l0");
            m.log_add_l0(&meta(3, 60, 160, 8)).expect("add l0");
            m.log_remove(SsTableId(2)).expect("remove spans levels");
            m.sync().expect("sync");
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
            m.log_add(&meta(1, 0, 9, 1)).expect("add");
            m.log_add(&meta(2, 10, 19, 1)).expect("add");
            m.sync().expect("sync");
        }
        let data = std::fs::read(&path).expect("read");
        std::fs::write(&path, &data[..data.len() - 7]).expect("truncate");
        // Re-open for appending: before the torn-tail fix the next record
        // landed after the garbage, shifting every later record's framing.
        {
            let mut m = Manifest::open(&path).expect("re-open repairs tail");
            m.log_add(&meta(3, 20, 29, 1)).expect("add");
            m.sync().expect("sync");
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
                m.log_add(&meta(i, i as i64 * 10, i as i64 * 10 + 9, 1))
                    .expect("add");
            }
            m.sync().expect("sync");
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
            m.log_add(&meta(1, 0, 9, 1)).expect("add");
            m.log_add(&meta(2, 10, 19, 1)).expect("add");
            m.sync().expect("sync");
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
}
