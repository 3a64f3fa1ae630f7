//! Write-ahead log: makes buffered MemTable contents durable.
//!
//! Each appended point becomes one fixed-size record protected by a CRC-32.
//! After a flush empties a MemTable the engine checkpoints the log down to
//! the surviving buffered points ([`Wal::rewrite`]), keeping the log
//! proportional to memory state: with no survivors the file is truncated in
//! place (one fsync); with survivors it is replaced through a tmp file +
//! rename. Replay tolerates a truncated tail record (torn write at crash)
//! but reports mid-log corruption.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use seplsm_types::{DataPoint, Error, Result};

use crate::codec;
use crate::fault::{self, FaultPlan, IoOp, WriteCheck};
use crate::obs::{Event, ObserverHandle};
use crate::sstable::crc32::crc32;
use crate::store::sync_dir;

/// Payload layout: gen_time i64 LE + arrival_time i64 LE + value bits u64 LE.
const PAYLOAD: usize = 24;
/// Record layout: crc u32 LE + payload.
const RECORD: usize = 4 + PAYLOAD;

/// An append-only, checksummed log of data points.
pub struct Wal {
    writer: BufWriter<File>,
    path: PathBuf,
    /// Records appended since the last fsync of the live file: what
    /// [`Wal::sync`] exists to make durable.
    unsynced: bool,
    faults: Option<Arc<FaultPlan>>,
    obs: ObserverHandle,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("path", &self.path).finish()
    }
}

fn encode_record(p: &DataPoint) -> [u8; RECORD] {
    let mut rec = [0u8; RECORD];
    rec[4..12].copy_from_slice(&p.gen_time.to_le_bytes());
    rec[12..20].copy_from_slice(&p.arrival_time.to_le_bytes());
    rec[20..28].copy_from_slice(&p.value.to_bits().to_le_bytes());
    let crc = crc32(&rec[4..]);
    rec[..4].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// Walks `data` as a sequence of fixed-size records. Returns
/// `(good_len, tail_is_garbage)`: `good_len` is the byte length of the
/// contiguous CRC-valid prefix, and `tail_is_garbage` is true when no
/// CRC-valid record exists at any record-aligned offset past `good_len` —
/// i.e. the damage is a torn tail, not mid-log corruption in front of
/// still-valid records.
fn scan(data: &[u8]) -> (usize, bool) {
    let mut good_len = 0;
    while good_len + RECORD <= data.len() {
        let rec = &data[good_len..good_len + RECORD];
        let stored = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
        if stored != crc32(&rec[4..]) {
            break;
        }
        good_len += RECORD;
    }
    let mut offset = good_len + RECORD;
    while offset + RECORD <= data.len() {
        let rec = &data[offset..offset + RECORD];
        let stored = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
        if stored == crc32(&rec[4..]) {
            return (good_len, false);
        }
        offset += RECORD;
    }
    (good_len, true)
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending.
    ///
    /// Stale `wal.tmp` debris from a crashed [`Wal::rewrite`] is swept, and
    /// a torn tail (a truncated or garbage final record with nothing valid
    /// after it) is truncated back to the last good record boundary —
    /// appending after a garbage tail would corrupt the next record's
    /// framing. Mid-log corruption is left in place for replay to report.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("wal.tmp");
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
            unsynced: false,
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
            // Open-time repair: no fault plan (the I/O-op counter) can be
            // attached to a log that does not exist yet.
            // seplint: allow(R6): un-hookable, runs before attach_faults
            f.sync_all()?;
        }
        Ok(())
    }

    /// Attaches a fault plan: every subsequent append/sync/rewrite consults
    /// the plan first. Used by the crash-schedule harness.
    pub fn attach_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Attaches an observer: appends, syncs and rewrites emit
    /// [`Event::WalAppend`] / [`Event::WalSync`] / [`Event::WalTruncate`].
    pub fn attach_observer(&mut self, obs: ObserverHandle) {
        self.obs = obs;
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one point (buffered; call [`Wal::sync`] for durability).
    pub fn append(&mut self, p: &DataPoint) -> Result<()> {
        let rec = encode_record(p);
        match fault::hook_write(
            self.faults.as_ref(),
            IoOp::WalAppend,
            rec.len(),
        )? {
            WriteCheck::Proceed => {
                self.writer.write_all(&rec)?;
                self.unsynced = true;
                self.obs.emit(|| Event::WalAppend {
                    bytes: rec.len() as u64,
                });
                Ok(())
            }
            WriteCheck::Torn { keep } => {
                // A torn append: the record's prefix reaches the file (the
                // modelled power cut happened mid-write), then the op fails.
                self.writer.write_all(&rec[..keep.min(rec.len())])?;
                self.writer.flush()?;
                Err(fault::injected_crash(IoOp::WalAppend, self.op_index()))
            }
        }
    }

    fn op_index(&self) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |p| p.ops().saturating_sub(1))
    }

    /// Flushes buffered records and fsyncs the file. A log with nothing
    /// appended since its last sync or rewrite is already durable: no I/O.
    pub fn sync(&mut self) -> Result<()> {
        if !self.unsynced {
            return Ok(());
        }
        fault::hook(self.faults.as_ref(), IoOp::WalSync)?;
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        self.unsynced = false;
        self.obs.emit(|| Event::WalSync);
        Ok(())
    }

    /// Checkpoints the log down to `survivors` (the points still buffered
    /// in memory after a flush), atomically: a crash leaves either the old
    /// contents or the new ones.
    pub fn rewrite(&mut self, survivors: &[DataPoint]) -> Result<()> {
        if survivors.is_empty() {
            return self.truncate();
        }
        let tmp = self.path.with_extension("wal.tmp");
        let mut buf = Vec::with_capacity(survivors.len() * RECORD);
        for p in survivors {
            buf.extend_from_slice(&encode_record(p));
        }
        {
            let mut f = File::create(&tmp)?;
            match fault::hook_write(
                self.faults.as_ref(),
                IoOp::WalRewrite,
                buf.len(),
            )? {
                WriteCheck::Proceed => f.write_all(&buf)?,
                WriteCheck::Torn { keep } => {
                    f.write_all(&buf[..keep.min(buf.len())])?;
                    f.sync_all()?;
                    // Tmp debris stays behind; swept on the next open.
                    return Err(fault::injected_crash(
                        IoOp::WalRewrite,
                        self.op_index(),
                    ));
                }
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
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        self.unsynced = false;
        self.obs.emit(|| Event::WalTruncate {
            survivors: survivors.len() as u64,
        });
        Ok(())
    }

    /// The empty checkpoint: nothing survives, so there is nothing to carry
    /// over and the live file is cut to zero length where it stands — one
    /// fsync, no tmp file, no rename, no directory fsync. A crash before
    /// the truncation is durable leaves the old log, whose points the
    /// manifest commit that preceded this call already covers; replaying
    /// them is the same already-tolerated state as a crash between that
    /// commit and a tmp-file rewrite.
    fn truncate(&mut self) -> Result<()> {
        fault::hook(self.faults.as_ref(), IoOp::WalRewrite)?;
        // Buffered records are part of what is being cut; they are flushed
        // first so none lands after the cut. The file is in append mode, so
        // later records land at the new end.
        self.writer.flush()?;
        self.writer.get_ref().set_len(0)?;
        self.writer.get_ref().sync_all()?;
        self.unsynced = false;
        self.obs.emit(|| Event::WalTruncate { survivors: 0 });
        Ok(())
    }

    /// Replays the log at `path`, returning the points in append order.
    ///
    /// A torn tail — a truncated or garbage final stretch with no valid
    /// record after it — is dropped silently (indistinguishable from a
    /// power cut mid-append); corruption sitting in front of still-valid
    /// records is reported as [`Error::Corrupt`].
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<DataPoint>> {
        let path = path.as_ref();
        let data = match Self::read_log(path)? {
            Some(data) => data,
            None => return Ok(Vec::new()),
        };
        let (good_len, tail_is_garbage) = scan(&data);
        if !tail_is_garbage {
            return Err(Error::Corrupt(format!(
                "WAL record at offset {good_len} fails CRC \
                 with valid records after it"
            )));
        }
        Self::decode_prefix(&data, good_len)
    }

    /// Salvage replay: returns the longest decodable prefix plus the number
    /// of whole records dropped after it, never failing on corruption. Used
    /// by salvage-mode recovery, which reports (rather than hides) the loss.
    pub fn replay_salvage(
        path: impl AsRef<Path>,
    ) -> Result<(Vec<DataPoint>, u64)> {
        let path = path.as_ref();
        let data = match Self::read_log(path)? {
            Some(data) => data,
            None => return Ok((Vec::new(), 0)),
        };
        let (good_len, _) = scan(&data);
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

    fn decode_prefix(data: &[u8], good_len: usize) -> Result<Vec<DataPoint>> {
        let mut points = Vec::with_capacity(good_len / RECORD);
        let mut offset = 0;
        while offset + RECORD <= good_len {
            let rec = &data[offset..offset + RECORD];
            let gen_time = codec::read_i64_le(rec, 4)?;
            let arrival_time = codec::read_i64_le(rec, 12)?;
            let value = f64::from_bits(codec::read_u64_le(rec, 20)?);
            points.push(DataPoint::new(gen_time, arrival_time, value));
            offset += RECORD;
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "seplsm-wal-{tag}-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let pts: Vec<DataPoint> = (0..100)
            .map(|i| DataPoint::new(i, i + 7, i as f64 * 0.5))
            .collect();
        {
            let mut wal = Wal::open(&path).expect("open");
            for p in &pts {
                wal.append(p).expect("append");
            }
            wal.sync().expect("sync");
        }
        assert_eq!(Wal::replay(&path).expect("replay"), pts);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert!(Wal::replay(&path).expect("replay").is_empty());
    }

    #[test]
    fn torn_tail_record_is_dropped() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).expect("open");
            wal.append(&DataPoint::new(1, 1, 1.0)).expect("append");
            wal.append(&DataPoint::new(2, 2, 2.0)).expect("append");
            wal.sync().expect("sync");
        }
        // Chop half of the last record off.
        let data = std::fs::read(&path).expect("read");
        std::fs::write(&path, &data[..data.len() - 10]).expect("truncate");
        let points = Wal::replay(&path).expect("replay tolerates torn tail");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].gen_time, 1);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn append_after_torn_tail_truncates_then_stays_readable() {
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).expect("open");
            wal.append(&DataPoint::new(1, 1, 1.0)).expect("append");
            wal.append(&DataPoint::new(2, 2, 2.0)).expect("append");
            wal.sync().expect("sync");
        }
        // Tear the last record mid-write.
        let data = std::fs::read(&path).expect("read");
        std::fs::write(&path, &data[..data.len() - 10]).expect("truncate");
        // Re-open for appending (the crash-recovery path) and keep writing.
        // Before the torn-tail fix the new record landed after the garbage
        // tail, shifting the record framing and corrupting the whole log.
        {
            let mut wal = Wal::open(&path).expect("re-open repairs tail");
            wal.append(&DataPoint::new(3, 3, 3.0)).expect("append");
            wal.sync().expect("sync");
        }
        let points = Wal::replay(&path).expect("log must stay readable");
        let gens: Vec<i64> = points.iter().map(|p| p.gen_time).collect();
        assert_eq!(gens, vec![1, 3], "torn record dropped, new one kept");
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
    fn salvage_replay_recovers_prefix_past_mid_log_corruption() {
        let path = temp_path("salvage");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).expect("open");
            for i in 0..5 {
                wal.append(&DataPoint::new(i, i, 0.0)).expect("append");
            }
            wal.sync().expect("sync");
        }
        let mut data = std::fs::read(&path).expect("read");
        data[2 * RECORD + 8] ^= 0xff; // corrupt the third record
        std::fs::write(&path, &data).expect("rewrite");
        assert!(Wal::replay(&path).is_err(), "strict replay refuses");
        let (points, dropped) =
            Wal::replay_salvage(&path).expect("salvage replay");
        assert_eq!(points.len(), 2, "valid prefix recovered");
        assert_eq!(dropped, 3, "loss is reported, not hidden");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn mid_log_corruption_is_detected() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).expect("open");
            for i in 0..5 {
                wal.append(&DataPoint::new(i, i, 0.0)).expect("append");
            }
            wal.sync().expect("sync");
        }
        let mut data = std::fs::read(&path).expect("read");
        data[RECORD + 8] ^= 0xff; // inside the second record's payload
        std::fs::write(&path, &data).expect("rewrite");
        assert!(Wal::replay(&path).is_err());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rewrite_replaces_contents() {
        let path = temp_path("rewrite");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).expect("open");
        for i in 0..10 {
            wal.append(&DataPoint::new(i, i, 0.0)).expect("append");
        }
        wal.sync().expect("sync");
        let survivors = vec![DataPoint::new(100, 101, 9.0)];
        wal.rewrite(&survivors).expect("rewrite");
        // New appends continue after the rewritten contents.
        wal.append(&DataPoint::new(200, 202, 1.0)).expect("append");
        wal.sync().expect("sync");
        let points = Wal::replay(&path).expect("replay");
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].gen_time, 100);
        assert_eq!(points[1].gen_time, 200);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn sync_of_a_clean_log_does_no_io() {
        let path = temp_path("clean-sync");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::trace_only(0);
        let mut wal = Wal::open(&path).expect("open");
        wal.attach_faults(Arc::clone(&plan));
        wal.sync().expect("nothing appended yet");
        assert_eq!(plan.ops(), 0, "a fresh log is clean");
        wal.append(&DataPoint::new(1, 1, 1.0)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(plan.trace(), vec![IoOp::WalAppend, IoOp::WalSync]);
        wal.sync().expect("second sync");
        assert_eq!(plan.ops(), 2, "back-to-back sync: zero ops");
        wal.append(&DataPoint::new(2, 2, 2.0)).expect("append");
        wal.sync().expect("sync");
        assert_eq!(
            plan.trace()[2..],
            [IoOp::WalAppend, IoOp::WalSync],
            "one fsync after an append"
        );
        // A checkpoint leaves the log clean as well.
        wal.rewrite(&[]).expect("checkpoint");
        let ops = plan.ops();
        wal.sync().expect("sync after checkpoint");
        assert_eq!(plan.ops(), ops);
        assert_eq!(Wal::replay(&path).expect("replay"), vec![]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn empty_checkpoint_truncates_in_place_with_one_fsync() {
        let path = temp_path("in-place");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::trace_only(0);
        let mut wal = Wal::open(&path).expect("open");
        wal.attach_faults(Arc::clone(&plan));
        for i in 0..10 {
            wal.append(&DataPoint::new(i, i, 0.0)).expect("append");
        }
        wal.sync().expect("sync");
        // Unsynced records buffered at the checkpoint are cut with the rest.
        wal.append(&DataPoint::new(10, 10, 0.0)).expect("append");
        let before = plan.ops();
        wal.rewrite(&[]).expect("checkpoint");
        assert_eq!(
            plan.trace()[before as usize..],
            [IoOp::WalRewrite],
            "no rename, no directory fsync"
        );
        assert!(!path.with_extension("wal.tmp").exists());
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), 0);
        // Appends continue at the new end of the same file.
        wal.append(&DataPoint::new(20, 21, 2.0)).expect("append");
        wal.sync().expect("sync");
        let gens: Vec<i64> = Wal::replay(&path)
            .expect("replay")
            .iter()
            .map(|p| p.gen_time)
            .collect();
        assert_eq!(gens, vec![20]);
        // Survivors still take the tmp + rename + directory-fsync protocol.
        let before = plan.ops();
        wal.rewrite(&[DataPoint::new(20, 21, 2.0)])
            .expect("rewrite");
        assert_eq!(
            plan.trace()[before as usize..],
            [IoOp::WalRewrite, IoOp::WalRename, IoOp::DirSync]
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
}
