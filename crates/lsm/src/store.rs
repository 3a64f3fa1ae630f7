//! Table stores: where encoded SSTables live.
//!
//! The engine talks to a [`TableStore`] trait so experiments can run against
//! a fast [`MemStore`] (model-validation sweeps over millions of points)
//! while durability-sensitive users get the on-disk [`FileStore`]. Both
//! stores move data through the real SSTable wire format — the in-memory
//! store is a storage substitution, not a code-path shortcut.
//!
//! A table enters a store one of three ways: [`TableStore::put`] stores it
//! durably at once; [`TableStore::publish_batch`] makes a plan's outputs
//! readable, and [`TableStore::sync_published`] later makes those of them
//! still live durable. The [`FileStore`] keeps a published table in memory
//! until its sync writes it, so one deleted before then never reaches the
//! file system. A store that overrides neither takes the defaults:
//! `publish_batch` is one `put` per table and `sync_published` owes
//! nothing (the wrappers forward both). [`CachedStore`] puts a
//! [`BlockCache`] in front of any store for reads.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use seplsm_types::{DataPoint, Error, Result, TimeRange};

use crate::cache::{BlockCache, BlockKey};
use crate::fault::{self, FaultPlan, IoOp};
use crate::obs::{Event, ObserverHandle};
use crate::sstable::format::{
    self, ByteSpan, EncodeOptions, RangeRead, TableIndex,
};
use crate::sstable::{SsTableId, SsTableMeta};

/// Fsyncs a directory so a preceding `rename` inside it survives a power
/// cut. `rename` makes a tmp-file promotion atomic, but the *directory
/// entry* update lives in the directory inode — until that is flushed the
/// rename itself can be lost. Call this after every tmp-write + rename
/// (seplint rule R6 enforces it in the durability modules).
pub fn sync_dir(dir: &Path) -> Result<()> {
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Removes every `*.tmp` file directly under `dir` — debris from writes
/// crashed between tmp creation and the promoting rename. Missing dirs are
/// fine (nothing to sweep); used by [`FileStore::open`], `Wal::open` and
/// `Manifest::open`.
pub(crate) fn sweep_tmp_files(dir: &Path) -> Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        let is_tmp = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e == "tmp");
        if is_tmp && path.is_file() {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(())
}

/// Backing storage for encoded SSTables.
///
/// Implementations assign monotonically increasing [`SsTableId`]s and must
/// persist the exact encoded bytes; readers re-validate checksums on `get`.
pub trait TableStore: Send + Sync {
    /// Encodes and stores `points` as a new SSTable, returning its metadata
    /// and the encoded size in bytes.
    fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)>;

    /// Stores every chunk as its own new SSTable — the outputs of one
    /// flush or merge — returning one `(metadata, encoded size)` per chunk,
    /// in order. When this returns every table is readable under its id,
    /// but a crash may take it back, whole or torn, until
    /// [`sync_published`](TableStore::sync_published) has made it durable; a
    /// failure may leave any subset of the tables behind (unreferenced, for
    /// orphan GC). For an owner that syncs only the tables that live until
    /// its next horizon and deletes the rest unsynced: the [`FileStore`]
    /// keeps such a table in memory, so one deleted before it is synced
    /// never reaches the file system. The default is one
    /// [`put`](TableStore::put) per chunk — already durable, so the default
    /// `sync_published` owes nothing.
    fn publish_batch(
        &self,
        chunks: &[&[DataPoint]],
    ) -> Result<Vec<(SsTableMeta, usize)>> {
        chunks.iter().map(|chunk| self.put(chunk)).collect()
    }

    /// Makes the published tables `ids` durable (the [`FileStore`]: one
    /// write and one fsync per table, then one fsync of the directory).
    /// Nothing may name a table of a
    /// [`publish_batch`](TableStore::publish_batch) durably — no manifest
    /// record — before this has returned for it.
    fn sync_published(&self, ids: &[SsTableId]) -> Result<()> {
        let _ = ids;
        Ok(())
    }

    /// Reads, validates and decodes the table.
    fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>>;

    /// Removes the table (idempotent).
    fn delete(&self, id: SsTableId) -> Result<()>;

    /// Ids of every live table, in ascending id order.
    fn list(&self) -> Result<Vec<SsTableId>>;

    /// Block-granular range read: decodes only the blocks overlapping
    /// `range` — none when the table's index or filter rules the range out
    /// — and reports what was scanned. The default is one
    /// [`read_raw`](TableStore::read_raw) through
    /// [`format::decode_range`]; a store that exposes no raw bytes decodes
    /// the whole table and counts it as one block.
    fn get_range(&self, id: SsTableId, range: TimeRange) -> Result<RangeRead> {
        if let Some(bytes) = self.read_raw(id)? {
            return format::decode_range(&bytes, range);
        }
        let points = self.get(id)?;
        let points_scanned = points.len() as u64;
        Ok(RangeRead {
            points: points
                .into_iter()
                .filter(|p| range.contains(p.gen_time))
                .collect(),
            points_scanned,
            blocks_read: 1,
        })
    }

    /// Moves an unreadable table out of the live set (salvage-mode
    /// recovery). The default simply removes it; stores with durable
    /// backing should instead park the bytes somewhere recoverable (the
    /// [`FileStore`] moves them into a `quarantine/` subdirectory) so the
    /// damaged table stays available for forensics.
    fn quarantine(&self, id: SsTableId) -> Result<()> {
        self.delete(id)
    }

    /// Reads the table's raw encoded bytes without decoding them, for
    /// callers (the [`CachedStore`]) that parse the index once and decode
    /// blocks selectively. `Ok(None)` means the store does not expose raw
    /// bytes; such stores are served through `get`/`get_range` instead.
    fn read_raw(&self, id: SsTableId) -> Result<Option<Bytes>> {
        let _ = id;
        Ok(None)
    }

    /// Length in bytes of the table's encoded form, or `Ok(None)` if the
    /// store cannot serve byte-granular reads. Paired with [`read_span`]:
    /// a reader that knows the length can fetch the v3 footer directly.
    ///
    /// [`read_span`]: TableStore::read_span
    fn table_len(&self, id: SsTableId) -> Result<Option<u64>> {
        let _ = id;
        Ok(None)
    }

    /// Reads exactly `span` of the table's encoded bytes — the
    /// block-granular read capability. `Ok(None)` means the store cannot
    /// serve byte ranges (callers fall back to [`read_raw`] or `get`); a
    /// span outside the file is an error.
    ///
    /// [`read_raw`]: TableStore::read_raw
    fn read_span(
        &self,
        id: SsTableId,
        span: ByteSpan,
    ) -> Result<Option<Bytes>> {
        let _ = (id, span);
        Ok(None)
    }

    /// Judges, from index/filter metadata alone, whether the table may
    /// hold any point in `range`. `Ok(Some(false))` is a **definitive**
    /// miss (the caller can skip the table without touching data blocks);
    /// `Ok(Some(true))` may be a false positive; `Ok(None)` means the
    /// store cannot judge (no pruning metadata available). The default
    /// judges from a freshly loaded index ([`load_index`]).
    fn may_contain(
        &self,
        id: SsTableId,
        range: TimeRange,
    ) -> Result<Option<bool>> {
        Ok(load_index(self, id)?.map(|(index, _)| index.may_contain(range)))
    }

    /// Hints that the table is expected to be deleted soon. No store acts
    /// on it and the engines never give it; it stays a no-op only because
    /// the benchmark's `TimedStore` decorator forwards it.
    fn note_short_lived(&self, id: SsTableId) {
        let _ = id;
    }

    /// Hints that the table has left its engine's version: no reader asks
    /// for it any more, though it stays in the store — a durable version
    /// still names it — until the engine's next horizon deletes it. Plain
    /// stores ignore the hint; the [`CachedStore`] drops the table's cached
    /// blocks and index at once, so a retired table never squats in the
    /// cache.
    fn note_retired(&self, id: SsTableId) {
        let _ = id;
    }

    /// The table's parsed [`TableIndex`], or `Ok(None)` if the store cannot
    /// serve index metadata (no raw bytes, no ranged reads). The default
    /// loads it fresh on every call via [`load_index`]; the [`CachedStore`]
    /// overrides this to serve the shared index cache, which is what lets
    /// aggregation pushdown plan whole tables without faulting a single
    /// data block.
    fn table_index(&self, id: SsTableId) -> Result<Option<Arc<TableIndex>>> {
        Ok(load_index(self, id)?.map(|(index, _)| Arc::new(index)))
    }
}

/// Slices `span` out of a whole in-memory table, validating bounds.
fn slice_span(bytes: &Bytes, span: ByteSpan) -> Result<Bytes> {
    let start = usize::try_from(span.offset)
        .map_err(|_| Error::Corrupt("span offset overflows usize".into()))?;
    let end = usize::try_from(span.end())
        .map_err(|_| Error::Corrupt("span end overflows usize".into()))?;
    if end > bytes.len() || start > end {
        return Err(Error::Corrupt(format!(
            "span {}..{} outside table of {} bytes",
            span.offset,
            span.end(),
            bytes.len()
        )));
    }
    Ok(bytes.slice(start..end))
}

/// Second constructor of a [`TableIndex`], the ranged twin of
/// [`format::read_table_index`]: a table whose last bytes are a v3 footer
/// is walked through two byte-granular reads (metaindex + footer, then
/// index + filter — ~a few hundred bytes); anything else (a v1/v2 table, a
/// torn v3 write, a store without ranged reads) takes one whole-file
/// [`read_raw`]. Returns the index plus the raw bytes *if* a whole-file
/// read happened anyway (so callers can decode blocks from it without a
/// second read).
///
/// [`read_raw`]: TableStore::read_raw
pub fn load_index<S: TableStore + ?Sized>(
    store: &S,
    id: SsTableId,
) -> Result<Option<(TableIndex, Option<Bytes>)>> {
    let fetch = |span: ByteSpan| -> Result<Bytes> {
        store.read_span(id, span)?.ok_or_else(|| {
            Error::Corrupt(format!("ranged read of table {id} unavailable"))
        })
    };
    if let Some(len) = store.table_len(id)? {
        match format::v3_footer(len, fetch) {
            Ok(tail) => {
                let index = format::v3_index(tail, fetch)?;
                return Ok(Some((index, None)));
            }
            // Too short for a v3 tail, no v3 footer, or no ranged reads:
            // the whole-file constructor below decides what the table is.
            Err(Error::Corrupt(_)) => {}
            Err(e) => return Err(e),
        }
    }
    let Some(bytes) = store.read_raw(id)? else {
        return Ok(None);
    };
    let index = format::read_table_index(&bytes)?;
    Ok(Some((index, Some(bytes))))
}

/// An in-memory [`TableStore`] holding encoded SSTable bytes.
#[derive(Default)]
pub struct MemStore {
    inner: Mutex<MemStoreInner>,
    options: EncodeOptions,
}

#[derive(Default)]
struct MemStoreInner {
    next_id: u64,
    tables: HashMap<SsTableId, Bytes>,
}

impl MemStore {
    /// Creates an empty in-memory store writing the default (v3) format.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store encoding tables with `options` (another
    /// block size).
    pub fn with_options(options: EncodeOptions) -> Self {
        Self {
            inner: Mutex::default(),
            options,
        }
    }

    /// Total encoded bytes currently held.
    pub fn encoded_bytes(&self) -> usize {
        self.inner.lock().tables.values().map(Bytes::len).sum()
    }

    /// The encoded bytes of table `id`.
    fn bytes(&self, id: SsTableId) -> Result<Bytes> {
        self.inner
            .lock()
            .tables
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::Corrupt(format!("missing table {id}")))
    }
}

impl TableStore for MemStore {
    fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
        let encoded = format::encode_with(points, &self.options)?;
        let size = encoded.len();
        let mut inner = self.inner.lock();
        let id = SsTableId(inner.next_id);
        inner.next_id += 1;
        inner.tables.insert(id, encoded);
        Ok((SsTableMeta::describe(id, points), size))
    }

    fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
        format::decode(&self.bytes(id)?)
    }

    fn delete(&self, id: SsTableId) -> Result<()> {
        self.inner.lock().tables.remove(&id);
        Ok(())
    }

    fn list(&self) -> Result<Vec<SsTableId>> {
        let mut ids: Vec<SsTableId> =
            self.inner.lock().tables.keys().copied().collect();
        ids.sort();
        Ok(ids)
    }

    fn read_raw(&self, id: SsTableId) -> Result<Option<Bytes>> {
        self.bytes(id).map(Some)
    }

    fn table_len(&self, id: SsTableId) -> Result<Option<u64>> {
        Ok(Some(self.bytes(id)?.len() as u64))
    }

    fn read_span(
        &self,
        id: SsTableId,
        span: ByteSpan,
    ) -> Result<Option<Bytes>> {
        slice_span(&self.bytes(id)?, span).map(Some)
    }
}

/// The whole table file at `path` in one `read`: its length comes from the
/// file's metadata, where `std::fs::read` finds the end with a second read.
fn read_whole(path: &Path) -> Result<Vec<u8>> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
        Error::Corrupt(format!("{} does not fit in memory", path.display()))
    })?;
    let mut bytes = vec![0; len];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// A directory-backed [`TableStore`]: one `NNNNNNNN.sst` file per table.
///
/// [`publish_batch`](TableStore::publish_batch) *stages* a table: it keeps
/// the encoded bytes in memory, touches no file, and serves every read of
/// the table from them through the same decode and checks as a file's.
/// [`sync_published`](TableStore::sync_published) writes a staged table to
/// `NNNNNNNN.sst.tmp`, fsyncs it, renames it to its live name and fsyncs the
/// directory; [`put`](TableStore::put) does both at once. A staged table that
/// is deleted before it is synced never reaches the file system. So tmp
/// files exist only inside a sync, a crash never leaves a half-written or
/// unsynced table under a live name, and the tmp debris a crash inside a
/// sync leaves is swept by the next [`open`](Self::open). `get`
/// re-validates the CRC.
pub struct FileStore {
    dir: PathBuf,
    next_id: Mutex<u64>,
    options: EncodeOptions,
    faults: Option<Arc<FaultPlan>>,
    /// Published tables not yet synced: their encoded bytes, which no file
    /// holds yet.
    staged: Mutex<HashMap<SsTableId, Bytes>>,
}

impl FileStore {
    /// Opens (creating if needed) a store in `dir`. Existing `.sst` files are
    /// adopted and id assignment continues after the largest one found;
    /// stale `*.tmp` debris from crashed writes is swept first.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        sweep_tmp_files(&dir)?;
        let mut max_id = None::<u64>;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if let Some(id) = Self::parse_name(&entry.path()) {
                max_id = Some(max_id.map_or(id, |m: u64| m.max(id)));
            }
        }
        Ok(Self {
            dir,
            next_id: Mutex::new(max_id.map_or(0, |m| m + 1)),
            options: EncodeOptions::default(),
            faults: None,
            staged: Mutex::default(),
        })
    }

    /// Opens a store that encodes new tables with `options`; existing
    /// tables of every dialect remain readable.
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: EncodeOptions,
    ) -> Result<Self> {
        let mut store = Self::open(dir)?;
        store.options = options;
        Ok(store)
    }

    /// Attaches a fault plan: every subsequent physical operation (tmp
    /// write, fsync, rename, read, delete, list, directory sync) consults
    /// the plan first. Reading or dropping a staged table is not one. Used
    /// by the crash-schedule harness.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Directory that quarantined (salvage-mode) tables are moved into.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Encoded bytes of the tables staged in memory, waiting for a sync.
    pub fn staged_bytes(&self) -> usize {
        self.staged.lock().values().map(Bytes::len).sum()
    }

    /// How many tables are staged in memory, waiting for a sync.
    pub fn staged_tables(&self) -> usize {
        self.staged.lock().len()
    }

    fn path_for(&self, id: SsTableId) -> PathBuf {
        self.dir.join(format!("{:08}.sst", id.0))
    }

    fn tmp_path_for(&self, id: SsTableId) -> PathBuf {
        self.dir.join(format!("{:08}.sst.tmp", id.0))
    }

    fn parse_name(path: &Path) -> Option<u64> {
        if path.extension()?.to_str()? != "sst" {
            return None;
        }
        path.file_stem()?.to_str()?.parse().ok()
    }

    /// The bytes of table `id` if it is staged. The guard goes before the
    /// caller does any I/O: the clone is a reference count.
    fn staged(&self, id: SsTableId) -> Option<Bytes> {
        self.staged.lock().get(&id).cloned()
    }

    /// Encodes `points` under a fresh id and stages the bytes: readable,
    /// not durable, in no file until [`sync_published`] writes it.
    ///
    /// [`sync_published`]: TableStore::sync_published
    fn stage(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
        let encoded = format::encode_with(points, &self.options)?;
        let id = {
            let mut next = self.next_id.lock();
            let id = SsTableId(*next);
            *next += 1;
            id
        };
        let size = encoded.len();
        self.staged.lock().insert(id, encoded);
        Ok((SsTableMeta::describe(id, points), size))
    }

    /// Drops the staged bytes of a failed `put` or `publish_batch`, which
    /// nothing refers to, so that the retry its caller makes does not leave
    /// them behind.
    fn discard(&self, ids: impl IntoIterator<Item = SsTableId>) {
        let mut staged = self.staged.lock();
        for id in ids {
            staged.remove(&id);
        }
    }

    /// [`sync_published`](TableStore::sync_published) over the staged ones
    /// of `ids`: every table written to its tmp file, then each fsynced and
    /// renamed — no longer staged — then the directory fsynced once.
    fn write_and_sync(&self, ids: &[SsTableId]) -> Result<()> {
        let mut written = Vec::with_capacity(ids.len());
        for &id in ids {
            let Some(bytes) = self.staged(id) else {
                continue;
            };
            // `create` truncates what a failed attempt left; a torn write
            // leaves a prefix in the tmp file behind, swept on the next open.
            let tmp = self.tmp_path_for(id);
            fault::write_hooked(
                self.faults.as_ref(),
                IoOp::StoreWrite,
                &tmp,
                &bytes,
                || std::fs::File::create(&tmp),
            )?;
            written.push(id);
        }
        for id in written {
            let tmp = self.tmp_path_for(id);
            fault::hook(self.faults.as_ref(), IoOp::StoreSync)?;
            std::fs::File::open(&tmp)?.sync_all()?;
            fault::hook(self.faults.as_ref(), IoOp::StoreRename)?;
            std::fs::rename(&tmp, self.path_for(id))?;
            self.staged.lock().remove(&id);
        }
        fault::hook(self.faults.as_ref(), IoOp::DirSync)?;
        sync_dir(&self.dir)
    }
}

impl TableStore for FileStore {
    /// Stages the table and syncs it at once. A failed put leaves nothing
    /// staged and no tmp file: no horizon will ever ask for the table. One
    /// the failure had already renamed is an unreferenced orphan.
    fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
        let (meta, size) = self.stage(points)?;
        if let Err(e) = self.sync_published(&[meta.id]) {
            self.discard([meta.id]);
            return Err(e);
        }
        Ok((meta, size))
    }

    /// Every table staged in memory and nothing else: no file, no hooked
    /// op.
    fn publish_batch(
        &self,
        chunks: &[&[DataPoint]],
    ) -> Result<Vec<(SsTableMeta, usize)>> {
        let mut staged = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            match self.stage(chunk) {
                Ok(table) => staged.push(table),
                Err(e) => {
                    self.discard(staged.iter().map(|(meta, _)| meta.id));
                    return Err(e);
                }
            }
        }
        Ok(staged)
    }

    /// Per staged table one write of its tmp file; then per table one fsync
    /// and the rename to its live name; then one fsync of the directory,
    /// which makes every rename durable. An id no longer staged costs
    /// nothing — a horizon retried after a failure syncs only what the
    /// failed attempt did not — and no id, nothing at all. A failure keeps
    /// what it did not rename staged and, short of a crash, removes its tmp
    /// files: after an injected crash nothing more touches the disk.
    fn sync_published(&self, ids: &[SsTableId]) -> Result<()> {
        if ids.is_empty() {
            return Ok(());
        }
        let result = self.write_and_sync(ids);
        if result.is_err()
            && !self.faults.as_ref().is_some_and(|p| p.is_crashed())
        {
            for &id in ids {
                if self.staged.lock().contains_key(&id) {
                    let _ = std::fs::remove_file(self.tmp_path_for(id));
                }
            }
        }
        result
    }

    fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
        if let Some(bytes) = self.staged(id) {
            return format::decode(&bytes);
        }
        fault::hook(self.faults.as_ref(), IoOp::StoreRead)?;
        format::decode(&read_whole(&self.path_for(id))?)
    }

    /// Removes the table: a staged one by dropping its bytes, with no I/O.
    fn delete(&self, id: SsTableId) -> Result<()> {
        if self.staged.lock().remove(&id).is_some() {
            return Ok(());
        }
        fault::hook(self.faults.as_ref(), IoOp::StoreDelete)?;
        match std::fs::remove_file(self.path_for(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self) -> Result<Vec<SsTableId>> {
        fault::hook(self.faults.as_ref(), IoOp::StoreList)?;
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(id) = Self::parse_name(&entry.path()) {
                ids.push(SsTableId(id));
            }
        }
        ids.sort();
        Ok(ids)
    }

    fn read_raw(&self, id: SsTableId) -> Result<Option<Bytes>> {
        if let Some(bytes) = self.staged(id) {
            return Ok(Some(bytes));
        }
        fault::hook(self.faults.as_ref(), IoOp::StoreRead)?;
        Ok(Some(read_whole(&self.path_for(id))?.into()))
    }

    fn table_len(&self, id: SsTableId) -> Result<Option<u64>> {
        if let Some(bytes) = self.staged(id) {
            return Ok(Some(bytes.len() as u64));
        }
        fault::hook(self.faults.as_ref(), IoOp::StoreRead)?;
        Ok(Some(std::fs::metadata(self.path_for(id))?.len()))
    }

    fn read_span(
        &self,
        id: SsTableId,
        span: ByteSpan,
    ) -> Result<Option<Bytes>> {
        use std::io::{Read, Seek, SeekFrom};
        if let Some(bytes) = self.staged(id) {
            return slice_span(&bytes, span).map(Some);
        }
        fault::hook(self.faults.as_ref(), IoOp::StoreRead)?;
        let mut f = std::fs::File::open(self.path_for(id))?;
        let file_len = f.metadata()?.len();
        if span.end() > file_len {
            return Err(Error::Corrupt(format!(
                "span {}..{} outside table of {file_len} bytes",
                span.offset,
                span.end()
            )));
        }
        let len = usize::try_from(span.len).map_err(|_| {
            Error::Corrupt("span length overflows usize".into())
        })?;
        // Opens and stats the file, seeks, and reads the whole span with one
        // `read` however many blocks it covers (so callers fetch a run of
        // blocks as one span). No mmap: the workspace forbids unsafe code.
        f.seek(SeekFrom::Start(span.offset))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)?;
        Ok(Some(buf.into()))
    }

    fn quarantine(&self, id: SsTableId) -> Result<()> {
        fault::hook(self.faults.as_ref(), IoOp::StoreDelete)?;
        let src = self.path_for(id);
        if !src.exists() {
            return Ok(()); // idempotent, like delete
        }
        let qdir = self.quarantine_dir();
        std::fs::create_dir_all(&qdir)?;
        let dst = qdir.join(format!("{:08}.sst", id.0));
        std::fs::rename(&src, &dst)?;
        fault::hook(self.faults.as_ref(), IoOp::DirSync)?;
        sync_dir(&qdir)?;
        fault::hook(self.faults.as_ref(), IoOp::DirSync)?;
        sync_dir(&self.dir)?;
        Ok(())
    }
}

/// A [`TableStore`] wrapper that serves reads through a shared
/// [`BlockCache`] and strictly invalidates on table retirement and removal.
///
/// * `get` / `get_range` consult the cached [`TableIndex`] (parsed at most
///   once per table) and then look up every needed block: a **hit** costs
///   no store I/O at all; the **misses** are fetched one
///   [`read_span`](TableStore::read_span) per run of missing blocks whose
///   byte spans abut, so no cached or unwanted byte is read, and each block
///   of a run is decoded and CRC-checked on its own.
/// * `note_retired`, `delete` and `quarantine` call
///   [`BlockCache::invalidate_table`] *before* forwarding, so a table
///   consumed by a compaction can never serve a later read from the cache —
///   even if the underlying removal fails — and one its engine keeps on
///   disk until its next horizon gives its cache share back at once.
/// * Accounting: in a [`RangeRead`], `points_scanned` counts every point
///   of every examined block (hits and misses alike — the paper's
///   read-amplification quantity), while `blocks_read` counts only blocks
///   actually decoded from the inner store's bytes, so it reflects the
///   inner store's work — disk work unless the table is one the
///   [`FileStore`] still stages in memory.
///
/// Stores that do not expose raw bytes (`read_raw` → `Ok(None)`) pass
/// through uncached. Cache traffic emits typed `CacheHit` / `CacheMiss` /
/// `CacheEvict` events on the attached observer; like all observer
/// traffic it is invisible to fault-plan op numbering, and a warm hit does
/// no hooked I/O at all.
pub struct CachedStore {
    inner: Arc<dyn TableStore>,
    cache: Arc<BlockCache>,
    obs: ObserverHandle,
}

impl CachedStore {
    /// Wraps `inner` with `cache` and no observer.
    pub fn new(inner: Arc<dyn TableStore>, cache: Arc<BlockCache>) -> Self {
        Self {
            inner,
            cache,
            obs: ObserverHandle::detached(),
        }
    }

    /// Wraps `inner` with `cache`, emitting cache events on `obs`.
    pub fn with_observer(
        inner: Arc<dyn TableStore>,
        cache: Arc<BlockCache>,
        obs: ObserverHandle,
    ) -> Self {
        Self { inner, cache, obs }
    }

    /// The shared cache behind this wrapper.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Replaces the observer handle cache events are emitted on.
    pub fn set_observer(&mut self, obs: ObserverHandle) {
        self.obs = obs;
    }

    /// The table's parsed index, from the cache, from a ranged tail walk
    /// (v3 tables on span-capable stores — a few hundred bytes), or from
    /// one whole-file raw read (v1/v2), whose bytes come along.
    fn index_for(
        &self,
        id: SsTableId,
    ) -> Result<Option<(Arc<TableIndex>, Option<Bytes>)>> {
        if let Some(index) = self.cache.lookup_index(id) {
            return Ok(Some((index, None)));
        }
        let Some((index, raw)) = load_index(self.inner.as_ref(), id)? else {
            return Ok(None);
        };
        let index = Arc::new(index);
        self.cache.insert_index(id, Arc::clone(&index));
        Ok(Some((index, raw)))
    }

    /// One visit to `blocks` (ascending): all are looked up first, one
    /// `CacheHit`/`CacheMiss` each; then each maximal run of misses whose
    /// spans abut is fetched with one `read_span`, cut into its blocks, and
    /// each decoded and inserted. A held whole-file buffer (`raw`, v1/v2)
    /// is decoded from instead; a store without ranged reads is read whole
    /// once. Returns the blocks' points and how many were decoded.
    fn visit(
        &self,
        id: SsTableId,
        index: &TableIndex,
        blocks: impl IntoIterator<Item = usize>,
        mut raw: Option<Bytes>,
    ) -> Result<(Vec<Arc<Vec<DataPoint>>>, u64)> {
        let key = |block: usize| BlockKey {
            table: id,
            block: block as u32,
        };
        let mut found = Vec::new();
        // Runs of misses: `found[start..end]` and their joint span.
        let mut runs: Vec<(usize, usize, ByteSpan)> = Vec::new();
        for block in blocks {
            let hit = self.cache.lookup(key(block));
            let (table, b) = (id.0, block as u64);
            self.obs.emit(|| match hit {
                Some(_) => Event::CacheHit { table, block: b },
                None => Event::CacheMiss { table, block: b },
            });
            if hit.is_none() {
                let span = index.block_span(block)?;
                match runs.last_mut() {
                    Some((_, end, run))
                        if *end == found.len() && run.end() == span.offset =>
                    {
                        *end += 1;
                        run.len += span.len;
                    }
                    _ => runs.push((found.len(), found.len() + 1, span)),
                }
            }
            found.push((block, hit));
        }
        let decoded: usize =
            runs.iter().map(|(start, end, _)| end - start).sum();
        for (start, end, run) in runs {
            let fetched = match raw {
                Some(_) => None,
                None => self.inner.read_span(id, run)?,
            };
            if fetched.is_none() && raw.is_none() {
                raw = self.inner.read_raw(id)?;
            }
            for (block, slot) in &mut found[start..end] {
                let points = Arc::new(match (&fetched, &raw) {
                    (Some(bytes), _) => {
                        let span = index.block_span(*block)?;
                        let part = ByteSpan {
                            offset: span.offset - run.offset,
                            len: span.len,
                        };
                        let bytes = slice_span(bytes, part)?;
                        format::decode_index_block_bytes(index, *block, &bytes)?
                    }
                    (None, Some(bytes)) => {
                        format::decode_index_block(bytes, index, *block)?
                    }
                    (None, None) => {
                        return Err(Error::Corrupt(format!(
                            "raw bytes of table {id} unavailable"
                        )))
                    }
                });
                for ev in self.cache.insert(key(*block), Arc::clone(&points)) {
                    self.obs.emit(|| Event::CacheEvict {
                        table: ev.key.table.0,
                        block: u64::from(ev.key.block),
                        points: ev.points,
                    });
                }
                *slot = Some(points);
            }
        }
        let points = found.into_iter().filter_map(|(_, points)| points);
        Ok((points.collect(), decoded as u64))
    }
}

impl TableStore for CachedStore {
    fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
        self.inner.put(points)
    }

    fn publish_batch(
        &self,
        chunks: &[&[DataPoint]],
    ) -> Result<Vec<(SsTableMeta, usize)>> {
        self.inner.publish_batch(chunks)
    }

    fn sync_published(&self, ids: &[SsTableId]) -> Result<()> {
        self.inner.sync_published(ids)
    }

    fn note_retired(&self, id: SsTableId) {
        self.cache.invalidate_table(id);
        self.inner.note_retired(id);
    }

    fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
        let Some((index, raw)) = self.index_for(id)? else {
            return self.inner.get(id); // raw reads unsupported: pass through
        };
        let (blocks, _) = self.visit(id, &index, 0..index.blocks.len(), raw)?;
        let mut out = Vec::with_capacity(index.count);
        for points in blocks {
            out.extend(points.iter().cloned());
        }
        Ok(out)
    }

    fn get_range(&self, id: SsTableId, range: TimeRange) -> Result<RangeRead> {
        let Some((index, raw)) = self.index_for(id)? else {
            return self.inner.get_range(id, range);
        };
        let mut read = RangeRead::default();
        // Index + filter pruning: a definitive miss examines no blocks.
        if !index.may_contain(range) {
            return Ok(read);
        }
        let wanted = index.overlapping(range).map(|(block, _)| block);
        let (blocks, decoded) = self.visit(id, &index, wanted, raw)?;
        read.blocks_read = decoded;
        for points in blocks {
            read.points_scanned += points.len() as u64;
            read.points.extend(
                points
                    .iter()
                    .filter(|p| range.contains(p.gen_time))
                    .cloned(),
            );
        }
        Ok(read)
    }

    fn delete(&self, id: SsTableId) -> Result<()> {
        self.cache.invalidate_table(id);
        self.inner.delete(id)
    }

    fn quarantine(&self, id: SsTableId) -> Result<()> {
        self.cache.invalidate_table(id);
        self.inner.quarantine(id)
    }

    fn list(&self) -> Result<Vec<SsTableId>> {
        self.inner.list()
    }

    fn read_raw(&self, id: SsTableId) -> Result<Option<Bytes>> {
        self.inner.read_raw(id)
    }

    fn table_len(&self, id: SsTableId) -> Result<Option<u64>> {
        self.inner.table_len(id)
    }

    fn read_span(
        &self,
        id: SsTableId,
        span: ByteSpan,
    ) -> Result<Option<Bytes>> {
        self.inner.read_span(id, span)
    }

    fn may_contain(
        &self,
        id: SsTableId,
        range: TimeRange,
    ) -> Result<Option<bool>> {
        match self.index_for(id)? {
            Some((index, _)) => Ok(Some(index.may_contain(range))),
            None => self.inner.may_contain(id, range),
        }
    }

    fn table_index(&self, id: SsTableId) -> Result<Option<Arc<TableIndex>>> {
        // Served from the shared index cache when warm; a cold lookup does
        // a ranged tail walk (v3) or one raw read (v1/v2), never a data
        // block — so a pushdown plan over cached indexes is I/O-free.
        Ok(self.index_for(id)?.map(|(index, _)| index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(range: std::ops::Range<i64>) -> Vec<DataPoint> {
        range
            .map(|i| DataPoint::new(i * 10, i * 10 + 3, i as f64))
            .collect()
    }

    fn exercise_store(store: &dyn TableStore) {
        let (meta_a, size_a) = store.put(&pts(0..100)).expect("put a");
        let (meta_b, _) = store.put(&pts(100..150)).expect("put b");
        assert!(meta_b.id > meta_a.id, "ids must increase");
        assert!(size_a > 0);
        assert_eq!(meta_a.count, 100);

        assert_eq!(store.get(meta_a.id).expect("get a"), pts(0..100));
        assert_eq!(store.get(meta_b.id).expect("get b"), pts(100..150));
        assert_eq!(store.list().expect("list"), vec![meta_a.id, meta_b.id]);

        store.delete(meta_a.id).expect("delete");
        store.delete(meta_a.id).expect("idempotent delete");
        assert!(store.get(meta_a.id).is_err());
        assert_eq!(store.list().expect("list"), vec![meta_b.id]);
    }

    #[test]
    fn mem_store_round_trips() {
        let store = MemStore::new();
        exercise_store(&store);
        assert!(store.encoded_bytes() > 0);
    }

    #[test]
    fn file_store_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).expect("open");
        exercise_store(&store);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn file_store_adopts_existing_tables() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-adopt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let id_first;
        {
            let store = FileStore::open(&dir).expect("open");
            id_first = store.put(&pts(0..10)).expect("put").0.id;
        }
        {
            let store = FileStore::open(&dir).expect("re-open");
            // Id allocation resumes past the adopted table.
            let id_second = store.put(&pts(10..20)).expect("put").0.id;
            assert!(id_second > id_first);
            assert_eq!(store.get(id_first).expect("old table"), pts(0..10));
            assert_eq!(store.list().expect("list").len(), 2);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn file_store_sweeps_stale_tmp_on_open() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-sweep-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Debris from a crash between tmp write and rename.
        let stale = dir.join("00000003.sst.tmp");
        std::fs::write(&stale, b"half a table").expect("write stale tmp");
        let store = FileStore::open(&dir).expect("open");
        assert!(!stale.exists(), "open must sweep stale tmp files");
        // The sweep never touches live tables.
        let (meta, _) = store.put(&pts(0..5)).expect("put");
        drop(store);
        let store = FileStore::open(&dir).expect("re-open");
        assert_eq!(store.get(meta.id).expect("survives reopen"), pts(0..5));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn file_store_put_syncs_directory_after_rename() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-dirsync-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = crate::fault::FaultPlan::trace_only(0);
        let store = FileStore::open(&dir)
            .expect("open")
            .with_faults(Arc::clone(&plan));
        store.put(&pts(0..10)).expect("put");
        // The durable put protocol: tmp write, tmp fsync, rename, then the
        // parent-directory fsync that makes the rename itself durable.
        assert_eq!(
            plan.trace(),
            vec![
                IoOp::StoreWrite,
                IoOp::StoreSync,
                IoOp::StoreRename,
                IoOp::DirSync
            ]
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn file_store_publish_then_sync_syncs_directory_once() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-batch-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = crate::fault::FaultPlan::trace_only(0);
        let store = FileStore::open(&dir)
            .expect("open")
            .with_faults(Arc::clone(&plan));
        let (a, b, c) = (pts(0..10), pts(10..25), pts(25..30));
        let stored = store.publish_batch(&[&a, &b, &c]).expect("publish");
        let ids: Vec<SsTableId> = stored.iter().map(|(m, _)| m.id).collect();
        store.sync_published(&ids).expect("sync");
        // Group publication: every table written, then each made durable
        // and renamed, then the one directory fsync that makes every rename
        // durable.
        use IoOp::{DirSync, StoreRename, StoreSync, StoreWrite};
        assert_eq!(
            plan.trace(),
            vec![
                StoreWrite,
                StoreWrite,
                StoreWrite,
                StoreSync,
                StoreRename,
                StoreSync,
                StoreRename,
                StoreSync,
                StoreRename,
                DirSync
            ]
        );
        assert_eq!(stored.len(), 3);
        assert!(stored.windows(2).all(|w| w[0].0.id < w[1].0.id));
        assert_eq!(stored[1].0.count, 15);
        assert_eq!(store.get(stored[2].0.id).expect("get"), c);
        assert_eq!(
            stored[0].1 as u64,
            store.table_len(stored[0].0.id).expect("len").expect("some")
        );
        let ops = plan.ops();
        store.publish_batch(&[]).expect("empty batch");
        store.sync_published(&[]).expect("empty sync");
        assert_eq!(plan.ops(), ops, "an empty batch touches nothing");
        // The default implementation stores chunk by chunk.
        let mem = MemStore::new();
        let stored = mem.publish_batch(&[&a, &b]).expect("default publish");
        assert_eq!(mem.get(stored[1].0.id).expect("get"), b);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// How many `*.tmp` files `dir` holds.
    fn tmp_files(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .expect("read_dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count()
    }

    /// How many of the first `at` ops of `plan`'s trace renamed a table.
    fn renamed_before(plan: &FaultPlan, at: u64) -> usize {
        plan.trace()[..at as usize]
            .iter()
            .filter(|op| **op == IoOp::StoreRename)
            .count()
    }

    #[test]
    fn file_store_failed_put_discards_its_staged_table() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-put-fail-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // A put is four ops: write, fsync, rename, directory. Fail each
        // once: nothing stays staged — no horizon will ever sync or drop
        // the table — and no tmp file is left; only a table renamed before
        // the failure is left, as an orphan.
        for at in 0..4u64 {
            let _ = std::fs::remove_dir_all(&dir);
            let plan = FaultPlan::new(0, crate::fault::Fault::FailOnce { at });
            let store = FileStore::open(&dir)
                .expect("open")
                .with_faults(Arc::clone(&plan));
            assert!(store.put(&pts(0..10)).is_err(), "op {at}");
            assert_eq!(store.staged_tables(), 0, "op {at}");
            assert_eq!(tmp_files(&dir), 0, "op {at}");
            let renamed = renamed_before(&plan, at);
            assert_eq!(renamed, usize::from(at == 3), "op {at}");
            assert_eq!(store.list().expect("list").len(), renamed, "op {at}");
            // The retry its caller makes goes through from scratch.
            let (meta, _) = store.put(&pts(0..10)).expect("retry");
            assert_eq!(store.get(meta.id).expect("get"), pts(0..10));
            assert_eq!(store.staged_tables(), 0);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn file_store_failed_batch_removes_its_staged_tmp_files() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-batch-fail-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b, c) = (pts(0..10), pts(10..25), pts(25..30));
        // Syncing a batch of three is ten ops: three writes, then a fsync
        // and a rename per table, then the directory. Fail each once: every
        // table not yet renamed stays staged for the horizon's retry, no tmp
        // file is left, whichever op failed, and the retry syncs what is
        // still staged.
        let mut renamed_total = 0;
        for at in 0..10u64 {
            let _ = std::fs::remove_dir_all(&dir);
            let plan = FaultPlan::new(0, crate::fault::Fault::FailOnce { at });
            let store = FileStore::open(&dir)
                .expect("open")
                .with_faults(Arc::clone(&plan));
            let stored = store.publish_batch(&[&a, &b, &c]).expect("publish");
            let ids: Vec<SsTableId> =
                stored.iter().map(|(m, _)| m.id).collect();
            assert!(store.sync_published(&ids).is_err(), "op {at}");
            let renamed = renamed_before(&plan, at);
            assert_eq!(store.staged_tables(), 3 - renamed, "op {at}");
            assert_eq!(tmp_files(&dir), 0, "op {at}");
            assert_eq!(store.list().expect("list").len(), renamed, "op {at}");
            renamed_total += renamed;
            store.sync_published(&ids).expect("retry");
            assert_eq!(store.get(ids[2]).expect("get"), c);
            assert_eq!(store.staged_tables(), 0);
            assert_eq!(store.list().expect("list"), ids);
        }
        // Failing at the fsync or rename of the second table, of the third
        // or at the directory finds one, two or three renamed.
        assert_eq!(renamed_total, 1 + 1 + 2 + 2 + 3);
        let _ = std::fs::remove_dir_all(&dir);
        // A crash, unlike a transient failure, leaves its debris in place:
        // the two writes before it, and no file of the third, which it
        // refused before its `create`.
        let plan = FaultPlan::crash_at(0, 2);
        let store = FileStore::open(&dir).expect("open").with_faults(plan);
        let stored = store.publish_batch(&[&a, &b, &c]).expect("publish");
        let ids: Vec<SsTableId> = stored.iter().map(|(m, _)| m.id).collect();
        assert!(store.sync_published(&ids).is_err());
        assert_eq!(tmp_files(&dir), 2);
        drop(store);
        FileStore::open(&dir).expect("reopen");
        assert_eq!(tmp_files(&dir), 0, "open sweeps tmp files");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Every file name in `dir`.
    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("read_dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_staged_table_costs_no_io_and_no_file_yet_reads_like_a_synced_one() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-staged-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::trace_only(0);
        let store = Arc::new(
            FileStore::open(&dir)
                .expect("open")
                .with_faults(Arc::clone(&plan)),
        );
        let points = pts(0..300); // three blocks
        let (meta, size) = store.publish_batch(&[&points]).expect("stage")[0];
        let id = meta.id;
        assert_eq!(store.staged_tables(), 1);
        assert_eq!(store.staged_bytes(), size);
        let span = ByteSpan {
            offset: 0,
            len: size as u64 / 2,
        };
        let range = TimeRange::new(0, 500);
        // Everything a reader can ask of a table, asked of the staged one
        // through the store and through a cache in front of it.
        let read = |store: &Arc<FileStore>| {
            let cached = CachedStore::new(
                Arc::clone(store) as Arc<dyn TableStore>,
                crate::cache::BlockCache::with_capacity(64 * 1024),
            );
            (
                store.get(id).expect("get"),
                store.read_raw(id).expect("raw").expect("raw bytes"),
                store
                    .read_span(id, span)
                    .expect("span")
                    .expect("span bytes"),
                load_index(store.as_ref(), id)
                    .expect("index")
                    .expect("v3")
                    .0,
                cached.get_range(id, range).expect("cached").points,
                cached.get(id).expect("cached get"),
            )
        };
        let staged = read(&store);
        assert_eq!(plan.ops(), 0, "{:?}", plan.trace());
        assert_eq!(file_names(&dir), Vec::<String>::new(), "no file at all");
        assert_eq!(staged.0, points);
        assert_eq!(staged.1.len(), size);
        assert_eq!(staged.4.len(), 51);
        assert_eq!(staged.5, points);
        // Synced, the same table reads the same from its file.
        store.sync_published(&[id]).expect("sync");
        assert_eq!(store.staged_tables(), 0);
        assert_eq!(file_names(&dir), vec![format!("{:08}.sst", id.0)]);
        let ops = plan.ops();
        assert_eq!(read(&store), staged);
        assert!(plan.ops() > ops, "the synced table is read from disk");
        // Corruption in the staged bytes is caught by the same checks.
        let (meta, _) = store.publish_batch(&[&points]).expect("stage")[0];
        let raw = store.read_raw(meta.id).expect("raw").expect("bytes");
        let mut bytes = raw.to_vec();
        bytes[raw.len() / 3] ^= 0xff;
        store.staged.lock().insert(meta.id, bytes.into());
        assert!(store.get(meta.id).is_err(), "the CRC check applies");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn an_unsynced_table_is_readable_but_never_under_a_live_name() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-unsynced-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::trace_only(0);
        let store = FileStore::open(&dir)
            .expect("open")
            .with_faults(Arc::clone(&plan));
        let (a, b) = (pts(0..10), pts(10..25));
        let stored = store.publish_batch(&[&a, &b]).expect("publish");
        let (ida, idb) = (stored[0].0.id, stored[1].0.id);
        // Staged in memory: no op, no file.
        assert_eq!(plan.ops(), 0);
        assert!(file_names(&dir).is_empty());
        assert_eq!(store.get(idb).expect("readable"), b);
        assert_eq!(
            store.table_len(ida).expect("len"),
            Some(stored[0].1 as u64)
        );
        assert!(store.list().expect("list").is_empty(), "no live name yet");
        // One dies unsynced: its bytes go, at no op. The other is synced:
        // its write, one fsync and its rename, then the directory's.
        store.delete(ida).expect("delete");
        assert_eq!(plan.trace(), [IoOp::StoreList], "only the listing");
        let before = plan.ops() as usize;
        store.sync_published(&[idb, ida]).expect("sync");
        assert_eq!(
            plan.trace()[before..],
            [
                IoOp::StoreWrite,
                IoOp::StoreSync,
                IoOp::StoreRename,
                IoOp::DirSync
            ]
        );
        assert_eq!(store.list().expect("list"), vec![idb]);
        assert_eq!(store.staged_bytes(), 0);
        // Synced twice costs the directory only; none, nothing.
        let before = plan.ops() as usize;
        store.sync_published(&[idb]).expect("again");
        store.sync_published(&[]).expect("none");
        assert_eq!(plan.trace()[before..], [IoOp::DirSync]);
        // A crash loses an unsynced table, which left nothing on disk:
        // nothing under a live name but what was synced.
        let (meta, _) = store.publish_batch(&[&a]).expect("publish")[0];
        drop(store);
        assert_eq!(file_names(&dir), vec![format!("{:08}.sst", idb.0)]);
        let store = FileStore::open(&dir).expect("reopen");
        assert_eq!(store.list().expect("list"), vec![idb]);
        assert!(store.get(meta.id).is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn file_store_quarantines_into_subdirectory() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-quarantine-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).expect("open");
        let (meta, _) = store.put(&pts(0..20)).expect("put");
        store.quarantine(meta.id).expect("quarantine");
        store.quarantine(meta.id).expect("idempotent");
        assert!(store.get(meta.id).is_err(), "table left the live set");
        assert!(store.list().expect("list").is_empty());
        let parked =
            store.quarantine_dir().join(format!("{:08}.sst", meta.id.0));
        assert!(parked.exists(), "bytes parked for forensics");
        // The quarantine directory itself is not mistaken for a table.
        let reopened = FileStore::open(&dir).expect("re-open");
        assert!(reopened.list().expect("list").is_empty());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Delegates to an inner store while counting raw reads and bytes, so
    /// tests can prove warm cache hits do no store I/O.
    struct CountingStore {
        inner: MemStore,
        raw_reads: std::sync::atomic::AtomicU64,
        raw_bytes: std::sync::atomic::AtomicU64,
    }

    impl CountingStore {
        /// Blocks of 100 points: `pts(0..n)` cuts into blocks
        /// `[1000b, 1000b + 990]`, one per grid cell.
        fn new() -> Self {
            Self {
                inner: MemStore::with_options(EncodeOptions {
                    block_points: 100,
                }),
                raw_reads: std::sync::atomic::AtomicU64::new(0),
                raw_bytes: std::sync::atomic::AtomicU64::new(0),
            }
        }

        fn raw_reads(&self) -> u64 {
            self.raw_reads.load(std::sync::atomic::Ordering::Relaxed)
        }

        fn raw_bytes(&self) -> u64 {
            self.raw_bytes.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl TableStore for CountingStore {
        fn put(&self, points: &[DataPoint]) -> Result<(SsTableMeta, usize)> {
            self.inner.put(points)
        }

        fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
            self.inner.get(id)
        }

        fn delete(&self, id: SsTableId) -> Result<()> {
            self.inner.delete(id)
        }

        fn list(&self) -> Result<Vec<SsTableId>> {
            self.inner.list()
        }

        fn read_raw(&self, id: SsTableId) -> Result<Option<Bytes>> {
            let raw = self.inner.read_raw(id)?;
            self.raw_reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if let Some(bytes) = &raw {
                self.raw_bytes.fetch_add(
                    bytes.len() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
            }
            Ok(raw)
        }

        fn table_len(&self, id: SsTableId) -> Result<Option<u64>> {
            self.inner.table_len(id)
        }

        fn read_span(
            &self,
            id: SsTableId,
            span: format::ByteSpan,
        ) -> Result<Option<Bytes>> {
            let bytes = self.inner.read_span(id, span)?;
            self.raw_reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if let Some(bytes) = &bytes {
                self.raw_bytes.fetch_add(
                    bytes.len() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
            }
            Ok(bytes)
        }
    }

    fn cached_fixture() -> (Arc<CountingStore>, CachedStore, SsTableMeta) {
        let counting = Arc::new(CountingStore::new());
        let cache = crate::cache::BlockCache::with_capacity(64 * 1024);
        let cached = CachedStore::new(
            Arc::clone(&counting) as Arc<dyn TableStore>,
            cache,
        );
        let (meta, _) = cached.put(&pts(0..300)).expect("put");
        (counting, cached, meta)
    }

    #[test]
    fn cached_store_warm_reads_do_no_store_io() {
        let (counting, cached, meta) = cached_fixture();
        assert_eq!(cached.get(meta.id).expect("cold get"), pts(0..300));
        let cold_reads = counting.raw_reads();
        // The cold visit walks the tail (metaindex + footer, then index +
        // filter) and then fetches the three adjacent blocks as one span.
        assert_eq!(cold_reads, 2 + 1, "tail walk + one span for the run");
        for _ in 0..5 {
            assert_eq!(cached.get(meta.id).expect("warm get"), pts(0..300));
        }
        assert_eq!(
            counting.raw_reads(),
            cold_reads,
            "warm gets must not touch the inner store"
        );
        let stats = cached.cache().stats();
        assert!(stats.hits > 0);
        assert!(stats.hit_rate() > 0.5);
    }

    #[test]
    fn cached_store_range_reads_prune_and_account() {
        let (counting, cached, meta) = cached_fixture();
        // Points 0..300 at gen times i*10: blocks of 100 → 3 blocks.
        let range = TimeRange::new(0, 500); // inside block 0
        let cold = cached.get_range(meta.id, range).expect("cold");
        assert_eq!(cold.points.len(), 51);
        assert_eq!(cold.blocks_read, 1, "one block decoded from raw");
        assert_eq!(cold.points_scanned, 100);
        let warm = cached.get_range(meta.id, range).expect("warm");
        assert_eq!(warm.points, cold.points);
        assert_eq!(warm.blocks_read, 0, "warm read decodes nothing");
        assert_eq!(warm.points_scanned, 100, "scanned counts hits too");
        assert_eq!(counting.raw_reads(), 2 + 1, "tail walk + one block span");
        // Disjoint range: nothing examined at all.
        let miss = cached
            .get_range(meta.id, TimeRange::new(100_000, 200_000))
            .expect("miss");
        assert!(miss.points.is_empty());
        assert_eq!(miss.points_scanned, 0);
    }

    #[test]
    fn cached_store_fetches_the_missing_blocks_around_a_warm_one() {
        let (counting, cached, meta) = cached_fixture();
        let index = cached.table_index(meta.id).expect("index").expect("v3");
        let span = |block| index.block_span(block).expect("span");
        // Warm the middle block only: [1000, 1990] is block 1 exactly.
        let middle = cached
            .get_range(meta.id, TimeRange::new(1000, 1990))
            .expect("middle");
        assert_eq!(middle.blocks_read, 1);
        let (reads, bytes) = (counting.raw_reads(), counting.raw_bytes());
        let all = cached
            .get_range(meta.id, TimeRange::new(0, 2990))
            .expect("all three");
        assert_eq!(all.points, pts(0..300));
        assert_eq!(all.blocks_read, 2, "the warm block is not decoded");
        assert_eq!(
            counting.raw_reads() - reads,
            2,
            "a run never bridges a cached block"
        );
        assert_eq!(
            counting.raw_bytes() - bytes,
            span(0).len + span(2).len,
            "exactly the missing blocks' bytes"
        );
    }

    #[test]
    fn a_corrupt_block_inside_a_fetched_run_fails_every_read() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-run-crc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let file = Arc::new(
            FileStore::open_with(&dir, EncodeOptions { block_points: 100 })
                .expect("open"),
        );
        let (meta, _) = file.put(&pts(0..300)).expect("put"); // 3 blocks
        let index = file.table_index(meta.id).expect("index").expect("v3");
        let middle = index.block_span(1).expect("span");
        let path = file.path_for(meta.id);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[(middle.offset + middle.len / 2) as usize] ^= 0x40;
        std::fs::write(&path, bytes).expect("flip a byte of block 1");
        let cached = CachedStore::new(
            file,
            crate::cache::BlockCache::with_capacity(64 * 1024),
        );
        for attempt in ["cold", "again"] {
            assert!(
                matches!(cached.get(meta.id), Err(Error::Corrupt(_))),
                "{attempt}: block 1's CRC fails inside the run"
            );
        }
        let whole = TimeRange::new(0, 2990);
        assert!(matches!(
            cached.get_range(meta.id, whole),
            Err(Error::Corrupt(_))
        ));
        // The intact blocks around it still read.
        let last = cached
            .get_range(meta.id, TimeRange::new(2000, 2990))
            .expect("block 2");
        assert_eq!(last.points, pts(200..300));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn cached_store_delete_strictly_invalidates() {
        let (_counting, cached, meta) = cached_fixture();
        cached.get(meta.id).expect("warm the cache");
        assert!(cached.cache().stats().resident_blocks > 0);
        cached.delete(meta.id).expect("delete");
        assert_eq!(
            cached.cache().stats().resident_blocks,
            0,
            "deleted table's blocks must leave the cache"
        );
        assert!(
            cached.get(meta.id).is_err(),
            "a deleted table must never be served from the cache"
        );
    }

    #[test]
    fn cached_store_drops_a_retired_table_before_it_is_deleted() {
        // A merge's durable input leaves the version at once but stays on
        // disk until the next horizon: its blocks must not squat in the
        // cache that long.
        let (counting, cached, meta) = cached_fixture();
        cached.get(meta.id).expect("warm the cache");
        let resident = cached.cache().stats().resident_blocks;
        assert!(resident > 0);
        cached.note_retired(meta.id);
        let stats = cached.cache().stats();
        assert_eq!(stats.resident_blocks, 0, "dropped at retirement");
        assert_eq!(stats.invalidated_blocks, resident);
        assert_eq!(
            counting.get(meta.id).expect("still in the store"),
            pts(0..300)
        );
        // The deletion at the horizon finds nothing left to drop.
        cached.delete(meta.id).expect("delete");
        assert_eq!(cached.cache().stats().invalidated_blocks, resident);
    }

    #[test]
    fn cached_store_passes_through_rawless_stores() {
        /// A store with no raw-byte support: the default `read_raw`.
        struct Opaque(MemStore);
        impl TableStore for Opaque {
            fn put(
                &self,
                points: &[DataPoint],
            ) -> Result<(SsTableMeta, usize)> {
                self.0.put(points)
            }
            fn get(&self, id: SsTableId) -> Result<Vec<DataPoint>> {
                self.0.get(id)
            }
            fn delete(&self, id: SsTableId) -> Result<()> {
                self.0.delete(id)
            }
            fn list(&self) -> Result<Vec<SsTableId>> {
                self.0.list()
            }
        }
        let cache = crate::cache::BlockCache::with_capacity(1024);
        let cached = CachedStore::new(Arc::new(Opaque(MemStore::new())), cache);
        let (meta, _) = cached.put(&pts(0..50)).expect("put");
        assert_eq!(cached.get(meta.id).expect("get"), pts(0..50));
        let read = cached
            .get_range(meta.id, TimeRange::new(0, 90))
            .expect("range");
        assert_eq!(read.points.len(), 10);
        assert_eq!(
            cached.cache().stats().resident_blocks,
            0,
            "rawless stores stay uncached"
        );
    }

    #[test]
    fn cached_store_emits_typed_cache_events() {
        let counting = Arc::new(CountingStore::new());
        let cache = crate::cache::BlockCache::with_capacity(64 * 1024);
        let ring = crate::obs::RingBufferSink::new(64);
        let cached = CachedStore::with_observer(
            counting,
            cache,
            ObserverHandle::attached(ring.clone()),
        );
        let (meta, _) = cached.put(&pts(0..200)).expect("put");
        cached.get(meta.id).expect("cold");
        cached.get(meta.id).expect("warm");
        let misses = ring.count(|e| matches!(e, Event::CacheMiss { .. }));
        let hits = ring.count(|e| matches!(e, Event::CacheHit { .. }));
        assert_eq!(misses, 2, "two blocks decoded cold");
        assert_eq!(hits, 2, "two blocks served warm");
    }

    #[test]
    fn stores_serve_byte_spans() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-span-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mem = MemStore::new();
        let file = FileStore::open(&dir).expect("open");
        for store in [&mem as &dyn TableStore, &file as &dyn TableStore] {
            let (meta, size) = store.put(&pts(0..100)).expect("put");
            let len =
                store.table_len(meta.id).expect("len").expect("supported");
            assert_eq!(len, size as u64);
            let whole = store
                .read_span(meta.id, format::ByteSpan { offset: 0, len })
                .expect("span")
                .expect("supported");
            assert_eq!(
                whole,
                store.read_raw(meta.id).expect("raw").expect("raw bytes")
            );
            let tail = store
                .read_span(
                    meta.id,
                    format::ByteSpan {
                        offset: len - format::V3_FOOTER as u64,
                        len: format::V3_FOOTER as u64,
                    },
                )
                .expect("tail span")
                .expect("supported");
            format::parse_v3_footer(&tail).expect("v3 footer at tail");
            // Out-of-bounds spans are errors, not short reads.
            assert!(store
                .read_span(
                    meta.id,
                    format::ByteSpan {
                        offset: len,
                        len: 1
                    }
                )
                .is_err());
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// `/proc` read bytes and read syscalls are end-to-end benchmark
    /// metrics, so what each read method costs a `FileStore` is pinned op
    /// for op: every one is `IoOp::StoreRead`, and the count per call is
    /// the number of file opens/stats it may issue.
    #[test]
    fn file_store_read_methods_issue_a_pinned_io_sequence() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-iotrace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // (table, reads of `may_contain` / `table_index`): a v3 index loads
        // through table_len + a metaindex-and-footer span + an index-and-
        // filter span; a v2 one — a file an older build left in the
        // directory — through table_len + footer probe + whole file.
        let v2_table: &[u8] =
            include_bytes!("../../../tests/fixtures/tables/v2-bp128-512.sst");
        for (old_table, index_reads) in [(None, 3), (Some(v2_table), 3)] {
            let _ = std::fs::remove_dir_all(&dir);
            if let Some(bytes) = old_table {
                std::fs::create_dir_all(&dir).expect("dir");
                std::fs::write(dir.join("00000000.sst"), bytes).expect("seed");
            }
            let plan = FaultPlan::trace_only(0);
            let store = FileStore::open(&dir)
                .expect("open")
                .with_faults(Arc::clone(&plan));
            let (id, size) = match old_table {
                Some(bytes) => (SsTableId(0), bytes.len()),
                None => {
                    let (meta, size) = store.put(&pts(0..300)).expect("put");
                    (meta.id, size)
                }
            };
            let range = TimeRange::new(0, 500);
            let span = ByteSpan { offset: 0, len: 6 };
            let traced = |what: &str, reads: usize, call: &dyn Fn()| {
                let before = plan.trace().len();
                call();
                assert_eq!(
                    plan.trace()[before..],
                    vec![IoOp::StoreRead; reads],
                    "{what} on a {size}-byte table"
                );
            };
            traced("get", 1, &|| {
                store.get(id).expect("get");
            });
            traced("get_range", 1, &|| {
                store.get_range(id, range).expect("get_range");
            });
            traced("read_raw", 1, &|| {
                store.read_raw(id).expect("read_raw");
            });
            traced("table_len", 1, &|| {
                store.table_len(id).expect("table_len");
            });
            traced("read_span", 1, &|| {
                store.read_span(id, span).expect("read_span");
            });
            traced("may_contain", index_reads, &|| {
                store.may_contain(id, range).expect("may_contain");
            });
            traced("table_index", index_reads, &|| {
                store.table_index(id).expect("table_index");
            });
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// This thread's `read` syscalls so far, where the kernel keeps count
    /// (per thread: the test harness runs other tests beside this one).
    fn read_syscalls() -> Option<u64> {
        let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
        let line = io.lines().find_map(|l| l.strip_prefix("syscr:"))?;
        line.trim().parse().ok()
    }

    /// The hooked op count above is what crash schedules see; the kernel's
    /// count is what the benchmark's `read_syscalls_per_op` sees. A whole
    /// table is one `read`: no second one to find the end of the file.
    #[test]
    fn a_whole_table_read_is_one_read_syscall() {
        if read_syscalls().is_none() {
            return; // No /proc here: nothing to count with.
        }
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-syscr-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            FileStore::open_with(&dir, EncodeOptions::pruned()).expect("open");
        let (meta, size) = store.put(&pts(0..20_000)).expect("put");
        assert!(size > 16 * 1024, "larger than a buffer's worth: {size}");
        let counted = |call: &dyn Fn()| {
            let count = || read_syscalls().expect("counted a moment ago");
            // Reading the counter is itself counted: measure that first.
            let (a, b) = (count(), count());
            call();
            (count() - b) - (b - a)
        };
        let get = counted(&|| {
            assert_eq!(store.get(meta.id).expect("get").len(), 20_000);
        });
        assert_eq!(get, 1, "get");
        let read_raw = counted(&|| {
            let raw = store.read_raw(meta.id).expect("read_raw");
            assert_eq!(raw.map(|bytes| bytes.len()), Some(size));
        });
        assert_eq!(read_raw, 1, "read_raw");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn may_contain_prunes_point_misses_without_data_reads() {
        let store = MemStore::new(); // v3 default
        let (meta, _) = store.put(&pts(0..100)).expect("put"); // tg = i*10
                                                               // Present key: never pruned.
        assert_eq!(
            store
                .may_contain(meta.id, TimeRange::new(500, 500))
                .expect("judge"),
            Some(true)
        );
        // In-range non-key instant: bloom prunes it.
        assert_eq!(
            store
                .may_contain(meta.id, TimeRange::new(503, 503))
                .expect("judge"),
            Some(false)
        );
        // Disjoint window.
        assert_eq!(
            store
                .may_contain(meta.id, TimeRange::new(5_000, 9_000))
                .expect("judge"),
            Some(false)
        );
    }

    #[test]
    fn cached_store_v3_cold_reads_fetch_fewer_bytes_than_whole_file() {
        let counting = Arc::new(CountingStore::new());
        let cache = crate::cache::BlockCache::with_capacity(64 * 1024);
        let cached = CachedStore::new(
            Arc::clone(&counting) as Arc<dyn TableStore>,
            cache,
        );
        let (meta, size) = cached.put(&pts(0..300)).expect("put"); // 3 blocks
        let range = TimeRange::new(0, 500); // inside block 0
        let cold = cached.get_range(meta.id, range).expect("cold");
        assert_eq!(cold.points.len(), 51);
        assert_eq!(cold.blocks_read, 1);
        assert!(
            counting.raw_bytes() < size as u64,
            "cold ranged read fetched {} of {} encoded bytes",
            counting.raw_bytes(),
            size
        );
        // A pruned point probe does metadata reads only (index is cached
        // after the first visit: zero further store reads).
        let before = counting.raw_reads();
        let miss = cached
            .get_range(meta.id, TimeRange::new(7, 7))
            .expect("miss");
        assert!(miss.points.is_empty());
        assert_eq!(miss.blocks_read, 0);
        assert_eq!(counting.raw_reads(), before, "prune decided from cache");
    }

    #[test]
    fn cached_store_delete_drops_index_and_filter() {
        let counting = Arc::new(CountingStore::new());
        let cache = crate::cache::BlockCache::with_capacity(64 * 1024);
        let cached = CachedStore::new(
            Arc::clone(&counting) as Arc<dyn TableStore>,
            cache,
        );
        let (meta, _) = cached.put(&pts(0..100)).expect("put");
        // Warm the index + filter via a pruning judgement.
        assert_eq!(
            cached
                .may_contain(meta.id, TimeRange::new(0, 10))
                .expect("judge"),
            Some(true)
        );
        assert!(cached.cache().lookup_index(meta.id).is_some());
        cached.delete(meta.id).expect("delete");
        assert!(
            cached.cache().lookup_index(meta.id).is_none(),
            "stale index/filter must leave the cache with the table"
        );
        assert!(
            cached.may_contain(meta.id, TimeRange::new(0, 10)).is_err(),
            "a deleted table must not be judged from a stale filter"
        );
    }

    #[test]
    fn file_store_detects_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "seplsm-store-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).expect("open");
        let (meta, _) = store.put(&pts(0..50)).expect("put");
        let path = dir.join(format!("{:08}.sst", meta.id.0));
        let mut bytes = std::fs::read(&path).expect("read raw");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write corrupted");
        assert!(store.get(meta.id).is_err(), "corruption must be detected");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(32)
        )]

        /// The R7 runtime witness: arbitrary bytes presented as an SSTable
        /// file surface as a typed `Err` from table open and index load —
        /// never a panic, never an attacker-sized allocation. (A random
        /// byte string passing the magic *and* CRC checks is a ~2^-64
        /// event, so asserting `Err` outright is sound.)
        #[test]
        fn arbitrary_bytes_yield_typed_errors_not_panics(
            bytes in proptest::collection::vec(
                proptest::prelude::any::<u8>(),
                0..600,
            ),
            case in 0u64..u64::MAX,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "seplsm-store-fuzz-{}-{case:016x}",
                std::process::id(),
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join("00000001.sst"), &bytes)
                .expect("write table");
            let store = FileStore::open(&dir).expect("open");
            let id = SsTableId(1);
            proptest::prop_assert!(store.get(id).is_err());
            proptest::prop_assert!(load_index(&store, id).is_err());
            proptest::prop_assert!(
                format::decode(&bytes).is_err()
            );
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }

        /// Same witness against *near-valid* input: a real encoded table
        /// with one byte flipped must never panic the decoders, and a flip
        /// that lands in CRC-covered content is detected. (`load_index` may
        /// legitimately still succeed when the flip lands in a data block
        /// its spans never touch.)
        #[test]
        fn single_byte_flips_never_panic_table_open(
            flip_pos in 0usize..4096,
            flip_mask in 1u8..=255,
            case in 0u64..u64::MAX,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "seplsm-store-flip-{}-{case:016x}",
                std::process::id(),
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = FileStore::open(&dir).expect("open");
            let (meta, _) = store.put(&pts(0..40)).expect("put");
            let path = dir.join(format!("{:08}.sst", meta.id.0));
            let mut bytes = std::fs::read(&path).expect("read raw");
            let pos = flip_pos % bytes.len();
            bytes[pos] ^= flip_mask;
            std::fs::write(&path, &bytes).expect("write corrupted");
            let _ = store.get(meta.id);
            let _ = load_index(&store, meta.id);
            let _ = format::decode(&bytes);
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }
}
