//! Engine assembly: the one builder behind [`OpenOptions`],
//! [`TieredOpenOptions`] and [`MultiOpenOptions`].
//!
//! How an engine is put together does not depend on where its compaction
//! runs, so it is written once. [`EngineBuilder`] declares the settings
//! every engine shares — configuration, table store, block cache, WAL and
//! manifest paths, recovery options, fault plan, observer — and applies each
//! of them in exactly one place:
//!
//! * the store defaults to a fresh [`MemStore`] and is wrapped in a
//!   [`CachedStore`] when a cache is configured;
//! * the WAL and manifest are opened with the observer already attached
//!   (`open_wal`, `open_manifest`), so one sink sees the whole storage
//!   kernel;
//! * the fault plan reaches the WAL and manifest only after opening or
//!   recovery completes (`attach_faults`), so a crash schedule's op
//!   numbering starts at the first workload-driven disk touch;
//! * the pool of written tables the merges take their inputs from is made
//!   with the builder, one per engine — a fleet hands its own to every
//!   series, as it hands out its store.
//!
//! What differs per engine is its [`Kind`]: the settings only that engine
//! has ([`Background`]: synchronous flushes; [`Fleet`]: durable directory,
//! arbiter) and the engine type it assembles — the two
//! single-series kinds the same [`Engine`], over the executor their settings
//! start. A durable fleet assembles its series through the
//! [`Inline`] kind with neither log nor manifest: both are the fleet's
//! (`fleet.wal`, `fleet.manifest`), and so are the horizons that make a
//! series' flushes durable. Crash durability needs both files: an open that
//! configures one without the other is refused, and an engine with neither
//! makes its tables durable at its horizons and at rest (`compaction` module
//! docs).
//!
//! ```
//! use seplsm_lsm::{EngineConfig, OpenOptions};
//! use seplsm_types::Policy;
//! # fn main() -> seplsm_types::Result<()> {
//! let engine =
//!     OpenOptions::new(EngineConfig::new(Policy::conventional(512)))
//!         .open()?;
//! # drop(engine); Ok(())
//! # }
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use seplsm_types::{Error, Result};

use crate::arbiter::ArbiterConfig;
use crate::background::{self, TieredEngine};
use crate::cache::BlockCache;
use crate::compaction::Written;
use crate::engine::{self, Engine, EngineConfig, LsmEngine};
use crate::fault::FaultPlan;
use crate::manifest::{Levels, Manifest, SeriesTables};
use crate::obs::{Observer, ObserverHandle};
use crate::recovery::{self, RecoveryOptions, RecoveryReport};
use crate::store::{CachedStore, MemStore, TableStore};
use crate::version::Version;
use crate::wal::Wal;

/// Opens an [`LsmEngine`]: flush and compaction run inline in `append`.
pub type OpenOptions = EngineBuilder<Inline>;
/// Opens a [`TieredEngine`]: a background worker flushes and compacts.
pub type TieredOpenOptions = EngineBuilder<Background>;
/// Opens a [`MultiSeriesEngine`](crate::MultiSeriesEngine): one inline engine per series over a
/// shared store.
pub type MultiOpenOptions = EngineBuilder<Fleet>;

/// Which engine a builder opens, carrying the settings only that engine
/// has. Implemented by [`Inline`], [`Background`] and [`Fleet`].
pub trait Kind: Default {
    /// The engine this kind assembles.
    type Engine;

    /// Builds the engine over the resolved `store`, fresh or — with
    /// `recover` — from the state a previous engine left behind.
    #[doc(hidden)]
    fn assemble(
        options: EngineBuilder<Self>,
        store: Arc<dyn TableStore>,
        recover: bool,
    ) -> Result<(Self::Engine, RecoveryReport)>;

    /// Routes the assembled engine's WAL and manifest writes through
    /// `plan`.
    #[doc(hidden)]
    fn attach_faults(engine: &mut Self::Engine, plan: &Arc<FaultPlan>);
}

/// Kinds that open exactly one series and therefore take one WAL path and
/// one manifest path.
pub trait SingleSeries: Kind {}

/// The [`LsmEngine`] kind; it has no settings of its own
/// outside the crate.
#[derive(Debug, Default)]
pub struct Inline {
    /// The engine is one series of a durable fleet, which keeps the log
    /// and the manifest for it and makes its flushes durable at the fleet's
    /// horizons.
    pub(crate) owner_commits: bool,
    /// Recovering: the levels the owner replayed for this series from its
    /// shared manifest, in place of a manifest of the engine's own.
    pub(crate) levels: Option<Levels>,
}

/// The [`TieredEngine`] kind.
#[derive(Debug, Default)]
pub struct Background {
    pub(crate) sync_flush: bool,
}

/// The [`MultiSeriesEngine`](crate::MultiSeriesEngine) kind.
#[derive(Debug, Default)]
pub struct Fleet {
    pub(crate) durable_dir: Option<PathBuf>,
    pub(crate) arbiter: Option<ArbiterConfig>,
}

/// The one way to open an engine. Use it through [`OpenOptions`],
/// [`TieredOpenOptions`] or [`MultiOpenOptions`].
///
/// * [`open`](Self::open) starts a fresh engine;
/// * [`open_or_recover`](Self::open_or_recover) rebuilds one from the
///   state a stopped or crashed engine left behind and returns the
///   [`RecoveryReport`] alongside it.
#[must_use = "a builder does nothing until .open()/.open_or_recover()"]
pub struct EngineBuilder<K> {
    pub(crate) config: EngineConfig,
    store: Option<Arc<dyn TableStore>>,
    cache: Option<Arc<BlockCache>>,
    pub(crate) wal: Option<PathBuf>,
    pub(crate) manifest: Option<PathBuf>,
    pub(crate) recovery: RecoveryOptions,
    faults: Option<Arc<FaultPlan>>,
    pub(crate) observer: ObserverHandle,
    /// The engine's pool of written tables (a fleet series: its fleet's).
    pub(crate) written: Written,
    pub(crate) kind: K,
}

impl<K: std::fmt::Debug> std::fmt::Debug for EngineBuilder<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("policy", &self.config.policy)
            .field("cache", &self.cache.is_some())
            .field("wal", &self.wal)
            .field("manifest", &self.manifest)
            .field("recovery", &self.recovery)
            .field("faults", &self.faults.is_some())
            .field("observer", &self.observer.is_attached())
            .field("kind", &self.kind)
            .finish()
    }
}

impl<K: Kind> EngineBuilder<K> {
    /// Starts a builder for the given configuration (for a fleet: the
    /// template every new series starts from).
    pub fn new(config: EngineConfig) -> Self {
        Self {
            written: Written::new(config.sstable_points),
            config,
            store: None,
            cache: None,
            wal: None,
            manifest: None,
            recovery: RecoveryOptions::strict(),
            faults: None,
            observer: ObserverHandle::detached(),
            kind: K::default(),
        }
    }

    /// Backs the engine with `store` (a fleet: every series shares it).
    /// Defaults to a fresh in-memory store.
    pub fn store(mut self, store: Arc<dyn TableStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Serves table reads through `cache`, a shared decoded-block cache:
    /// the store is wrapped in a [`CachedStore`] before the engine opens,
    /// so queries, recovery reads and the merge inputs the pool of written
    /// tables no longer holds all go through the cache, a fleet competes
    /// for one capacity budget, and tables deleted by compactions are
    /// strictly invalidated. Off by default (reads go straight to the
    /// store).
    pub fn cache(mut self, cache: Arc<BlockCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets the [`RecoveryOptions`] used by
    /// [`open_or_recover`](Self::open_or_recover) (default: strict).
    pub fn recovery(mut self, options: RecoveryOptions) -> Self {
        self.recovery = options;
        self
    }

    /// Routes the engine's WAL and manifest writes (a fleet: its one log
    /// and its one manifest) through `plan`'s fault
    /// schedule once opening completes. The table store is attached
    /// separately at construction
    /// ([`FileStore::with_faults`](crate::FileStore::with_faults) or a
    /// [`FaultStore`](crate::fault::FaultStore) wrapper) — share one plan
    /// across all three for a single global op numbering.
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Delivers every storage-kernel [`Event`](crate::obs::Event) — from
    /// the engine, its WAL and manifest, the cache wrapper, the fault plan
    /// and any background worker — to `sink`.
    pub fn observer(mut self, sink: Arc<dyn Observer>) -> Self {
        self.observer = ObserverHandle::attached(sink);
        self
    }

    /// Opens a fresh engine, ignoring any recoverable state on disk.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for
    /// degenerate configurations, and for a WAL without a manifest or a
    /// manifest without a WAL; I/O errors opening the WAL, manifest or
    /// durable directory.
    pub fn open(self) -> Result<K::Engine> {
        Ok(self.assemble(false)?.0)
    }

    /// Rebuilds an engine from existing state: the table levels from the
    /// manifest in O(metadata) — or, for an [`LsmEngine`] opened without
    /// one, by scanning the store — then the buffered tail from the WAL.
    /// A [`TieredEngine`] requires a manifest and a
    /// [`MultiSeriesEngine`](crate::MultiSeriesEngine) a
    /// durable directory, whose `fleet.manifest` restores every series
    /// before its `fleet.wal` is replayed over them;
    /// orphan GC, when requested, runs once the whole live set is known.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when
    /// the state to recover from is not configured; in strict mode any
    /// damage, in salvage mode only unrecoverable failures (see
    /// [`RecoveryOptions`]).
    pub fn open_or_recover(self) -> Result<(K::Engine, RecoveryReport)> {
        self.assemble(true)
    }

    fn assemble(
        mut self,
        recover: bool,
    ) -> Result<(K::Engine, RecoveryReport)> {
        if self.wal.is_some() != self.manifest.is_some() {
            return Err(Error::InvalidConfig(
                "a log needs a manifest and a manifest a log: configure \
                 both or neither"
                    .into(),
            ));
        }
        let store = wrap_cache(
            store_or_default(self.store.take()),
            self.cache.take(),
            &self.observer,
        );
        let faults = self.faults.take();
        let obs = self.observer.clone();
        let (mut engine, report) = K::assemble(self, store, recover)?;
        if let Some(plan) = faults {
            plan.set_observer(obs);
            K::attach_faults(&mut engine, &plan);
        }
        Ok((engine, report))
    }
}

impl<K: SingleSeries> EngineBuilder<K> {
    /// Attaches a write-ahead log at `path`: appended points are logged
    /// before being buffered, and
    /// [`open_or_recover`](Self::open_or_recover) replays the log into the
    /// buffers. Needs a [`manifest`](Self::manifest) as well.
    pub fn wal(mut self, path: impl Into<PathBuf>) -> Self {
        self.wal = Some(path.into());
        self
    }

    /// Attaches a manifest at `path`: every horizon records the tables it
    /// made durable, and [`open_or_recover`](Self::open_or_recover)
    /// rebuilds from the manifest instead of reading every table. Needs a
    /// [`wal`](Self::wal) as well.
    pub fn manifest(mut self, path: impl Into<PathBuf>) -> Self {
        self.manifest = Some(path.into());
        self
    }
}

impl Kind for Inline {
    type Engine = LsmEngine;

    /// Recovering, the version comes from the levels the owner replayed
    /// for this series, else from the engine's own manifest, else from a
    /// store scan. A manifest with L0 records is another executor's.
    fn assemble(
        mut options: OpenOptions,
        store: Arc<dyn TableStore>,
        recover: bool,
    ) -> Result<(LsmEngine, RecoveryReport)> {
        options.config.validate()?;
        let mut report = recover.then(RecoveryReport::default);
        let mode = options.recovery.mode;
        let version = match (&mut report, options.kind.levels.take()) {
            (None, _) => Version::new(),
            (Some(report), Some(levels)) => recovery::version_from_levels(
                store.as_ref(),
                levels,
                true,
                mode,
                false,
                report,
                &options.observer,
            )?,
            (Some(report), None) => recovery::rebuild_version(
                store.as_ref(),
                options.manifest.as_deref(),
                mode,
                false,
                report,
                &options.observer,
            )?,
        };
        let exec = engine::Inline::new(version, options.kind.owner_commits);
        Engine::assemble(options, store, exec, report)
    }

    fn attach_faults(engine: &mut LsmEngine, plan: &Arc<FaultPlan>) {
        engine.attach_faults(plan);
    }
}

impl SingleSeries for Inline {}

impl TieredOpenOptions {
    /// Makes every flush synchronous: `append` returns only after the
    /// flushed MemTable is stored as an L0 table. Queries then observe a
    /// deterministic on-disk state (used by the query experiments); the
    /// throughput experiment keeps the default asynchronous pipeline.
    pub fn sync_flush(mut self) -> Self {
        self.kind.sync_flush = true;
        self
    }
}

impl Kind for Background {
    type Engine = TieredEngine;

    /// Recovery is manifest-driven: the manifest restores the run and L0.
    /// The Fig. 5 probe is refused: only the inline merge can answer it.
    fn assemble(
        mut options: TieredOpenOptions,
        store: Arc<dyn TableStore>,
        recover: bool,
    ) -> Result<(TieredEngine, RecoveryReport)> {
        if recover && options.manifest.is_none() {
            return Err(Error::InvalidConfig(
                "tiered recovery is manifest-driven: configure \
                 OpenOptions::manifest"
                    .into(),
            ));
        }
        if options.config.record_subsequent {
            return Err(Error::InvalidConfig(
                "record_subsequent needs the inline merge: it is an \
                 LsmEngine setting"
                    .into(),
            ));
        }
        options.config.validate()?;
        let mut report = recover.then(RecoveryReport::default);
        let version = match &mut report {
            None => Version::new(),
            Some(report) => recovery::rebuild_version(
                store.as_ref(),
                options.manifest.as_deref(),
                options.recovery.mode,
                true,
                report,
                &options.observer,
            )?,
        };
        let exec = background::Background::start(
            std::mem::take(&mut options.kind),
            options.config.sstable_points,
            &store,
            &options.written,
            version,
            &options.observer,
        )?;
        Engine::assemble(options, store, exec, report)
    }

    fn attach_faults(engine: &mut TieredEngine, plan: &Arc<FaultPlan>) {
        engine.attach_faults(plan);
    }
}

impl SingleSeries for Background {}

impl MultiOpenOptions {
    /// Makes the collection durable: the fleet logs every series' points
    /// to the one `dir/fleet.wal` and records every series' run membership
    /// in the one `dir/fleet.manifest`, so the whole collection survives a
    /// crash. (A directory written by an older build, with one
    /// `series-<n>.wal` or `series-<n>.manifest` per series, is folded
    /// into that layout by [`open_or_recover`](Self::open_or_recover).)
    pub fn durable_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.kind.durable_dir = Some(dir.into());
        self
    }

    /// Does nothing: [`MultiSeriesEngine::flush_all`](crate::MultiSeriesEngine::flush_all)
    /// flushes every series on the caller's thread, whatever `n` is.
    pub fn workers(self, _n: usize) -> Self {
        self
    }

    /// Arbitrates memory across the fleet: an
    /// [`Arbiter`](crate::Arbiter) splits `config`'s global point budget
    /// between every series' MemTables, growing hot series and shrinking
    /// cold ones toward the floor; the block cache keeps the capacity it
    /// was opened with. Series are admitted at the floor on first append
    /// (the template policy's shape is preserved, rescaled via
    /// [`Policy::resized`](seplsm_types::Policy::resized)); every rebalance
    /// emits [`Event::HeatSample`](crate::obs::Event::HeatSample)s and one
    /// [`Event::ArbiterRebalance`](crate::obs::Event::ArbiterRebalance)
    /// from the deterministic append path.
    pub fn arbiter(mut self, config: ArbiterConfig) -> Self {
        self.kind.arbiter = Some(config);
        self
    }
}

/// The configured store, or a fresh in-memory one.
fn store_or_default(store: Option<Arc<dyn TableStore>>) -> Arc<dyn TableStore> {
    store.unwrap_or_else(|| Arc::new(MemStore::new()))
}

/// Puts `store` behind a [`CachedStore`] when a cache is configured.
fn wrap_cache(
    store: Arc<dyn TableStore>,
    cache: Option<Arc<BlockCache>>,
    obs: &ObserverHandle,
) -> Arc<dyn TableStore> {
    match cache {
        Some(cache) => {
            Arc::new(CachedStore::with_observer(store, cache, obs.clone()))
        }
        None => store,
    }
}

/// Opens the write-ahead log at `path`, reporting to `obs`.
pub(crate) fn open_wal(path: &Path, obs: &ObserverHandle) -> Result<Wal> {
    let mut wal = Wal::open(path)?;
    wal.attach_observer(obs.clone());
    Ok(wal)
}

/// Opens the manifest at `path` — an engine's own or a fleet's — reporting
/// to `obs`, and re-seeds it with `live`, the tables of every series it
/// records, so it is authoritative for the state it is attached to from its
/// first record on.
pub(crate) fn open_manifest(
    path: &Path,
    obs: &ObserverHandle,
    live: &[SeriesTables<'_>],
) -> Result<Manifest> {
    let mut manifest = Manifest::open(path)?;
    manifest.attach_observer(obs.clone());
    manifest.rewrite(live)?;
    Ok(manifest)
}

/// Joins an engine's WAL and manifest (those it has) to `plan`'s op
/// schedule.
pub(crate) fn attach_faults(
    plan: &Arc<FaultPlan>,
    wal: Option<&mut Wal>,
    manifest: Option<&mut Manifest>,
) {
    if let Some(wal) = wal {
        wal.attach_faults(Arc::clone(plan));
    }
    if let Some(manifest) = manifest {
        manifest.attach_faults(Arc::clone(plan));
    }
}
