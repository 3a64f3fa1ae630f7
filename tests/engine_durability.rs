//! Durability: the file-backed engine with a WAL must survive a "crash"
//! (dropping the engine without flushing) with no data loss, and must
//! surface on-disk corruption instead of returning wrong data.

use std::path::PathBuf;
use std::sync::Arc;

use seplsm::lsm::manifest::SeriesTables;
use seplsm::lsm::sstable::{SsTableId, SsTableMeta};
use seplsm::lsm::{Manifest, ManifestEdit};
use seplsm::{
    DataPoint, EngineConfig, Error, FileStore, LsmEngine, MultiOpenOptions,
    MultiSeriesEngine, OpenOptions, Policy, RecoveryOptions, RecoveryReport,
    SeriesId, TieredOpenOptions, TimeRange,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "seplsm-durability-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_points(engine: &mut LsmEngine, count: usize) {
    for i in 0..count {
        let tg = i as i64 * 10;
        let delay = (i as i64 * 37) % 400;
        engine
            .append(DataPoint::new(tg, tg + delay, i as f64))
            .expect("append");
    }
}

fn recover(dir: &TempDir, config: EngineConfig) -> seplsm::Result<LsmEngine> {
    let store = Arc::new(FileStore::open(dir.path("tables"))?);
    let (engine, _report) = OpenOptions::new(config)
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .open_or_recover()?;
    Ok(engine)
}

#[test]
fn crash_recovery_restores_every_point() {
    let dir = TempDir::new("basic");
    let config =
        EngineConfig::new(Policy::conventional(32)).with_sstable_points(16);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        write_points(&mut engine, 500);
        // Points beyond the last flush live only in the WAL. Simulate a
        // crash: sync the log, then drop without flush_all.
        engine.sync_wal().expect("sync wal");
        assert!(engine.buffered_points() > 0, "test needs unflushed points");
    }
    let engine = recover(&dir, config).expect("recover");
    let all = engine.scan_all().expect("scan");
    assert_eq!(all.len(), 500);
    for (i, p) in all.iter().enumerate() {
        assert_eq!(p.gen_time, i as i64 * 10);
        assert_eq!(p.value, i as f64);
    }
    engine.run().check_invariants().expect("run invariant");
}

#[test]
fn recovery_under_separation_policy_reroutes_buffers() {
    let dir = TempDir::new("separation");
    let config = EngineConfig::new(Policy::separation(32, 16).expect("policy"))
        .with_sstable_points(16);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        write_points(&mut engine, 300);
        engine.sync_wal().expect("sync wal");
    }
    let engine = recover(&dir, config).expect("recover");
    assert_eq!(engine.scan_all().expect("scan").len(), 300);
}

#[test]
fn recovery_is_idempotent() {
    let dir = TempDir::new("idempotent");
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(8);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        write_points(&mut engine, 100);
        engine.sync_wal().expect("sync wal");
    }
    for _ in 0..3 {
        let engine = recover(&dir, config.clone()).expect("recover");
        assert_eq!(engine.scan_all().expect("scan").len(), 100);
        // Dropping without writing must not change on-disk state.
    }
}

#[test]
fn recovered_engine_accepts_new_writes() {
    let dir = TempDir::new("continue");
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(8);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        write_points(&mut engine, 100);
        engine.sync_wal().expect("sync wal");
    }
    {
        let mut engine = recover(&dir, config.clone()).expect("recover");
        for i in 100..200 {
            let tg = i as i64 * 10;
            engine
                .append(DataPoint::new(tg, tg, i as f64))
                .expect("append");
        }
        engine.sync_wal().expect("sync wal");
    }
    let engine = recover(&dir, config).expect("recover again");
    assert_eq!(engine.scan_all().expect("scan").len(), 200);
}

#[test]
fn corrupted_table_is_reported_not_returned() {
    let dir = TempDir::new("corrupt");
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(8);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config.clone())
            .store(store)
            .open()
            .expect("engine");
        write_points(&mut engine, 64);
        engine.flush_all().expect("flush");
    }
    // Flip a byte in some SSTable file.
    let tables_dir = dir.path("tables");
    let victim = std::fs::read_dir(&tables_dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "sst"))
        .expect("at least one table");
    let mut bytes = std::fs::read(&victim).expect("read table");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, &bytes).expect("corrupt table");

    // With neither a log nor a manifest, recovery decodes every table.
    let store = Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    let result = OpenOptions::new(config).store(store).open_or_recover();
    assert!(
        result.is_err(),
        "corruption must fail recovery, not pass silently"
    );
}

#[test]
fn manifest_recovery_matches_full_recovery() {
    let dir = TempDir::new("manifest");
    let config =
        EngineConfig::new(Policy::conventional(32)).with_sstable_points(16);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
        write_points(&mut engine, 500);
        engine.sync_wal().expect("sync wal");
    }
    // Manifest-based recovery (O(metadata)).
    let store = Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    let (fast, _report) = OpenOptions::new(config.clone())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .open_or_recover()
        .expect("manifest recovery");
    // Full recovery (reads all tables).
    let slow = recover(&dir, config).expect("full recovery");
    let a = fast.scan_all().expect("scan fast");
    let b = slow.scan_all().expect("scan slow");
    assert_eq!(a.len(), 500);
    assert_eq!(a, b, "manifest recovery must agree with full recovery");
    fast.run().check_invariants().expect("run invariant");
}

#[test]
fn manifest_recovery_survives_repeated_restarts_with_writes() {
    let dir = TempDir::new("manifest-repeat");
    let config = EngineConfig::new(Policy::separation(32, 16).expect("policy"))
        .with_sstable_points(16);
    let mut total = 0usize;
    for round in 0..4 {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let options = OpenOptions::new(config.clone())
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"));
        let mut engine = if round == 0 {
            options.open().expect("open")
        } else {
            options.open_or_recover().expect("recover").0
        };
        for i in 0..100usize {
            let idx = (round * 100 + i) as i64;
            engine
                .append(DataPoint::new(idx * 10, idx * 10 + (idx % 70), 0.0))
                .expect("append");
        }
        total += 100;
        engine.sync_wal().expect("sync wal");
        assert_eq!(engine.scan_all().expect("scan").len(), total);
    }
    assert_eq!(total, 400);
}

#[test]
fn store_without_wal_recovers_flushed_state() {
    let dir = TempDir::new("no-wal");
    let config =
        EngineConfig::new(Policy::conventional(16)).with_sstable_points(8);
    {
        let store =
            Arc::new(FileStore::open(dir.path("tables")).expect("store"));
        let mut engine = OpenOptions::new(config.clone())
            .store(store)
            .open()
            .expect("engine");
        write_points(&mut engine, 160);
        engine.flush_all().expect("flush");
    }
    let store = Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    let (engine, _report) = OpenOptions::new(config)
        .store(store)
        .open_or_recover()
        .expect("recover");
    assert_eq!(engine.scan_all().expect("scan").len(), 160);
    assert_eq!(engine.policy(), Policy::conventional(16));
}

/// The shrinks of the two tests below: a buffer set of 64 points cut to 16
/// while it holds more than that, under either policy.
fn shrinks() -> [(&'static str, Policy, Policy); 2] {
    [
        ("pi_c", Policy::conventional(64), Policy::conventional(16)),
        (
            "pi_s",
            Policy::separation(64, 32).expect("policy"),
            Policy::separation(16, 8).expect("policy"),
        ),
    ]
}

/// Sixty acknowledged points, a third of them stragglers (generation times
/// ending in 3, below every in-order one that follows).
fn shrink_workload() -> Vec<DataPoint> {
    (0..60i64)
        .map(|i| {
            let tg = if i % 3 == 2 { i * 10 - 47 } else { i * 10 };
            DataPoint::new(tg, i * 10, i as f64)
        })
        .collect()
}

/// A policy shrink re-routes the buffered points through the smaller
/// buffers, flushing as they fill. A flush in the middle of that must not
/// let the log go of the points still waiting to be re-routed: they are in
/// no buffer then, but every bit as volatile.
#[test]
fn a_policy_shrink_keeps_every_acknowledged_point_in_the_log() {
    for (name, wide, narrow) in shrinks() {
        let dir = TempDir::new(&format!("shrink-{name}"));
        {
            let store =
                Arc::new(FileStore::open(dir.path("tables")).expect("store"));
            let mut engine = OpenOptions::new(
                EngineConfig::new(wide).with_sstable_points(8),
            )
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
            .open()
            .expect("open");
            for p in shrink_workload() {
                engine.append(p).expect("append");
            }
            engine.sync_wal().expect("sync");
            assert!(engine.buffered_points() > 16, "{name}: must shrink");
            engine.set_policy(narrow).expect("shrink");
            assert!(engine.buffered_points() < 16, "{name}: it flushed");
            engine
                .append(DataPoint::new(1_000, 1_000, 0.5))
                .expect("append");
            engine.sync_wal().expect("sync");
        }
        let config = EngineConfig::new(narrow).with_sstable_points(8);
        let engine = recover(&dir, config).expect("recover");
        assert_eq!(engine.scan_all().expect("scan").len(), 61, "{name}");
    }
}

#[test]
fn a_policy_shrink_on_the_background_engine_keeps_every_acknowledged_point() {
    for (name, wide, narrow) in shrinks() {
        let dir = TempDir::new(&format!("shrink-tiered-{name}"));
        let open = |policy: Policy| {
            let store =
                Arc::new(FileStore::open(dir.path("tables")).expect("store"));
            TieredOpenOptions::new(
                EngineConfig::new(policy).with_sstable_points(8),
            )
            .store(store)
            .wal(dir.path("wal"))
            .manifest(dir.path("manifest"))
        };
        {
            let mut engine = open(wide).open().expect("open");
            for p in shrink_workload() {
                engine.append(p).expect("append");
            }
            engine.sync_wal().expect("sync");
            engine.set_policy(narrow).expect("shrink");
            engine
                .append(DataPoint::new(1_000, 1_000, 0.5))
                .expect("append");
            engine.sync_wal().expect("sync");
        }
        let (engine, _) = open(narrow).open_or_recover().expect("recover");
        let (recovered, _) = engine
            .query(TimeRange::new(i64::MIN, i64::MAX))
            .expect("query");
        assert_eq!(recovered.len(), 61, "{name}");
    }
}

/// A manifest record: tag, id, range, count, CRC-32.
const RECORD: usize = 33;

fn durability_config() -> EngineConfig {
    EngineConfig::new(Policy::conventional(32)).with_sstable_points(16)
}

/// An engine over `dir/tables` with `dir/wal` and `dir/manifest`, brought to
/// rest after 500 points: the manifest holds one bare record per table.
fn engine_at_rest(dir: &TempDir) {
    let store = Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    let mut engine = OpenOptions::new(durability_config())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .open()
        .expect("open");
    write_points(&mut engine, 500);
    engine.flush_all().expect("rest");
}

fn open_engine(
    dir: &TempDir,
    recovery: RecoveryOptions,
) -> seplsm::Result<(LsmEngine, RecoveryReport)> {
    let store = Arc::new(FileStore::open(dir.path("tables"))?);
    OpenOptions::new(durability_config())
        .store(store)
        .wal(dir.path("wal"))
        .manifest(dir.path("manifest"))
        .recovery(recovery)
        .open_or_recover()
}

/// A fleet of three series over `dir/tables`, durable in `dir/meta`,
/// brought to rest: `fleet.manifest` holds one group per series.
fn fleet_at_rest(dir: &TempDir) {
    let store = Arc::new(FileStore::open(dir.path("tables")).expect("store"));
    let mut fleet = MultiOpenOptions::new(durability_config())
        .store(store)
        .durable_dir(dir.path("meta"))
        .open()
        .expect("open");
    for i in 0..300i64 {
        let tg = i * 10;
        let p = DataPoint::new(tg, tg + (i * 37) % 400, i as f64);
        fleet.append(SeriesId((i % 3) as u32), p).expect("append");
    }
    fleet.flush_all().expect("rest");
}

fn open_fleet(
    dir: &TempDir,
    recovery: RecoveryOptions,
) -> seplsm::Result<(MultiSeriesEngine, RecoveryReport)> {
    let store = Arc::new(FileStore::open(dir.path("tables"))?);
    MultiOpenOptions::new(durability_config())
        .store(store)
        .durable_dir(dir.path("meta"))
        .recovery(recovery)
        .open_or_recover()
}

/// The bytes a commit of `edits` as one group of `series` appends.
fn group_bytes(series: Option<u32>, edits: &[ManifestEdit]) -> Vec<u8> {
    let dir = TempDir::new(&format!("group-{series:?}"));
    let path = dir.path("manifest");
    let run: Vec<SsTableMeta> = edits
        .iter()
        .filter_map(|edit| match edit {
            ManifestEdit::Add(meta) => Some(*meta),
            _ => None,
        })
        .collect();
    let live = [SeriesTables {
        series,
        run: &run,
        l0: &[],
    }];
    let mut manifest = Manifest::open(&path).expect("open");
    manifest
        .commit_groups(&[(series, edits)], &live)
        .expect("commit");
    drop(manifest);
    std::fs::read(&path).expect("read")
}

/// Two tables no store holds, added in one group.
fn two_adds() -> [ManifestEdit; 2] {
    let table = |id: u64| SsTableMeta {
        id: SsTableId(id),
        range: TimeRange::new(1_000_000, 1_000_099),
        count: 10,
    };
    [
        ManifestEdit::Add(table(90_000)),
        ManifestEdit::Add(table(90_001)),
    ]
}

fn append_bytes(path: &std::path::Path, bytes: &[u8]) {
    let mut data = std::fs::read(path).expect("read");
    data.extend_from_slice(bytes);
    std::fs::write(path, data).expect("write");
}

fn is_corrupt<T>(result: seplsm::Result<T>) -> bool {
    matches!(result, Err(Error::Corrupt(_)))
}

#[test]
fn an_engine_refuses_a_fleet_s_manifest_and_a_fleet_an_engine_s() {
    let modes = [RecoveryOptions::strict(), RecoveryOptions::salvage()];
    let fleet = TempDir::new("refuse-fleet");
    fleet_at_rest(&fleet);
    let fleet_log = fleet.path("meta/fleet.manifest");
    let engine = TempDir::new("refuse-engine");
    engine_at_rest(&engine);
    let engine_log = engine.path("manifest");
    for recovery in modes {
        // An engine handed a fleet's log: named groups, and nothing of the
        // unnamed series.
        let dir = TempDir::new("refuse-engine-opens-fleet");
        engine_at_rest(&dir);
        std::fs::copy(&fleet_log, dir.path("manifest")).expect("copy");
        assert!(is_corrupt(open_engine(&dir, recovery)), "{recovery:?}");
        // One named group behind an engine's own records.
        let dir = TempDir::new("refuse-engine-named-group");
        engine_at_rest(&dir);
        append_bytes(&dir.path("manifest"), &group_bytes(Some(0), &two_adds()));
        assert!(is_corrupt(open_engine(&dir, recovery)), "{recovery:?}");
        // An older fleet layout's `series-<n>.manifest` is an engine's
        // own log: one holding a named group is a fleet's.
        let dir = TempDir::new("refuse-legacy-series");
        fleet_at_rest(&dir);
        std::fs::copy(&fleet_log, dir.path("meta/series-4.manifest"))
            .expect("copy");
        assert!(is_corrupt(open_fleet(&dir, recovery)), "{recovery:?}");
        // A fleet handed an engine's log: bare records of no series.
        let dir = TempDir::new("refuse-fleet-opens-engine");
        fleet_at_rest(&dir);
        std::fs::copy(&engine_log, dir.path("meta/fleet.manifest"))
            .expect("copy");
        assert!(is_corrupt(open_fleet(&dir, recovery)), "{recovery:?}");
    }
}

#[test]
fn manifest_records_dropped_counts_what_salvage_drops_and_nothing_else() {
    // A torn group at the tail is a commit that never happened: strict
    // recovery drops it silently, and the report is clean.
    let dir = TempDir::new("dropped-engine-torn");
    engine_at_rest(&dir);
    let torn = group_bytes(None, &two_adds());
    assert_eq!(torn.len(), 3 * RECORD, "a header and two records");
    append_bytes(&dir.path("manifest"), &torn[..2 * RECORD + 7]);
    let (engine, report) =
        open_engine(&dir, RecoveryOptions::strict()).expect("strict");
    assert_eq!(report.manifest_records_dropped, 0, "{report:?}");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(engine.scan_all().expect("scan").len(), 500);
    drop(engine);

    let dir = TempDir::new("dropped-fleet-torn");
    fleet_at_rest(&dir);
    let torn = group_bytes(Some(1), &two_adds());
    append_bytes(&dir.path("meta/fleet.manifest"), &torn[..RECORD + 20]);
    let (fleet, report) =
        open_fleet(&dir, RecoveryOptions::strict()).expect("strict");
    assert_eq!(report.manifest_records_dropped, 0, "{report:?}");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(fleet.series_ids().len(), 3);
    drop(fleet);

    // Damage in front of valid records: strict refuses, salvage keeps the
    // prefix and counts every whole record behind it.
    let dir = TempDir::new("dropped-engine-salvage");
    engine_at_rest(&dir);
    let path = dir.path("manifest");
    let mut data = std::fs::read(&path).expect("read");
    let records = data.len() / RECORD;
    assert!(records > 2, "needs records behind the damage");
    data[RECORD + 3] ^= 0xff; // the second table's record
    std::fs::write(&path, &data).expect("corrupt");
    assert!(is_corrupt(open_engine(&dir, RecoveryOptions::strict())));
    let (_, report) =
        open_engine(&dir, RecoveryOptions::salvage()).expect("salvage");
    assert_eq!(report.manifest_records_dropped, (records - 1) as u64);
    assert!(!report.is_clean());

    let dir = TempDir::new("dropped-fleet-salvage");
    fleet_at_rest(&dir);
    let path = dir.path("meta/fleet.manifest");
    let mut data = std::fs::read(&path).expect("read");
    let records = data.len() / RECORD;
    // The second series' group starts behind the first one's header and
    // body; its header's id field counts the body.
    let body = u64::from_le_bytes(data[1..9].try_into().expect("8 bytes"));
    let second = (1 + body as usize) * RECORD;
    assert!(
        second + 2 * RECORD < data.len(),
        "a group behind the damage"
    );
    data[second + RECORD + 3] ^= 0xff; // inside its body
    std::fs::write(&path, &data).expect("corrupt");
    assert!(is_corrupt(open_fleet(&dir, RecoveryOptions::strict())));
    let (_, report) =
        open_fleet(&dir, RecoveryOptions::salvage()).expect("salvage");
    let kept = second / RECORD;
    assert_eq!(report.manifest_records_dropped, (records - kept) as u64);
    assert!(!report.is_clean());
}
