//! SSTables an old build wrote. Versions 1 and 2 — and version-3 tables
//! whose index entries stop before the aggregate count — are dialects this
//! code only reads; the files under `tests/fixtures/tables/` were written by
//! the last build that could write them (README there), so the readers are
//! held to bytes that are old rather than to what a writer kept for the
//! purpose emits today.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use seplsm::{DataPoint, TimeRange};
use seplsm_lsm::sstable::format::{
    decode, decode_index_block, read_table_index, sniff_version, VERSION_PRUNED,
};
use seplsm_lsm::{
    Agg, BlockCache, EngineConfig, FileStore, OpenOptions, TableStore,
};
use seplsm_types::Policy;

#[path = "support/old_tables.rs"]
mod old_tables;
use old_tables::{
    fixtures, read_every_way, same_points, series_points, RawTable, RAW_ID,
};

const ALL_TIME: TimeRange = TimeRange {
    start: i64::MIN,
    end: i64::MAX,
};

/// `points` inside `range`.
fn within(points: &[DataPoint], range: TimeRange) -> Vec<DataPoint> {
    points
        .iter()
        .copied()
        .filter(|p| range.contains(p.gen_time))
        .collect()
}

/// All of time, and a window strictly inside the table that misses both of
/// its ends (so some damage is out of a read's reach).
fn probes(points: &[DataPoint]) -> [TimeRange; 2] {
    let third = |k: usize| points[points.len() * k / 3].gen_time;
    [ALL_TIME, TimeRange::new(third(1), third(2))]
}

#[test]
fn every_fixture_decodes_bit_exactly_through_every_entry_point() {
    for f in fixtures() {
        assert_eq!(sniff_version(f.bytes), Some(f.version()), "{}", f.name);
        let back = decode(f.bytes).expect(f.name);
        assert!(same_points(&back, &f.points), "{}: decode", f.name);

        // Block by block under the whole-table index: v1 is one block, the
        // block dialects chunk as their name says, and none of these
        // tables carries pre-aggregates or a filter of the current shape.
        let index = read_table_index(f.bytes).expect(f.name);
        assert_eq!(index.version(), f.version(), "{}", f.name);
        assert_eq!(index.count, f.points.len(), "{}", f.name);
        assert_eq!(
            index.blocks.len(),
            f.points.len().div_ceil(f.block_points()),
            "{}",
            f.name
        );
        assert!(index.blocks.iter().all(|b| b.agg.is_none()), "{}", f.name);
        assert_eq!(index.filter.is_some(), f.version() == 3, "{}", f.name);
        let mut blocks = Vec::new();
        for b in 0..index.blocks.len() {
            blocks
                .extend(decode_index_block(f.bytes, &index, b).expect(f.name));
        }
        assert!(same_points(&blocks, &f.points), "{}: by block", f.name);

        // And by range through all five entry points, with one accounting.
        let store = RawTable(f.bytes.into());
        for range in probes(&f.points) {
            let expected = within(&f.points, range);
            let mut accounting = None;
            for (entry, read) in read_every_way(&store, RAW_ID, range) {
                let read =
                    read.unwrap_or_else(|e| panic!("{}: {entry}: {e}", f.name));
                assert!(
                    same_points(&read.points, &expected),
                    "{}: {entry} over {range:?}",
                    f.name
                );
                let this = (read.points_scanned, read.blocks_read);
                assert_eq!(*accounting.get_or_insert(this), this, "{entry}");
            }
        }
    }
}

/// The full decode of `damaged` fails, and every range entry point fails or
/// returns what the undamaged table holds — never different points.
fn assert_rejected_or_harmless(
    name: &str,
    damage: &str,
    at: usize,
    damaged: Vec<u8>,
    points: &[DataPoint],
) {
    assert!(decode(&damaged).is_err(), "{name}: {damage} {at}: decode");
    let store = RawTable(damaged.into());
    for range in probes(points) {
        let expected = within(points, range);
        for (entry, read) in read_every_way(&store, RAW_ID, range) {
            let Ok(read) = read else { continue };
            assert!(
                same_points(&read.points, &expected),
                "{name}: {damage} {at}: {entry} served different points"
            );
        }
    }
}

/// Every byte of these dialects is under some CRC, or is one; every prefix
/// has lost at least its last.
#[test]
fn every_flip_and_truncation_of_a_fixture_is_rejected_or_harmless() {
    for f in fixtures() {
        for pos in 0..f.bytes.len() {
            let mut bad = f.bytes.to_vec();
            bad[pos] ^= 1 << (pos % 8);
            assert_rejected_or_harmless(f.name, "flip at", pos, bad, &f.points);
            let prefix = f.bytes[..pos].to_vec();
            assert_rejected_or_harmless(
                f.name, "cut to", pos, prefix, &f.points,
            );
        }
    }
}

/// The writer the property suites feed the old readers with
/// (`support/old_tables.rs`, laid out from the format's documentation)
/// produces, from the fixtures' points, the fixtures' bytes.
#[test]
fn the_test_only_writer_reproduces_what_the_old_build_wrote() {
    for f in fixtures() {
        let Some(dialect) = f.dialect else { continue };
        assert_eq!(
            old_tables::encode(&f.points, dialect).as_ref(),
            f.bytes,
            "{}",
            f.name
        );
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "seplsm-old-tables-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A directory that lived through three builds — one 512-point table each
/// in v1, v2 and early v3, tiling points 0..1536 of the fixture series —
/// and has no manifest: it opens through the recovery scan, answers every
/// read API like a model of its points, and the first merges over it leave
/// only tables as this build writes them.
#[test]
fn a_directory_of_old_tables_opens_answers_and_upgrades_by_compaction() {
    let seeded: Vec<_> = fixtures()
        .into_iter()
        .filter(|f| {
            ["v1-512", "v2-bp128-512", "v3e52-bp128-512"].contains(&f.name)
        })
        .collect();
    for block_reads in [false, true] {
        let dir = TempDir::new(if block_reads { "blocks" } else { "whole" });
        let tables = dir.0.join("tables");
        std::fs::create_dir_all(&tables).expect("tables dir");
        for (id, f) in seeded.iter().enumerate() {
            std::fs::write(tables.join(format!("{id:08}.sst")), f.bytes)
                .expect("seed table");
        }
        let mut model: BTreeMap<i64, DataPoint> = series_points(0, 1536)
            .into_iter()
            .map(|p| (p.gen_time, p))
            .collect();

        let store = Arc::new(FileStore::open(&tables).expect("store"));
        let mut config = EngineConfig::new(Policy::conventional(64))
            .with_sstable_points(512);
        if block_reads {
            config = config.with_block_reads();
        }
        let (mut engine, report) = OpenOptions::new(config)
            .store(Arc::clone(&store) as Arc<dyn TableStore>)
            .cache(BlockCache::with_capacity(16 * 1024))
            .wal(dir.0.join("wal"))
            .open_or_recover()
            .expect("open over old tables");
        assert!(report.is_clean(), "{report:?}");
        check_against(&engine, &model, true);

        // New writes over all three tables: every 41st point overwritten,
        // and points between the grid's. Each full buffer merges with the
        // old tables under it.
        for (i, p) in series_points(0, 1536).into_iter().enumerate() {
            let new = match i % 41 {
                0 => DataPoint::new(p.gen_time, p.arrival_time + 9, -1.0),
                7 => DataPoint::new(p.gen_time + 25, p.arrival_time, 0.25),
                _ => continue,
            };
            engine.append(new).expect("append");
            model.insert(new.gen_time, new);
        }
        engine.flush_all().expect("flush");
        check_against(&engine, &model, false);
        engine.check_integrity().expect("integrity");

        let live = store.list().expect("list");
        assert!(live.len() >= 3, "{live:?}");
        for id in live {
            let raw = store.read_raw(id).expect("read").expect("raw bytes");
            assert_eq!(sniff_version(&raw), Some(VERSION_PRUNED), "{id}");
            let index = read_table_index(&raw).expect("index");
            assert!(
                index.blocks.iter().all(|b| b.agg.is_some()),
                "{id}: index entries of the current width"
            );
        }
    }
}

/// `scan_all`, `query`, `get` and `aggregate` against the model. While the
/// levels hold only old tables nothing can be folded from an index.
fn check_against(
    engine: &seplsm_lsm::LsmEngine,
    model: &BTreeMap<i64, DataPoint>,
    only_old_tables: bool,
) {
    let all: Vec<DataPoint> = model.values().copied().collect();
    assert!(same_points(&engine.scan_all().expect("scan"), &all));
    let at = |i: i64| 1_000_000 + i * 50;
    for range in [
        ALL_TIME,
        TimeRange::new(at(10), at(20)), // inside the v1 table
        TimeRange::new(at(500), at(530)), // v1 into v2
        TimeRange::new(at(700), at(1300)), // v2 into early v3
        TimeRange::new(at(1535), at(2000)), // the last point and beyond
        TimeRange::new(0, at(0) - 1),   // before everything
        TimeRange::new(at(3) + 1, at(3) + 2), // between two points
    ] {
        let expected = within(&all, range);
        let (got, _) = engine.query(range).expect("query");
        assert!(same_points(&got, &expected), "query {range:?}");
        let mut want = Agg::default();
        for p in &expected {
            want.merge_point(p.value);
        }
        let (agg, stats) = engine.aggregate(range).expect("aggregate");
        assert!(agg.bits_eq(&want), "{range:?}: {agg:?} vs {want:?}");
        if only_old_tables {
            assert_eq!(stats.blocks_folded, 0, "{range:?}");
        }
    }
    for i in (0..1536).step_by(13) {
        for tg in [at(i), at(i) + 25, at(i) + 1] {
            let got = engine.get(tg).expect("get");
            match (got, model.get(&tg)) {
                (Some(got), Some(want)) => {
                    assert!(same_points(&[got], &[*want]), "get {tg}")
                }
                (None, None) => {}
                (got, want) => panic!("get {tg}: {got:?} vs {want:?}"),
            }
        }
    }
}
