//! Property-based tests of the durable formats: SSTable round-trips under
//! arbitrary point sets, range reads agreeing across every dialect and
//! every entry point, and WAL/manifest replay under arbitrary operation
//! sequences.

use proptest::prelude::*;
use seplsm::{DataPoint, TimeRange};
use seplsm_lsm::manifest::SeriesTables;
use seplsm_lsm::sstable::format::decode;
use seplsm_lsm::sstable::{SsTableId, SsTableMeta};
use seplsm_lsm::{Manifest, ManifestEdit, TableStore, Wal};

#[path = "support/old_tables.rs"]
mod old_tables;
use old_tables::{every_dialect, read_every_way, RawTable, RAW_ID};

/// Strategy: a sorted, unique-gen-time point vector.
fn arb_points(max_len: usize) -> impl Strategy<Value = Vec<DataPoint>> {
    (
        proptest::collection::btree_set(-1_000_000i64..1_000_000, 1..max_len),
        any::<u64>(),
    )
        .prop_map(|(tgs, seed)| {
            tgs.into_iter()
                .enumerate()
                .map(|(i, tg)| {
                    // Deterministic but varied delays/values from the seed.
                    let h = seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(i as u64);
                    let delay = (h % 100_000) as i64 - 1_000;
                    // Fixed exponent keeps the value finite and non-NaN so
                    // PartialEq comparisons are exact; the mantissa is noisy.
                    let value = f64::from_bits(
                        ((h ^ h.rotate_left(31)) & 0x000F_FFFF_FFFF_FFFF)
                            | 0x3FE0_0000_0000_0000,
                    );
                    DataPoint::with_delay(tg, delay, value)
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn v1_and_v2_round_trip_arbitrary_points(points in arb_points(300)) {
        for table in every_dialect(&points) {
            let back = decode(&table).expect("decode");
            prop_assert!(old_tables::same_points(&back, &points));
        }
    }

    #[test]
    fn range_reads_agree_with_filtered_full_decode(
        points in arb_points(300),
        start in -1_100_000i64..1_100_000,
        len in 0i64..500_000,
    ) {
        let range = TimeRange::new(start, start + len);
        let expected: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| range.contains(p.gen_time))
            .collect();
        for table in every_dialect(&points) {
            let store = RawTable(table);
            prop_assert_eq!(&store.get(RAW_ID).expect("get"), &points);
            let reads = read_every_way(&store, RAW_ID, range);
            let (_, first) = &reads[0];
            let first = first.as_ref().expect("decode_range");
            prop_assert!(first.points_scanned >= expected.len() as u64);
            for (entry, read) in &reads {
                let read = read.as_ref().expect(entry);
                prop_assert_eq!(&read.points, &expected, "{}", entry);
                prop_assert_eq!(
                    (read.points_scanned, read.blocks_read),
                    (first.points_scanned, first.blocks_read),
                    "{} accounts differently from decode_range", entry
                );
            }
        }
    }

    /// One flipped byte at any position of a table, in any dialect: the
    /// full decode rejects it, and every range entry point either rejects
    /// it or — when the flip lies outside what that read touches —
    /// returns exactly the undamaged answer.
    #[test]
    fn flipped_bytes_are_rejected_or_out_of_reach(
        points in arb_points(40),
        mask in 1u8..=255,
        start in -1_100_000i64..1_100_000,
        len in 0i64..500_000,
    ) {
        let range = TimeRange::new(start, start + len);
        let expected: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| range.contains(p.gen_time))
            .collect();
        for clean in every_dialect(&points) {
            for pos in 0..clean.len() {
                let mut bad = clean.to_vec();
                bad[pos] ^= mask;
                prop_assert!(decode(&bad).is_err(), "byte {}", pos);
                let store = RawTable(bad.into());
                let mut accounting = None;
                for (entry, read) in read_every_way(&store, RAW_ID, range) {
                    let Ok(read) = read else { continue };
                    prop_assert_eq!(
                        &read.points, &expected,
                        "{} served damaged data (byte {})", entry, pos
                    );
                    let this = (read.points_scanned, read.blocks_read);
                    prop_assert_eq!(*accounting.get_or_insert(this), this);
                }
            }
        }
    }

    #[test]
    fn wal_replays_exactly_what_was_appended(points in arb_points(200)) {
        let path = std::env::temp_dir().join(format!(
            "seplsm-prop-wal-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).expect("open");
            for p in &points {
                wal.append(p).expect("append");
            }
            wal.sync().expect("sync");
        }
        let mut replay = Wal::replay(&path).expect("replay");
        let replayed = replay.series.remove(&0).unwrap_or_default();
        prop_assert!(replay.series.is_empty(), "append logs as series 0");
        prop_assert_eq!(replayed.len(), points.len());
        for (a, b) in replayed.iter().zip(points.iter()) {
            prop_assert_eq!(a.gen_time, b.gen_time);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manifest_replay_tracks_arbitrary_add_remove_sequences(
        ops in proptest::collection::vec((any::<bool>(), 0u64..32), 1..120),
        group in 1usize..8,
    ) {
        let path = std::env::temp_dir().join(format!(
            "seplsm-prop-manifest-{}-{:?}.manifest",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut reference: Vec<SsTableMeta> = Vec::new();
        {
            // `group` = 1 writes the bare pre-group record format; larger
            // values frame the same history as edit groups. Each commit
            // weighs the log against the reference's tables, and may
            // rewrite it from them.
            let mut manifest = Manifest::open(&path).expect("open");
            for chunk in ops.chunks(group) {
                let mut edits = Vec::new();
                for (add, id) in chunk {
                    if *add {
                        let start = *id as i64 * 100;
                        let meta = SsTableMeta {
                            id: SsTableId(*id),
                            range: TimeRange::new(start, start + 99),
                            count: 10,
                        };
                        edits.push(ManifestEdit::Add(meta));
                        reference.push(meta);
                    } else {
                        edits.push(ManifestEdit::Remove(SsTableId(*id)));
                        reference.retain(|m| m.id != SsTableId(*id));
                    }
                }
                let live = [SeriesTables {
                    series: None,
                    run: &reference,
                    l0: &[],
                }];
                manifest
                    .commit_groups(&[(None, &edits)], &live)
                    .expect("commit");
            }
        }
        let (mut series, _) = Manifest::replay(&path, true).expect("replay");
        let (run, l0) = series.remove(&None).unwrap_or_default();
        prop_assert!(series.is_empty() && l0.is_empty());
        prop_assert_eq!(run, reference);
        let _ = std::fs::remove_file(&path);
    }
}
