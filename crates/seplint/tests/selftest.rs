//! seplint self-test: every fixture fires exactly its rule, suppressions
//! work, and — most importantly — the real workspace is clean.

use std::path::{Path, PathBuf};

use seplint::callgraph::CallGraph;
use seplint::{lint_workspace, rules};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn rules_ignore_test_modules() {
    let src = "#[cfg(test)]\nmod tests {\n fn f() { Instant::now(); }\n}\n";
    assert!(rules::deterministic_kernel(Path::new("t.rs"), src).is_empty());
}

#[test]
fn rules_honour_allow_directives() {
    let src =
        "fn f() {\n // seplint: allow(R3): fixture\n Instant::now();\n}\n";
    assert!(rules::deterministic_kernel(Path::new("t.rs"), src).is_empty());
    let src2 = "fn f() {\n Instant::now(); // seplint: allow(R3): fixture\n}\n";
    assert!(rules::deterministic_kernel(Path::new("t.rs"), src2).is_empty());
}

#[test]
fn r3_fires_on_wallclock_and_thread_use() {
    let src = fixture("r3_wallclock.rs");
    let v = rules::deterministic_kernel(Path::new("r3_wallclock.rs"), &src);
    // `Instant` appears twice (use + call), `spawn` once.
    assert!(v.len() >= 3, "{v:?}");
    assert!(v.iter().all(|x| x.rule == "R3"));
    assert!(v.iter().any(|x| x.message.contains("Instant")));
    assert!(v.iter().any(|x| x.message.contains("spawn")));
}

#[test]
fn r3_fires_on_wallclock_in_an_observer_sink() {
    // `obs.rs` is a kernel module: a sink stamping events with
    // `SystemTime` instead of a sequence number must be caught.
    let src = fixture("r3_obs_wallclock.rs");
    let v = rules::deterministic_kernel(Path::new("obs.rs"), &src);
    // `SystemTime` appears three times (use + now() + UNIX_EPOCH).
    assert!(v.len() >= 3, "{v:?}");
    assert!(v.iter().all(|x| x.rule == "R3"));
    assert!(v.iter().any(|x| x.message.contains("SystemTime")));
}

#[test]
fn r3_fires_on_wallclock_eviction_in_the_block_cache() {
    // `cache.rs` is a kernel module: an eviction policy ordered by
    // `Instant` recency instead of the CLOCK hand's logical tick must be
    // caught.
    let src = fixture("r3_cache_wallclock.rs");
    let v = rules::deterministic_kernel(Path::new("cache.rs"), &src);
    // `Instant` appears three times (use + field type + now()).
    assert!(v.len() >= 3, "{v:?}");
    assert!(v.iter().all(|x| x.rule == "R3"));
    assert!(v.iter().any(|x| x.message.contains("Instant")));
}

#[test]
fn r3_fires_on_wallclock_salt_in_the_pruning_filter() {
    // `filter.rs` is a kernel module: a pruning filter salted from the
    // wall clock would admit different keys on replay, so the same table
    // could prune differently across crash-schedule re-runs.
    let src = fixture("r3_filter_wallclock.rs");
    let v = rules::deterministic_kernel(Path::new("filter.rs"), &src);
    // `Instant` appears twice (use + now() call).
    assert!(v.len() >= 2, "{v:?}");
    assert!(v.iter().all(|x| x.rule == "R3"));
    assert!(v.iter().any(|x| x.message.contains("Instant")));
}

#[test]
fn r3_fires_on_wallclock_stall_tracking_in_admission() {
    // `admission.rs` is a kernel module: its stall accounting must not read
    // a clock — an `Instant`-timed stall or a background refill thread
    // would make the same workload trace differently across replays.
    let src = fixture("r3_admission_wallclock.rs");
    let v = rules::deterministic_kernel(Path::new("admission.rs"), &src);
    // `Instant` appears three times (use + field type + now), `spawn` once.
    assert!(v.len() >= 4, "{v:?}");
    assert!(v.iter().all(|x| x.rule == "R3"));
    assert!(v.iter().any(|x| x.message.contains("Instant")));
    assert!(v.iter().any(|x| x.message.contains("spawn")));
}

#[test]
fn r3_fires_on_wallclock_rebalancing_in_the_arbiter() {
    // `arbiter.rs` is a kernel module: heat decay and rebalance cadence
    // must advance on the logical append/query tick only — a wall-clock
    // interval or a background decay thread would hand out different
    // capacities (and emit different rebalance events) across replays.
    let src = fixture("r3_arbiter_wallclock.rs");
    let v = rules::deterministic_kernel(Path::new("arbiter.rs"), &src);
    // `Instant` appears four times (use + field + elapsed arm + now),
    // `spawn` once.
    assert!(v.len() >= 4, "{v:?}");
    assert!(v.iter().all(|x| x.rule == "R3"));
    assert!(v.iter().any(|x| x.message.contains("Instant")));
    assert!(v.iter().any(|x| x.message.contains("spawn")));
}

#[test]
fn r4_fires_only_on_pub_non_result_panicking_fns() {
    let src = fixture("r4_pub_panic.rs");
    let v = rules::kernel_returns_results(Path::new("r4_pub_panic.rs"), &src);
    let names: Vec<&str> = v
        .iter()
        .map(|x| {
            x.message
                .split('`')
                .nth(1)
                .expect("message names the function")
        })
        .collect();
    assert_eq!(names, ["pop", "insert"], "{v:?}");
    assert!(v.iter().all(|x| x.rule == "R4"));
}

#[test]
fn r5_fires_on_buffer_before_append_and_uncovered_truncate() {
    let src = fixture("r5_insert_before_append.rs");
    let v = rules::durability_order(Path::new("r5.rs"), &src);
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v[0].message.contains("WAL-before-buffer"), "{v:?}");
    assert!(
        v[1].message.contains("`flush` checkpoints the WAL"),
        "{v:?}"
    );
    assert!(v[2].message.contains("`rest` truncates the WAL"), "{v:?}");
}

#[test]
fn r5_fires_on_a_fleet_checkpoint_before_the_fleet_commit() {
    let src = fixture("r5_checkpoint_before_fleet_commit.rs");
    let v = rules::durability_order(Path::new("multi.rs"), &src);
    // The checkpoint and the cut of `commit_pending`; `commit_in_order`
    // passes.
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v.iter().all(|f| f.rule == "R5"), "{v:?}");
    assert!(
        v[0].message
            .contains("`commit_pending` checkpoints the WAL"),
        "{v:?}"
    );
    assert!(v[1].message.contains("`commit_pending` truncates the WAL"));
    // What a series engine reports about itself covers nothing any more.
    let stale_fleet = "
        impl Fleet {
            fn note_flush(&mut self, series: SeriesId) -> Result<()> {
                if !engine.take_committed_flush() {
                    return Ok(());
                }
                wal.checkpoint(series.0, range, &engine.buffered_in(range))?;
                Ok(())
            }
        }";
    let v = rules::durability_order(Path::new("stale.rs"), stale_fleet);
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn r5_fires_on_a_manifest_commit_before_its_tables_are_synced() {
    let src = fixture("r5_commit_before_table_sync.rs");
    let v = rules::durability_order(Path::new("engine.rs"), &src);
    // The unsynced commit of `horizon`, and the checkpoint it cannot cover;
    // the checkpoint behind a mere record; the fleet's unsynced commit.
    // `horizon_in_order` and the cut behind a record pass.
    let messages: Vec<&str> = v.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(v.len(), 4, "{v:?}");
    assert!(v.iter().all(|f| f.rule == "R5"), "{v:?}");
    assert!(messages[0].starts_with("`horizon` commits a manifest record"));
    assert!(messages[0].contains("before the tables it names are synced"));
    assert!(messages[1].starts_with("`horizon` checkpoints the WAL"));
    assert!(messages[2].starts_with("`checkpoint_after_record` checkpoints"));
    assert!(messages[3].starts_with("`fleet_horizon` commits a manifest"));
}

#[test]
fn r5_passes_the_compliant_orderings() {
    // Append-then-insert is the durable order, for a one-series log and
    // for a series-tagged one.
    for append in ["append(&p)", "append_for(series, &p)"] {
        let ok_put = format!(
            "impl Engine {{
                pub fn put(&mut self, series: u32, p: Point) -> Result<()> {{
                    self.wal.{append}?;
                    self.buffers.insert(p);
                    Ok(())
                }}
            }}"
        );
        let v = rules::durability_order(Path::new("ok.rs"), &ok_put);
        assert!(v.is_empty(), "{append}: {v:?}");
    }

    // A manifest commit of synced tables covers the checkpoint and the cut,
    // even through a same-file helper call.
    let ok_flush = "
        impl Engine {
            pub fn flush(&mut self) -> Result<()> {
                self.store.sync_published(&ids)?;
                self.manifest.commit_groups(&groups, &live)?;
                self.compact_wal(flushed)?;
                Ok(())
            }
            fn compact_wal(&mut self, flushed: TimeRange) -> Result<()> {
                if self.wal.checkpoint(0, flushed, &self.scan(flushed))? {
                    self.wal.rewrite(&[(0, self.survivors())])?;
                }
                Ok(())
            }
        }";
    assert!(
        rules::durability_order(Path::new("ok.rs"), ok_flush).is_empty(),
        "truncate-only helper must be judged at its call site"
    );

    // A fleet logs and journals for series engines that keep neither a
    // log nor a manifest: its own manifest commit covers the checkpoints.
    let ok_fleet = "
        impl Fleet {
            fn commit_pending(&mut self) -> Result<()> {
                store.sync_published(&ids)?;
                fleet_manifest.commit_groups(&groups, &live)?;
                wal.checkpoint(series.0, range, &engine.buffered_in(range))?;
                Ok(())
            }
        }";
    assert!(rules::durability_order(Path::new("ok.rs"), ok_fleet).is_empty());
    // Replay (recovery) legitimately buffers without a fresh append.
    let ok_recover = "
        impl Engine {
            pub fn recover(&mut self) -> Result<()> {
                for p in self.wal.replay()? {
                    self.buffers.insert(p);
                }
                Ok(())
            }
        }";
    assert!(rules::durability_order(Path::new("ok.rs"), ok_recover).is_empty());
}

#[test]
fn r6_fires_on_rename_without_dir_sync() {
    let src = fixture("r6_rename_no_sync.rs");
    let v = rules::rename_syncs_dir(Path::new("store.rs"), &src);
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().all(|f| f.rule == "R6"), "{v:?}");
    assert!(v[0].message.contains("put_unsynced"), "{v:?}");
    assert!(v[0].message.contains("renames without"), "{v:?}");
    // The hooked-fsync half: the compliant and suppressed fsyncs pass, the
    // one with no hook in front of it is named.
    assert!(v[1].message.contains("put_uncounted"), "{v:?}");
    assert!(v[1].message.contains("`sync_all`"), "{v:?}");
    assert!(v[1].message.contains("no fault-plan hook"), "{v:?}");
    // An earlier hook pays for one op only: the un-hooked directory fsync
    // after a hooked file fsync and a hooked rename is named too, while the
    // fsync inside a torn-write block neither needs a hook nor hides one.
    assert!(v[2].message.contains("put_half_hooked"), "{v:?}");
    assert!(v[2].message.contains("`sync_dir`"), "{v:?}");
}

/// Builds a [`CallGraph`] over `(file-name, source)` pairs for the
/// cross-file tests.
fn graph(files: &[(&str, &str)]) -> CallGraph {
    let sources: Vec<(PathBuf, String)> = files
        .iter()
        .map(|(name, src)| (PathBuf::from(name), (*src).to_string()))
        .collect();
    CallGraph::build(&sources)
}

#[test]
fn r5_resolves_helpers_across_files() {
    // The durable append order is split across two files: `put` lives in
    // the engine, the `wal.append` inside a helper in another module. The
    // per-file scanner was blind to this; the graph judges it at the call
    // site.
    let engine_ok = "
        impl Engine {
            pub fn put(&mut self, p: Point) -> Result<()> {
                log_point(&mut self.wal, &p)?;
                self.buffers.insert(p);
                Ok(())
            }
        }";
    let helper = "
        pub fn log_point(wal: &mut Wal, p: &Point) -> Result<()> {
            wal.append(p)
        }";
    let g = graph(&[("engine.rs", engine_ok), ("helper.rs", helper)]);
    assert!(
        rules::durability_order_with(Path::new("engine.rs"), engine_ok, &g)
            .is_empty(),
        "cross-file append must dominate the insert"
    );

    // Same shape with the helper call *after* the insert: the expansion
    // must still see the missing append.
    let engine_bad = "
        impl Engine {
            pub fn put(&mut self, p: Point) -> Result<()> {
                self.buffers.insert(p);
                log_point(&mut self.wal, &p)?;
                Ok(())
            }
        }";
    let g = graph(&[("engine.rs", engine_bad), ("helper.rs", helper)]);
    let v =
        rules::durability_order_with(Path::new("engine.rs"), engine_bad, &g);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("WAL-before-buffer"), "{v:?}");
}

#[test]
fn r5_treats_rewrite_after_wal_open_as_initialization() {
    // A function that opened the log itself and rewrites it to the full
    // volatile snapshot is initializing, not truncating — this pattern
    // previously needed an `allow(R5)` suppression.
    let src = "
        impl Engine {
            fn with_wal(mut self, path: &Path) -> Result<Self> {
                let mut wal = Wal::open(path)?;
                wal.rewrite(&self.buffers.snapshot_sorted())?;
                self.wal = Some(wal);
                Ok(self)
            }
        }";
    assert!(
        rules::durability_order(Path::new("engine.rs"), src).is_empty(),
        "rewrite after Wal::open is initialization"
    );
}

#[test]
fn r7_fires_on_unchecked_decoded_lengths() {
    let src = fixture("r7_unchecked_len.rs");
    let v = rules::untrusted_len(Path::new("format.rs"), &src);
    let names: Vec<&str> = v
        .iter()
        .map(|x| {
            x.message
                .split('`')
                .nth(1)
                .expect("message names the function")
        })
        .collect();
    assert_eq!(
        names,
        ["decode_unchecked", "decode_derived", "decode_macro"],
        "{v:?}"
    );
    assert!(v.iter().all(|x| x.rule == "R7"));
}

#[test]
fn r8_fires_on_guards_held_across_io_and_order_inversions() {
    let src = fixture("r8_lock_across_io.rs");
    let v = rules::lock_discipline(Path::new("background.rs"), &src);
    let names: Vec<&str> = v
        .iter()
        .map(|x| {
            x.message
                .split('`')
                .nth(1)
                .expect("message names the function")
        })
        .collect();
    assert_eq!(
        names,
        ["read_locked", "send_locked", "log_locked", "inverted"],
        "{v:?}"
    );
    assert!(v.iter().all(|x| x.rule == "R8"));
    assert!(v[0].message.contains("store I/O"), "{v:?}");
    assert!(v[1].message.contains("channel `send`"), "{v:?}");
    assert!(v[2].message.contains("WAL I/O"), "{v:?}");
    assert!(v[3].message.contains("acquires `state`"), "{v:?}");
}

#[test]
fn r8_sees_io_through_cross_file_helpers() {
    // The I/O hides behind a helper in another file; the call-graph I/O
    // summary must surface it at the locked call site.
    let engine = "
        impl Engine {
            pub fn tick(&self) -> Result<()> {
                let state = self.state.lock();
                flush_all(&self.store)?;
                drop(state);
                Ok(())
            }
        }";
    let helper = "
        pub fn flush_all(store: &dyn TableStore) -> Result<()> {
            store.put(&[])?;
            Ok(())
        }";
    let g = graph(&[("engine.rs", engine), ("helper.rs", helper)]);
    let v = rules::lock_discipline_with(Path::new("engine.rs"), engine, &g);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("flush_all"), "{v:?}");
    // Without the graph the same source is (wrongly) silent — the graph is
    // what buys the cross-file visibility.
    assert!(rules::lock_discipline(Path::new("engine.rs"), engine).is_empty());
}

#[test]
fn r9_fires_on_silent_metric_mutations() {
    let src = fixture("r9_silent_metric.rs");
    let v = rules::event_coverage(Path::new("engine.rs"), &src);
    let fields: Vec<&str> = v
        .iter()
        .map(|x| {
            x.message
                .split('`')
                .nth(3)
                .expect("message names the metric")
        })
        .collect();
    assert_eq!(
        fields,
        [
            "metrics.flushes",
            "metrics.disk_points_written",
            "metrics.subsequent_counts"
        ],
        "{v:?}"
    );
    assert!(v.iter().all(|x| x.rule == "R9"));
}

/// The core guarantee: the real workspace is lint-clean. Any regression in
/// the kernel contracts turns this test (and CI's dedicated seplint step)
/// red.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = lint_workspace(&root).expect("workspace lint runs");
    assert!(
        violations.is_empty(),
        "workspace has seplint violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
