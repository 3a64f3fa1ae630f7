//! Turns what a run measured into the named metrics of `BENCHMARK.json`,
//! and prints them.

use std::sync::atomic::Ordering;

use seplsm_lsm::IoOp;

use crate::drills::Drills;
use crate::run::RunResult;
use crate::stats::{median_f64, peak_rss_mb, percentile, ratio};
use crate::trace::{Analysis, Tracer};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    // A layer that did no work reports 0, never NaN or infinity.
    // Adding 0.0 turns the -0.0 an empty float sum yields into 0.0.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    Metric { name, unit, value }
}

fn us(samples: &[u64], q: f64) -> f64 {
    percentile(samples, q) / 1e3
}

fn io_count(r: &RunResult, ops: &[IoOp]) -> f64 {
    r.io_ops.iter().filter(|op| ops.contains(op)).count() as f64
}

/// Every op of the trace that ends in an fsync: table files, the
/// directories renamed into, WAL syncs and rewrites, manifest syncs and
/// rewrites.
const FSYNCS: [IoOp; 6] = [
    IoOp::StoreSync,
    IoOp::DirSync,
    IoOp::WalSync,
    IoOp::WalRewrite,
    IoOp::ManifestSync,
    IoOp::ManifestRewrite,
];

/// The end-to-end metrics: costs a user pays per operation that do not
/// depend on how fast this sandbox's disk happens to be at the moment.
/// Measured without the store decorator and without an observer.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let points = r.acked_points as f64;
    let reads = r.read_ops as f64;
    vec![
        m("setup_s", "s", r.setup_s),
        m(
            "write_amp",
            "ratio",
            ratio(r.disk_points_written as f64, r.user_points as f64),
        ),
        m(
            "write_bytes_per_point",
            "B",
            ratio(r.io.wchar as f64, points),
        ),
        m("read_bytes_per_op", "B", ratio(r.io.rchar as f64, reads)),
        m(
            "space_bytes_per_point",
            "B",
            ratio(r.space_bytes as f64, r.live_points as f64),
        ),
        m(
            "fsyncs_per_kpoint",
            "count",
            ratio(io_count(r, &FSYNCS) * 1e3, points),
        ),
        m(
            "write_syscalls_per_kpoint",
            "count",
            ratio(r.io.syscw as f64 * 1e3, points),
        ),
        m(
            "read_syscalls_per_op",
            "count",
            ratio(r.io.syscr as f64, reads),
        ),
        m("peak_rss_mb", "MiB", peak_rss_mb()),
    ]
}

/// Wall-clock throughput and latencies. On this sandbox's disk they move
/// by 20-40 % between runs of the same code, so they carry no bound: they
/// are printed by every run and listed among the per-layer metrics.
pub fn wall_clock(r: &RunResult) -> Vec<Metric> {
    let wall_s = r.wall_ns as f64 / 1e9;
    let queries = r.lat.queries();
    let aggs = r.lat.aggs();
    vec![
        m(
            "wall.ingest_points_per_s",
            "1/s",
            ratio(r.acked_points as f64, wall_s),
        ),
        m("wall.write_batch_p50_us", "us", us(&r.lat.batch, 0.50)),
        m("wall.write_batch_p99_us", "us", us(&r.lat.batch, 0.99)),
        m("wall.query_p50_us", "us", us(&queries, 0.50)),
        m("wall.query_p99_us", "us", us(&queries, 0.99)),
        m("wall.agg_p50_us", "us", us(&aggs, 0.50)),
        m("wall.agg_p99_us", "us", us(&aggs, 0.99)),
        m("wall.recover_ms", "ms", median_f64(&r.recover_ms)),
    ]
}

/// Sample counts behind the latency percentiles, for the printed report.
pub fn sample_counts(r: &RunResult) -> String {
    format!(
        "samples: write_batch={} query={} (recent={} historical={}) get={} \
         aggregate={} downsample={} recover={}",
        r.lat.batch.len(),
        r.lat.queries().len(),
        r.lat.recent.len(),
        r.lat.historical.len(),
        r.lat.get.len(),
        r.lat.aggregate.len(),
        r.lat.downsample.len(),
        r.recover_ms.len(),
    )
}

/// The per-layer metrics of a traced run `r`. `untraced` is the same
/// workload without tracing, run first in this process: it supplies the
/// wall-clock metrics and the base of the tracing overhead.
pub fn per_layer(
    r: &RunResult,
    untraced: &RunResult,
    tracer: &Tracer,
    a: &Analysis,
    d: &Drills,
    capacity_points_per_s: f64,
) -> Vec<Metric> {
    let c = &tracer.counts;
    let get =
        |x: &std::sync::atomic::AtomicU64| x.load(Ordering::Relaxed) as f64;
    let wall = r.wall_ns as f64;
    let points = r.acked_points as f64;
    let dur = |name: &str| a.durations(name);
    let p50 = |name: &str| us(&dur(name), 0.50);
    let p99 = |name: &str| us(&dur(name), 0.99);
    let count = |name: &str| a.named(name).count() as f64;
    let sum_a = |name: &str| a.named(name).map(|s| s.a as f64).sum::<f64>();
    let sum_b = |name: &str| a.named(name).map(|s| s.b as f64).sum::<f64>();
    let layers = a.layer_self_ns();
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0) as f64;
    let io = |ops: &[IoOp]| io_count(r, ops);

    let store_syncs = io(&[IoOp::StoreSync]);
    let dir_syncs = io(&[IoOp::DirSync]);
    let wal_syncs = io(&[IoOp::WalSync, IoOp::WalRewrite]);
    let manifest_syncs = io(&[IoOp::ManifestSync, IoOp::ManifestRewrite]);

    let merges: Vec<_> = a.named("compaction.merge").collect();
    let merge_inputs: f64 = merges.iter().map(|s| s.a as f64).sum();
    let rewritten: f64 = merges.iter().map(|s| s.b as f64).sum();
    // Merges the background worker ran, on a thread of its own.
    let writer_tid = a.named("engine.batch").next().map_or(0, |s| s.tid);
    let background: Vec<u64> = merges
        .iter()
        .filter(|s| s.tid != writer_tid)
        .map(|s| s.ns())
        .collect();

    let appends = dur("engine.append");
    let (fast_n, fast_ns) = r.fast_appends;
    // Appends that only buffered a point were timed but not kept as spans;
    // every one of them is faster than every kept one.
    let append_p50 = if fast_n as usize >= appends.len() {
        ratio(fast_ns as f64, fast_n as f64)
    } else {
        percentile(&appends, 0.50)
    };
    let append_total = appends.iter().sum::<u64>() as f64 + fast_ns as f64;
    let append_self = a
        .named("engine.append")
        .map(|s| s.self_ns as f64)
        .sum::<f64>()
        + fast_ns as f64;

    // A query span's children are the store spans under it.
    let query_self: Vec<u64> =
        a.named("query.range").map(|s| s.self_ns).collect();
    let n_range = (r.lat.recent.len() + r.lat.historical.len()) as f64;
    let rs = &r.range_stats;
    let all = &r.read_stats;
    let cache = r.cache.unwrap_or_default();
    let admission = r.admission.unwrap_or_default();
    let pacer = r.pacer.unwrap_or_default();
    let arbiter = r.arbiter.unwrap_or_default();

    vec![
        m("wal.append_ns_per_point", "ns", d.wal_append_ns),
        m("wal.bytes_appended", "B", get(&c.wal_bytes)),
        m("wal.syncs", "count", count("wal.sync")),
        m("wal.sync_us_p50", "us", p50("wal.sync")),
        m("wal.rewrites", "count", count("wal.rewrite")),
        m("wal.rewrite_us_p50", "us", p50("wal.rewrite")),
        // A WAL record is 28 bytes; `a` holds the surviving points.
        m("wal.rewrite_bytes", "B", sum_a("wal.rewrite") * 28.0),
        m("buffer.insert_ns_per_point", "ns", d.buffer_insert_ns),
        m(
            "buffer.in_order_share",
            "ratio",
            ratio(get(&c.in_order), get(&c.classified)),
        ),
        m("buffer.seals", "count", count("buffer.seal")),
        m("buffer.seal_us_p50", "us", p50("buffer.seal")),
        m("sstable.encode_ns_per_point", "ns", d.encode_ns),
        m(
            "sstable.encoded_bytes_per_point",
            "B",
            ratio(sum_a("store.put"), sum_b("store.put")),
        ),
        m("sstable.decode_ns_per_point", "ns", d.decode_ns),
        m("sstable.decode_range_ns_per_point", "ns", d.decode_range_ns),
        m("sstable.index_load_us_p50", "us", d.index_load_us),
        m("sstable.filter_probe_ns", "ns", d.filter_probe_ns),
        m("store.puts", "count", count("store.put")),
        m("store.put_bytes", "B", sum_a("store.put")),
        m("store.put_us_p50", "us", p50("store.put")),
        m("store.put_us_p99", "us", p99("store.put")),
        m("store.gets", "count", count("store.get")),
        m("store.get_bytes", "B", sum_a("store.get")),
        m("store.get_us_p50", "us", p50("store.get")),
        m("store.read_spans", "count", count("store.read_span")),
        m("store.read_span_bytes", "B", sum_a("store.read_span")),
        m("store.read_span_us_p50", "us", p50("store.read_span")),
        m("store.may_contains", "count", count("store.may_contain")),
        m("store.may_contain_us_p50", "us", p50("store.may_contain")),
        m("store.deletes", "count", count("store.delete")),
        m("store.delete_us_p50", "us", p50("store.delete")),
        m("store.busy_share", "ratio", layer("store") / wall),
        m("io.store_syncs", "count", store_syncs),
        m("io.dir_syncs", "count", dir_syncs),
        m("io.wal_syncs", "count", wal_syncs),
        m("io.manifest_syncs", "count", manifest_syncs),
        m("proc.cpu_user_s", "s", r.cpu.0),
        m("proc.cpu_sys_s", "s", r.cpu.1),
        m("proc.cpu_share", "ratio", (r.cpu.0 + r.cpu.1) * 1e9 / wall),
        m("manifest.records", "count", count("manifest.record")),
        m("manifest.record_us_p50", "us", p50("manifest.record")),
        m("manifest.rewrites", "count", get(&c.manifest_rewrites)),
        m("compaction.flushes", "count", count("compaction.flush")),
        m("compaction.merges", "count", merges.len() as f64),
        m("compaction.flush_us_p50", "us", p50("compaction.flush")),
        m("compaction.merge_us_p50", "us", p50("compaction.merge")),
        m("compaction.merge_us_p99", "us", p99("compaction.merge")),
        m(
            "compaction.tables_in_per_merge",
            "count",
            ratio(merge_inputs, merges.len() as f64),
        ),
        m("compaction.points_rewritten", "count", rewritten),
        m("compaction.plan_ns_per_point", "ns", d.plan_ns),
        m("iterator.merge_ns_per_point", "ns", d.merge_ns),
        m("compaction.busy_share", "ratio", layer("compaction") / wall),
        m(
            "background.l0_depth_max",
            "count",
            admission.max_depth as f64,
        ),
        m("background.compact_us_p50", "us", us(&background, 0.50)),
        m("background.pacer_waits", "count", pacer.waits as f64),
        m(
            "background.finish_ms",
            "ms",
            if background.is_empty() {
                0.0
            } else {
                r.close_ns as f64 / 1e6
            },
        ),
        m("admission.stalls", "count", r.stalls.0 as f64),
        m("admission.stall_ticks", "count", r.stalls.1 as f64),
        m("admission.delayed_appends", "count", r.stalls.2 as f64),
        m("admission.stall_us_p50", "us", p50("admission.stall")),
        m("loadgen.lateness_p99_us", "us", us(&r.lat.lateness, 0.99)),
        m(
            "loadgen.capacity_points_per_s",
            "1/s",
            capacity_points_per_s,
        ),
        m("cache.hit_rate", "ratio", cache.hit_rate()),
        m("cache.evictions", "count", cache.evictions as f64),
        m(
            "cache.invalidated_blocks",
            "count",
            cache.invalidated_blocks as f64,
        ),
        m("cache.lookup_ns", "ns", d.cache_lookup_ns),
        m("query.recent_p50_us", "us", us(&r.lat.recent, 0.50)),
        m("query.hist_p50_us", "us", us(&r.lat.historical, 0.50)),
        m("query.get_p50_us", "us", us(&r.lat.get, 0.50)),
        m("query.aggregate_p50_us", "us", us(&r.lat.aggregate, 0.50)),
        m("query.downsample_p50_us", "us", us(&r.lat.downsample, 0.50)),
        m("query.self_us_p50", "us", us(&query_self, 0.50)),
        m(
            "query.tables_pruned_per_query",
            "count",
            ratio(rs.tables_pruned as f64, n_range),
        ),
        m(
            "query.tables_read_per_query",
            "count",
            ratio(rs.tables_read as f64, n_range),
        ),
        m(
            "query.blocks_read_per_query",
            "count",
            ratio(rs.blocks_read as f64, n_range),
        ),
        m(
            "query.points_scanned_per_result",
            "ratio",
            ratio(
                (all.disk_points_scanned + all.mem_points_scanned) as f64,
                all.points_returned as f64,
            ),
        ),
        m(
            "query.read_amp",
            "ratio",
            ratio(r.read_amp_sum, r.read_amp_n as f64),
        ),
        m(
            "query.blocks_folded_share",
            "ratio",
            ratio(
                all.blocks_folded as f64,
                (all.blocks_folded + all.agg_fallback_blocks) as f64,
            ),
        ),
        m(
            "multi.append_ns_per_point",
            "ns",
            if r.arbiter.is_some() {
                ratio(append_total, points)
            } else {
                0.0
            },
        ),
        m(
            "multi.flush_all_ms",
            "ms",
            if r.arbiter.is_some() {
                r.close_ns as f64 / 1e6
            } else {
                0.0
            },
        ),
        m("multi.delayed_waves", "count", r.delayed_waves as f64),
        m("arbiter.rebalances", "count", arbiter.rounds as f64),
        m("arbiter.resizes", "count", arbiter.resizes as f64),
        m("arbiter.hot_cold_capacity_ratio", "ratio", r.hot_cold_ratio),
        m(
            "recovery.wal_points_replayed",
            "count",
            ratio(get(&c.wal_replayed), count("recovery.open")),
        ),
        m(
            "recovery.manifest_records",
            "count",
            ratio(get(&c.manifest_replayed), count("recovery.open")),
        ),
        m("recovery.open_ms_p50", "ms", p50("recovery.open") / 1e3),
        m("setup.preload_s", "s", r.preload_s),
        m("engine.append_ns_p50", "ns", append_p50),
        m(
            "engine.append_self_share",
            "ratio",
            ratio(append_self, append_total),
        ),
        m("engine.flush_all_ms", "ms", r.close_ns as f64 / 1e6),
        m(
            "engine.write_path_attributed_share",
            "ratio",
            write_path_attributed(a),
        ),
        m(
            "obs.events_per_point",
            "count",
            ratio(get(&c.events), points),
        ),
        m(
            "obs.trace_overhead_share",
            "ratio",
            ratio(wall, untraced.wall_ns as f64) - 1.0,
        ),
    ]
    .into_iter()
    .chain(wall_clock(untraced))
    .collect()
}

/// Share of the write path's wall time (every `engine.batch` span: the
/// appends and the WAL sync) that the self times of `wal`, `buffer`,
/// `store`, `compaction` and `manifest` account for.
fn write_path_attributed(a: &Analysis) -> f64 {
    let total: u64 = a.named("engine.batch").map(|s| s.ns()).sum();
    let under = a.layer_self_ns_under("engine.batch");
    let attributed: u64 = ["wal", "buffer", "store", "compaction", "manifest"]
        .iter()
        .map(|l| under.get(l).copied().unwrap_or(0))
        .sum();
    ratio(attributed as f64, total as f64)
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for metric in metrics {
        println!("{:<40} {:>18.4} {}", metric.name, metric.value, metric.unit);
    }
}

/// The result line the driver reads: one JSON object, last on stdout.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
