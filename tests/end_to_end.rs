//! Scaled-down end-to-end runs of the paper's experiment pipelines — the
//! same code paths the `seplsm-bench` binaries drive, asserted rather than
//! printed.

use std::sync::Arc;

use seplsm::{
    tune, DataPoint, EngineConfig, LsmEngine, Policy, S9Workload, TunerOptions,
    VehicleWorkload, WaModel,
};
use seplsm_dist::Empirical;
use seplsm_lsm::{DiskModel, OpenOptions, TieredOpenOptions};
use seplsm_workload::{paper_dataset, HistoricalQueries, RecentQueries};

fn ingest(points: &[DataPoint], policy: Policy, sstable: usize) -> LsmEngine {
    let mut engine = OpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(sstable),
    )
    .open()
    .expect("engine");
    for p in points {
        engine.append(*p).expect("append");
    }
    engine
}

#[test]
fn fig9_pipeline_severe_dataset_prefers_separation() {
    // M12 is the paper's most disordered dataset; separation wins there.
    let ds = paper_dataset("M12").expect("exists");
    let dataset = ds.workload(60_000, 31).generate();
    let model =
        WaModel::new(Arc::new(ds.distribution()), ds.delta_t as f64, 512);
    let outcome = tune(&model, TunerOptions::online(512)).expect("tune");
    assert!(outcome.chose_separation(), "M12 must prefer pi_s");

    let wa_c = ingest(&dataset, Policy::conventional(512), 512)
        .metrics()
        .write_amplification();
    let wa_s = ingest(
        &dataset,
        Policy::separation(512, outcome.best_n_seq).expect("policy"),
        512,
    )
    .metrics()
    .write_amplification();
    assert!(
        wa_s < wa_c,
        "measured disagrees with the model: pi_c {wa_c:.3}, pi_s {wa_s:.3}"
    );
}

#[test]
fn fig11_pipeline_s9_separation_wins_and_model_agrees() {
    let dataset = S9Workload::new(20_000, 32).generate();
    let delays: Vec<f64> = dataset.iter().map(|p| p.delay() as f64).collect();
    let dist = Arc::new(Empirical::from_samples(&delays));
    // Budget 8 as in the paper's S-9 experiment.
    let model = WaModel::new(dist, 100.0, 8);
    let outcome = tune(&model, TunerOptions::default()).expect("tune");

    let wa_c = ingest(&dataset, Policy::conventional(8), 8)
        .metrics()
        .write_amplification();
    let best_seq = outcome.best_n_seq.clamp(1, 7);
    let wa_s = ingest(
        &dataset,
        Policy::separation(8, best_seq).expect("policy"),
        8,
    )
    .metrics()
    .write_amplification();
    assert!(
        wa_s < wa_c,
        "paper's S-9 finding (pi_s wins) not reproduced: c {wa_c:.3}, s {wa_s:.3}"
    );
    assert!(
        outcome.r_s_star < outcome.r_c,
        "model must also prefer pi_s: r_c {:.3}, r_s {:.3}",
        outcome.r_c,
        outcome.r_s_star
    );
}

/// Runs the recent-data workload on the production-style tiered engine and
/// averages the per-query statistics (RA over non-empty queries).
fn recent_stats_tiered(
    dataset: &[DataPoint],
    policy: Policy,
    queries: RecentQueries,
) -> (f64, f64, f64) {
    let disk = DiskModel::hdd();
    let mut engine = TieredOpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(512),
    )
    .open()
    .expect("engine");
    let (mut ra, mut lat, mut tbl) = (0.0, 0.0, 0.0);
    let (mut ra_n, mut n) = (0u32, 0u32);
    for (i, p) in dataset.iter().enumerate() {
        engine.append(*p).expect("append");
        if queries.due(i as u64 + 1) {
            let max = engine.max_gen_time().expect("written");
            let (_, stats) = engine.query(queries.range(max)).expect("query");
            if let Some(r) = stats.read_amplification() {
                ra += r;
                ra_n += 1;
            }
            lat += disk.latency_ns(&stats);
            tbl += stats.tables_read as f64;
            n += 1;
        }
    }
    (
        ra / ra_n.max(1) as f64,
        lat / n.max(1) as f64,
        tbl / n.max(1) as f64,
    )
}

#[test]
fn fig14_pipeline_separation_wins_historical_queries_under_disorder() {
    // The paper's Fig. 14/15 mechanism: under pi_c, flushed files carrying
    // out-of-order points span wide generation ranges, so historical windows
    // overlap more files (more seeks); pi_s keeps in-order files narrow. The
    // paper highlights M6/M11/M12 as the datasets where pi_s wins — we check
    // M12, the most disordered.
    let ds = paper_dataset("M12").expect("exists");
    let dataset = ds.workload(40_000, 33).generate();
    let disk = DiskModel::hdd();
    let queries = HistoricalQueries::new(1_000, 200, 33);

    // As in §V-D, pi_s runs with the system-recommended capacities.
    let model =
        WaModel::new(Arc::new(ds.distribution()), ds.delta_t as f64, 512);
    let recommended = tune(&model, TunerOptions::online(512))
        .expect("tune")
        .decision;
    assert!(recommended.is_separation(), "M12 must recommend separation");

    let mut tables = Vec::new();
    let mut latencies = Vec::new();
    for policy in [Policy::conventional(512), recommended] {
        let mut engine = TieredOpenOptions::new(
            EngineConfig::new(policy).with_sstable_points(512),
        )
        .sync_flush()
        .open()
        .expect("engine");
        let mut min_gen = i64::MAX;
        for p in &dataset {
            engine.append(*p).expect("append");
            min_gen = min_gen.min(p.gen_time);
        }
        let max_gen = engine.max_gen_time().expect("points");
        let (mut tbl, mut lat, mut n) = (0.0, 0.0, 0u32);
        for range in queries.ranges(min_gen, max_gen) {
            let (_, stats) = engine.query(range).expect("query");
            tbl += stats.tables_read as f64;
            lat += disk.latency_ns(&stats);
            n += 1;
        }
        tables.push(tbl / n as f64);
        latencies.push(lat / n as f64);
    }
    assert!(
        tables[1] < tables[0],
        "pi_s must touch fewer files on M12 historical queries: \
         pi_c {:.2}, pi_s {:.2}",
        tables[0],
        tables[1]
    );
    assert!(
        latencies[1] < latencies[0],
        "and therefore be faster on the simulated HDD: pi_c {:.3e}, pi_s {:.3e}",
        latencies[0],
        latencies[1]
    );
}

#[test]
fn fig12_pipeline_read_amplification_is_measured_sanely() {
    // Recent-window read amplification: both policies must produce finite,
    // comparable RA (our substrate shows near-parity here; see
    // EXPERIMENTS.md for why the paper's small pi_s advantage depends on
    // IoTDB's chunk-read path).
    let ds = paper_dataset("M6").expect("exists");
    let dataset = ds.workload(40_000, 33).generate();
    let queries = RecentQueries::new(5_000, 500);

    let (ra_c, _, _) =
        recent_stats_tiered(&dataset, Policy::conventional(512), queries);
    let (ra_s, _, _) = recent_stats_tiered(
        &dataset,
        Policy::separation(512, 256).expect("policy"),
        queries,
    );
    assert!(ra_c.is_finite() && ra_s.is_finite());
    assert!(ra_c >= 0.0 && ra_s >= 0.0);
    assert!(
        (ra_s - ra_c).abs() < 5.0,
        "policies should be within the same RA regime: pi_c {ra_c:.2}, pi_s {ra_s:.2}"
    );
}

#[test]
fn fig13_pipeline_latency_follows_seek_counts() {
    // With HDD seek costs, whichever policy touches more files per recent
    // query pays the higher latency (the paper's Fig. 13 explanation).
    let ds = paper_dataset("M12").expect("exists");
    let dataset = ds.workload(40_000, 34).generate();
    let queries = RecentQueries::new(1_000, 500);

    let (_, lat_c, tbl_c) =
        recent_stats_tiered(&dataset, Policy::conventional(512), queries);
    let (_, lat_s, tbl_s) = recent_stats_tiered(
        &dataset,
        Policy::separation(512, 256).expect("policy"),
        queries,
    );
    assert_eq!(
        lat_s > lat_c,
        tbl_s > tbl_c,
        "latency must follow seek counts: pi_c ({lat_c:.0} ns, {tbl_c:.1} tbls), \
         pi_s ({lat_s:.0} ns, {tbl_s:.1} tbls)"
    );
}

#[test]
fn fig16_pipeline_h_dataset_model_ranks_policies_correctly() {
    let dataset = VehicleWorkload::new(60_000, 35).generate();
    let delays: Vec<f64> = dataset.iter().map(|p| p.delay() as f64).collect();
    let model =
        WaModel::new(Arc::new(Empirical::from_samples(&delays)), 1_000.0, 512);
    let outcome = tune(&model, TunerOptions::online(512)).expect("tune");

    let wa_c = ingest(&dataset, Policy::conventional(512), 512)
        .metrics()
        .write_amplification();
    let n_seq = outcome.best_n_seq.clamp(1, 511);
    let wa_s = ingest(
        &dataset,
        Policy::separation(512, n_seq).expect("policy"),
        512,
    )
    .metrics()
    .write_amplification();
    assert_eq!(
        outcome.r_s_star < outcome.r_c,
        wa_s < wa_c,
        "model ranking (r_c {:.3}, r_s {:.3}) vs measured (c {wa_c:.3}, s {wa_s:.3})",
        outcome.r_c,
        outcome.r_s_star,
    );
}

#[test]
fn table3_pipeline_background_compaction_keeps_throughput_comparable() {
    let ds = paper_dataset("M5").expect("exists");
    let dataset = ds.workload(60_000, 36).generate();
    let mut rates = Vec::new();
    for policy in [
        Policy::conventional(512),
        Policy::separation_even(512).expect("policy"),
    ] {
        let mut engine = TieredOpenOptions::new(
            EngineConfig::new(policy).with_sstable_points(512),
        )
        .open()
        .expect("engine");
        let start = std::time::Instant::now();
        for p in &dataset {
            engine.append(*p).expect("append");
        }
        let elapsed = start.elapsed().as_secs_f64();
        let report = engine.finish().expect("finish");
        assert_eq!(report.points.len(), dataset.len());
        rates.push(dataset.len() as f64 / elapsed);
    }
    let ratio = rates[1] / rates[0];
    assert!(
        (0.2..5.0).contains(&ratio),
        "throughput should be the same order under both policies, ratio {ratio:.2}"
    );
}

#[test]
fn historical_queries_return_identical_results_under_both_policies() {
    let ds = paper_dataset("M3").expect("exists");
    let dataset = ds.workload(30_000, 37).generate();
    let engine_c = ingest(&dataset, Policy::conventional(512), 512);
    let engine_s =
        ingest(&dataset, Policy::separation(512, 128).expect("policy"), 512);
    let max = engine_c.max_gen_time().expect("points");
    for range in HistoricalQueries::new(5_000, 50, 38).ranges(0, max) {
        let (a, _) = engine_c.query(range).expect("query c");
        let (b, _) = engine_s.query(range).expect("query s");
        assert_eq!(a, b, "query {range:?} disagreed between policies");
    }
}
