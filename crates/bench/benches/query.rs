//! Query-path benchmarks: range queries against a populated engine under
//! both policies (recent tail window and historical interior window).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use seplsm_dist::LogNormal;
use seplsm_lsm::{EngineConfig, LsmEngine, OpenOptions};
use seplsm_types::{Policy, TimeRange};
use seplsm_workload::SyntheticWorkload;

fn populated(policy: Policy) -> LsmEngine {
    let mut engine = OpenOptions::new(EngineConfig::new(policy))
        .open()
        .expect("engine");
    let points =
        SyntheticWorkload::new(50, LogNormal::new(5.0, 2.0), 50_000, 2)
            .generate();
    for p in &points {
        engine.append(*p).expect("append");
    }
    engine
}

fn bench_query(c: &mut Criterion) {
    let conventional = populated(Policy::conventional(512));
    let separation = populated(Policy::separation_even(512).expect("policy"));
    let max_gen = conventional.max_gen_time().expect("points");

    let recent = TimeRange::new(max_gen - 5_000, max_gen);
    let historical = TimeRange::new(max_gen / 2, max_gen / 2 + 5_000);

    let mut group = c.benchmark_group("query");
    group.bench_function("recent/pi_c", |b| {
        b.iter(|| black_box(conventional.query(recent).expect("query")))
    });
    group.bench_function("recent/pi_s", |b| {
        b.iter(|| black_box(separation.query(recent).expect("query")))
    });
    group.bench_function("historical/pi_c", |b| {
        b.iter(|| black_box(conventional.query(historical).expect("query")))
    });
    group.bench_function("historical/pi_s", |b| {
        b.iter(|| black_box(separation.query(historical).expect("query")))
    });
    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
