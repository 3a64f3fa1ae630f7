//! Ingest-path benchmarks: points/s through the synchronous engine under
//! both policies, and through the background-compaction engine.

use criterion::{
    criterion_group, criterion_main, BatchSize, Criterion, Throughput,
};
use seplsm_dist::LogNormal;
use seplsm_lsm::{EngineConfig, OpenOptions, TieredOpenOptions};
use seplsm_types::{DataPoint, Policy};
use seplsm_workload::SyntheticWorkload;

fn dataset(points: usize) -> Vec<DataPoint> {
    SyntheticWorkload::new(50, LogNormal::new(4.0, 1.5), points, 1).generate()
}

fn bench_ingest(c: &mut Criterion) {
    let points = dataset(20_000);
    let mut group = c.benchmark_group("ingest");
    group.throughput(Throughput::Elements(points.len() as u64));
    group.sample_size(10);

    group.bench_function("lsm/pi_c", |b| {
        b.iter_batched(
            || {
                OpenOptions::new(EngineConfig::new(Policy::conventional(512)))
                    .open()
                    .expect("engine")
            },
            |mut engine| {
                for p in &points {
                    engine.append(*p).expect("append");
                }
                engine
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("lsm/pi_s_half", |b| {
        b.iter_batched(
            || {
                OpenOptions::new(EngineConfig::new(
                    Policy::separation_even(512).expect("policy"),
                ))
                .open()
                .expect("engine")
            },
            |mut engine| {
                for p in &points {
                    engine.append(*p).expect("append");
                }
                engine
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("tiered/pi_c", |b| {
        b.iter_batched(
            || {
                TieredOpenOptions::new(EngineConfig::new(Policy::conventional(
                    512,
                )))
                .open()
                .expect("engine")
            },
            |mut engine| {
                for p in &points {
                    engine.append(*p).expect("append");
                }
                engine.finish().expect("finish")
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
