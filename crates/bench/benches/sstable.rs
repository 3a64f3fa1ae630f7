//! Micro-benchmarks of the SSTable wire format: encode / decode / range
//! read of the dialect the engine writes (v3) at the paper-default 512
//! points and at 4096, and decode of the two dialects it only reads, over
//! table files an older build wrote (`tests/fixtures/tables/`).

use criterion::{
    black_box, criterion_group, criterion_main, Criterion, Throughput,
};
use seplsm_lsm::sstable::format;
use seplsm_types::DataPoint;

fn table_points(n: usize) -> Vec<DataPoint> {
    (0..n)
        .map(|i| {
            DataPoint::with_delay(
                i as i64 * 50,
                (i as i64 * 37) % 991,
                i as f64 * 0.25,
            )
        })
        .collect()
}

fn bench_format(c: &mut Criterion) {
    let mut group = c.benchmark_group("sstable");
    let options = format::EncodeOptions::default();
    for n in [512usize, 4096] {
        let points = table_points(n);
        let encoded = format::encode_with(&points, &options).expect("encode");
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("encode_v3/{n}"), |b| {
            b.iter(|| {
                format::encode_with(black_box(&points), &options)
                    .expect("encode")
            })
        });
        group.bench_function(format!("decode_v3/{n}"), |b| {
            b.iter(|| format::decode(black_box(&encoded)).expect("decode"))
        });
        // Block-granular read of a narrow range: one block of the table.
        let range = seplsm_types::TimeRange::new(50 * 64, 50 * 96);
        group.bench_function(format!("decode_range_v3/{n}"), |b| {
            b.iter(|| {
                format::decode_range(black_box(&encoded), range)
                    .expect("range read")
            })
        });
    }
    group.throughput(Throughput::Elements(512));
    for (name, table) in [
        (
            "decode_v1/512",
            include_bytes!("../../../tests/fixtures/tables/v1-512.sst")
                .as_slice(),
        ),
        (
            "decode_v2/512",
            include_bytes!("../../../tests/fixtures/tables/v2-bp128-512.sst")
                .as_slice(),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| format::decode(black_box(table)).expect("decode"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_format);
criterion_main!(benches);
