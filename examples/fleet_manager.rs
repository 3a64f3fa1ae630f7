//! Fleet-scale storage: many series and per-series adaptive policies over
//! one shared table store.
//!
//! A monitoring backend hosts several sensor channels per vehicle. Channels
//! behave differently — GPS pushes clean 1 Hz fixes, the CAN-bus gateway
//! batches under patchy coverage — so one global policy cannot fit. The
//! fleet engine tunes each series independently and stores everything in
//! the engine's compressed, block-structured SSTables.
//!
//! ```text
//! cargo run --release -p seplsm --example fleet_manager
//! ```

use std::sync::Arc;

use seplsm::{
    AdaptiveConfig, AdaptiveOpen, ArbiterConfig, DataPoint, EngineConfig,
    LogNormal, MemStore, MultiOpenOptions, Policy, SeriesId, TimeRange,
};
use seplsm_dist::DelayDistribution;

fn main() -> seplsm::Result<()> {
    let store = Arc::new(MemStore::new());
    // One fleet-wide budget of 1024 points: the arbiter hands each channel
    // a slice (hot channels grow, cold ones shrink toward the floor) and
    // the adaptive controller retunes each channel against its current
    // slice.
    let mut fleet =
        MultiOpenOptions::new(EngineConfig::new(Policy::conventional(256)))
            .store(store.clone())
            .arbiter(ArbiterConfig::new(1024))
            .adaptive(AdaptiveConfig::new())?;

    // Three channels with very different delay behaviour.
    let channels: [(&str, SeriesId, LogNormal); 3] = [
        ("gps (clean)", SeriesId(1), LogNormal::new(1.5, 0.4)), // ~4 ms
        (
            "engine temp (jittery)",
            SeriesId(2),
            LogNormal::new(4.5, 1.2),
        ),
        (
            "can gateway (chaotic)",
            SeriesId(3),
            LogNormal::new(6.5, 1.8),
        ),
    ];
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(2026)
    };

    let points_per_channel = 20_000usize;
    for (_, series, dist) in &channels {
        let mut pts: Vec<DataPoint> = (0..points_per_channel)
            .map(|i| {
                DataPoint::with_delay(
                    (i as i64 + 1) * 50,
                    dist.sample(&mut rng).round() as i64,
                    (i % 100) as f64,
                )
            })
            .collect();
        pts.sort_by_key(|p| p.arrival_time);
        for p in pts {
            fleet.append(*series, p)?;
        }
    }

    println!("per-series outcomes:");
    for (label, series, _) in &channels {
        let engine = fleet.engine().engine(*series).expect("series exists");
        println!(
            "  {label:<24} policy {:<34} WA {:.3} ({} tunes)",
            engine.policy().name(),
            engine.metrics().write_amplification(),
            fleet.tunes(*series),
        );
    }

    if let Some(stats) = fleet.engine().arbiter_stats() {
        println!(
            "\narbiter: {} rebalances, {} resizes",
            stats.rounds, stats.resizes
        );
    }

    let agg = fleet.engine().combined_metrics();
    println!(
        "\nfleet totals: {} series, {} points, WA {:.3}",
        fleet.engine().len(),
        agg.user_points,
        agg.write_amplification()
    );
    println!(
        "compressed store size: {:.2} bytes/point",
        store.encoded_bytes() as f64 / agg.disk_points_written as f64
    );

    // Queries stay per-series.
    let (pts, stats) = fleet
        .engine()
        .query(SeriesId(3), TimeRange::new(100_000, 110_000))?;
    println!(
        "\nsample query on the chaotic channel: {} points, {} tables read",
        pts.len(),
        stats.tables_read
    );
    Ok(())
}
