//! Quickstart: open an engine, write slightly out-of-order telemetry,
//! query it back, and inspect the write-amplification metrics.
//!
//! ```text
//! cargo run --release -p seplsm --example quickstart
//! ```

use seplsm::{DataPoint, EngineConfig, OpenOptions, Policy, Result, TimeRange};

fn main() -> Result<()> {
    // A leveled LSM engine with the conventional policy: one 512-point
    // MemTable, 512-point SSTables (the paper's defaults).
    let mut engine =
        OpenOptions::new(EngineConfig::new(Policy::conventional(512)))
            .open()?;

    // Sensor readings once per 50 ms. Every tenth reading is delayed long
    // enough to arrive out of order.
    let mut pending: Option<DataPoint> = None;
    for i in 0..10_000i64 {
        let gen_time = i * 50;
        if i % 10 == 9 {
            // This reading takes the slow path; it arrives three ticks late.
            pending = Some(DataPoint::new(gen_time, gen_time + 150, i as f64));
        } else {
            engine.append(DataPoint::new(gen_time, gen_time + 2, i as f64))?;
        }
        if let Some(p) = pending.take_if(|p| p.arrival_time <= gen_time) {
            engine.append(p)?;
        }
    }
    if let Some(p) = pending {
        engine.append(p)?;
    }

    // Range query over generation time; the engine merges MemTables and the
    // on-disk run and reports what the read cost.
    let (points, stats) = engine.query(TimeRange::new(100_000, 105_000))?;
    println!("queried [100000, 105000]: {} points", points.len());
    println!(
        "  tables read: {}, disk points scanned: {}, read amplification: {:.2}",
        stats.tables_read,
        stats.disk_points_scanned,
        stats.read_amplification().unwrap_or(0.0),
    );

    let m = engine.metrics();
    println!("ingestion totals:");
    println!("  user points:        {}", m.user_points);
    println!("  disk points:        {}", m.disk_points_written);
    println!("  flushes:            {}", m.flushes);
    println!("  compactions:        {}", m.compactions);
    println!("  write amplification: {:.3}", m.write_amplification());
    Ok(())
}
