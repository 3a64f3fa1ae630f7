//! The industrial use case (paper §VI): a vehicle-fleet monitoring store
//! that adapts its buffering policy as network conditions change.
//!
//! The stream starts as clean 1 Hz telemetry, then the fleet drives through
//! patchy coverage (batched re-sends, long systematic delays), then
//! stabilises again. The adaptive engine re-tunes at each shift; the example
//! prints every decision and the final WA against the two static baselines.
//!
//! ```text
//! cargo run --release -p seplsm --example vehicle_fleet
//! ```

use seplsm::{
    AdaptiveConfig, AdaptiveOpen, DataPoint, EngineConfig, OpenOptions, Policy,
    Result, VehicleWorkload,
};

fn static_wa(points: &[DataPoint], policy: Policy) -> Result<f64> {
    let mut engine = OpenOptions::new(EngineConfig::new(policy)).open()?;
    for p in points {
        engine.append(*p)?;
    }
    Ok(engine.metrics().write_amplification())
}

fn main() -> Result<()> {
    // Three coverage regimes, stitched into one stream.
    let calm_a = VehicleWorkload {
        points: 60_000,
        outage_start_prob: 0.0002,
        seed: 1,
        ..VehicleWorkload::default()
    };
    let patchy = VehicleWorkload {
        points: 60_000,
        outage_start_prob: 0.02,
        seed: 2,
        ..VehicleWorkload::default()
    };
    let calm_b = VehicleWorkload {
        points: 60_000,
        outage_start_prob: 0.0002,
        seed: 3,
        ..VehicleWorkload::default()
    };
    let mut stream = Vec::new();
    let mut offset = 0i64;
    for segment in [&calm_a, &patchy, &calm_b] {
        let mut pts = segment.generate();
        for p in &mut pts {
            p.gen_time += offset;
            p.arrival_time += offset;
        }
        offset += (segment.points as i64 + 1) * segment.delta_t;
        stream.extend(pts);
    }
    println!(
        "fleet stream: {} points over 3 coverage regimes",
        stream.len()
    );

    let mut engine =
        OpenOptions::new(EngineConfig::new(Policy::conventional(512)))
            .adaptive(AdaptiveConfig::new())?;
    for p in &stream {
        engine.append(*p)?;
    }

    println!("\nadaptive decisions:");
    for t in engine.tunes() {
        println!(
            "  after {:>7} points: r_c={:.3} r_s*={:.3} -> {}",
            t.at_user_points,
            t.r_c,
            t.r_s_star,
            t.decision.name()
        );
    }

    let adaptive_wa = engine.engine().metrics().write_amplification();
    let wa_c = static_wa(&stream, Policy::conventional(512))?;
    let wa_s = static_wa(&stream, Policy::separation_even(512)?)?;
    println!("\nfinal write amplification:");
    println!("  pi_c         : {wa_c:.3}");
    println!("  pi_s(n/2)    : {wa_s:.3}");
    println!("  pi_adaptive  : {adaptive_wa:.3}");
    Ok(())
}
