//! WA-parity regression tests: pin the measured write amplification of
//! fig07/fig09-style runs (in-memory store) so the storage-kernel refactor
//! provably preserves π_c and π_s semantics bit-for-bit.
//!
//! The golden values below were captured from the pre-refactor engine
//! (`LsmEngine` with the inline flush/merge pipeline). Each case compares
//! `wa_measured` via `f64::to_bits` — any change to classification, merge
//! planning, or metric accounting shows up as a failure here.

use seplsm::lsm::Metrics;
use seplsm::{
    paper_dataset, DataPoint, EngineConfig, LogNormal, OpenOptions, Policy,
    SyntheticWorkload,
};

/// The fig07/fig09 driver loop: ingest in arrival order, return metrics.
fn measure_wa(points: &[DataPoint], policy: Policy, sstable: usize) -> Metrics {
    let mut engine = OpenOptions::new(
        EngineConfig::new(policy).with_sstable_points(sstable),
    )
    .open()
    .expect("engine");
    for p in points {
        engine.append(*p).expect("append");
    }
    engine.metrics().clone()
}

/// One pinned measurement: workload + policy -> exact metric values.
struct Golden {
    name: &'static str,
    wa_bits: u64,
    disk_points_written: u64,
    flushes: u64,
    compactions: u64,
    rewritten_points: u64,
}

fn check(points: &[DataPoint], policy: Policy, golden: &Golden) {
    let m = measure_wa(points, policy, 512);
    let wa = m.write_amplification();
    assert_eq!(
        wa.to_bits(),
        golden.wa_bits,
        "{}: wa_measured {} != golden {}",
        golden.name,
        wa,
        f64::from_bits(golden.wa_bits)
    );
    assert_eq!(
        (
            m.disk_points_written,
            m.flushes,
            m.compactions,
            m.rewritten_points
        ),
        (
            golden.disk_points_written,
            golden.flushes,
            golden.compactions,
            golden.rewritten_points
        ),
        "{}: counter mismatch",
        golden.name
    );
}

/// Captures current values in golden-table form when asked for explicitly:
/// `WA_PARITY_CAPTURE=1 cargo test --test wa_parity -- --nocapture`.
fn capture(name: &str, points: &[DataPoint], policy: Policy) {
    let m = measure_wa(points, policy, 512);
    println!(
        "Golden {{ name: \"{name}\", wa_bits: 0x{:016x}, disk_points_written: {}, \
         flushes: {}, compactions: {}, rewritten_points: {} }}, // wa = {:.6}",
        m.write_amplification().to_bits(),
        m.disk_points_written,
        m.flushes,
        m.compactions,
        m.rewritten_points,
        m.write_amplification()
    );
}

fn fig07_dataset() -> Vec<DataPoint> {
    // fig07 shape at test scale: lognormal(5, 2) delays on a dt=50 grid.
    SyntheticWorkload::new(50, LogNormal::new(5.0, 2.0), 40_000, 7).generate()
}

fn m_dataset(name: &str) -> Vec<DataPoint> {
    // fig09 shape at test scale: the paper's synthetic M-datasets.
    paper_dataset(name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
        .workload(30_000, 9)
        .generate()
}

const N: usize = 512;

#[test]
fn fig07_style_wa_is_bit_identical() {
    let data = fig07_dataset();
    if std::env::var_os("WA_PARITY_CAPTURE").is_some() {
        capture("fig07/pi_c", &data, Policy::conventional(N));
        for n_seq in [128, 256, 448] {
            capture(
                &format!("fig07/pi_s_{n_seq}"),
                &data,
                Policy::separation(N, n_seq).expect("policy"),
            );
        }
        return;
    }
    for golden in FIG07_GOLDEN {
        let policy = match golden.name {
            "fig07/pi_c" => Policy::conventional(N),
            "fig07/pi_s_128" => Policy::separation(N, 128).expect("policy"),
            "fig07/pi_s_256" => Policy::separation(N, 256).expect("policy"),
            "fig07/pi_s_448" => Policy::separation(N, 448).expect("policy"),
            other => panic!("unknown golden {other}"),
        };
        check(&data, policy, golden);
    }
}

#[test]
fn fig09_style_wa_is_bit_identical() {
    for (ds, goldens) in [
        ("M4", &FIG09_M4_GOLDEN),
        ("M8", &FIG09_M8_GOLDEN),
        ("M12", &FIG09_M12_GOLDEN),
    ] {
        let data = m_dataset(ds);
        if std::env::var_os("WA_PARITY_CAPTURE").is_some() {
            capture(
                &format!("fig09/{ds}/pi_c"),
                &data,
                Policy::conventional(N),
            );
            capture(
                &format!("fig09/{ds}/pi_s_250"),
                &data,
                Policy::separation(N, 250).expect("policy"),
            );
            continue;
        }
        check(&data, Policy::conventional(N), &goldens[0]);
        check(
            &data,
            Policy::separation(N, 250).expect("policy"),
            &goldens[1],
        );
    }
}

// Captured from the pre-refactor engine (WA_PARITY_CAPTURE=1, seed state).
const FIG07_GOLDEN: &[Golden] = &[
    Golden {
        name: "fig07/pi_c",
        wa_bits: 0x400e1b089a027525,
        disk_points_written: 150528,
        flushes: 1,
        compactions: 77,
        rewritten_points: 110592,
    }, // wa = 3.763200
    Golden {
        name: "fig07/pi_s_128",
        wa_bits: 0x400346dc5d638866,
        disk_points_written: 96384,
        flushes: 285,
        compactions: 9,
        rewritten_points: 56448,
    }, // wa = 2.409600
    Golden {
        name: "fig07/pi_s_256",
        wa_bits: 0x4001eb851eb851ec,
        disk_points_written: 89600,
        flushes: 148,
        compactions: 8,
        rewritten_points: 49664,
    }, // wa = 2.240000
    Golden {
        name: "fig07/pi_s_448",
        wa_bits: 0x40074f0d844d013b,
        disk_points_written: 116544,
        flushes: 86,
        compactions: 21,
        rewritten_points: 76672,
    }, // wa = 2.913600
];

const FIG09_M4_GOLDEN: [Golden; 2] = [
    Golden {
        name: "fig09/M4/pi_c",
        wa_bits: 0x4000cb295e9e1b09,
        disk_points_written: 62976,
        flushes: 1,
        compactions: 57,
        rewritten_points: 33280,
    }, // wa = 2.099200
    Golden {
        name: "fig09/M4/pi_s_250",
        wa_bits: 0x3ffff0b550f6da2e,
        disk_points_written: 59888,
        flushes: 116,
        compactions: 3,
        rewritten_points: 30102,
    }, // wa = 1.996267
];
const FIG09_M8_GOLDEN: [Golden; 2] = [
    Golden {
        name: "fig09/M8/pi_c",
        wa_bits: 0x400ccefc0a60647d,
        disk_points_written: 108032,
        flushes: 1,
        compactions: 57,
        rewritten_points: 78336,
    }, // wa = 3.601067
    Golden {
        name: "fig09/M8/pi_s_250",
        wa_bits: 0x4000e6e0bbdeaf95,
        disk_points_written: 63382,
        flushes: 111,
        compactions: 7,
        rewritten_points: 33798,
    }, // wa = 2.112733
];
const FIG09_M12_GOLDEN: [Golden; 2] = [
    Golden {
        name: "fig09/M12/pi_c",
        wa_bits: 0x4029c54a6921735f,
        disk_points_written: 386560,
        flushes: 1,
        compactions: 57,
        rewritten_points: 356864,
    }, // wa = 12.885333
    Golden {
        name: "fig09/M12/pi_s_250",
        wa_bits: 0x401c29073c7bf8e6,
        disk_points_written: 211202,
        flushes: 100,
        compactions: 18,
        rewritten_points: 181486,
    }, // wa = 7.040067
];
