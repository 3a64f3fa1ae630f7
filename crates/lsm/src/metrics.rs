//! Engine instrumentation: write amplification, flush/compaction counters,
//! per-compaction subsequent-point counts, and windowed WA snapshots.
//!
//! WA is the paper's central quantity: *the amount of data actually written
//! to the disk divided by the amount required by the user* (§I-B). The
//! engine counts both sides in points; [`Metrics::write_amplification`]
//! is their ratio.

/// Write amplification as defined in §I-B: points physically written per
/// user point, `0.0` before the first append. The one shared definition
/// behind [`Metrics`] and `TieredReport`.
pub fn write_amplification(disk_points_written: u64, user_points: u64) -> f64 {
    if user_points == 0 {
        return 0.0;
    }
    disk_points_written as f64 / user_points as f64
}

/// Cache hit rate `hits / (hits + misses)` over `[0, 1]`, `0.0` before the
/// first lookup. The one shared definition behind the decoded-block cache's
/// `CacheStats` and the observability `AggregateReport`.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let lookups = hits.saturating_add(misses);
    if lookups == 0 {
        return 0.0;
    }
    hits as f64 / lookups as f64
}

/// Cumulative counters maintained by the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Points the user asked to write (`append` calls).
    pub user_points: u64,
    /// Points physically written into SSTables (flushes + rewrites).
    pub disk_points_written: u64,
    /// MemTable flushes that did not rewrite existing tables
    /// (`C_seq` flushes, or `C0` flushes with no overlap).
    pub flushes: u64,
    /// Merge compactions (buffer merged with overlapping SSTables).
    pub compactions: u64,
    /// Points re-written out of existing SSTables during compactions.
    pub rewritten_points: u64,
    /// SSTables created by flushes and compactions.
    pub tables_created: u64,
    /// SSTables deleted by compactions.
    pub tables_deleted: u64,
    /// Always 0: nothing delays an append short of a write stall.
    pub delayed_appends: u64,
    /// Write stalls: hand-offs that found the background flush queue full.
    pub write_stalls: u64,
    /// Queue slots the write stalls waited for (one per stall).
    pub stall_ticks: u64,
    /// Per-compaction count of *subsequent data points* on disk at the moment
    /// the compaction started (Definition 4) — the quantity the ζ-model
    /// estimates. Populated only when the engine is configured with
    /// `record_subsequent = true` (Fig. 5 probe).
    pub subsequent_counts: Vec<u64>,
    /// `(user_points, disk_points_written)` snapshots taken every
    /// `wa_snapshot_every` user points (Fig. 10's windowed WA series).
    pub wa_snapshots: Vec<WaSnapshot>,
}

/// One point of the windowed-WA time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaSnapshot {
    /// Cumulative user points at snapshot time.
    pub user_points: u64,
    /// Cumulative disk points written at snapshot time.
    pub disk_points_written: u64,
}

impl Metrics {
    /// Overall write amplification `disk writes / user writes`.
    ///
    /// Points still buffered in memory count in the denominator with zero
    /// writes, exactly as in the paper's measurement (each point's write
    /// counter starts at zero and increments per physical write).
    pub fn write_amplification(&self) -> f64 {
        write_amplification(self.disk_points_written, self.user_points)
    }

    /// Adds `other`'s counters to these — the total of a fleet's series, or
    /// of one engine's appending thread and its worker — and appends its
    /// `subsequent_counts` and `wa_snapshots`. Destructures exhaustively: a
    /// counter added to [`Metrics`] does not compile until it is summed here.
    pub fn absorb(&mut self, other: &Metrics) {
        let Metrics {
            user_points,
            disk_points_written,
            flushes,
            compactions,
            rewritten_points,
            tables_created,
            tables_deleted,
            delayed_appends,
            write_stalls,
            stall_ticks,
            subsequent_counts,
            wa_snapshots,
        } = other;
        self.user_points += user_points;
        self.disk_points_written += disk_points_written;
        self.flushes += flushes;
        self.compactions += compactions;
        self.rewritten_points += rewritten_points;
        self.tables_created += tables_created;
        self.tables_deleted += tables_deleted;
        self.delayed_appends += delayed_appends;
        self.write_stalls += write_stalls;
        self.stall_ticks += stall_ticks;
        self.subsequent_counts.extend(subsequent_counts);
        self.wa_snapshots.extend(wa_snapshots);
    }

    /// Mean number of subsequent points per compaction (Fig. 5's y-axis).
    pub fn mean_subsequent(&self) -> Option<f64> {
        if self.subsequent_counts.is_empty() {
            return None;
        }
        Some(
            self.subsequent_counts.iter().sum::<u64>() as f64
                / self.subsequent_counts.len() as f64,
        )
    }

    /// Per-window WA: for consecutive snapshots, the ratio of disk writes to
    /// user writes *within the window*. This is the series the paper smooths
    /// with a sliding window in Fig. 10.
    pub fn windowed_wa(&self) -> Vec<f64> {
        self.wa_snapshots
            .windows(2)
            .map(|w| {
                let du = w[1].user_points - w[0].user_points;
                let dd = w[1].disk_points_written - w[0].disk_points_written;
                if du == 0 {
                    0.0
                } else {
                    dd as f64 / du as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wa_is_ratio_of_disk_to_user_points() {
        let m = Metrics {
            user_points: 1000,
            disk_points_written: 2500,
            ..Default::default()
        };
        assert!((m.write_amplification() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn wa_of_empty_engine_is_zero() {
        assert_eq!(Metrics::default().write_amplification(), 0.0);
    }

    #[test]
    fn shared_helper_handles_zero_user_points() {
        // The `user_points == 0` edge must not divide by zero, even with
        // disk writes on the books (e.g. recovery replays).
        assert_eq!(write_amplification(0, 0), 0.0);
        assert_eq!(write_amplification(1024, 0), 0.0);
        assert!((write_amplification(2500, 1000) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_handles_empty_and_partial_caches() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(0, 10), 0.0);
        assert_eq!(hit_rate(10, 0), 1.0);
        assert!((hit_rate(3, 1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mean_subsequent_averages_probes() {
        let mut m = Metrics::default();
        assert_eq!(m.mean_subsequent(), None);
        m.subsequent_counts = vec![10, 20, 30];
        assert_eq!(m.mean_subsequent(), Some(20.0));
    }

    #[test]
    fn windowed_wa_differences_snapshots() {
        let m = Metrics {
            wa_snapshots: vec![
                WaSnapshot {
                    user_points: 0,
                    disk_points_written: 0,
                },
                WaSnapshot {
                    user_points: 512,
                    disk_points_written: 512,
                },
                WaSnapshot {
                    user_points: 1024,
                    disk_points_written: 2048,
                },
            ],
            ..Default::default()
        };
        let wa = m.windowed_wa();
        assert_eq!(wa.len(), 2);
        assert!((wa[0] - 1.0).abs() < 1e-12);
        assert!((wa[1] - 3.0).abs() < 1e-12);
    }
}
