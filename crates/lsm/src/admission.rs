//! Write stalls.
//!
//! Production LSM-trees die by tail latency, not mean throughput: an
//! unbounded backlog lets ingest outrun merges until queries and recovery
//! degrade (Luo & Carey, "On Performance Stability in LSM-based Storage
//! Systems"). The background executor bounds its backlog once: its flush
//! queue holds `CHANNEL_DEPTH` (8) sealed MemTables, and a hand-off that
//! finds it full blocks until the worker takes one. That wait is the write
//! stall — the only place a writer is held back — and [`stall`] is its one
//! witness: the counters and the typed events move here, next to each
//! other. The inline executor has no backlog and never stalls.
//!
//! Pure bookkeeping: no wall clock, no threads, no I/O (seplint rule R3).
//! The blocking itself is the caller's `wait`.

use crate::metrics::Metrics;
use crate::obs::{Event, ObserverHandle};

/// How an append went: only a background engine whose hand-off found its
/// flush queue full answers `Stalled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Nothing held the append back.
    Admitted,
    /// The append's hand-off waited for the flush queue to take its batch;
    /// the point is accepted all the same.
    Stalled,
}

/// Cumulative admission accounting, snapshot via the engines'
/// `admission_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Appends taken: the user points, a recovery's replay included.
    pub admitted: u64,
    /// Write stalls: hand-offs that found the flush queue full.
    pub stalls: u64,
    /// Queue slots the stalls waited for: one each.
    pub stall_ticks: u64,
    /// Largest backlog seen: L0 tables plus flushing MemTables.
    pub max_depth: usize,
}

impl AdmissionStats {
    /// The stats of an engine whose appending thread counted `writer` and
    /// whose backlog never went past `max_depth`.
    pub(crate) fn of(writer: &Metrics, max_depth: usize) -> Self {
        Self {
            admitted: writer.user_points,
            stalls: writer.write_stalls,
            stall_ticks: writer.stall_ticks,
            max_depth,
        }
    }
}

/// One write stall at a backlog `depth` deep: announces it, runs `wait` —
/// the blocking hand-off — and ends it, whatever `wait` returned, counting
/// it into `metrics` next to each event. A stall waits for one queue slot,
/// so it is one tick.
pub(crate) fn stall<T>(
    depth: usize,
    metrics: &mut Metrics,
    obs: &ObserverHandle,
    wait: impl FnOnce() -> T,
) -> T {
    metrics.write_stalls += 1;
    obs.emit(|| Event::WriteStallBegin {
        depth: depth as u64,
    });
    let waited = wait();
    metrics.stall_ticks += 1;
    obs.emit(|| Event::WriteStallEnd { ticks: 1 });
    waited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::RingBufferSink;

    #[test]
    fn stalls_always_end() {
        // A stall ends whatever its wait returned — a send the dead worker
        // refused included — so every begin has its end and its counts.
        let ring = RingBufferSink::new(8);
        let obs = ObserverHandle::attached(ring.clone());
        let mut metrics = Metrics::default();
        assert_eq!(stall(9, &mut metrics, &obs, || Ok::<_, ()>(7)), Ok(7));
        assert_eq!(stall(10, &mut metrics, &obs, || Err::<(), _>(())), Err(()));
        assert_eq!(
            ring.events(),
            vec![
                Event::WriteStallBegin { depth: 9 },
                Event::WriteStallEnd { ticks: 1 },
                Event::WriteStallBegin { depth: 10 },
                Event::WriteStallEnd { ticks: 1 },
            ]
        );
        assert_eq!((metrics.write_stalls, metrics.stall_ticks), (2, 2));
        let stats = AdmissionStats::of(&metrics, 10);
        assert_eq!((stats.stalls, stats.stall_ticks), (2, 2));
    }
}
