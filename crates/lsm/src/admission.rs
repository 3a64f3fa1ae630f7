//! Write-stall admission control.
//!
//! Production LSM-trees die by tail latency, not mean throughput: an
//! unbounded L0 lets ingest outrun merges until queries and recovery
//! degrade (Luo & Carey, "On Performance Stability in LSM-based Storage
//! Systems"). This module is the kernel half of the fix:
//!
//! * [`AdmissionController`] — watermark admission over the background
//!   executor's combined L0-table + pending-flush depth (the inline
//!   executor has no backlog: it admits every append and keeps no
//!   controller). Below the *stop* watermark every append is
//!   [`AdmissionOutcome::Admitted`]; at *stop* the writer is
//!   [`AdmissionOutcome::Stalled`] until compaction drains the depth
//!   strictly below the *resume* watermark (hysteresis: a stall does not
//!   end at `stop - 1`, so admission cannot flap).
//! * `witness` — the accounting of every consult and forced stall end:
//!   each stall edge moves its `Metrics` counter and emits its typed event
//!   in one place.
//!
//! The controller is a pure state machine: no wall clock, no threads, no
//! I/O (seplint rule R3). The background executor owns the blocking — a
//! stalled append waits on the flush condvar and re-consults the
//! controller per wakeup; each consult while stalled charges one stall
//! tick, so a tick counts a wakeup of a writer that really waited. The
//! second bound is the background executor's flush channel, which holds
//! `CHANNEL_DEPTH` (8) sealed batches: a writer that finds it full emits
//! [`Event::BackpressureStall`] and blocks in `enqueue` until the worker
//! takes one. Nothing else holds a write back: a fleet flushes all of its
//! series in one pass.

use seplsm_types::{Error, Result};

use crate::metrics::Metrics;
use crate::obs::{Event, ObserverHandle};
use crate::version::Version;

/// Default resume watermark: a stall ends once the combined depth falls
/// below it.
pub const DEFAULT_RESUME_DEPTH: usize = 8;

/// Default stop watermark: combined depth at which appends stall.
pub const DEFAULT_STOP_DEPTH: usize = 16;

/// The resume / stop watermark pair admission decisions are made
/// against. Invariant: `0 < resume < stop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    resume: usize,
    stop: usize,
}

impl Default for Watermarks {
    fn default() -> Self {
        Self {
            resume: DEFAULT_RESUME_DEPTH,
            stop: DEFAULT_STOP_DEPTH,
        }
    }
}

impl Watermarks {
    /// Watermarks with `resume < stop`, both positive.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when `resume` is zero or `stop` does not
    /// exceed `resume`.
    pub fn new(resume: usize, stop: usize) -> Result<Self> {
        if resume == 0 {
            return Err(Error::InvalidConfig(
                "resume watermark must be positive".into(),
            ));
        }
        if stop <= resume {
            return Err(Error::InvalidConfig(format!(
                "stop watermark ({stop}) must exceed resume ({resume})"
            )));
        }
        Ok(Self { resume, stop })
    }

    /// Hysteresis resume threshold: an active stall ends only once the
    /// depth falls strictly below this, so a stall cannot flap around
    /// `stop`.
    pub fn resume(&self) -> usize {
        self.resume
    }

    /// Depth at which appends stall.
    pub fn stop(&self) -> usize {
        self.stop
    }
}

/// The depth inputs consulted on every append.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionDepth {
    /// L0 tables awaiting merge into the run.
    pub l0_tables: usize,
    /// Sealed batches registered as flushing but not yet on disk.
    pub pending_flushes: usize,
}

impl AdmissionDepth {
    /// The combined depth the watermarks compare against.
    pub fn combined(self) -> usize {
        self.l0_tables.saturating_add(self.pending_flushes)
    }
}

/// What admission decided about one append: only the background executor
/// ever answers `Stalled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Nothing held the append back.
    Admitted,
    /// At or above the stop watermark (or a stall is still draining):
    /// the writer must wait and re-consult.
    Stalled,
}

/// A stall-state edge reported alongside an admission outcome, so the
/// engine can emit `WriteStallBegin` / `WriteStallEnd` exactly once per
/// episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallTransition {
    /// This consult entered a stall (depth reached `stop`).
    Began,
    /// This consult ended a stall (depth fell below `resume`).
    Ended {
        /// Stalled consults the finished episode accrued.
        ticks: u64,
    },
}

/// One admission decision: the outcome plus any stall-state edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionDecision {
    /// What the append should do.
    pub outcome: AdmissionOutcome,
    /// Stall edge crossed by this consult, if any.
    pub transition: Option<StallTransition>,
}

/// Cumulative admission accounting, snapshot via
/// [`AdmissionController::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Appends admitted: each one below the stop watermark, and the one
    /// that ends a stall.
    pub admitted: u64,
    /// Stall episodes begun (stop watermark reached).
    pub stalls: u64,
    /// Stalled consults: one per wakeup of a writer waiting out a stall.
    pub stall_ticks: u64,
    /// Largest combined depth ever consulted.
    pub max_depth: usize,
    /// `true` while a stall episode is active.
    pub currently_stalled: bool,
}

/// The watermark admission state machine. Owns the hysteresis flag and
/// the cumulative accounting; the engine owns the actual blocking.
#[derive(Debug, Default)]
pub struct AdmissionController {
    watermarks: Watermarks,
    stalled: bool,
    current_stall_ticks: u64,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// A controller over `watermarks`, initially unstalled.
    pub fn new(watermarks: Watermarks) -> Self {
        Self {
            watermarks,
            ..Self::default()
        }
    }

    /// Snapshot of the cumulative accounting.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            currently_stalled: self.stalled,
            ..self.stats
        }
    }

    /// Consults admission for one append at `depth`. Pure and
    /// deterministic: identical consult sequences yield identical
    /// decisions and accounting. A stalled writer re-consults per wakeup;
    /// every stalled consult charges one stall tick.
    pub fn admit(&mut self, depth: AdmissionDepth) -> AdmissionDecision {
        let d = depth.combined();
        self.stats.max_depth = self.stats.max_depth.max(d);
        let limit = if self.stalled {
            self.watermarks.resume()
        } else {
            self.watermarks.stop()
        };
        if d < limit {
            self.stats.admitted += 1;
            let ended = self.interrupt_stall();
            return AdmissionDecision {
                outcome: AdmissionOutcome::Admitted,
                transition: ended.map(|ticks| StallTransition::Ended { ticks }),
            };
        }
        let began = !self.stalled;
        if began {
            self.stalled = true;
            self.stats.stalls += 1;
        }
        self.current_stall_ticks += 1;
        self.stats.stall_ticks += 1;
        AdmissionDecision {
            outcome: AdmissionOutcome::Stalled,
            transition: began.then_some(StallTransition::Began),
        }
    }

    /// Ends an active stall without admitting anything — used when the
    /// engine degrades mid-stall so waiters can fail over to the typed
    /// degraded error instead of spinning forever. Returns the ticks the
    /// ended episode had accrued, or `None` if no stall was active.
    pub fn interrupt_stall(&mut self) -> Option<u64> {
        if !self.stalled {
            return None;
        }
        self.stalled = false;
        Some(std::mem::take(&mut self.current_stall_ticks))
    }
}

/// The one translation of stall edges into [`Metrics`] counters and typed
/// events, for every consult ([`consult`]) and forced stall end (an
/// [`AdmissionController::interrupt_stall`] is an `Ended` edge too). Each
/// counter moves next to the event that witnesses it.
pub(crate) fn witness(
    transition: Option<StallTransition>,
    depth: AdmissionDepth,
    metrics: &mut Metrics,
    obs: &ObserverHandle,
) {
    match transition {
        Some(StallTransition::Began) => {
            metrics.write_stalls += 1;
            let depth = depth.combined() as u64;
            obs.emit(|| Event::WriteStallBegin { depth });
        }
        Some(StallTransition::Ended { ticks }) => {
            metrics.stall_ticks += ticks;
            obs.emit(|| Event::WriteStallEnd { ticks });
        }
        None => {}
    }
}

/// One consult of `controller` at `version`'s backlog — its L0 tables plus
/// its flushing batches — witnessed into `metrics` and `obs`: the step
/// the background executor's `admit` starts from, and a stalled one
/// repeats per wakeup. Returns the decision and the depth it was taken at.
pub(crate) fn consult(
    controller: &mut AdmissionController,
    version: &Version,
    metrics: &mut Metrics,
    obs: &ObserverHandle,
) -> (AdmissionDecision, AdmissionDepth) {
    let depth = AdmissionDepth {
        l0_tables: version.l0().len(),
        pending_flushes: version.flushing().len(),
    };
    let decision = controller.admit(depth);
    witness(decision.transition, depth, metrics, obs);
    (decision, depth)
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    fn wm(resume: usize, stop: usize) -> Watermarks {
        Watermarks::new(resume, stop).expect("watermarks")
    }

    fn depth(d: usize) -> AdmissionDepth {
        AdmissionDepth {
            l0_tables: d,
            pending_flushes: 0,
        }
    }

    #[test]
    fn watermarks_reject_degenerate_configs() {
        assert!(Watermarks::new(0, 4).is_err());
        assert!(Watermarks::new(4, 4).is_err());
        assert!(Watermarks::new(4, 3).is_err());
        let w = wm(2, 5);
        assert_eq!(w.resume(), 2);
        assert_eq!(w.stop(), 5);
    }

    #[test]
    fn admission_tiers_by_depth() {
        // Two tiers: every depth below stop is admitted at once, without a
        // tick; stop stalls.
        let mut c = AdmissionController::new(wm(2, 5));
        for d in 0..5 {
            let decision = c.admit(depth(d));
            assert_eq!(decision.outcome, AdmissionOutcome::Admitted);
            assert_eq!(decision.transition, None);
        }
        assert_eq!(c.stats().stall_ticks, 0);
        let stalled = c.admit(depth(5));
        assert_eq!(stalled.outcome, AdmissionOutcome::Stalled);
        assert_eq!(stalled.transition, Some(StallTransition::Began));
        let stats = c.stats();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.stalls, 1);
        assert_eq!(stats.stall_ticks, 1);
        assert_eq!(stats.max_depth, 5);
        assert!(stats.currently_stalled);
    }

    #[test]
    fn stall_hysteresis_resumes_below_slowdown_only() {
        // The resume watermark (the first argument) is where a stall ends.
        let mut c = AdmissionController::new(wm(2, 4));
        assert_eq!(c.admit(depth(4)).outcome, AdmissionOutcome::Stalled);
        // Depth fell below stop but not below resume: still stalled (no
        // flapping at the stop boundary).
        assert_eq!(c.admit(depth(3)).outcome, AdmissionOutcome::Stalled);
        assert_eq!(c.admit(depth(2)).outcome, AdmissionOutcome::Stalled);
        // Strictly below resume: the stall ends and the append is
        // admitted.
        let resumed = c.admit(depth(1));
        assert_eq!(resumed.outcome, AdmissionOutcome::Admitted);
        assert_eq!(
            resumed.transition,
            Some(StallTransition::Ended { ticks: 3 })
        );
        assert!(!c.stats().currently_stalled);
        // Three stalled consults charged one tick each.
        assert_eq!(c.stats().stall_ticks, 3);
    }

    #[test]
    fn interrupt_stall_clears_the_episode() {
        let mut c = AdmissionController::new(wm(2, 4));
        assert!(c.interrupt_stall().is_none());
        c.admit(depth(9));
        c.admit(depth(9));
        assert_eq!(c.interrupt_stall(), Some(2));
        assert!(!c.stats().currently_stalled);
        // The next episode starts its count afresh.
        c.admit(depth(9));
        assert_eq!(c.interrupt_stall(), Some(1));
    }

    /// One step of the simulated append/compaction interleaving the
    /// watermark proptests drive.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// One writer consults admission and inserts iff not stalled.
        Append,
        /// Background work retires one unit of depth.
        Drain,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Appends outnumber drains 3:1 so the interleavings actually
        // reach the watermarks (the vendored proptest has no weighted
        // oneof; duplication is the weighting).
        prop_oneof![
            Just(Op::Append),
            Just(Op::Append),
            Just(Op::Append),
            Just(Op::Drain),
        ]
    }

    proptest! {
        /// Under arbitrary append/drain interleavings, a writer that
        /// respects admission (no insert while stalled) never pushes the
        /// combined depth past the stop watermark, and an unstalled
        /// controller admits every depth below it.
        #[test]
        fn depth_never_exceeds_stop(
            resume in 1usize..6,
            extra in 1usize..6,
            ops in proptest::collection::vec(op_strategy(), 0..200),
        ) {
            let w = wm(resume, resume + extra);
            let mut c = AdmissionController::new(w);
            let mut d = 0usize;
            for op in ops {
                match op {
                    Op::Append => {
                        let free = !c.stats().currently_stalled && d < w.stop();
                        let outcome = c.admit(depth(d)).outcome;
                        prop_assert!(
                            !free || outcome == AdmissionOutcome::Admitted
                        );
                        if outcome != AdmissionOutcome::Stalled {
                            d += 1;
                        }
                    }
                    Op::Drain => d = d.saturating_sub(1),
                }
                prop_assert!(
                    d <= w.stop(),
                    "depth {d} exceeded stop {}", w.stop()
                );
            }
        }

        /// Stalls always end — whatever state an interleaving leaves the
        /// controller in, draining the depth to zero admits the next
        /// append (no deadlocked `Stalled`).
        #[test]
        fn stalls_always_end(
            resume in 1usize..6,
            extra in 1usize..6,
            ops in proptest::collection::vec(op_strategy(), 0..200),
        ) {
            let w = wm(resume, resume + extra);
            let mut c = AdmissionController::new(w);
            let mut d = 0usize;
            for op in ops {
                match op {
                    Op::Append => {
                        let outcome = c.admit(depth(d)).outcome;
                        if outcome != AdmissionOutcome::Stalled {
                            d += 1;
                        }
                    }
                    Op::Drain => d = d.saturating_sub(1),
                }
            }
            let was_stalled = c.stats().currently_stalled;
            let decision = c.admit(depth(0));
            prop_assert_eq!(decision.outcome, AdmissionOutcome::Admitted);
            if was_stalled {
                prop_assert!(matches!(
                    decision.transition,
                    Some(StallTransition::Ended { .. })
                ));
            }
            prop_assert!(!c.stats().currently_stalled);
        }

        /// Identical consult sequences produce identical decisions and
        /// accounting — the determinism the byte-identical trace checks
        /// build on.
        #[test]
        fn admission_is_deterministic(
            resume in 1usize..6,
            extra in 1usize..6,
            depths in proptest::collection::vec(0usize..16, 0..100),
        ) {
            let w = wm(resume, resume + extra);
            let mut a = AdmissionController::new(w);
            let mut b = AdmissionController::new(w);
            for &d in &depths {
                prop_assert_eq!(a.admit(depth(d)), b.admit(depth(d)));
            }
            prop_assert_eq!(a.stats(), b.stats());
        }
    }
}
