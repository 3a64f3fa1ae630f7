//! Write-stall admission control and deterministic I/O pacing.
//!
//! Production LSM-trees die by tail latency, not mean throughput: an
//! unbounded L0 lets ingest outrun merges until queries and recovery
//! degrade (Luo & Carey, "On Performance Stability in LSM-based Storage
//! Systems"). This module is the kernel half of the fix:
//!
//! * [`AdmissionController`] — watermark admission over the background
//!   executor's combined L0-table + pending-flush depth (the inline
//!   executor has no backlog: it admits every append and keeps no
//!   controller). Below the *slowdown* watermark every append is
//!   [`AdmissionOutcome::Admitted`]; between *slowdown* and *stop* it is
//!   [`AdmissionOutcome::Delayed`] with a logical-tick penalty that grows
//!   with depth; at *stop* the writer is [`AdmissionOutcome::Stalled`]
//!   until compaction drains the depth back below the resume threshold
//!   (hysteresis: a stall does not end at `stop - 1`, it ends below
//!   *slowdown*, so admission cannot flap).
//! * [`IoPacer`] — a token-bucket budget over background compaction
//!   writes, denominated in points per logical tick, so merges drain
//!   smoothly instead of in bursts.
//! * [`RetryBackoff`] — a bounded exponential backoff schedule for store
//!   retries, replacing fixed immediate-retry loops.
//! * `witness` — the accounting of every consult and forced stall end:
//!   each admission edge moves its `Metrics` counter and emits its typed
//!   event in one place.
//!
//! Everything here is a pure state machine on *logical* ticks: no wall
//! clock, no threads, no I/O (seplint rule R3). The background executor
//! owns the blocking — a stalled tiered append waits on the flush condvar
//! and re-consults the controller per wakeup; each consult while stalled
//! charges one stall tick, so seeded runs account identically on every
//! machine.

use seplsm_types::{Error, Result};

use crate::metrics::Metrics;
use crate::obs::{Event, ObserverHandle};
use crate::version::Version;

/// Default slowdown watermark: combined depth at which appends start
/// being delayed.
pub const DEFAULT_SLOWDOWN_DEPTH: usize = 8;

/// Default stop watermark: combined depth at which appends stall.
pub const DEFAULT_STOP_DEPTH: usize = 16;

/// Default pacer refill: points of compaction output budget per logical
/// tick.
pub const DEFAULT_PACER_TOKENS_PER_TICK: u64 = 4096;

/// Default pacer bucket capacity (burst allowance, in points).
pub const DEFAULT_PACER_BURST: u64 = 65_536;

/// Default depth bound on the multi-series flush queue: at most this many
/// series are outstanding in the flush pool at once; further series wait
/// for the next wave and surface as [`AdmissionOutcome::Delayed`].
pub const DEFAULT_FLUSH_QUEUE_DEPTH: usize = 8;

/// Default retry budget for transient store failures.
pub const DEFAULT_RETRY_ATTEMPTS: u32 = 3;

/// Default base backoff delay (logical ticks) before the second attempt.
pub const DEFAULT_RETRY_BASE_TICKS: u64 = 1;

/// Default backoff cap (logical ticks) for any single retry delay.
pub const DEFAULT_RETRY_MAX_TICKS: u64 = 64;

/// The slowdown / stop watermark pair admission decisions are made
/// against. Invariant: `0 < slowdown < stop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    slowdown: usize,
    stop: usize,
}

impl Default for Watermarks {
    fn default() -> Self {
        Self {
            slowdown: DEFAULT_SLOWDOWN_DEPTH,
            stop: DEFAULT_STOP_DEPTH,
        }
    }
}

impl Watermarks {
    /// Watermarks with `slowdown < stop`, both positive.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when `slowdown` is zero or `stop` does not
    /// exceed `slowdown`.
    pub fn new(slowdown: usize, stop: usize) -> Result<Self> {
        if slowdown == 0 {
            return Err(Error::InvalidConfig(
                "slowdown watermark must be positive".into(),
            ));
        }
        if stop <= slowdown {
            return Err(Error::InvalidConfig(format!(
                "stop watermark ({stop}) must exceed slowdown ({slowdown})"
            )));
        }
        Ok(Self { slowdown, stop })
    }

    /// Depth at which appends start being delayed.
    pub fn slowdown(&self) -> usize {
        self.slowdown
    }

    /// Depth at which appends stall outright.
    pub fn stop(&self) -> usize {
        self.stop
    }

    /// Hysteresis resume threshold: an active stall ends only once the
    /// depth falls strictly below this (equal to the slowdown watermark),
    /// so a stall cannot flap around `stop`.
    pub fn resume(&self) -> usize {
        self.slowdown
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

/// What admission control decided about one append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Below the slowdown watermark: proceed immediately.
    Admitted,
    /// Between slowdown and stop: proceed, charged `ticks` logical ticks
    /// of delay.
    Delayed {
        /// Logical ticks of delay charged to this append.
        ticks: u64,
    },
    /// At or above the stop watermark (or a stall is still draining):
    /// the writer must wait and re-consult.
    Stalled,
}

impl AdmissionOutcome {
    /// `true` when the append may proceed (admitted or merely delayed).
    pub fn proceeds(self) -> bool {
        !matches!(self, Self::Stalled)
    }
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
        /// Logical ticks the finished episode accrued.
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
    /// Appends admitted below the slowdown watermark.
    pub admitted: u64,
    /// Appends delayed between slowdown and stop.
    pub delayed: u64,
    /// Stall episodes begun (stop watermark reached).
    pub stalls: u64,
    /// Logical ticks charged to delays and stall waits.
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
        if self.stalled {
            if d < self.watermarks.resume() {
                self.stalled = false;
                let ticks = self.current_stall_ticks;
                self.current_stall_ticks = 0;
                self.stats.admitted += 1;
                return AdmissionDecision {
                    outcome: AdmissionOutcome::Admitted,
                    transition: Some(StallTransition::Ended { ticks }),
                };
            }
            self.current_stall_ticks += 1;
            self.stats.stall_ticks += 1;
            return AdmissionDecision {
                outcome: AdmissionOutcome::Stalled,
                transition: None,
            };
        }
        if d >= self.watermarks.stop() {
            self.stalled = true;
            self.current_stall_ticks = 1;
            self.stats.stalls += 1;
            self.stats.stall_ticks += 1;
            return AdmissionDecision {
                outcome: AdmissionOutcome::Stalled,
                transition: Some(StallTransition::Began),
            };
        }
        if d >= self.watermarks.slowdown() {
            let ticks = (d - self.watermarks.slowdown() + 1) as u64;
            self.stats.delayed += 1;
            self.stats.stall_ticks += ticks;
            return AdmissionDecision {
                outcome: AdmissionOutcome::Delayed { ticks },
                transition: None,
            };
        }
        self.stats.admitted += 1;
        AdmissionDecision {
            outcome: AdmissionOutcome::Admitted,
            transition: None,
        }
    }

    /// Force-ends an active stall without admitting anything — used when
    /// the engine degrades mid-stall so waiters can fail over to the
    /// typed degraded error instead of spinning forever. Returns the
    /// ticks the interrupted episode had accrued, or `None` if no stall
    /// was active.
    pub fn interrupt_stall(&mut self) -> Option<u64> {
        if !self.stalled {
            return None;
        }
        self.stalled = false;
        let ticks = self.current_stall_ticks;
        self.current_stall_ticks = 0;
        Some(ticks)
    }
}

/// The one translation of admission edges into [`Metrics`] counters and
/// typed events, for every consult ([`consult`]) and forced stall end: a stall beginning or
/// ending (`transition` — an [`AdmissionController::interrupt_stall`] is an
/// `Ended` edge too) and a delayed `outcome`. Each counter moves next to
/// the event that witnesses it.
pub(crate) fn witness(
    transition: Option<StallTransition>,
    outcome: AdmissionOutcome,
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
    if let AdmissionOutcome::Delayed { ticks } = outcome {
        metrics.delayed_appends += 1;
        metrics.stall_ticks += ticks;
        obs.emit(|| Event::AdmissionDelayed { ticks });
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
    witness(decision.transition, decision.outcome, depth, metrics, obs);
    (decision, depth)
}

/// What the pacer decided about one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaceDecision {
    /// The bucket covered the cost: write immediately.
    Proceed,
    /// The bucket was short: the write is granted *after* `ticks` logical
    /// ticks of refill, which this call has already applied.
    Wait {
        /// Logical ticks of refill the writer is charged.
        ticks: u64,
    },
}

/// Cumulative pacer accounting, snapshot via [`IoPacer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacerStats {
    /// Writes granted without waiting.
    pub granted: u64,
    /// Writes that had to wait for refill.
    pub waits: u64,
    /// Total logical ticks charged to waits.
    pub wait_ticks: u64,
}

/// A deterministic token bucket over background compaction writes,
/// denominated in points. The bucket holds at most `burst` tokens and
/// refills `tokens_per_tick` per logical tick; a write of `cost` points
/// that overdraws the bucket is charged the whole ticks of refill needed
/// to cover the deficit. No wall clock is read — ticks are accounting,
/// and the engine decides what (if anything) to do with them.
#[derive(Debug)]
pub struct IoPacer {
    tokens_per_tick: u64,
    burst: u64,
    tokens: u64,
    stats: PacerStats,
}

impl Default for IoPacer {
    fn default() -> Self {
        Self {
            tokens_per_tick: DEFAULT_PACER_TOKENS_PER_TICK,
            burst: DEFAULT_PACER_BURST,
            tokens: DEFAULT_PACER_BURST,
            stats: PacerStats::default(),
        }
    }
}

impl IoPacer {
    /// A pacer refilling `tokens_per_tick` into a bucket of capacity
    /// `burst`, starting full.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when `tokens_per_tick` is zero or `burst`
    /// is below `tokens_per_tick`.
    pub fn new(tokens_per_tick: u64, burst: u64) -> Result<Self> {
        if tokens_per_tick == 0 {
            return Err(Error::InvalidConfig(
                "pacer refill rate must be positive".into(),
            ));
        }
        if burst < tokens_per_tick {
            return Err(Error::InvalidConfig(format!(
                "pacer burst ({burst}) must be at least one tick's refill \
                 ({tokens_per_tick})"
            )));
        }
        Ok(Self {
            tokens_per_tick,
            burst,
            tokens: burst,
            stats: PacerStats::default(),
        })
    }

    /// Charges `cost` points against the bucket. A cost above the burst
    /// capacity is clamped to it, so one oversized write can never wedge
    /// the pacer.
    pub fn grant(&mut self, cost: u64) -> PaceDecision {
        let cost = cost.min(self.burst);
        if self.tokens >= cost {
            self.tokens -= cost;
            self.stats.granted += 1;
            return PaceDecision::Proceed;
        }
        let deficit = cost - self.tokens;
        let ticks = deficit.div_ceil(self.tokens_per_tick);
        let refilled = self
            .tokens
            .saturating_add(ticks.saturating_mul(self.tokens_per_tick))
            .min(self.burst);
        // `cost <= burst` and `refilled >= cost` by construction of
        // `ticks`, so this cannot underflow.
        self.tokens = refilled - cost;
        self.stats.granted += 1;
        self.stats.waits += 1;
        self.stats.wait_ticks += ticks;
        PaceDecision::Wait { ticks }
    }

    /// Snapshot of the cumulative accounting.
    pub fn stats(&self) -> PacerStats {
        self.stats
    }
}

/// A bounded exponential backoff schedule on logical ticks: delays of
/// `base`, `2*base`, `4*base`, … before attempts 2, 3, 4, …, each capped
/// at `max_ticks`, with `attempts` tries total. Replaces fixed
/// immediate-retry loops so transient faults are not hammered.
#[derive(Debug, Clone, Copy)]
pub struct RetryBackoff {
    attempts: u32,
    base_ticks: u64,
    max_ticks: u64,
    made: u32,
}

impl Default for RetryBackoff {
    fn default() -> Self {
        Self {
            attempts: DEFAULT_RETRY_ATTEMPTS,
            base_ticks: DEFAULT_RETRY_BASE_TICKS,
            max_ticks: DEFAULT_RETRY_MAX_TICKS,
            made: 0,
        }
    }
}

impl RetryBackoff {
    /// A schedule of `attempts` total tries with delays starting at
    /// `base_ticks` and capped at `max_ticks`.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when `attempts` or `base_ticks` is zero,
    /// or `max_ticks < base_ticks`.
    pub fn new(attempts: u32, base_ticks: u64, max_ticks: u64) -> Result<Self> {
        if attempts == 0 {
            return Err(Error::InvalidConfig(
                "retry budget must allow at least one attempt".into(),
            ));
        }
        if base_ticks == 0 {
            return Err(Error::InvalidConfig(
                "retry base delay must be positive".into(),
            ));
        }
        if max_ticks < base_ticks {
            return Err(Error::InvalidConfig(format!(
                "retry delay cap ({max_ticks}) must be at least the base \
                 delay ({base_ticks})"
            )));
        }
        Ok(Self {
            attempts,
            base_ticks,
            max_ticks,
            made: 0,
        })
    }

    /// The next retry's `(attempt_number, delay_ticks)` — attempt numbers
    /// start at 2 (the first try is free) — or `None` once the budget is
    /// exhausted and the caller must surface the error.
    pub fn next_delay(&mut self) -> Option<(u32, u64)> {
        // `made` counts retries granted so far; the initial try is not a
        // retry, so the budget allows `attempts - 1` of them.
        if self.made + 1 >= self.attempts {
            return None;
        }
        let exp = self.made.min(63);
        let ticks = self
            .base_ticks
            .checked_shl(exp)
            .unwrap_or(self.max_ticks)
            .min(self.max_ticks);
        self.made += 1;
        Some((self.made + 1, ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    fn wm(slowdown: usize, stop: usize) -> Watermarks {
        Watermarks::new(slowdown, stop).expect("watermarks")
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
        assert_eq!(w.slowdown(), 2);
        assert_eq!(w.stop(), 5);
        assert_eq!(w.resume(), 2);
    }

    #[test]
    fn admission_tiers_by_depth() {
        let mut c = AdmissionController::new(wm(2, 5));
        assert_eq!(c.admit(depth(0)).outcome, AdmissionOutcome::Admitted);
        assert_eq!(c.admit(depth(1)).outcome, AdmissionOutcome::Admitted);
        assert_eq!(
            c.admit(depth(2)).outcome,
            AdmissionOutcome::Delayed { ticks: 1 }
        );
        assert_eq!(
            c.admit(depth(4)).outcome,
            AdmissionOutcome::Delayed { ticks: 3 }
        );
        let stalled = c.admit(depth(5));
        assert_eq!(stalled.outcome, AdmissionOutcome::Stalled);
        assert_eq!(stalled.transition, Some(StallTransition::Began));
        assert!(c.stats().currently_stalled);
        let stats = c.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.delayed, 2);
        assert_eq!(stats.stalls, 1);
        assert_eq!(stats.max_depth, 5);
        assert!(stats.currently_stalled);
    }

    #[test]
    fn stall_hysteresis_resumes_below_slowdown_only() {
        let mut c = AdmissionController::new(wm(2, 4));
        assert_eq!(c.admit(depth(4)).outcome, AdmissionOutcome::Stalled);
        // Depth fell below stop but not below resume: still stalled (no
        // flapping at the stop boundary).
        assert_eq!(c.admit(depth(3)).outcome, AdmissionOutcome::Stalled);
        assert_eq!(c.admit(depth(2)).outcome, AdmissionOutcome::Stalled);
        // Strictly below resume (= slowdown): the stall ends and the
        // append is admitted.
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

    #[test]
    fn pacer_grants_until_the_bucket_runs_dry() {
        let mut p = IoPacer::new(10, 30).expect("pacer");
        assert_eq!(p.grant(30), PaceDecision::Proceed);
        // Bucket empty: 25 points need ceil(25/10) = 3 ticks of refill.
        assert_eq!(p.grant(25), PaceDecision::Wait { ticks: 3 });
        // 3 ticks refilled 30 (capped), minus 25 leaves 5 tokens.
        assert_eq!(p.grant(5), PaceDecision::Proceed);
        assert_eq!(p.grant(10), PaceDecision::Wait { ticks: 1 });
        let stats = p.stats();
        assert_eq!(stats.granted, 4);
        assert_eq!(stats.waits, 2);
        assert_eq!(stats.wait_ticks, 4);
    }

    #[test]
    fn pacer_clamps_oversized_writes_to_burst() {
        let mut p = IoPacer::new(10, 30).expect("pacer");
        // A cost above burst is clamped: it cannot wedge the bucket.
        assert_eq!(p.grant(1_000_000), PaceDecision::Proceed);
        assert_eq!(p.grant(1_000_000), PaceDecision::Wait { ticks: 3 });
    }

    #[test]
    fn pacer_rejects_degenerate_configs() {
        assert!(IoPacer::new(0, 10).is_err());
        assert!(IoPacer::new(10, 5).is_err());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = RetryBackoff::new(5, 2, 6).expect("backoff");
        assert_eq!(b.next_delay(), Some((2, 2)));
        assert_eq!(b.next_delay(), Some((3, 4)));
        assert_eq!(b.next_delay(), Some((4, 6))); // capped (would be 8)
        assert_eq!(b.next_delay(), Some((5, 6)));
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn backoff_budget_of_one_never_retries() {
        let mut b = RetryBackoff::new(1, 1, 1).expect("backoff");
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn backoff_rejects_degenerate_configs() {
        assert!(RetryBackoff::new(0, 1, 1).is_err());
        assert!(RetryBackoff::new(3, 0, 1).is_err());
        assert!(RetryBackoff::new(3, 4, 2).is_err());
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
        /// Satellite invariant: under arbitrary append/drain
        /// interleavings, a writer that respects admission (no insert
        /// while stalled) never pushes the combined depth past the stop
        /// watermark.
        #[test]
        fn depth_never_exceeds_stop(
            slowdown in 1usize..6,
            extra in 1usize..6,
            ops in proptest::collection::vec(op_strategy(), 0..200),
        ) {
            let w = wm(slowdown, slowdown + extra);
            let mut c = AdmissionController::new(w);
            let mut d = 0usize;
            for op in ops {
                match op {
                    Op::Append => {
                        if c.admit(depth(d)).outcome.proceeds() {
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

        /// Satellite invariant: stalls always end — whatever state an
        /// interleaving leaves the controller in, draining the depth to
        /// zero admits the next append (no deadlocked `Stalled`).
        #[test]
        fn stalls_always_end(
            slowdown in 1usize..6,
            extra in 1usize..6,
            ops in proptest::collection::vec(op_strategy(), 0..200),
        ) {
            let w = wm(slowdown, slowdown + extra);
            let mut c = AdmissionController::new(w);
            let mut d = 0usize;
            for op in ops {
                match op {
                    Op::Append => {
                        if c.admit(depth(d)).outcome.proceeds() {
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
            slowdown in 1usize..6,
            extra in 1usize..6,
            depths in proptest::collection::vec(0usize..16, 0..100),
        ) {
            let w = wm(slowdown, slowdown + extra);
            let mut a = AdmissionController::new(w);
            let mut b = AdmissionController::new(w);
            for &d in &depths {
                prop_assert_eq!(a.admit(depth(d)), b.admit(depth(d)));
            }
            prop_assert_eq!(a.stats(), b.stats());
        }
    }
}
