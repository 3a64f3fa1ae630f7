//! Fleet-wide memory arbitration: one point-denominated budget, many
//! series.
//!
//! The paper tunes each series' MemTable split (`π_c` vs. `π_s(n_seq)`)
//! against a *fixed* per-series budget `n`. At fleet scale the budget
//! itself is the scarce resource: thousands of series share one memory
//! pool, and a static even split starves the hot series while cold ones
//! idle. The [`Arbiter`] is the kernel-side answer, following the
//! adaptive-memory-management line of work (see PAPERS.md): a global
//! budget is split between per-series MemTable capacity and a shared
//! block-cache share, steered by decayed per-series *heat* counters so
//! hot series grow and cold series shrink back toward a floor.
//!
//! Design constraints (this is a seplint kernel module):
//!
//! * **Deterministic** (rule R3): the arbiter is a pure state machine
//!   driven by logical ticks — one tick per recorded append or query. No
//!   wall clock, no thread primitive; two identical op sequences produce
//!   identical rebalance plans, so seeded fleet traces stay
//!   byte-identical.
//! * **Exactly conserving**: after every operation the per-series
//!   capacities and the cache share partition the budget —
//!   Σ capacity + cache share = budget — and every series holds at least
//!   [`ArbiterConfig::floor_points`]. Integer-division remainders are
//!   folded into the cache share, never lost.
//! * **Mechanism only**: the arbiter decides *capacities*; applying them
//!   (policy migration via `set_policy`) is the fleet engine's job, which
//!   is also where the typed [`Event`](crate::obs::Event)s are emitted.
//!   The cache share is held back from the series and reported (in
//!   `ArbiterRebalance` and [`ArbiterStats`]), not applied: nothing
//!   resizes the block cache, whose capacity is fixed at open.
//!
//! Heat is held in fixed-point units of [`HEAT_UNIT`] (1/256ths of a
//! point) so decay keeps fractional residue without floating point.

use std::collections::BTreeMap;

use seplsm_types::{Error, Result};

/// Fixed-point scale of one heat unit: one recorded append adds
/// `HEAT_UNIT` (i.e. 1.0 point-equivalents) of heat.
pub const HEAT_UNIT: u64 = 256;

/// Default minimum MemTable capacity a series never shrinks below.
pub const DEFAULT_FLOOR_POINTS: u64 = 8;

/// Default share of the budget targeted at the block cache, in percent.
pub const DEFAULT_CACHE_PERCENT: u64 = 25;

/// Default logical ticks (appends + queries) between rebalances.
pub const DEFAULT_REBALANCE_EVERY: u64 = 1024;

/// Default heat retained across one rebalance, in percent (50 = one
/// half-life per rebalance interval).
pub const DEFAULT_DECAY_PERCENT: u64 = 50;

/// Default heat units a query adds, as a multiple of an append's
/// [`HEAT_UNIT`].
pub const DEFAULT_QUERY_WEIGHT: u64 = 2;

/// Configuration of an [`Arbiter`]. Validated by [`Arbiter::new`].
#[derive(Debug, Clone, Copy)]
pub struct ArbiterConfig {
    /// The global budget, in points, partitioned between every series'
    /// MemTable capacity and the block-cache share.
    pub budget_points: u64,
    /// Per-series capacity floor: no rebalance shrinks a series below
    /// this many points (≥ 2, so separation policies keep a non-empty
    /// `C_nonseq`).
    pub floor_points: u64,
    /// Target block-cache share, in percent of the budget. The target
    /// yields to series floors when the fleet grows large; remainders of
    /// the heat split are folded into the share on top of the target.
    pub cache_percent: u64,
    /// Logical ticks between rebalances (the cadence).
    pub rebalance_every: u64,
    /// Heat retained across one rebalance, in percent (0 = forget
    /// everything, 100 = never decay).
    pub decay_percent: u64,
    /// Heat units a query adds, as a multiple of an append's one unit.
    pub query_weight: u64,
}

impl ArbiterConfig {
    /// Defaults for a global budget of `budget_points`.
    pub fn new(budget_points: u64) -> Self {
        Self {
            budget_points,
            floor_points: DEFAULT_FLOOR_POINTS,
            cache_percent: DEFAULT_CACHE_PERCENT,
            rebalance_every: DEFAULT_REBALANCE_EVERY,
            decay_percent: DEFAULT_DECAY_PERCENT,
            query_weight: DEFAULT_QUERY_WEIGHT,
        }
    }

    /// Sets the per-series capacity floor.
    pub fn with_floor(mut self, points: u64) -> Self {
        self.floor_points = points;
        self
    }

    /// Sets the target cache share, in percent of the budget.
    pub fn with_cache_percent(mut self, percent: u64) -> Self {
        self.cache_percent = percent;
        self
    }

    /// Sets the rebalance cadence, in logical ticks.
    pub fn with_rebalance_every(mut self, ticks: u64) -> Self {
        self.rebalance_every = ticks;
        self
    }

    /// Sets the per-rebalance heat retention, in percent.
    pub fn with_decay_percent(mut self, percent: u64) -> Self {
        self.decay_percent = percent;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.floor_points < 2 {
            return Err(Error::InvalidConfig(
                "arbiter floor must be >= 2 points (separation policies \
                 need a non-empty C_nonseq)"
                    .into(),
            ));
        }
        if self.budget_points < self.floor_points {
            return Err(Error::InvalidConfig(format!(
                "arbiter budget ({}) below the per-series floor ({})",
                self.budget_points, self.floor_points
            )));
        }
        if self.cache_percent > 90 {
            return Err(Error::InvalidConfig(
                "arbiter cache share must be <= 90% of the budget".into(),
            ));
        }
        if self.rebalance_every == 0 {
            return Err(Error::InvalidConfig(
                "arbiter rebalance cadence must be >= 1 tick".into(),
            ));
        }
        if self.decay_percent > 100 {
            return Err(Error::InvalidConfig(
                "arbiter decay retention is a percentage (0..=100)".into(),
            ));
        }
        Ok(())
    }
}

/// One series' arbiter-side state.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Decayed heat in [`HEAT_UNIT`] fixed point.
    heat: u64,
    /// The capacity currently assigned to the series, in points.
    capacity: u64,
}

/// One series' new capacity in a [`Rebalance`] plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesAssignment {
    /// The raw series id.
    pub series: u32,
    /// The new MemTable capacity, in points.
    pub capacity: u64,
}

/// One rebalance decision: which series change capacity, the new cache
/// share, and the decayed heat samples the split was computed from.
/// Everything is ordered by ascending series id, so applying (and
/// emitting events for) a plan is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rebalance {
    /// 1-based rebalance round.
    pub round: u64,
    /// Series whose capacity changed, ascending by id.
    pub assignments: Vec<SeriesAssignment>,
    /// The block-cache share after the split, in points.
    pub cache_share: u64,
    /// Every series' decayed heat at the split, ascending by id, in
    /// [`HEAT_UNIT`] fixed point.
    pub heats: Vec<(u32, u64)>,
}

/// A counters snapshot of an [`Arbiter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Logical ticks recorded (appends + queries).
    pub ticks: u64,
    /// Rebalance rounds run (cadence-due and admission-forced).
    pub rounds: u64,
    /// Individual series resizes across all rounds.
    pub resizes: u64,
    /// Series currently hosted.
    pub series: usize,
    /// The current block-cache share, in points.
    pub cache_share: u64,
}

/// The fleet memory arbiter: a deterministic, logical-tick-driven state
/// machine partitioning [`ArbiterConfig::budget_points`] between series
/// MemTables and the block-cache share. See the module docs.
#[derive(Debug)]
pub struct Arbiter {
    config: ArbiterConfig,
    /// Per-series slots; `BTreeMap` so every traversal is in ascending
    /// id order without re-sorting.
    series: BTreeMap<u32, Slot>,
    ticks: u64,
    last_rebalance_tick: u64,
    rounds: u64,
    resizes: u64,
    cache_share: u64,
}

impl Arbiter {
    /// A fresh arbiter; the whole budget starts as cache share.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for degenerate configurations.
    pub fn new(config: ArbiterConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            series: BTreeMap::new(),
            ticks: 0,
            last_rebalance_tick: 0,
            rounds: 0,
            resizes: 0,
            cache_share: config.budget_points,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &ArbiterConfig {
        &self.config
    }

    /// Records one append to `series`, registering the series on first
    /// sight with the floor capacity. Returns a [`Rebalance`] plan when
    /// the cadence is due or when admitting the series forced an early
    /// split; the caller must apply the plan (it is already accounted
    /// here).
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when the budget cannot host one more
    /// series at the floor.
    pub fn record_append(&mut self, series: u32) -> Result<Option<Rebalance>> {
        self.ticks += 1;
        let mut forced = false;
        if !self.series.contains_key(&series) {
            forced = self.admit(series)?;
        }
        if let Some(slot) = self.series.get_mut(&series) {
            slot.heat = slot.heat.saturating_add(HEAT_UNIT);
        }
        if forced {
            return Ok(Some(self.rebalance()));
        }
        if self.ticks - self.last_rebalance_tick >= self.config.rebalance_every
        {
            return Ok(Some(self.rebalance()));
        }
        Ok(None)
    }

    /// Records one query against `series` (unknown series heat nothing).
    /// Queries advance the logical clock and add
    /// [`ArbiterConfig::query_weight`] heat units, but never return a
    /// plan — only the (mutating) append path can apply one.
    pub fn record_query(&mut self, series: u32) {
        self.ticks += 1;
        if let Some(slot) = self.series.get_mut(&series) {
            slot.heat = slot.heat.saturating_add(
                HEAT_UNIT.saturating_mul(self.config.query_weight),
            );
        }
    }

    /// Admits a new series at the floor capacity, preferring to take the
    /// points from the cache share. Returns `true` when the share could
    /// not cover the floor and a full rebalance must re-cut the split.
    fn admit(&mut self, series: u32) -> Result<bool> {
        let floor = self.config.floor_points;
        let hosted = self.series.len() as u64;
        let needed = hosted.saturating_add(1).saturating_mul(floor);
        if needed > self.config.budget_points {
            return Err(Error::InvalidConfig(format!(
                "arbiter budget exhausted: {} series at floor {} exceed \
                 budget {}",
                hosted + 1,
                floor,
                self.config.budget_points
            )));
        }
        if self.cache_share >= floor {
            self.cache_share -= floor;
            self.series.insert(
                series,
                Slot {
                    heat: 0,
                    capacity: floor,
                },
            );
            Ok(false)
        } else {
            // The share is drained; register at the floor on paper and
            // let the forced rebalance rebuild an exact partition.
            self.series.insert(
                series,
                Slot {
                    heat: 0,
                    capacity: floor,
                },
            );
            Ok(true)
        }
    }

    /// Re-cuts the budget: decays every heat counter, grants the cache
    /// its target share (clamped so every series keeps the floor), and
    /// splits the remaining pool proportionally to heat. Division
    /// remainders are folded into the cache share, so the partition is
    /// exact by construction.
    fn rebalance(&mut self) -> Rebalance {
        self.last_rebalance_tick = self.ticks;
        self.rounds += 1;
        let budget = self.config.budget_points;
        let floor = self.config.floor_points;
        for slot in self.series.values_mut() {
            slot.heat = mul_pct(slot.heat, self.config.decay_percent);
        }
        let n = self.series.len() as u64;
        if n == 0 {
            self.cache_share = budget;
            return Rebalance {
                round: self.rounds,
                assignments: Vec::new(),
                cache_share: budget,
                heats: Vec::new(),
            };
        }
        let cache_target =
            mul_pct(budget, self.config.cache_percent).min(budget - n * floor);
        let pool = budget - cache_target;
        let extra_pool = pool - n * floor;
        let total_heat: u64 = self.series.values().map(|s| s.heat).sum();
        let mut assignments = Vec::new();
        let mut heats = Vec::with_capacity(self.series.len());
        let mut assigned = 0u64;
        for (&id, slot) in &mut self.series {
            let extra = if total_heat == 0 {
                extra_pool / n
            } else {
                // u128 keeps `extra_pool * heat` from overflowing; the
                // quotient is <= extra_pool, so it fits back into u64.
                ((u128::from(extra_pool) * u128::from(slot.heat))
                    / u128::from(total_heat)) as u64
            };
            let capacity = floor + extra;
            assigned += capacity;
            if capacity != slot.capacity {
                slot.capacity = capacity;
                assignments.push(SeriesAssignment {
                    series: id,
                    capacity,
                });
            }
            heats.push((id, slot.heat));
        }
        // Exact by construction: remainders land in the cache share.
        self.cache_share = budget - assigned;
        self.resizes += assignments.len() as u64;
        Rebalance {
            round: self.rounds,
            assignments,
            cache_share: self.cache_share,
            heats,
        }
    }

    /// The capacity currently assigned to `series`, if hosted.
    pub fn capacity_of(&self, series: u32) -> Option<u64> {
        self.series.get(&series).map(|s| s.capacity)
    }

    /// Every hosted series' assigned capacity, ascending by id.
    pub fn capacities(&self) -> Vec<SeriesAssignment> {
        self.series
            .iter()
            .map(|(&series, slot)| SeriesAssignment {
                series,
                capacity: slot.capacity,
            })
            .collect()
    }

    /// The current block-cache share, in points.
    pub fn cache_share(&self) -> u64 {
        self.cache_share
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ArbiterStats {
        ArbiterStats {
            ticks: self.ticks,
            rounds: self.rounds,
            resizes: self.resizes,
            series: self.series.len(),
            cache_share: self.cache_share,
        }
    }
}

/// `value * percent / 100` without intermediate overflow.
fn mul_pct(value: u64, percent: u64) -> u64 {
    ((u128::from(value) * u128::from(percent)) / 100) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ArbiterConfig {
        ArbiterConfig::new(1024)
            .with_floor(8)
            .with_rebalance_every(64)
    }

    /// Σ capacity + cache share must equal the budget, every series at
    /// or above the floor.
    fn assert_partition(a: &Arbiter) {
        let caps = a.capacities();
        let total: u64 =
            caps.iter().map(|c| c.capacity).sum::<u64>() + a.cache_share();
        assert_eq!(total, a.config().budget_points, "partition leaked");
        for c in &caps {
            assert!(
                c.capacity >= a.config().floor_points,
                "series-{} below floor: {}",
                c.series,
                c.capacity
            );
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(Arbiter::new(ArbiterConfig::new(1024).with_floor(1)).is_err());
        assert!(Arbiter::new(ArbiterConfig::new(4).with_floor(8)).is_err());
        assert!(
            Arbiter::new(ArbiterConfig::new(1024).with_cache_percent(95))
                .is_err()
        );
        assert!(
            Arbiter::new(ArbiterConfig::new(1024).with_rebalance_every(0))
                .is_err()
        );
        assert!(
            Arbiter::new(ArbiterConfig::new(1024).with_decay_percent(150))
                .is_err()
        );
        assert!(Arbiter::new(config()).is_ok());
    }

    #[test]
    fn admission_takes_the_floor_from_the_cache_share() {
        let mut a = Arbiter::new(config()).expect("arbiter");
        assert_eq!(a.cache_share(), 1024);
        assert!(a.record_append(3).expect("append").is_none());
        assert_eq!(a.capacity_of(3), Some(8));
        assert_eq!(a.cache_share(), 1016);
        assert_partition(&a);
    }

    #[test]
    fn budget_exhaustion_is_a_typed_error() {
        let mut a = Arbiter::new(
            ArbiterConfig::new(16).with_floor(8).with_rebalance_every(4),
        )
        .expect("arbiter");
        a.record_append(0).expect("first");
        a.record_append(1).expect("second");
        let err = a.record_append(2).expect_err("third must not fit");
        assert!(err.to_string().contains("budget exhausted"));
        assert_partition(&a);
    }

    #[test]
    fn hot_series_grow_and_cold_series_shrink_toward_the_floor() {
        let mut a = Arbiter::new(config()).expect("arbiter");
        // Register both, then heat series 0 only, through one rebalance.
        a.record_append(0).expect("append");
        a.record_append(1).expect("append");
        let mut plan = None;
        for _ in 0..200 {
            if let Some(p) = a.record_append(0).expect("append") {
                plan = Some(p);
            }
        }
        let plan = plan.expect("cadence must have fired");
        assert!(plan.round >= 1);
        let hot = a.capacity_of(0).expect("hot");
        let cold = a.capacity_of(1).expect("cold");
        assert!(
            hot > cold,
            "hot series must out-grow cold: hot={hot} cold={cold}"
        );
        assert_partition(&a);
        // Now go silent: decay pulls the hot series back toward the
        // floor as rebalances pass with no fresh heat.
        for _ in 0..20 {
            a.record_query(1);
        }
        let before = a.capacity_of(0).expect("hot");
        for _ in 0..600 {
            a.record_append(1).expect("append");
        }
        let after = a.capacity_of(0).expect("hot");
        assert!(
            after < before,
            "decayed series must shrink: {before} -> {after}"
        );
        assert_partition(&a);
    }

    #[test]
    fn queries_heat_a_series() {
        let mut a = Arbiter::new(config()).expect("arbiter");
        a.record_append(0).expect("append");
        a.record_append(1).expect("append");
        // Equal appends, but series 1 also serves queries.
        for _ in 0..40 {
            a.record_query(1);
        }
        // Drive to a rebalance with neutral traffic.
        for _ in 0..80 {
            a.record_append(0).expect("append");
            a.record_append(1).expect("append");
        }
        let queried = a.capacity_of(1).expect("queried");
        let quiet = a.capacity_of(0).expect("quiet");
        assert!(
            queried > quiet,
            "query heat must count: queried={queried} quiet={quiet}"
        );
        assert_partition(&a);
    }

    #[test]
    fn rebalance_plans_are_ordered_and_exact() {
        let mut a = Arbiter::new(config()).expect("arbiter");
        for id in [5u32, 1, 3] {
            a.record_append(id).expect("append");
        }
        let mut plan = None;
        for _ in 0..70 {
            if let Some(p) = a.record_append(5).expect("append") {
                plan = Some(p);
                break;
            }
        }
        let plan = plan.expect("plan");
        assert!(plan.heats.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(plan
            .assignments
            .windows(2)
            .all(|w| w[0].series < w[1].series));
        let caps: u64 = a.capacities().iter().map(|c| c.capacity).sum();
        assert_eq!(caps + plan.cache_share, a.config().budget_points);
        assert_eq!(plan.cache_share, a.cache_share());
    }

    #[test]
    fn forced_rebalance_restores_floors_when_the_share_drains() {
        // Budget 64, floor 8: the cache share covers 8 series at
        // registration, and more than that cannot be hosted at all —
        // instead drain the share via a tiny cache target.
        let mut a = Arbiter::new(
            ArbiterConfig::new(64)
                .with_floor(8)
                .with_cache_percent(0)
                .with_rebalance_every(1_000_000),
        )
        .expect("arbiter");
        for id in 0..7u32 {
            assert!(a.record_append(id).expect("append").is_none());
        }
        // 7 series * 8 = 56 assigned, share = 8. One heavy rebalance-free
        // admit drains it; the eighth admit must force a plan.
        let plan = a.record_append(7).expect("append");
        assert!(plan.is_none(), "share exactly covers the eighth floor");
        assert_partition(&a);
        assert_eq!(a.cache_share(), 0);
    }

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(64)
        )]

        /// The partition invariant holds after every single operation,
        /// for any interleaving of appends and queries.
        #[test]
        fn budget_is_conserved_exactly(
            ops in proptest::collection::vec(
                (0u32..6, proptest::prelude::any::<bool>()),
                1..400,
            ),
            cache_pct in 0u64..=60,
            every in 1u64..96,
        ) {
            let mut a = Arbiter::new(
                ArbiterConfig::new(2048)
                    .with_floor(8)
                    .with_cache_percent(cache_pct)
                    .with_rebalance_every(every),
            )
            .expect("arbiter");
            for &(series, is_query) in &ops {
                if is_query {
                    a.record_query(series);
                } else {
                    a.record_append(series).expect("budget fits 6 floors");
                }
                let caps = a.capacities();
                let total: u64 = caps.iter().map(|c| c.capacity).sum::<u64>()
                    + a.cache_share();
                proptest::prop_assert_eq!(total, 2048);
                for c in &caps {
                    proptest::prop_assert!(c.capacity >= 8);
                }
            }
        }

        /// The arbiter is a pure function of its op sequence: two
        /// identical runs produce identical capacities, shares and stats.
        #[test]
        fn arbitration_is_deterministic(
            ops in proptest::collection::vec(
                (0u32..5, proptest::prelude::any::<bool>()),
                1..300,
            ),
        ) {
            let run = || {
                let mut a = Arbiter::new(config()).expect("arbiter");
                let mut plans = Vec::new();
                for &(series, is_query) in &ops {
                    if is_query {
                        a.record_query(series);
                    } else if let Some(p) =
                        a.record_append(series).expect("fits")
                    {
                        plans.push(p);
                    }
                }
                (a.capacities(), a.cache_share(), a.stats(), plans)
            };
            let first = run();
            let second = run();
            proptest::prop_assert_eq!(first, second);
        }
    }
}
