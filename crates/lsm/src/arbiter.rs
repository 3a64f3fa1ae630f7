//! Fleet-wide memory arbitration: one point-denominated budget, many
//! series.
//!
//! The paper tunes each series' MemTable split (`π_c` vs. `π_s(n_seq)`)
//! against a *fixed* per-series budget `n`. At fleet scale the budget
//! itself is the scarce resource: thousands of series share one memory
//! pool, and a static even split starves the hot series while cold ones
//! idle. The [`Arbiter`] is the kernel-side answer, following the
//! adaptive-memory-management line of work (see PAPERS.md): a global
//! budget is split between the series' MemTables, steered by decayed
//! per-series *heat* counters so hot series grow and cold series shrink
//! back toward a floor. The share above the floors goes by √heat, not by
//! heat: every flushed table costs a write and an fsync, and a series'
//! flush count λ/n summed over the fleet is least at n ∝ √λ.
//!
//! Design constraints (this is a seplint kernel module):
//!
//! * **Deterministic** (rule R3): the arbiter is a pure state machine
//!   driven by logical ticks — one tick per recorded append or query. No
//!   wall clock, no thread primitive; two identical op sequences produce
//!   identical rebalance plans, so seeded fleet traces stay
//!   byte-identical.
//! * **Conserving**: after every operation Σ capacity ≤ budget and every
//!   series holds at least [`ArbiterConfig::floor_points`]. A split hands
//!   out the whole budget but its integer-division remainders — fewer
//!   points than there are series — which a series admitted later takes
//!   its floor from; when they fall short of a floor, the admission forces
//!   a new split.
//! * **Mechanism only**: the arbiter decides *capacities*; applying them
//!   (policy migration via `set_policy`) is the fleet engine's job, which
//!   is also where the typed [`Event`](crate::obs::Event)s are emitted.
//!
//! Heat is held in fixed-point units of [`HEAT_UNIT`] (1/256ths of a
//! point) so decay keeps fractional residue without floating point.

use std::collections::BTreeMap;

use seplsm_types::{Error, Result};

/// Fixed-point scale of one heat unit: one recorded append adds
/// `HEAT_UNIT` (i.e. 1.0 point-equivalents) of heat.
pub const HEAT_UNIT: u64 = 256;

/// Heat one recorded query adds: twice an append's, so reads keep a
/// series warm.
pub const QUERY_HEAT: u64 = 2 * HEAT_UNIT;

/// Default minimum MemTable capacity a series never shrinks below.
pub const DEFAULT_FLOOR_POINTS: u64 = 8;

/// Default logical ticks (appends + queries) between rebalances.
pub const DEFAULT_REBALANCE_EVERY: u64 = 1024;

/// Configuration of an [`Arbiter`]. Validated by [`Arbiter::new`].
#[derive(Debug, Clone, Copy)]
pub struct ArbiterConfig {
    /// The global budget, in points, split between every series'
    /// MemTable capacity.
    pub budget_points: u64,
    /// Per-series capacity floor: no rebalance shrinks a series below
    /// this many points (≥ 2, so separation policies keep a non-empty
    /// `C_nonseq`).
    pub floor_points: u64,
    /// Logical ticks between rebalances (the cadence).
    pub rebalance_every: u64,
}

impl ArbiterConfig {
    /// Defaults for a global budget of `budget_points`.
    pub fn new(budget_points: u64) -> Self {
        Self {
            budget_points,
            floor_points: DEFAULT_FLOOR_POINTS,
            rebalance_every: DEFAULT_REBALANCE_EVERY,
        }
    }

    /// Sets the per-series capacity floor.
    pub fn with_floor(mut self, points: u64) -> Self {
        self.floor_points = points;
        self
    }

    /// Sets the rebalance cadence, in logical ticks.
    pub fn with_rebalance_every(mut self, ticks: u64) -> Self {
        self.rebalance_every = ticks;
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
        if self.rebalance_every == 0 {
            return Err(Error::InvalidConfig(
                "arbiter rebalance cadence must be >= 1 tick".into(),
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

/// One rebalance decision: which series change capacity, and the decayed
/// heat samples the split was computed from. Everything is ordered by
/// ascending series id, so applying (and emitting events for) a plan is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rebalance {
    /// 1-based rebalance round.
    pub round: u64,
    /// Series whose capacity changed, ascending by id.
    pub assignments: Vec<SeriesAssignment>,
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
}

/// The fleet memory arbiter: a deterministic, logical-tick-driven state
/// machine splitting [`ArbiterConfig::budget_points`] between series
/// MemTables. See the module docs.
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
}

impl Arbiter {
    /// A fresh arbiter; no series holds any of the budget yet.
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
        let forced =
            !self.series.contains_key(&series) && self.admit(series)?;
        if let Some(slot) = self.series.get_mut(&series) {
            slot.heat = slot.heat.saturating_add(HEAT_UNIT);
        }
        let due = self.ticks - self.last_rebalance_tick
            >= self.config.rebalance_every;
        Ok((forced || due).then(|| self.rebalance()))
    }

    /// Records one query against `series` (unknown series heat nothing).
    /// Queries advance the logical clock and add [`QUERY_HEAT`], but never
    /// return a plan — only the (mutating) append path can apply one.
    pub fn record_query(&mut self, series: u32) {
        self.ticks += 1;
        if let Some(slot) = self.series.get_mut(&series) {
            slot.heat = slot.heat.saturating_add(QUERY_HEAT);
        }
    }

    /// Admits a new series at the floor capacity, taking the points from
    /// the budget no series holds. Returns `true` when those fall short of
    /// the floor and a full rebalance must re-cut the split.
    fn admit(&mut self, series: u32) -> Result<bool> {
        let floor = self.config.floor_points;
        let budget = self.config.budget_points;
        let hosted = self.series.len() as u64;
        if hosted.saturating_add(1).saturating_mul(floor) > budget {
            return Err(Error::InvalidConfig(format!(
                "arbiter budget exhausted: {} series at floor {} exceed \
                 budget {budget}",
                hosted + 1,
                floor,
            )));
        }
        let assigned: u64 = self.series.values().map(|s| s.capacity).sum();
        // Short of a floor, the series is registered at it on paper and
        // the forced rebalance cuts the budget anew.
        self.series.insert(
            series,
            Slot {
                heat: 0,
                capacity: floor,
            },
        );
        Ok(budget - assigned < floor)
    }

    /// Re-cuts the budget: halves every heat counter (one half-life per
    /// rebalance) and gives every series its floor plus a share of the
    /// rest proportional to the square root of its heat. A series
    /// appending at rate λ into a MemTable of n points flushes λ/n tables,
    /// and Σ λ/n under Σ n = budget is least at n ∝ √λ; `isqrt` keeps the
    /// split in integers. Division remainders stay unassigned.
    fn rebalance(&mut self) -> Rebalance {
        self.last_rebalance_tick = self.ticks;
        self.rounds += 1;
        let floor = self.config.floor_points;
        // Only appends rebalance, and the appending series is hosted.
        let n = self.series.len() as u64;
        let extra_pool = self.config.budget_points - n * floor;
        for slot in self.series.values_mut() {
            slot.heat /= 2;
        }
        let total_weight: u64 =
            self.series.values().map(|s| s.heat.isqrt()).sum();
        let mut assignments = Vec::new();
        let mut heats = Vec::with_capacity(self.series.len());
        for (&id, slot) in &mut self.series {
            let extra = if total_weight == 0 {
                extra_pool / n
            } else {
                // u128 keeps `extra_pool * weight` from overflowing; the
                // quotient is <= extra_pool, so it fits back into u64.
                ((u128::from(extra_pool) * u128::from(slot.heat.isqrt()))
                    / u128::from(total_weight)) as u64
            };
            let capacity = floor + extra;
            if capacity != slot.capacity {
                slot.capacity = capacity;
                assignments.push(SeriesAssignment {
                    series: id,
                    capacity,
                });
            }
            heats.push((id, slot.heat));
        }
        self.resizes += assignments.len() as u64;
        Rebalance {
            round: self.rounds,
            assignments,
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

    /// Counters snapshot.
    pub fn stats(&self) -> ArbiterStats {
        ArbiterStats {
            ticks: self.ticks,
            rounds: self.rounds,
            resizes: self.resizes,
            series: self.series.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ArbiterConfig {
        ArbiterConfig::new(1024)
            .with_floor(8)
            .with_rebalance_every(64)
    }

    /// The points of the budget no series holds.
    fn unassigned(a: &Arbiter) -> u64 {
        let held: u64 = a.capacities().iter().map(|c| c.capacity).sum();
        a.config().budget_points - held
    }

    /// Σ capacity must stay within the budget, every series at or above
    /// the floor.
    fn assert_partition(a: &Arbiter) {
        let caps = a.capacities();
        let total: u64 = caps.iter().map(|c| c.capacity).sum();
        assert!(total <= a.config().budget_points, "budget overdrawn");
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
            Arbiter::new(ArbiterConfig::new(1024).with_rebalance_every(0))
                .is_err()
        );
        assert!(Arbiter::new(config()).is_ok());
    }

    #[test]
    fn admission_takes_the_floor_from_the_unassigned_points() {
        let mut a = Arbiter::new(config()).expect("arbiter");
        assert_eq!(unassigned(&a), 1024);
        assert!(a.record_append(3).expect("append").is_none());
        assert_eq!(a.capacity_of(3), Some(8));
        assert_eq!(unassigned(&a), 1016);
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
    fn shares_above_the_floor_go_by_the_square_root_of_heat() {
        // Series m appends 2·m² times inside one cadence window, so the
        // halving leaves it 256·m² of heat, √ = 16·m: the shares above the
        // floor are 1:2:3:4, not the 1:4:9:16 of a split by heat.
        let mut a = Arbiter::new(
            ArbiterConfig::new(1024)
                .with_floor(8)
                .with_rebalance_every(2 * (1 + 4 + 9 + 16)),
        )
        .expect("arbiter");
        let mut plans = Vec::new();
        for m in 1..=4u32 {
            for _ in 0..2 * m * m {
                plans.extend(a.record_append(m).expect("append"));
            }
        }
        assert_eq!(plans.len(), 1, "one split, at the window's last append");
        let heats: Vec<u64> = plans[0].heats.iter().map(|h| h.1).collect();
        assert_eq!(heats, [256, 1024, 2304, 4096]);
        let share = |m: u32| {
            a.capacity_of(m).expect("hosted") - a.config().floor_points
        };
        let unit = share(1);
        assert!(unit > 0);
        for m in 2..=4u32 {
            let got = share(m);
            let m = u64::from(m);
            // Within the integer division's remainder.
            assert!(
                (m * unit..m * unit + m).contains(&got),
                "share of series {m}: {got} against {unit} for series 1"
            );
        }
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
        // The split hands out all but its division remainders.
        assert_partition(&a);
        assert!(unassigned(&a) < 3, "{} points held back", unassigned(&a));
    }

    #[test]
    fn forced_rebalance_restores_floors_when_the_split_left_too_little() {
        // Budget 64, floor 8, a split every two ticks: the cadence split at
        // the second append hands both series all 64 points.
        let mut a = Arbiter::new(
            ArbiterConfig::new(64).with_floor(8).with_rebalance_every(2),
        )
        .expect("arbiter");
        assert!(a.record_append(0).expect("append").is_none());
        assert!(a.record_append(1).expect("append").is_some());
        assert_eq!(a.capacity_of(0), Some(32));
        assert_eq!(a.capacity_of(1), Some(32));
        assert_eq!(unassigned(&a), 0);
        // A third series finds no floor unassigned: its admission must
        // force a plan, and every series keeps its floor.
        let plan = a.record_append(2).expect("append");
        let plan = plan.expect("the admission must force a split");
        assert_eq!(plan.round, 2);
        assert_eq!(a.stats().series, 3);
        assert_partition(&a);
        assert!(unassigned(&a) < 3);
        assert!(a.capacity_of(2).expect("admitted") > 8);
    }

    proptest::proptest! {
        #![proptest_config(
            proptest::prelude::ProptestConfig::with_cases(64)
        )]

        /// The budget holds after every single operation, for any
        /// interleaving of appends and queries, and every split hands out
        /// all of it but fewer points than there are series.
        #[test]
        fn budget_is_conserved_exactly(
            ops in proptest::collection::vec(
                (0u32..6, proptest::prelude::any::<bool>()),
                1..400,
            ),
            every in 1u64..96,
        ) {
            let mut a = Arbiter::new(
                ArbiterConfig::new(2048)
                    .with_floor(8)
                    .with_rebalance_every(every),
            )
            .expect("arbiter");
            for &(series, is_query) in &ops {
                let plan = if is_query {
                    a.record_query(series);
                    None
                } else {
                    a.record_append(series).expect("budget fits 6 floors")
                };
                let caps = a.capacities();
                let total: u64 = caps.iter().map(|c| c.capacity).sum();
                proptest::prop_assert!(total <= 2048);
                for c in &caps {
                    proptest::prop_assert!(c.capacity >= 8);
                }
                // A split hands out all but its division remainders.
                if plan.is_some() {
                    proptest::prop_assert!(2048 - total < caps.len() as u64);
                }
            }
        }

        /// The arbiter is a pure function of its op sequence: two
        /// identical runs produce identical capacities, plans and stats.
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
                (a.capacities(), a.stats(), plans)
            };
            let first = run();
            let second = run();
            proptest::prop_assert_eq!(first, second);
        }
    }
}
