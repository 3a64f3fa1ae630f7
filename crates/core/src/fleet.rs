//! Per-series adaptive tuning over a multi-series store (§VI at fleet scale).
//!
//! The industrial deployment stores thousands of series per IoTDB instance,
//! and their delay behaviours differ: a vehicle in good coverage produces
//! clean in-order telemetry while another is stuck behind batched re-sends.
//! [`FleetAdaptiveEngine`] runs one
//! [`DelayAnalyzer`](crate::analyzer::DelayAnalyzer) per series over a
//! shared [`MultiSeriesEngine`], so every series converges to its own
//! policy — `π_c` for the clean ones, a tuned `π_s(n̂*_seq)` for the
//! disordered ones.
//!
//! Constructed through [`AdaptiveOpen::adaptive`] on a fleet
//! [`MultiOpenOptions`] builder, so it composes with every fleet storage
//! option. In particular, with [`MultiOpenOptions::arbiter`] the memory
//! arbiter resizes series online, and each tuning decision reads the
//! series' *current* arbiter-assigned budget — Algorithm 1 re-runs
//! against whatever capacity the series holds at that moment. Every
//! applied switch goes through [`MultiSeriesEngine::retune`], which emits
//! a typed `PolicyRetuned` event as the witness.

use std::collections::HashMap;

use seplsm_lsm::{MultiOpenOptions, MultiSeriesEngine, SeriesId};
use seplsm_types::{DataPoint, Policy, Result};

use crate::adaptive::{AdaptiveConfig, AdaptiveOpen, SeriesController};

impl AdaptiveOpen for MultiOpenOptions {
    type Engine = FleetAdaptiveEngine;

    fn adaptive(self, config: AdaptiveConfig) -> Result<FleetAdaptiveEngine> {
        Ok(FleetAdaptiveEngine::from_engine(self.open()?, config))
    }
}

/// A fleet of independently-tuned series. Construct with
/// [`AdaptiveOpen::adaptive`]; every series starts from the builder's
/// template policy and is tuned independently against its current budget.
pub struct FleetAdaptiveEngine {
    engine: MultiSeriesEngine,
    config: AdaptiveConfig,
    state: HashMap<SeriesId, SeriesController>,
}

impl FleetAdaptiveEngine {
    /// Wraps an opened fleet engine with per-series controllers.
    pub(crate) fn from_engine(
        engine: MultiSeriesEngine,
        config: AdaptiveConfig,
    ) -> Self {
        Self {
            engine,
            config,
            state: HashMap::new(),
        }
    }

    /// The underlying multi-series engine.
    pub fn engine(&self) -> &MultiSeriesEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine (flushes, WAL syncs).
    pub fn engine_mut(&mut self) -> &mut MultiSeriesEngine {
        &mut self.engine
    }

    /// Active policy of `series`, if it exists.
    pub fn policy(&self, series: SeriesId) -> Option<Policy> {
        self.engine.engine(series).map(|e| e.policy())
    }

    /// Number of tuning decisions taken for `series`.
    pub fn tunes(&self, series: SeriesId) -> u32 {
        self.state.get(&series).map_or(0, |s| s.tunes)
    }

    /// Writes one point, running the per-series analyzer. When the
    /// analyzer reports drift (respecting the hysteresis), Algorithm 1
    /// re-runs against the series' *current* memory budget — under an
    /// arbiter that is the latest arbiter-assigned capacity — and the
    /// decision lands through [`MultiSeriesEngine::retune`].
    ///
    /// # Errors
    /// Storage failures; tuning failures leave the current policy in force.
    pub fn append(&mut self, series: SeriesId, p: DataPoint) -> Result<()> {
        self.engine.append(series, p)?;
        let config = &self.config;
        let state = self
            .state
            .entry(series)
            .or_insert_with(|| SeriesController::new(config));
        let Some(engine) = self.engine.engine(series) else {
            return Ok(());
        };
        let user_points = engine.metrics().user_points;
        let budget = engine.policy().total_capacity();
        let Some((outcome, _)) = state.decide(&p, user_points, budget, config)
        else {
            return Ok(());
        };
        self.engine.retune(series, outcome.decision)?;
        state.mark_applied(user_points);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalyzerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seplsm_dist::{Constant, DelayDistribution, LogNormal};
    use seplsm_lsm::{ArbiterConfig, EngineConfig};
    use seplsm_types::TimeRange;

    fn config() -> AdaptiveConfig {
        AdaptiveConfig::new().with_analyzer(AnalyzerConfig {
            window: 512,
            min_samples: 256,
            check_every: 128,
            ks_alpha: 0.01,
        })
    }

    fn fleet() -> FleetAdaptiveEngine {
        MultiOpenOptions::new(
            EngineConfig::new(Policy::conventional(64)).with_sstable_points(32),
        )
        .adaptive(config())
        .expect("fleet")
    }

    #[test]
    fn series_converge_to_different_policies() {
        let mut fleet = fleet();
        let clean = SeriesId(1);
        let messy = SeriesId(2);
        let wild = LogNormal::new(6.0, 2.0);
        let mut rng = StdRng::seed_from_u64(9);

        // Interleave a clean and a heavily disordered series.
        let mut messy_points: Vec<DataPoint> = (0..3000)
            .map(|i| {
                DataPoint::with_delay(
                    i as i64 * 50,
                    wild.sample(&mut rng) as i64,
                    0.0,
                )
            })
            .collect();
        messy_points.sort_by_key(|p| p.arrival_time);
        for (i, mp) in messy_points.iter().enumerate() {
            fleet
                .append(
                    clean,
                    DataPoint::new(i as i64 * 50, i as i64 * 50, 1.0),
                )
                .expect("clean append");
            fleet.append(messy, *mp).expect("messy append");
        }

        assert!(fleet.tunes(clean) >= 1);
        assert!(fleet.tunes(messy) >= 1);
        // Every applied decision is witnessed on the typed retune path.
        assert!(
            fleet.engine().retunes()
                >= u64::from(fleet.tunes(clean) + fleet.tunes(messy))
        );
        let clean_policy = fleet.policy(clean).expect("clean exists");
        let messy_policy = fleet.policy(messy).expect("messy exists");
        assert!(!clean_policy.is_separation(), "clean series must stay pi_c");
        assert!(
            messy_policy.is_separation(),
            "disordered series must switch to pi_s, got {}",
            messy_policy.name()
        );
    }

    #[test]
    fn all_data_remains_queryable_per_series() {
        let mut fleet = fleet();
        for s in 0..5u32 {
            for i in 0..600i64 {
                fleet
                    .append(
                        SeriesId(s),
                        DataPoint::new(i * 50, i * 50 + (i % 7) * 10, s as f64),
                    )
                    .expect("append");
            }
        }
        for s in 0..5u32 {
            let (pts, _) = fleet
                .engine()
                .query(SeriesId(s), TimeRange::new(0, 600 * 50))
                .expect("query");
            assert_eq!(pts.len(), 600, "series {s}");
            assert!(pts.iter().all(|p| p.value == s as f64));
        }
    }

    #[test]
    fn zero_delay_series_never_switches() {
        let mut fleet = fleet();
        let d = Constant::new(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..2000i64 {
            let delay = d.sample(&mut rng) as i64;
            fleet
                .append(SeriesId(0), DataPoint::with_delay(i * 50, delay, 0.0))
                .expect("append");
        }
        assert!(!fleet.policy(SeriesId(0)).expect("exists").is_separation());
    }

    #[test]
    fn tuning_tracks_the_arbiter_assigned_budget() {
        // An arbiter-managed fleet: the hot, disordered series grows past
        // its admission floor, and its tuning decisions must be sized
        // against the grown budget (n_seq + n_nonseq = current capacity).
        let mut fleet = MultiOpenOptions::new(
            EngineConfig::new(Policy::conventional(64)).with_sstable_points(32),
        )
        .arbiter(
            ArbiterConfig::new(512)
                .with_floor(16)
                .with_rebalance_every(256),
        )
        .adaptive(config())
        .expect("fleet");
        let wild = LogNormal::new(6.0, 2.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut pts: Vec<DataPoint> = (0..4000)
            .map(|i| {
                DataPoint::with_delay(
                    i as i64 * 50,
                    wild.sample(&mut rng) as i64,
                    0.0,
                )
            })
            .collect();
        pts.sort_by_key(|p| p.arrival_time);
        // A cold sibling so the arbiter has someone to shrink.
        fleet
            .append(SeriesId(7), DataPoint::new(0, 0, 0.0))
            .expect("cold");
        for p in &pts {
            fleet.append(SeriesId(1), *p).expect("append");
        }
        let hot_cap = fleet.engine().series_capacity(SeriesId(1)).expect("cap");
        let cold_cap =
            fleet.engine().series_capacity(SeriesId(7)).expect("cap");
        assert!(hot_cap > cold_cap, "hot={hot_cap} cold={cold_cap}");
        assert!(fleet.tunes(SeriesId(1)) >= 1);
        let policy = fleet.policy(SeriesId(1)).expect("policy");
        assert_eq!(
            policy.total_capacity() as u64,
            hot_cap,
            "tuned split must cover the arbiter-assigned budget, got {}",
            policy.name()
        );
    }
}
