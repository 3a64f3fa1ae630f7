//! `π_adaptive`: the self-tuning engine (paper Figs. 10, 17; §VI).
//!
//! [`AdaptiveEngine`] glues the pieces together the way the deployed IoTDB
//! analyzer module does:
//!
//! 1. every written point is fed to the storage engine *and* to the
//!    [`DelayAnalyzer`];
//! 2. when the analyzer reports that the delay distribution changed (or that
//!    enough samples exist for a first decision), the engine fits the
//!    empirical delay distribution, runs Algorithm 1 against the engine's
//!    *current* memory budget, and switches the buffering policy to the
//!    winner.
//!
//! Policy switches re-route the buffered points without touching the disk
//! (see [`LsmEngine::set_policy`]).
//!
//! # Configuration layering
//!
//! Three surfaces, three concerns — each knob lives in exactly one:
//!
//! * [`Policy`] — the *paper knob*: `π_c(n)` vs. `π_s(n_seq)`, nothing
//!   else.
//! * [`EngineConfig`](seplsm_lsm::EngineConfig) — *engine mechanics*:
//!   the starting policy plus SSTable size, WA snapshots, probes.
//! * [`AdaptiveConfig`] — the *controller*: drift detection and retune
//!   hysteresis. Every decision scans with [`TunerOptions::online`] and
//!   evaluates ζ with [`ZetaConfig::online`]. It carries no memory
//!   budget: the budget is whatever the engine's current policy holds
//!   (which the fleet memory arbiter may resize at any time).
//!
//! Adaptive tuning is an open-time option: build the storage engine with
//! its own [`OpenOptions`], then finish with
//! [`AdaptiveOpen::adaptive`] instead of `open`:
//!
//! ```
//! use seplsm_core::{AdaptiveConfig, AdaptiveOpen};
//! use seplsm_lsm::{EngineConfig, OpenOptions};
//! use seplsm_types::Policy;
//!
//! let engine = OpenOptions::new(EngineConfig::new(Policy::conventional(512)))
//!     .adaptive(AdaptiveConfig::new())?;
//! assert!(!engine.policy().is_separation());
//! # Ok::<(), seplsm_types::Error>(())
//! ```

use std::sync::Arc;

use seplsm_dist::DelayDistribution;
use seplsm_lsm::{LsmEngine, OpenOptions};
use seplsm_types::{DataPoint, Policy, Result};

use crate::analyzer::{AnalyzerConfig, AnalyzerEvent, DelayAnalyzer};
use crate::tuner::{tune, TunerOptions, TuningOutcome};
use crate::wa::WaModel;
use crate::zeta::ZetaConfig;

/// Configuration of the adaptive *controller* — drift detection and
/// hysteresis only. Engine mechanics (budget, SSTable size,
/// snapshots) belong to [`EngineConfig`](seplsm_lsm::EngineConfig); the
/// tuning budget `n` is always read from the engine's current policy at
/// decision time.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Analyzer (drift-detection) parameters.
    pub analyzer: AnalyzerConfig,
    /// Minimum user points between two policy switches (hysteresis).
    pub min_points_between_tunes: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveConfig {
    /// Sensible defaults: re-tune at most every `4 × analyzer window`
    /// points.
    pub fn new() -> Self {
        let analyzer = AnalyzerConfig::default();
        Self {
            analyzer,
            min_points_between_tunes: (analyzer.window as u64) * 4,
        }
    }

    /// Overrides the analyzer parameters (also refreshes the hysteresis).
    pub fn with_analyzer(mut self, analyzer: AnalyzerConfig) -> Self {
        self.analyzer = analyzer;
        self.min_points_between_tunes = (analyzer.window as u64) * 4;
        self
    }

    /// Overrides the retune hysteresis.
    pub fn with_hysteresis(mut self, points: u64) -> Self {
        self.min_points_between_tunes = points;
        self
    }
}

/// Open-time adaptive tuning: the one way to construct the adaptive
/// wrappers. Implemented for both storage builders —
/// [`OpenOptions`] opens into an [`AdaptiveEngine`], and
/// [`MultiOpenOptions`](seplsm_lsm::MultiOpenOptions) opens into a
/// [`FleetAdaptiveEngine`](crate::fleet::FleetAdaptiveEngine) — so every
/// storage option (store, durability, observer, cache, arbiter) is
/// configured exactly once, on the builder.
pub trait AdaptiveOpen {
    /// The adaptive wrapper this builder opens into.
    type Engine;

    /// Opens the storage engine and attaches the adaptive controller.
    ///
    /// # Errors
    /// Invalid configuration or storage failures while opening.
    fn adaptive(self, config: AdaptiveConfig) -> Result<Self::Engine>;
}

impl AdaptiveOpen for OpenOptions {
    type Engine = AdaptiveEngine;

    fn adaptive(self, config: AdaptiveConfig) -> Result<AdaptiveEngine> {
        Ok(AdaptiveEngine::from_engine(self.open()?, config))
    }
}

/// The controller of one series: its delay analyzer plus the hysteresis
/// state, and the decision "should this series re-tune now, and to what".
/// [`AdaptiveEngine`] holds one, the fleet a map of them; they differ only
/// in how a decision lands on the storage engine.
pub(crate) struct SeriesController {
    analyzer: DelayAnalyzer,
    last_tune_at: u64,
    /// Decisions applied so far.
    pub(crate) tunes: u32,
}

impl SeriesController {
    pub(crate) fn new(config: &AdaptiveConfig) -> Self {
        Self {
            analyzer: DelayAnalyzer::new(config.analyzer),
            last_tune_at: 0,
            tunes: 0,
        }
    }

    /// Feeds one written point to the analyzer and, when it asks for a
    /// first decision or reports drift past the hysteresis, evaluates
    /// Algorithm 1. `user_points` and `budget` are the series' written
    /// points and current memory budget.
    pub(crate) fn decide(
        &mut self,
        p: &DataPoint,
        user_points: u64,
        budget: usize,
        config: &AdaptiveConfig,
    ) -> Option<(TuningOutcome, f64)> {
        let due = match self.analyzer.observe(p) {
            AnalyzerEvent::None => false,
            AnalyzerEvent::NeedsInitialTune => true,
            AnalyzerEvent::DriftDetected => {
                user_points
                    >= self.last_tune_at + config.min_points_between_tunes
            }
        };
        if due {
            self.evaluate(budget)
        } else {
            None
        }
    }

    /// Runs Algorithm 1 on the analyzer's current window against `budget`,
    /// returning the outcome and the estimated generation interval. `None`
    /// when there are too few samples or the model evaluation fails — a
    /// tuner failure must never take down the write path, the current
    /// policy simply stays in force.
    pub(crate) fn evaluate(
        &self,
        budget: usize,
    ) -> Option<(TuningOutcome, f64)> {
        let dist = self.analyzer.build_distribution()?;
        let delta_t = self.analyzer.estimated_delta_t()?;
        let model = WaModel::with_zeta_config(
            Arc::new(dist) as Arc<dyn DelayDistribution>,
            delta_t,
            budget,
            ZetaConfig::online(),
        );
        let outcome = tune(&model, TunerOptions::online(budget)).ok()?;
        Some((outcome, delta_t))
    }

    /// Records that a decision was applied at `user_points`.
    pub(crate) fn mark_applied(&mut self, user_points: u64) {
        self.analyzer.mark_tuned();
        self.last_tune_at = user_points;
        self.tunes += 1;
    }
}

/// One recorded tuning decision.
#[derive(Debug, Clone)]
pub struct TuneRecord {
    /// User points written when the decision was made.
    pub at_user_points: u64,
    /// Predicted WA under `π_c`.
    pub r_c: f64,
    /// Predicted minimum WA under `π_s`.
    pub r_s_star: f64,
    /// The adopted policy.
    pub decision: Policy,
    /// Estimated generation interval used for the models.
    pub delta_t: f64,
}

/// A storage engine that re-tunes its buffering policy as delays drift.
/// Constructed through [`AdaptiveOpen::adaptive`] on an engine
/// [`OpenOptions`]; it starts under whatever policy the builder's
/// [`EngineConfig`](seplsm_lsm::EngineConfig) configured (the paper
/// initialises with `π_c`).
pub struct AdaptiveEngine {
    engine: LsmEngine,
    controller: SeriesController,
    config: AdaptiveConfig,
    tunes: Vec<TuneRecord>,
}

impl AdaptiveEngine {
    /// Wraps an opened engine with the adaptive controller.
    pub(crate) fn from_engine(
        engine: LsmEngine,
        config: AdaptiveConfig,
    ) -> Self {
        Self {
            engine,
            controller: SeriesController::new(&config),
            config,
            tunes: Vec::new(),
        }
    }

    /// The wrapped storage engine.
    pub fn engine(&self) -> &LsmEngine {
        &self.engine
    }

    /// Mutable access to the wrapped engine (queries, flushes).
    pub fn engine_mut(&mut self) -> &mut LsmEngine {
        &mut self.engine
    }

    /// The currently active policy.
    pub fn policy(&self) -> Policy {
        self.engine.policy()
    }

    /// Every tuning decision taken so far.
    pub fn tunes(&self) -> &[TuneRecord] {
        &self.tunes
    }

    /// Writes one point, re-tuning the policy when the analyzer asks for it.
    ///
    /// # Errors
    /// Storage failures; tuner failures are swallowed (the current policy
    /// simply stays in force) because an analyzer must never take down the
    /// write path.
    pub fn append(&mut self, p: DataPoint) -> Result<()> {
        self.engine.append(p)?;
        let decision = self.controller.decide(
            &p,
            self.engine.metrics().user_points,
            self.engine.policy().total_capacity(),
            &self.config,
        );
        self.apply(decision)
    }

    /// Runs Algorithm 1 on the analyzer's current window against the
    /// engine's current budget and applies the decision. Exposed for
    /// callers that schedule tuning themselves.
    ///
    /// # Errors
    /// Storage failures while switching policies.
    pub fn retune(&mut self) -> Result<()> {
        let budget = self.engine.policy().total_capacity();
        self.apply(self.controller.evaluate(budget))
    }

    /// Lands a decision: switches the policy and records it.
    fn apply(&mut self, decision: Option<(TuningOutcome, f64)>) -> Result<()> {
        let Some((outcome, delta_t)) = decision else {
            return Ok(());
        };
        self.engine.set_policy(outcome.decision)?;
        let at_user_points = self.engine.metrics().user_points;
        self.controller.mark_applied(at_user_points);
        self.tunes.push(TuneRecord {
            at_user_points,
            r_c: outcome.r_c,
            r_s_star: outcome.r_s_star,
            decision: outcome.decision,
            delta_t,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seplsm_dist::{DelayDistribution, LogNormal};
    use seplsm_lsm::EngineConfig;

    fn small_config() -> AdaptiveConfig {
        AdaptiveConfig::new().with_analyzer(AnalyzerConfig {
            window: 512,
            min_samples: 256,
            check_every: 128,
            ks_alpha: 0.01,
        })
    }

    fn small_engine() -> AdaptiveEngine {
        OpenOptions::new(
            EngineConfig::new(Policy::conventional(64)).with_sstable_points(32),
        )
        .adaptive(small_config())
        .expect("engine")
    }

    fn write_workload(
        engine: &mut AdaptiveEngine,
        dist: &dyn DelayDistribution,
        n: usize,
        start_tg: i64,
        dt: i64,
        seed: u64,
    ) -> i64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Points generated on a grid, arriving in arrival-time order within
        // a small reorder buffer (enough realism for the analyzer).
        let mut pts: Vec<DataPoint> = (0..n)
            .map(|i| {
                let tg = start_tg + i as i64 * dt;
                DataPoint::with_delay(tg, dist.sample(&mut rng) as i64, 0.0)
            })
            .collect();
        pts.sort_by_key(|p| p.arrival_time);
        for p in &pts {
            engine.append(*p).expect("append");
        }
        start_tg + n as i64 * dt
    }

    #[test]
    fn starts_conventional_then_tunes_once_samples_accumulate() {
        let mut e = small_engine();
        assert!(!e.policy().is_separation());
        let dist = LogNormal::new(5.0, 2.0);
        write_workload(&mut e, &dist, 2000, 0, 50, 1);
        assert!(!e.tunes().is_empty(), "no tuning decision was taken");
        // All data still readable.
        assert_eq!(e.engine().metrics().user_points, 2000);
        let all = e.engine().scan_all().expect("scan");
        assert_eq!(all.len(), 2000);
    }

    #[test]
    fn drift_triggers_retune() {
        let mut e = small_engine();
        let calm = LogNormal::new(2.0, 0.5);
        let wild = LogNormal::new(6.0, 2.0);
        let next = write_workload(&mut e, &calm, 3000, 0, 50, 2);
        let tunes_before = e.tunes().len();
        assert!(tunes_before >= 1);
        write_workload(&mut e, &wild, 6000, next, 50, 3);
        assert!(
            e.tunes().len() > tunes_before,
            "drift did not trigger a re-tune: {:?}",
            e.tunes()
        );
    }

    #[test]
    fn retune_without_samples_is_a_no_op() {
        let mut e = small_engine();
        e.retune().expect("retune");
        assert!(e.tunes().is_empty());
    }

    #[test]
    fn data_survives_policy_switches() {
        let cfg = small_config().with_hysteresis(256); // frequent switching
        let mut e = OpenOptions::new(
            EngineConfig::new(Policy::conventional(64)).with_sstable_points(32),
        )
        .adaptive(cfg)
        .expect("engine");
        let calm = LogNormal::new(2.0, 0.5);
        let wild = LogNormal::new(6.5, 2.0);
        let mut next = 0i64;
        for round in 0..4 {
            let dist: &dyn DelayDistribution =
                if round % 2 == 0 { &calm } else { &wild };
            next = write_workload(&mut e, dist, 1500, next, 50, round as u64);
        }
        let all = e.engine().scan_all().expect("scan");
        assert_eq!(all.len(), 6000);
        assert!(all.windows(2).all(|w| w[0].gen_time < w[1].gen_time));
    }
}
