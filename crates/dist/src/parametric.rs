//! Parametric delay distributions.
//!
//! [`LogNormal`] is the workhorse: every synthetic dataset in the paper
//! (M1–M12, Figs. 5/7/9/10/12–14, Table III) draws delays from a lognormal
//! law. The others are building blocks for the simulated real-world datasets
//! (S-9 and the vehicle dataset H use heavy-tailed [`Mixture`]s with
//! [`Shifted`] components to model batched re-sends) and for robustness tests.

use rand::Rng;
use rand::RngCore;

use crate::distribution::DelayDistribution;
use crate::special::{norm_cdf, norm_pdf, norm_quantile, norm_sf};

/// Draws a standard normal variate via the Box–Muller transform.
fn sample_std_normal(rng: &mut dyn RngCore) -> f64 {
    // Avoid ln(0) by nudging u1 away from zero.
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Lognormal delay law: `ln(delay) ~ N(mu, sigma²)`.
///
/// The paper's synthetic datasets use `mu ∈ {4, 5}` and
/// `sigma ∈ {1.5, 1.75, 2}` (delays in milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates `LogNormal(mu, sigma)`; `sigma` must be positive and finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma > 0.0 && sigma.is_finite(),
            "LogNormal sigma must be > 0"
        );
        Self { mu, sigma }
    }

    /// Location parameter `mu` (mean of `ln X`).
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter `sigma` (std-dev of `ln X`).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl DelayDistribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        norm_pdf((x.ln() - self.mu) / self.sigma) / (x * self.sigma)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        norm_cdf((x.ln() - self.mu) / self.sigma)
    }

    fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        norm_sf((x.ln() - self.mu) / self.sigma)
    }

    fn quantile(&self, q: f64) -> f64 {
        (self.mu + self.sigma * norm_quantile(q)).exp()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (self.mu + self.sigma * sample_std_normal(rng)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + self.sigma * self.sigma / 2.0).exp())
    }

    fn label(&self) -> String {
        format!("LogNormal(mu={}, sigma={})", self.mu, self.sigma)
    }
}

/// Exponential delay law with the given rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential law with rate `λ > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "Exponential rate must be > 0"
        );
        Self { rate }
    }

    /// Creates an exponential law with the given mean delay.
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }
}

impl DelayDistribution for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x < 0.0 {
            1.0
        } else {
            (-self.rate * x).exp()
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        -(-q).ln_1p() / self.rate // −ln(1−q)/λ
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.rate
    }

    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.rate)
    }

    fn label(&self) -> String {
        format!("Exponential(rate={})", self.rate)
    }
}

/// Uniform delay law on `[low, high]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Creates `U[low, high]` with `low < high`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low < high, "Uniform requires low < high");
        Self { low, high }
    }
}

impl DelayDistribution for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.low || x > self.high {
            0.0
        } else {
            1.0 / (self.high - self.low)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.low) / (self.high - self.low)).clamp(0.0, 1.0)
    }

    fn quantile(&self, q: f64) -> f64 {
        self.low + q * (self.high - self.low)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.low + rng.gen::<f64>() * (self.high - self.low)
    }

    fn mean(&self) -> Option<f64> {
        Some((self.low + self.high) / 2.0)
    }

    fn label(&self) -> String {
        format!("Uniform[{}, {}]", self.low, self.high)
    }
}

/// Pareto (power-law tail) delay law: `P(X > x) = (x_m/x)^α` for `x ≥ x_m`.
///
/// Used to model the long-delay stragglers of the S-9 dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto law with scale `x_m > 0` and shape `α > 0`.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(
            scale > 0.0 && shape > 0.0,
            "Pareto scale and shape must be > 0"
        );
        Self { scale, shape }
    }
}

impl DelayDistribution for Pareto {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            self.shape * self.scale.powf(self.shape) / x.powf(self.shape + 1.0)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            1.0 - (self.scale / x).powf(self.shape)
        }
    }

    fn sf(&self, x: f64) -> f64 {
        if x < self.scale {
            1.0
        } else {
            (self.scale / x).powf(self.shape)
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        self.scale / (1.0 - q).powf(1.0 / self.shape)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        self.scale / u.powf(1.0 / self.shape)
    }

    fn mean(&self) -> Option<f64> {
        (self.shape > 1.0).then(|| self.shape * self.scale / (self.shape - 1.0))
    }

    fn label(&self) -> String {
        format!("Pareto(scale={}, shape={})", self.scale, self.shape)
    }
}

/// Degenerate distribution: every delay equals `value`.
///
/// With `value = 0` this models perfectly in-order arrivals, a useful
/// baseline (WA collapses to 1 under both policies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant {
    value: f64,
}

impl Constant {
    /// Creates a point mass at `value`.
    pub fn new(value: f64) -> Self {
        Self { value }
    }
}

impl DelayDistribution for Constant {
    fn pdf(&self, x: f64) -> f64 {
        // Dirac mass; conventionally 0 except at the atom. Models must use
        // the CDF/quantile for this distribution.
        if x == self.value {
            f64::INFINITY
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }

    fn quantile(&self, _q: f64) -> f64 {
        self.value
    }

    fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
        self.value
    }

    fn mean(&self) -> Option<f64> {
        Some(self.value)
    }

    fn label(&self) -> String {
        format!("Constant({})", self.value)
    }
}

/// A distribution shifted right by a fixed offset: `X' = X + offset`.
///
/// Models a fixed transmission latency on top of a random jitter, e.g. the
/// ≈5×10⁴ ms batch re-send period of the vehicle dataset H.
#[derive(Debug, Clone)]
pub struct Shifted<D> {
    inner: D,
    offset: f64,
}

impl<D: DelayDistribution> Shifted<D> {
    /// Wraps `inner`, adding `offset` to every delay.
    pub fn new(inner: D, offset: f64) -> Self {
        Self { inner, offset }
    }
}

impl<D: DelayDistribution> DelayDistribution for Shifted<D> {
    fn pdf(&self, x: f64) -> f64 {
        self.inner.pdf(x - self.offset)
    }

    fn cdf(&self, x: f64) -> f64 {
        self.inner.cdf(x - self.offset)
    }

    fn sf(&self, x: f64) -> f64 {
        self.inner.sf(x - self.offset)
    }

    fn quantile(&self, q: f64) -> f64 {
        self.inner.quantile(q) + self.offset
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.inner.sample(rng) + self.offset
    }

    fn mean(&self) -> Option<f64> {
        self.inner.mean().map(|m| m + self.offset)
    }

    fn label(&self) -> String {
        format!("{} + {}", self.inner.label(), self.offset)
    }
}

/// A finite mixture of delay laws with the given weights.
///
/// Mixtures express the bimodal delay profiles of the paper's real-world
/// datasets: most points arrive promptly, a minority arrive one re-send
/// period late (dataset H, Fig. 19) or after a heavy-tailed straggler delay
/// (dataset S-9, Fig. 8).
pub struct Mixture {
    components: Vec<(f64, Box<dyn DelayDistribution>)>,
}

impl Mixture {
    /// Creates a mixture; weights must be positive and are normalised to 1.
    pub fn new(components: Vec<(f64, Box<dyn DelayDistribution>)>) -> Self {
        assert!(
            !components.is_empty(),
            "Mixture needs at least one component"
        );
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(
            total > 0.0 && components.iter().all(|(w, _)| *w > 0.0),
            "Mixture weights must be positive"
        );
        let components = components
            .into_iter()
            .map(|(w, d)| (w / total, d))
            .collect();
        Self { components }
    }

    /// Convenience: a two-component mixture.
    pub fn of_two(
        w1: f64,
        d1: impl DelayDistribution + 'static,
        w2: f64,
        d2: impl DelayDistribution + 'static,
    ) -> Self {
        Self::new(vec![(w1, Box::new(d1)), (w2, Box::new(d2))])
    }
}

impl DelayDistribution for Mixture {
    fn pdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pdf(x)).sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.cdf(x)).sum()
    }

    fn sf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.sf(x)).sum()
    }

    fn quantile(&self, q: f64) -> f64 {
        // No closed form: bisect the mixture CDF between component extremes.
        assert!((0.0..=1.0).contains(&q), "quantile: q={q} outside [0,1]");
        let q = q.clamp(1e-15, 1.0 - 1e-15);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, d) in &self.components {
            lo = lo.min(d.quantile(1e-12));
            hi = hi.max(d.quantile(1.0 - 1e-12));
        }
        if !lo.is_finite() {
            lo = -1e18;
        }
        if !hi.is_finite() {
            hi = 1e18;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo) <= 1e-9 * hi.abs().max(1.0) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u: f64 = rng.gen();
        for (w, d) in &self.components {
            if u < *w {
                return d.sample(rng);
            }
            u -= w;
        }
        // Floating-point slack: fall back to the last component.
        self.components.last().map_or(0.0, |(_, d)| d.sample(rng))
    }

    fn mean(&self) -> Option<f64> {
        let mut acc = 0.0;
        for (w, d) in &self.components {
            acc += w * d.mean()?;
        }
        Some(acc)
    }

    fn label(&self) -> String {
        let parts: Vec<String> = self
            .components
            .iter()
            .map(|(w, d)| format!("{:.3}*{}", w, d.label()))
            .collect();
        format!("Mixture[{}]", parts.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_quantile_inverts<D: DelayDistribution>(d: &D, tol: f64) {
        for &q in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = d.quantile(q);
            let back = d.cdf(x);
            assert!(
                (back - q).abs() < tol,
                "{}: quantile({q})={x}, cdf back={back}",
                d.label()
            );
        }
    }

    fn check_sample_mean<D: DelayDistribution>(d: &D, rel_tol: f64) {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mean: f64 =
            (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        let expected = d.mean().expect("finite mean");
        assert!(
            (mean - expected).abs() < rel_tol * expected.abs().max(1.0),
            "{}: sample mean {mean} vs expected {expected}",
            d.label()
        );
    }

    #[test]
    fn lognormal_quantile_and_mean() {
        let d = LogNormal::new(4.0, 1.5);
        check_quantile_inverts(&d, 1e-10);
        assert!((d.mean().unwrap() - (4.0f64 + 1.125).exp()).abs() < 1e-9);
        check_sample_mean(&d, 0.15); // heavy tail: loose tolerance
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let d = LogNormal::new(5.0, 2.0);
        assert!((d.quantile(0.5) - 5.0f64.exp()).abs() < 1e-6);
    }

    #[test]
    fn exponential_closed_forms() {
        let d = Exponential::with_mean(20.0);
        assert!((d.cdf(20.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        check_quantile_inverts(&d, 1e-12);
        check_sample_mean(&d, 0.02);
    }

    #[test]
    fn uniform_density_and_bounds() {
        let d = Uniform::new(5.0, 15.0);
        assert_eq!(d.pdf(4.0), 0.0);
        assert!((d.pdf(10.0) - 0.1).abs() < 1e-15);
        assert_eq!(d.cdf(20.0), 1.0);
        check_quantile_inverts(&d, 1e-12);
        check_sample_mean(&d, 0.02);
    }

    #[test]
    fn pareto_tail_is_power_law() {
        let d = Pareto::new(1.0, 2.0);
        assert!((d.sf(10.0) - 0.01).abs() < 1e-12);
        check_quantile_inverts(&d, 1e-12);
        assert!((d.mean().unwrap() - 2.0).abs() < 1e-12);
        // Shape ≤ 1 has no finite mean.
        assert!(Pareto::new(1.0, 0.9).mean().is_none());
    }

    #[test]
    fn constant_is_a_step() {
        let d = Constant::new(42.0);
        assert_eq!(d.cdf(41.9), 0.0);
        assert_eq!(d.cdf(42.0), 1.0);
        assert_eq!(d.quantile(0.3), 42.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 42.0);
    }

    #[test]
    fn shifted_translates_everything() {
        let d = Shifted::new(Exponential::with_mean(10.0), 100.0);
        assert_eq!(d.cdf(50.0), 0.0);
        assert!((d.quantile(0.5) - (100.0 + 10.0 * 2.0f64.ln())).abs() < 1e-9);
        assert!((d.mean().unwrap() - 110.0).abs() < 1e-12);
        check_quantile_inverts(&d, 1e-10);
    }

    #[test]
    fn mixture_normalises_weights_and_mixes() {
        let d = Mixture::of_two(
            3.0,
            Constant::new(10.0),
            1.0,
            Constant::new(1000.0),
        );
        // 75% mass at 10, 25% at 1000.
        assert!((d.cdf(10.0) - 0.75).abs() < 1e-12);
        assert!((d.cdf(999.0) - 0.75).abs() < 1e-12);
        assert!((d.cdf(1000.0) - 1.0).abs() < 1e-12);
        assert!(
            (d.mean().unwrap() - (0.75 * 10.0 + 0.25 * 1000.0)).abs() < 1e-9
        );
    }

    #[test]
    fn mixture_quantile_bisects_correctly() {
        let d = Mixture::of_two(
            0.9,
            Exponential::with_mean(10.0),
            0.1,
            Shifted::new(Exponential::with_mean(100.0), 50_000.0),
        );
        check_quantile_inverts(&d, 1e-6);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let frac_late = (0..n).filter(|_| d.sample(&mut rng) > 25_000.0).count()
            as f64
            / n as f64;
        assert!((frac_late - 0.1).abs() < 0.01, "late fraction {frac_late}");
    }

    #[test]
    fn samples_match_cdf_ks() {
        // One-sample KS sanity on the lognormal sampler.
        let d = LogNormal::new(4.0, 1.75);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut ks: f64 = 0.0;
        for (i, &x) in xs.iter().enumerate() {
            let e = (i + 1) as f64 / n as f64;
            ks = ks.max((d.cdf(x) - e).abs());
        }
        // 1.63/sqrt(n) is the 1% critical value.
        assert!(ks < 1.63 / (n as f64).sqrt(), "KS statistic {ks}");
    }
}
