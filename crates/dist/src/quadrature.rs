//! Numerical integration: Gauss–Legendre rules and the quantile-substitution
//! expectation used throughout the ζ-model.
//!
//! The ζ-model's delay integral `∫₀^∞ f(x)·h(x) dx` is awkward on the raw
//! axis: the lognormal laws in the paper put mass across 4–5 decades. We
//! substitute `x = F⁻¹(q)` which turns it into `∫₀¹ h(F⁻¹(q)) dq` — a smooth
//! bounded-domain integral handled well by a fixed Gauss–Legendre rule, for
//! *any* delay law including empirical ones.

use crate::distribution::DelayDistribution;

/// A fixed-order Gauss–Legendre quadrature rule on `[-1, 1]`.
///
/// Nodes and weights are computed once (Newton iteration on the Legendre
/// recurrence) and reused for every integral.
#[derive(Debug, Clone)]
pub struct GaussLegendre {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl GaussLegendre {
    /// Builds the `order`-point rule (`order ≥ 1`).
    pub fn new(order: usize) -> Self {
        assert!(order >= 1, "GaussLegendre order must be >= 1");
        let n = order;
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        for i in 0..m {
            // Initial guess (Chebyshev-like).
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75)
                / (n as f64 + 0.5))
                .cos();
            let mut dp = 0.0;
            for _ in 0..100 {
                // Legendre recurrence for P_n(x) and derivative.
                let mut p0 = 1.0;
                let mut p1 = x;
                for k in 2..=n {
                    let kf = k as f64;
                    let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
                    p0 = p1;
                    p1 = p2;
                }
                // p1 = P_n(x), p0 = P_{n-1}(x)
                dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
                let dx = p1 / dp;
                x -= dx;
                if dx.abs() < 1e-15 {
                    break;
                }
            }
            nodes[i] = -x;
            nodes[n - 1 - i] = x;
            let w = 2.0 / ((1.0 - x * x) * dp * dp);
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
        if n % 2 == 1 {
            nodes[n / 2] = 0.0;
        }
        Self { nodes, weights }
    }

    /// Number of quadrature points.
    pub fn order(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes on `[-1, 1]`.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Weights matching [`GaussLegendre::nodes`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `∫_a^b f(x) dx`.
    pub fn integrate(
        &self,
        a: f64,
        b: f64,
        mut f: impl FnMut(f64) -> f64,
    ) -> f64 {
        let half = 0.5 * (b - a);
        let mid = 0.5 * (a + b);
        let mut acc = 0.0;
        for (x, w) in self.nodes.iter().zip(&self.weights) {
            acc += w * f(mid + half * x);
        }
        acc * half
    }

    /// The rule's `(node, weight)` pairs mapped onto `[a, b]` (weights include
    /// the Jacobian), for callers that evaluate the integrand themselves.
    pub fn mapped(&self, a: f64, b: f64) -> Vec<(f64, f64)> {
        let half = 0.5 * (b - a);
        let mid = 0.5 * (a + b);
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(x, w)| (mid + half * x, w * half))
            .collect()
    }
}

/// `E_f[h(X)] = ∫ f(x)·h(x) dx`, via quantile substitution on `[0, 1]`.
///
/// Works for any [`DelayDistribution`] with a usable quantile function —
/// no density evaluations, no infinite domain, heavy tails welcome.
pub fn expectation(
    rule: &GaussLegendre,
    dist: &dyn DelayDistribution,
    mut h: impl FnMut(f64) -> f64,
) -> f64 {
    rule.integrate(0.0, 1.0, |q| h(dist.quantile(q.clamp(1e-12, 1.0 - 1e-12))))
}

/// The quadrature abscissae for [`expectation`], as `(delay, weight)` pairs.
///
/// The ζ-model evaluates many expectations against the *same* distribution;
/// exposing the transformed nodes lets it precompute per-node state once.
pub fn expectation_nodes(
    rule: &GaussLegendre,
    dist: &dyn DelayDistribution,
) -> Vec<(f64, f64)> {
    rule.mapped(0.0, 1.0)
        .into_iter()
        .map(|(q, w)| (dist.quantile(q.clamp(1e-12, 1.0 - 1e-12)), w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parametric::{Exponential, LogNormal};

    #[test]
    fn gauss_legendre_weights_sum_to_two() {
        for order in [2, 8, 32, 64, 65] {
            let gl = GaussLegendre::new(order);
            let sum: f64 = gl.weights().iter().sum();
            assert!((sum - 2.0).abs() < 1e-12, "order {order}: {sum}");
        }
    }

    #[test]
    fn gauss_legendre_is_exact_for_polynomials() {
        // An n-point rule integrates degree 2n−1 exactly.
        let gl = GaussLegendre::new(5);
        let got =
            gl.integrate(-1.0, 1.0, |x| x.powi(9) + 3.0 * x.powi(4) + 1.0);
        let want = 0.0 + 3.0 * 2.0 / 5.0 + 2.0;
        assert!((got - want).abs() < 1e-13);
    }

    #[test]
    fn gauss_legendre_handles_shifted_intervals() {
        let gl = GaussLegendre::new(16);
        let got = gl.integrate(2.0, 5.0, |x| x * x);
        assert!((got - (125.0 - 8.0) / 3.0).abs() < 1e-10);
    }

    #[test]
    fn nodes_are_symmetric_and_sorted() {
        let gl = GaussLegendre::new(16);
        let nodes = gl.nodes();
        for w in nodes.windows(2) {
            assert!(w[0] < w[1]);
        }
        for i in 0..8 {
            assert!((nodes[i] + nodes[15 - i]).abs() < 1e-14);
        }
    }

    #[test]
    fn expectation_recovers_moments() {
        let gl = GaussLegendre::new(64);
        let d = Exponential::with_mean(20.0);
        let m1 = expectation(&gl, &d, |x| x);
        assert!((m1 - 20.0).abs() < 0.05, "E[X]={m1}");
        let m2 = expectation(&gl, &d, |x| x * x);
        assert!((m2 / 800.0 - 1.0).abs() < 0.05, "E[X^2]={m2}");
    }

    #[test]
    fn expectation_of_bounded_h_on_heavy_tail() {
        // E[F(X)] = 1/2 for any continuous law — a sharp self-test.
        let gl = GaussLegendre::new(64);
        let d = LogNormal::new(5.0, 2.0);
        let got =
            expectation(&gl, &d, |x| crate::DelayDistribution::cdf(&d, x));
        assert!((got - 0.5).abs() < 1e-6, "E[F(X)]={got}");
    }

    #[test]
    fn expectation_nodes_match_expectation() {
        let gl = GaussLegendre::new(48);
        let d = LogNormal::new(4.0, 1.5);
        let via_nodes: f64 = expectation_nodes(&gl, &d)
            .iter()
            .map(|(x, w)| w * (1.0 + x).ln())
            .sum();
        let direct = expectation(&gl, &d, |x| (1.0 + x).ln());
        assert!((via_nodes - direct).abs() < 1e-12);
    }
}
