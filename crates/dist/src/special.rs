//! Special functions implemented in-repo: error function, standard-normal
//! CDF/PDF and quantile.
//!
//! The workspace deliberately avoids special-function crates; the models only
//! need the Gaussian family, for which compact double-precision algorithms
//! exist:
//!
//! * [`norm_cdf`] uses Graeme West's double-precision cumulative-normal
//!   algorithm (Hart-style rational approximations, ~1e-15 absolute error),
//!   which also yields an accurate *tail* probability — important because the
//!   ζ-model multiplies thousands of CDF values and needs `ln F` with small
//!   absolute error even when `F ≈ 1`.
//! * [`norm_quantile`] uses Acklam's inverse-normal approximation refined by
//!   one Halley step against [`norm_cdf`], giving near machine precision.

/// Standard normal density `φ(x) = exp(−x²/2)/√(2π)`.
pub fn norm_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal CDF `Φ(x)`, accurate to ~1e-15 (West's algorithm).
pub fn norm_cdf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let z = x.abs();
    let cum = if z > 37.0 {
        0.0
    } else {
        let e = (-z * z / 2.0).exp();
        if z < 7.071_067_811_865_475 {
            // |x| < 10/sqrt(2): Hart's rational approximation.
            let build = (((((3.52624965998911e-2 * z + 0.700383064443688)
                * z
                + 6.37396220353165)
                * z
                + 33.912866078383)
                * z
                + 112.079291497871)
                * z
                + 221.213596169931)
                * z
                + 220.206867912376;
            let build2 = ((((((8.83883476483184e-2 * z + 1.75566716318264)
                * z
                + 16.064177579207)
                * z
                + 86.7807322029461)
                * z
                + 296.564248779674)
                * z
                + 637.333633378831)
                * z
                + 793.826512519948)
                * z
                + 440.413735824752;
            e * build / build2
        } else {
            // Far tail: continued-fraction style expansion.
            let b = z + 0.65;
            let b = z + 4.0 / b;
            let b = z + 3.0 / b;
            let b = z + 2.0 / b;
            let b = z + 1.0 / b;
            e / (b * 2.506_628_274_631_000_5)
        }
    };
    // `cum` is the upper-tail probability for |x|.
    if x > 0.0 {
        1.0 - cum
    } else {
        cum
    }
}

/// Standard normal survival function `1 − Φ(x)`, accurate in the upper tail.
pub fn norm_sf(x: f64) -> f64 {
    norm_cdf(-x)
}

/// Error function `erf(x)`, derived from [`norm_cdf`]:
/// `erf(x) = 2Φ(x√2) − 1`.
pub fn erf(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 - erfc(x)
    } else {
        erfc(-x) - 1.0
    }
}

/// Complementary error function `erfc(x) = 2·Φ(−x√2)` for `x ≥ 0` (valid for
/// all real `x`).
pub fn erfc(x: f64) -> f64 {
    2.0 * norm_cdf(-x * std::f64::consts::SQRT_2)
}

/// Standard normal quantile `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Returns `-∞` for `p = 0` and `+∞` for `p = 1`; panics on `p ∉ [0, 1]`.
pub fn norm_quantile(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "norm_quantile: p={p} outside [0,1]"
    );
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    let x = acklam_inverse(p);
    // One Halley refinement step against the high-precision CDF.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Acklam's rational approximation to the inverse normal CDF (~1.15e-9
/// relative error), used as the seed for the Halley refinement.
fn acklam_inverse(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5])
            * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r
                + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_matches_known_values() {
        // Reference values from standard normal tables (15 digits).
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((norm_cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-12);
        assert!((norm_cdf(-1.0) - 0.158_655_253_931_457_05).abs() < 1e-12);
        assert!((norm_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-12);
        assert!((norm_cdf(3.0) - 0.998_650_101_968_369_9).abs() < 1e-12);
    }

    #[test]
    fn tail_probabilities_are_accurate() {
        // Φ(−8) ≈ 6.22096e-16; a naive 1−Φ(8) would round to 0.
        let tail = norm_cdf(-8.0);
        assert!(tail > 0.0);
        assert!((tail / 6.220_960_574_271_78e-16 - 1.0).abs() < 1e-6);
        // sf is the mirrored tail.
        assert_eq!(norm_sf(8.0), tail);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut prev = 0.0;
        let mut x = -37.5;
        while x <= 37.5 {
            let c = norm_cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev, "CDF decreased at x={x}");
            prev = c;
            x += 0.125;
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[1e-12, 1e-6, 0.01, 0.1, 0.5, 0.9, 0.975, 1.0 - 1e-9] {
            let x = norm_quantile(p);
            assert!(
                (norm_cdf(x) - p).abs() < 1e-13 * p.max(1e-3),
                "p={p}, x={x}, cdf={}",
                norm_cdf(x)
            );
        }
    }

    #[test]
    fn quantile_endpoints_are_infinite() {
        assert_eq!(norm_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(norm_quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn erf_matches_reference() {
        assert!((erf(0.0)).abs() < 1e-15);
        assert!((erf(1.0) - 0.842_700_792_949_715).abs() < 1e-12);
        assert!((erf(-1.0) + 0.842_700_792_949_715).abs() < 1e-12);
        assert!((erfc(2.0) - 0.004_677_734_981_063_133).abs() < 1e-12);
    }

    #[test]
    fn pdf_integrates_to_cdf_increment() {
        // Midpoint-rule check: ∫_0^1 φ ≈ Φ(1) − Φ(0).
        let n = 20_000;
        let h = 1.0 / n as f64;
        let sum: f64 = (0..n).map(|i| norm_pdf((i as f64 + 0.5) * h) * h).sum();
        assert!((sum - (norm_cdf(1.0) - 0.5)).abs() < 1e-9);
    }
}
