//! Rényi differential privacy accounting.
//!
//! All three mechanisms the protocol composes have RDP curves *linear in
//! α*:
//!
//! * Gaussian mechanism with sensitivity Δ: `ε(α) = α·Δ²/(2σ²)`
//!   (Theorem 1, Mironov Cor. 3);
//! * Sparse Vector Technique threshold test: `ε(α) = 9α/(2σ₁²)`
//!   (paper Lemma 1);
//! * Report Noisy Max: `ε(α) = α/σ₂²` (paper Lemma 2).
//!
//! Linear curves compose by adding coefficients (Theorem 2), and convert
//! to `(ε, δ)`-DP by minimizing `c·α + log(1/δ)/(α−1)` over `α > 1`, whose
//! optimum is `α* = 1 + sqrt(log(1/δ)/c)` giving
//! `ε = c + 2·sqrt(c·log(1/δ))` — exactly the closed form of Theorem 5.

use std::fmt;

/// An RDP guarantee of the form `(α, c·α)-RDP for all α > 1`.
///
/// # Examples
///
/// ```
/// use dp::LinearRdp;
///
/// let svt = LinearRdp::sparse_vector(40.0);
/// let rnm = LinearRdp::report_noisy_max(40.0);
/// let total = svt.compose(&rnm);
/// let eps = total.to_epsilon(1e-6);
/// assert!(eps > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRdp {
    /// The slope `c` in `ε(α) = c·α`.
    coeff: f64,
}

impl LinearRdp {
    /// A mechanism with RDP curve `ε(α) = coeff · α`.
    ///
    /// # Panics
    ///
    /// Panics if `coeff` is negative or non-finite.
    pub fn from_coeff(coeff: f64) -> Self {
        assert!(coeff.is_finite() && coeff >= 0.0, "RDP coefficient must be >= 0");
        LinearRdp { coeff }
    }

    /// The identity (a mechanism revealing nothing).
    pub fn zero() -> Self {
        LinearRdp { coeff: 0.0 }
    }

    /// Gaussian mechanism with sensitivity `delta` and noise `sigma`
    /// (Theorem 1): `ε(α) = α·Δ²/(2σ²)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0`.
    pub fn gaussian(sigma: f64, delta_sensitivity: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        LinearRdp::from_coeff(delta_sensitivity * delta_sensitivity / (2.0 * sigma * sigma))
    }

    /// The protocol's Sparse Vector Technique threshold test with noise
    /// `σ₁` (Lemma 1): `ε(α) = 9α/(2σ₁²)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma1 <= 0`.
    pub fn sparse_vector(sigma1: f64) -> Self {
        assert!(sigma1 > 0.0, "sigma1 must be positive");
        LinearRdp::from_coeff(9.0 / (2.0 * sigma1 * sigma1))
    }

    /// Report Noisy Max with noise `σ₂` (Lemma 2): `ε(α) = α/σ₂²`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma2 <= 0`.
    pub fn report_noisy_max(sigma2: f64) -> Self {
        assert!(sigma2 > 0.0, "sigma2 must be positive");
        LinearRdp::from_coeff(1.0 / (sigma2 * sigma2))
    }

    /// The slope `c`.
    pub fn coeff(&self) -> f64 {
        self.coeff
    }

    /// The RDP ε at a given order α.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 1`.
    pub fn epsilon_at(&self, alpha: f64) -> f64 {
        assert!(alpha > 1.0, "RDP order must exceed 1");
        self.coeff * alpha
    }

    /// Sequential composition (Theorem 2): coefficients add.
    #[must_use]
    pub fn compose(&self, other: &LinearRdp) -> LinearRdp {
        LinearRdp { coeff: self.coeff + other.coeff }
    }

    /// Composition of `k` invocations of this mechanism.
    #[must_use]
    pub fn repeat(&self, k: u64) -> LinearRdp {
        LinearRdp { coeff: self.coeff * k as f64 }
    }

    /// The optimal RDP order for conversion at failure probability `delta`:
    /// `α* = 1 + sqrt(log(1/δ)/c)`.
    ///
    /// Returns `f64::INFINITY` for the zero mechanism.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < delta < 1`.
    pub fn optimal_alpha(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        if self.coeff == 0.0 {
            return f64::INFINITY;
        }
        1.0 + ((1.0 / delta).ln() / self.coeff).sqrt()
    }

    /// Converts to `(ε, δ)`-DP: `ε = c + 2·sqrt(c·log(1/δ))`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < delta < 1`.
    pub fn to_epsilon(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        self.coeff + 2.0 * (self.coeff * (1.0 / delta).ln()).sqrt()
    }

    /// Numeric sanity check of [`LinearRdp::to_epsilon`]: evaluates
    /// `c·α + log(1/δ)/(α−1)` on a grid and returns the minimum. Exposed
    /// for tests and documentation; the closed form is exact.
    pub fn to_epsilon_grid(&self, delta: f64, grid: &[f64]) -> f64 {
        let log_inv_delta = (1.0 / delta).ln();
        grid.iter()
            .filter(|&&a| a > 1.0)
            .map(|&a| self.coeff * a + log_inv_delta / (a - 1.0))
            .fold(f64::INFINITY, f64::min)
    }
}

impl fmt::Display for LinearRdp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(α, {:.6}·α)-RDP", self.coeff)
    }
}

/// Theorem 5 closed form: the `(ε, δ)` guarantee of one run of Alg. 5 with
/// threshold noise `σ₁` and argmax noise `σ₂`:
///
/// `ε = sqrt(2·(9/σ₁² + 2/σ₂²)·log(1/δ)) + (9/(2σ₁²) + 1/σ₂²)`.
///
/// # Examples
///
/// ```
/// use dp::rdp::consensus_epsilon;
/// let eps = consensus_epsilon(40.0, 40.0, 1e-6);
/// assert!(eps < 0.5);
/// ```
///
/// # Panics
///
/// Panics if either sigma is non-positive or `delta` is outside `(0, 1)`.
pub fn consensus_epsilon(sigma1: f64, sigma2: f64, delta: f64) -> f64 {
    assert!(sigma1 > 0.0 && sigma2 > 0.0, "noise scales must be positive");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
    let c = 9.0 / (2.0 * sigma1 * sigma1) + 1.0 / (sigma2 * sigma2);
    (2.0 * (9.0 / (sigma1 * sigma1) + 2.0 / (sigma2 * sigma2)) * (1.0 / delta).ln()).sqrt() + c
}

/// Solves for the common noise scale `σ = σ₁ = σ₂` that makes `k`
/// consensus queries satisfy `(target_epsilon, delta)`-DP, by bisection.
///
/// This is how the experiment harness turns a requested "privacy level"
/// (e.g. ε = 8.19 at δ = 10⁻⁶, as in Fig. 5) into concrete noise scales.
///
/// # Panics
///
/// Panics if `target_epsilon <= 0`, `k == 0`, or `delta` outside `(0,1)`.
pub fn sigma_for_epsilon(target_epsilon: f64, delta: f64, k: u64) -> f64 {
    assert!(target_epsilon > 0.0, "epsilon must be positive");
    assert!(k > 0, "at least one query");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
    let eps_of = |sigma: f64| {
        LinearRdp::sparse_vector(sigma)
            .compose(&LinearRdp::report_noisy_max(sigma))
            .repeat(k)
            .to_epsilon(delta)
    };
    let (mut lo, mut hi) = (1e-3, 1e7);
    // eps_of is strictly decreasing in sigma.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if eps_of(mid) > target_epsilon {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_theorem5() {
        for (s1, s2, delta) in [(40.0, 40.0, 1e-6), (10.0, 20.0, 1e-5), (100.0, 50.0, 1e-8)] {
            let composed = LinearRdp::sparse_vector(s1).compose(&LinearRdp::report_noisy_max(s2));
            let from_curve = composed.to_epsilon(delta);
            let from_theorem = consensus_epsilon(s1, s2, delta);
            assert!(
                (from_curve - from_theorem).abs() < 1e-10,
                "σ1={s1} σ2={s2}: {from_curve} vs {from_theorem}"
            );
        }
    }

    #[test]
    fn closed_form_matches_grid_minimum() {
        let curve = LinearRdp::sparse_vector(30.0).compose(&LinearRdp::report_noisy_max(25.0));
        let grid: Vec<f64> = (2..200_000).map(|i| 1.0 + i as f64 * 0.01).collect();
        let grid_min = curve.to_epsilon_grid(1e-6, &grid);
        let closed = curve.to_epsilon(1e-6);
        assert!((grid_min - closed).abs() / closed < 1e-4, "{grid_min} vs {closed}");
        assert!(grid_min >= closed - 1e-12, "closed form must be the true minimum");
    }

    #[test]
    fn optimal_alpha_matches_paper() {
        // Theorem 5: α* = 1 + sqrt(2 log(1/δ) / (9/σ1² + 2/σ2²)).
        let (s1, s2, delta) = (40.0, 30.0, 1e-6);
        let curve = LinearRdp::sparse_vector(s1).compose(&LinearRdp::report_noisy_max(s2));
        let alpha = curve.optimal_alpha(delta);
        let paper_alpha =
            1.0 + (2.0 * (1.0f64 / delta).ln() / (9.0 / (s1 * s1) + 2.0 / (s2 * s2))).sqrt();
        assert!((alpha - paper_alpha).abs() < 1e-9, "{alpha} vs {paper_alpha}");
    }

    #[test]
    fn gaussian_theorem1_coefficient() {
        let g = LinearRdp::gaussian(5.0, 2.0);
        // Δ²/(2σ²) = 4/50
        assert!((g.coeff() - 0.08).abs() < 1e-12);
        assert!((g.epsilon_at(10.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn svt_is_gaussian_with_sensitivity_3() {
        // Lemma 1's 9/(2σ²) equals the Gaussian curve at Δ = 3.
        let svt = LinearRdp::sparse_vector(17.0);
        let g3 = LinearRdp::gaussian(17.0, 3.0);
        assert!((svt.coeff() - g3.coeff()).abs() < 1e-15);
    }

    #[test]
    fn composition_adds_and_repeat_scales() {
        let a = LinearRdp::from_coeff(0.25);
        let b = LinearRdp::from_coeff(0.5);
        assert_eq!(a.compose(&b).coeff(), 0.75);
        assert_eq!(a.repeat(4).coeff(), 1.0);
        assert_eq!(a.compose(&LinearRdp::zero()).coeff(), 0.25);
    }

    #[test]
    fn epsilon_decreases_with_sigma() {
        let deltas = 1e-6;
        let mut last = f64::INFINITY;
        for sigma in [5.0, 10.0, 20.0, 40.0, 80.0] {
            let eps = consensus_epsilon(sigma, sigma, deltas);
            assert!(eps < last, "ε must fall as σ grows");
            last = eps;
        }
    }

    #[test]
    fn sigma_for_epsilon_inverts() {
        for target in [0.5, 2.0, 8.19] {
            let sigma = sigma_for_epsilon(target, 1e-6, 100);
            let achieved = LinearRdp::sparse_vector(sigma)
                .compose(&LinearRdp::report_noisy_max(sigma))
                .repeat(100)
                .to_epsilon(1e-6);
            assert!((achieved - target).abs() < 1e-3, "target {target}: achieved {achieved}");
        }
    }

    #[test]
    fn display_formats() {
        let s = LinearRdp::from_coeff(0.125).to_string();
        assert!(s.contains("0.125"), "{s}");
    }

    #[test]
    #[should_panic(expected = "delta must be in")]
    fn bad_delta_panics() {
        let _ = consensus_epsilon(1.0, 1.0, 1.5);
    }
}
