//! Gaussian sampling and distributed noise generation.

use rand::Rng;

/// A Gaussian distribution `N(mean, std²)` sampled by the Box–Muller
/// transform (polar form).
///
/// # Examples
///
/// ```
/// use dp::Gaussian;
/// let g = Gaussian::new(0.0, 1.0);
/// let x = g.sample(&mut rand::thread_rng());
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std: f64,
}

impl Gaussian {
    /// Creates `N(mean, std²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std.is_finite() && std >= 0.0, "std must be finite and non-negative");
        assert!(mean.is_finite(), "mean must be finite");
        Gaussian { mean, std }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Gaussian { mean: 0.0, std: 1.0 }
    }

    /// The distribution's mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution's standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }

    /// Draws `n` samples.
    pub fn sample_vec<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// One standard-normal draw by the polar (Marsaglia) Box–Muller method.
///
/// The second value of each pair is discarded for statelessness; the
/// protocol's samples are too few for that to matter.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Distributed Gaussian noise generation (§IV-D).
///
/// For target aggregate noise `N(0, σ²)` across `|U|` users, each user
/// draws *two independent* shares `N(0, σ²/(2|U|))` — one embedded in the
/// share sent to S1, one in the share sent to S2. Summing `2|U|`
/// independent shares yields exactly `N(0, σ²)`, and no single party (nor
/// either server) ever observes the total noise.
///
/// The paper writes the same symbol `z^u` into both servers' shares; with
/// a *common* value the two contributions would add coherently and double
/// the variance (`N(0, 2σ²)`). We use independent shares so the released
/// statistic matches Alg. 4 exactly — see DESIGN.md.
///
/// # Examples
///
/// ```
/// use dp::DistributedNoise;
/// let dist = DistributedNoise::new(40.0, 100);
/// let (z_a, z_b) = dist.user_share_pair(&mut rand::thread_rng());
/// assert!(z_a.is_finite() && z_b.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedNoise {
    sigma: f64,
    num_users: usize,
    share: Gaussian,
}

impl DistributedNoise {
    /// Configures distributed generation of `N(0, sigma²)` across
    /// `num_users` users.
    ///
    /// # Panics
    ///
    /// Panics if `num_users == 0` or `sigma` is negative/non-finite.
    pub fn new(sigma: f64, num_users: usize) -> Self {
        assert!(num_users > 0, "at least one user required");
        let share_std = sigma / ((2 * num_users) as f64).sqrt();
        DistributedNoise { sigma, num_users, share: Gaussian::new(0.0, share_std) }
    }

    /// The aggregate standard deviation `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The per-share standard deviation `σ/√(2|U|)`.
    pub fn share_std(&self) -> f64 {
        self.share.std()
    }

    /// One user's pair of independent shares `(z_a, z_b)`, destined for
    /// S1 and S2 respectively.
    pub fn user_share_pair<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        (self.share.sample(rng), self.share.sample(rng))
    }

    /// Reference aggregation: sums all users' share pairs, for tests and
    /// the clear execution path.
    pub fn aggregate<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (0..self.num_users)
            .map(|_| {
                let (a, b) = self.user_share_pair(rng);
                a + b
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    fn mean_and_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let samples: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut r)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn scaled_gaussian_moments() {
        let mut r = rng();
        let g = Gaussian::new(5.0, 3.0);
        let samples = g.sample_vec(50_000, &mut r);
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn zero_std_is_constant() {
        let mut r = rng();
        let g = Gaussian::new(2.5, 0.0);
        for _ in 0..10 {
            assert_eq!(g.sample(&mut r), 2.5);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_std_panics() {
        let _ = Gaussian::new(0.0, -1.0);
    }

    #[test]
    fn distributed_share_std_formula() {
        let d = DistributedNoise::new(40.0, 100);
        // σ/sqrt(2*100)
        assert!((d.share_std() - 40.0 / 200f64.sqrt()).abs() < 1e-12);
        assert_eq!(d.sigma(), 40.0);
    }

    #[test]
    fn aggregate_variance_matches_target() {
        let mut r = rng();
        let d = DistributedNoise::new(10.0, 25);
        let samples: Vec<f64> = (0..20_000).map(|_| d.aggregate(&mut r)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((var - 100.0).abs() < 5.0, "aggregate var {var} should be σ²=100");
    }

    #[test]
    fn single_user_degenerate_case() {
        let mut r = rng();
        let d = DistributedNoise::new(8.0, 1);
        let samples: Vec<f64> = (0..20_000).map(|_| d.aggregate(&mut r)).collect();
        let (_, var) = mean_and_var(&samples);
        assert!((var - 64.0).abs() < 3.0, "var {var} should be 64");
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_panics() {
        let _ = DistributedNoise::new(1.0, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Gaussian::standard().sample(&mut StdRng::seed_from_u64(7));
        let b = Gaussian::standard().sample(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
