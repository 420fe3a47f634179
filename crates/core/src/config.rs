//! Protocol configuration and fixed-point scaling.

/// Fixed-point scale for votes and noise: `2^16`, matching the paper's
/// Eqn. 8 precision.
pub const VOTE_SCALE: f64 = 65536.0;

/// What each teacher submits per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteKind {
    /// A one-hot indicator of the predicted class (the paper's default).
    OneHot,
    /// The softmax probability vector (Fig. 4's alternative).
    Softmax,
}

/// Configuration of one consensus deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsensusConfig {
    /// Threshold as a fraction of the user count (the paper's default is
    /// 60%: consensus requires > 0.6·|U| votes).
    pub threshold_fraction: f64,
    /// Noise scale of the Sparse Vector threshold test, in votes.
    pub sigma1: f64,
    /// Noise scale of Report Noisy Max, in votes.
    pub sigma2: f64,
    /// Vote representation.
    pub vote_kind: VoteKind,
    /// Quorum for dropout-resilient rounds: the minimum number of users
    /// whose uploads must survive a collection step for the round to
    /// continue. `None` keeps the strict protocol, where any user
    /// failure fails the round.
    pub min_users: Option<usize>,
}

impl ConsensusConfig {
    /// Creates a config with one-hot votes.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_fraction` is outside `(0, 1]` or a sigma is
    /// negative.
    pub fn new(threshold_fraction: f64, sigma1: f64, sigma2: f64) -> Self {
        assert!(
            threshold_fraction > 0.0 && threshold_fraction <= 1.0,
            "threshold fraction must be in (0, 1]"
        );
        assert!(sigma1 >= 0.0 && sigma2 >= 0.0, "noise scales must be non-negative");
        ConsensusConfig {
            threshold_fraction,
            sigma1,
            sigma2,
            vote_kind: VoteKind::OneHot,
            min_users: None,
        }
    }

    /// The paper's default: 60% threshold.
    pub fn paper_default(sigma1: f64, sigma2: f64) -> Self {
        ConsensusConfig::new(0.6, sigma1, sigma2)
    }

    /// Switches to softmax votes.
    #[must_use]
    pub fn with_vote_kind(mut self, kind: VoteKind) -> Self {
        self.vote_kind = kind;
        self
    }

    /// Enables dropout-resilient rounds with the given quorum: a round
    /// proceeds over the surviving set `U' ⊆ U` as long as
    /// `|U'| ≥ min_users`, and aborts with a typed error below that.
    ///
    /// # Panics
    ///
    /// Panics if `min_users` is zero.
    #[must_use]
    pub fn with_min_users(mut self, min_users: usize) -> Self {
        assert!(min_users > 0, "quorum must be at least one user");
        self.min_users = Some(min_users);
        self
    }

    /// The vote threshold `T` for `num_users` participants, in votes.
    pub fn threshold_votes(&self, num_users: usize) -> f64 {
        self.threshold_fraction * num_users as f64
    }

    /// The `(ε, δ)` guarantee of `k` queries under this config
    /// (Theorem 5 + composition).
    ///
    /// # Panics
    ///
    /// Panics if a sigma is zero (infinite privacy loss) or `delta` is
    /// outside `(0, 1)`.
    pub fn epsilon(&self, k: u64, delta: f64) -> f64 {
        dp::rdp::LinearRdp::sparse_vector(self.sigma1)
            .compose(&dp::rdp::LinearRdp::report_noisy_max(self.sigma2))
            .repeat(k)
            .to_epsilon(delta)
    }
}

/// Scales a vote-unit quantity to the fixed-point integer grid.
pub fn scale_votes(v: f64) -> i64 {
    (v * VOTE_SCALE).round() as i64
}

/// Inverse of [`scale_votes`] (also valid on sums).
pub fn unscale_votes(v: i128) -> f64 {
    v as f64 / VOTE_SCALE
}

/// Scales a whole vote vector.
pub fn scale_vote_vector(votes: &[f64]) -> Vec<i64> {
    votes.iter().map(|&v| scale_votes(v)).collect()
}

/// Splits `total` as evenly as possible into `parts` integer pieces that
/// sum exactly to `total` (used for the per-user threshold offsets
/// `T/(2|U|)` of Alg. 5, which must recombine without rounding error).
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn split_evenly(total: i64, parts: usize) -> Vec<i64> {
    assert!(parts > 0, "cannot split into zero parts");
    let base = total.div_euclid(parts as i64);
    let rem = total.rem_euclid(parts as i64) as usize;
    (0..parts).map(|i| base + i64::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_votes_scale_with_users() {
        let c = ConsensusConfig::paper_default(40.0, 40.0);
        assert_eq!(c.threshold_votes(100), 60.0);
        assert_eq!(c.threshold_votes(25), 15.0);
    }

    #[test]
    fn scaling_roundtrip() {
        for v in [0.0, 1.0, -2.5, 0.125, 100.0] {
            assert!((unscale_votes(scale_votes(v) as i128) - v).abs() < 1e-4);
        }
        assert_eq!(scale_votes(1.0), 65536);
    }

    #[test]
    fn split_evenly_sums_exactly() {
        for (total, parts) in [(100i64, 7usize), (0, 3), (-50, 4), (65536 * 60, 200)] {
            let pieces = split_evenly(total, parts);
            assert_eq!(pieces.len(), parts);
            assert_eq!(pieces.iter().sum::<i64>(), total, "total {total} parts {parts}");
            let max = pieces.iter().max().unwrap();
            let min = pieces.iter().min().unwrap();
            assert!(max - min <= 1, "pieces must differ by at most 1");
        }
    }

    #[test]
    fn epsilon_composes() {
        let c = ConsensusConfig::paper_default(40.0, 40.0);
        let one = c.epsilon(1, 1e-6);
        let ten = c.epsilon(10, 1e-6);
        assert!(ten > one);
        assert!(ten < 10.0 * one, "RDP composition beats naive scaling");
    }

    #[test]
    #[should_panic(expected = "threshold fraction")]
    fn bad_threshold_rejected() {
        let _ = ConsensusConfig::new(1.5, 1.0, 1.0);
    }

    #[test]
    fn vote_kind_builder() {
        let c = ConsensusConfig::paper_default(1.0, 1.0).with_vote_kind(VoteKind::Softmax);
        assert_eq!(c.vote_kind, VoteKind::Softmax);
    }
}
