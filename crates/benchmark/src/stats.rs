//! Sample statistics for timings taken on a noisy shared box.
//!
//! This sandbox's two vCPUs slow down by 1.5–3× for seconds at a time
//! (co-tenants, not this process: `/proc/stat` shows no steal), so the
//! distribution of any op's wall time is bimodal and the share of a run
//! spent in the slow mode swings between runs. A median flips between
//! the modes with that share; only the **floor** — the fastest of many
//! short, identical ops — repeats from run to run. Every bounded timing
//! is therefore a floor; medians and tails are reported per layer,
//! unbounded, for whoever runs on a quiet machine.

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The fastest sample: the quiet-machine cost of an op that does the
/// same work every time.
///
/// # Panics
///
/// Panics on an empty slice — every workload times at least one op.
pub fn floor(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).expect("at least one sample")
}

/// The `p`-th percentile (nearest rank, `0 < p ≤ 100`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Tail percentiles a report may quote, lowest first.
const TAILS: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAILS`] that still has at least ten of
/// `n` samples beyond it, or `None` when even p90 does not (n < 100) —
/// a tail read off fewer samples is one slow op, not a distribution.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().rev().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(8), None);
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(199), Some(90.0));
        assert_eq!(highest_supported_tail(200), Some(95.0));
        assert_eq!(highest_supported_tail(999), Some(95.0));
        assert_eq!(highest_supported_tail(1000), Some(99.0));
        assert_eq!(highest_supported_tail(6400), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn floor_is_the_fastest_sample() {
        assert_eq!(floor(&[3.5, 1.25, 2.0]), 1.25);
    }
}
