//! Bit-width bookkeeping for shares, masks and comparisons.
//!
//! Every plaintext the protocol manipulates is a *signed* integer that must
//! simultaneously fit:
//!
//! * the Paillier signed window `(−n/2, n/2)`;
//! * the DGK comparison input domain `[0, 2^ℓ)` after the public offset.
//!
//! [`ShareDomain`] centralizes the budget. With defaults (votes scaled by
//! `2^16`, per-user share bound `2^30`, masks `2^34`, `ℓ = 40`):
//!
//! * per-user shares `a^u, b^u ∈ [−2^30, 2^30)`;
//! * aggregated shares over ≤ 128 users stay below `2^37`;
//! * scalar blinding masks add at most `2^34`;
//! * any compared quantity has magnitude `< 2^39 = offset`, so the
//!   offset-shifted comparison inputs fit `ℓ = 40` bits.

use rand::Rng;
use std::error::Error;
use std::fmt;

/// Error: a value escaped the domain budget (indicates a configuration
/// error, e.g. too many users for the share bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharesOutOfRange {
    /// The offending value.
    pub value: i128,
    /// The bound it violated.
    pub bound: i128,
}

impl fmt::Display for SharesOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value {} escapes domain bound ±{}", self.value, self.bound)
    }
}

impl Error for SharesOutOfRange {}

/// The share/mask/comparison bit-width configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareDomain {
    /// Per-user additive shares are drawn from `[−2^share_bits, 2^share_bits)`.
    pub share_bits: u32,
    /// Blinding masks are drawn from `[0, 2^mask_bits)`.
    pub mask_bits: u32,
    /// DGK comparison width `ℓ`; compared magnitudes must stay below
    /// `2^(ℓ−1)`.
    pub compare_bits: u32,
}

impl ShareDomain {
    /// The default budget described in the module docs.
    pub fn paper() -> Self {
        ShareDomain { share_bits: 30, mask_bits: 34, compare_bits: 40 }
    }

    /// A slimmer budget for fast tests (fewer DGK bit encryptions).
    ///
    /// Still wide enough for `2^16`-scaled votes from a handful of test
    /// users: `b`-shares carry the full scaled vote, so aggregates reach
    /// `M·(2^18 + 2^16) ≈ 2^21.5` for `M ≤ 8`, masks add `2^21`, and all
    /// compared quantities stay below the `2^25` offset.
    pub fn test() -> Self {
        ShareDomain { share_bits: 18, mask_bits: 20, compare_bits: 26 }
    }

    /// The public comparison offset `2^(ℓ−1)` added to signed values
    /// before a DGK comparison.
    pub fn compare_offset(&self) -> i128 {
        1i128 << (self.compare_bits - 1)
    }

    /// Splits `value` into additive shares `(a, b)` with `a + b = value`
    /// and `a` uniform in `[−2^share_bits, 2^share_bits)`.
    pub fn split<R: Rng + ?Sized>(&self, value: i128, rng: &mut R) -> (i128, i128) {
        let bound = 1i128 << self.share_bits;
        let a = rng.gen_range(-bound..bound);
        (a, value - a)
    }

    /// Splits each element of a vector.
    pub fn split_vec<R: Rng + ?Sized>(
        &self,
        values: &[i128],
        rng: &mut R,
    ) -> (Vec<i128>, Vec<i128>) {
        values.iter().map(|&v| self.split(v, rng)).unzip()
    }

    /// Samples a blinding mask in `[0, 2^mask_bits)`.
    pub fn random_mask<R: Rng + ?Sized>(&self, rng: &mut R) -> i128 {
        rng.gen_range(0..(1i128 << self.mask_bits))
    }

    /// Encodes a signed value for DGK comparison: `v + offset`, checked to
    /// land in `[0, 2^ℓ)`.
    ///
    /// # Errors
    ///
    /// Returns [`SharesOutOfRange`] if `|v| >= 2^(ℓ−1)`.
    pub fn encode_compare(&self, v: i128) -> Result<u64, SharesOutOfRange> {
        let offset = self.compare_offset();
        if v <= -offset || v >= offset {
            return Err(SharesOutOfRange { value: v, bound: offset });
        }
        Ok((v + offset) as u64)
    }

    /// Inverse of [`ShareDomain::encode_compare`].
    pub fn decode_compare(&self, encoded: u64) -> i128 {
        encoded as i128 - self.compare_offset()
    }

    /// Clamps a real-valued noise draw so its scaled magnitude cannot
    /// escape the comparison domain (a `> 12σ` event, probability
    /// `< 10^-32`; documented in DESIGN.md).
    pub fn clamp_noise(&self, noise: f64, scale: f64) -> f64 {
        let limit = (self.compare_offset() / 8) as f64 / scale;
        noise.clamp(-limit, limit)
    }
}

impl Default for ShareDomain {
    fn default() -> Self {
        ShareDomain::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn split_reconstructs() {
        let d = ShareDomain::paper();
        let mut rng = StdRng::seed_from_u64(1);
        for v in [0i128, 1, -1, 65536, -70000, 1 << 36] {
            let (a, b) = d.split(v, &mut rng);
            assert_eq!(a + b, v, "shares of {v}");
            assert!(a.abs() <= 1 << d.share_bits);
        }
    }

    #[test]
    fn split_vec_reconstructs() {
        let d = ShareDomain::test();
        let mut rng = StdRng::seed_from_u64(2);
        let vals = vec![5i128, -3, 100, 0];
        let (a, b) = d.split_vec(&vals, &mut rng);
        for i in 0..vals.len() {
            assert_eq!(a[i] + b[i], vals[i]);
        }
    }

    #[test]
    fn shares_look_uniform() {
        // The a-share of a fixed value should spread across the bound.
        let d = ShareDomain::test(); // bound 2^10
        let mut rng = StdRng::seed_from_u64(3);
        let mut lo = 0;
        let mut hi = 0;
        for _ in 0..1000 {
            let (a, _) = d.split(7, &mut rng);
            if a < -512 {
                lo += 1;
            }
            if a >= 512 {
                hi += 1;
            }
        }
        assert!(lo > 150 && hi > 150, "share spread lo={lo} hi={hi}");
    }

    #[test]
    fn compare_encoding_roundtrip() {
        let d = ShareDomain::paper();
        for v in [0i128, 1, -1, 1 << 38, -(1 << 38), 12345] {
            let enc = d.encode_compare(v).unwrap();
            assert!(enc < 1 << d.compare_bits);
            assert_eq!(d.decode_compare(enc), v);
        }
    }

    #[test]
    fn compare_encoding_preserves_order() {
        let d = ShareDomain::test();
        let vals = [-100i128, -1, 0, 1, 99];
        for w in vals.windows(2) {
            assert!(d.encode_compare(w[0]).unwrap() < d.encode_compare(w[1]).unwrap());
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let d = ShareDomain::test();
        let off = d.compare_offset();
        assert!(d.encode_compare(off).is_err());
        assert!(d.encode_compare(-off).is_err());
        assert!(d.encode_compare(off - 1).is_ok());
    }

    #[test]
    fn masks_nonnegative_and_bounded() {
        let d = ShareDomain::paper();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let m = d.random_mask(&mut rng);
            assert!((0..(1i128 << d.mask_bits)).contains(&m));
        }
    }

    #[test]
    fn clamp_noise_passes_typical_values() {
        let d = ShareDomain::paper();
        assert_eq!(d.clamp_noise(3.7, 65536.0), 3.7);
        let extreme = d.clamp_noise(1e30, 65536.0);
        assert!(extreme < 1e30);
    }

    #[test]
    fn error_display() {
        let e = SharesOutOfRange { value: 100, bound: 50 };
        assert!(e.to_string().contains("100"));
    }
}
