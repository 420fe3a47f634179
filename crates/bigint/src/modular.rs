//! Modular arithmetic: addition, subtraction, multiplication,
//! exponentiation, inversion and CRT recombination.
//!
//! All functions take operands that are *not* required to be reduced; they
//! reduce internally. Moduli must be non-zero.

use crate::gcd::extended_gcd;
use crate::{Ibig, Ubig};

/// `(a + b) mod m`.
///
/// ```
/// use bigint::{modular, Ubig};
/// let m = Ubig::from(10u64);
/// assert_eq!(modular::modadd(&Ubig::from(7u64), &Ubig::from(8u64), &m), Ubig::from(5u64));
/// ```
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn modadd(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    &(a + b) % m
}

/// `(a - b) mod m`, canonical in `[0, m)`.
///
/// ```
/// use bigint::{modular, Ubig};
/// let m = Ubig::from(10u64);
/// assert_eq!(modular::modsub(&Ubig::from(3u64), &Ubig::from(8u64), &m), Ubig::from(5u64));
/// ```
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn modsub(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    let a = a % m;
    let b = b % m;
    if a >= b {
        a - b
    } else {
        &(&a + m) - &b
    }
}

/// `(a * b) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn modmul(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    &(a * b) % m
}

/// `-a mod m`, canonical in `[0, m)`.
pub fn modneg(a: &Ubig, m: &Ubig) -> Ubig {
    modsub(&Ubig::zero(), a, m)
}

/// Exponent bit-count above which building a Montgomery context pays for
/// itself (context setup costs two divisions and a word inversion;
/// every saved iteration avoids one multi-limb division).
const MONTGOMERY_EXP_THRESHOLD: u64 = 24;

/// `base^exp mod m` by left-to-right square-and-multiply.
///
/// For odd moduli with non-trivial exponents this transparently switches
/// to Montgomery arithmetic ([`crate::montgomery::MontgomeryContext`]),
/// which replaces the per-step division with word-level REDC — the hot
/// path of every Paillier/DGK operation in the workspace. Results are
/// identical (property-tested against [`modpow_basic`]).
///
/// `modpow(_, 0, m) == 1 % m` by convention.
///
/// ```
/// use bigint::{modular, Ubig};
/// let m = Ubig::from(497u64);
/// assert_eq!(modular::modpow(&Ubig::from(4u64), &Ubig::from(13u64), &m), Ubig::from(445u64));
/// ```
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn modpow(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    assert!(!m.is_zero(), "modpow modulus must be non-zero");
    if m.is_odd() && exp.bits() >= MONTGOMERY_EXP_THRESHOLD {
        if let Some(ctx) = crate::montgomery::MontgomeryContext::new(m) {
            return ctx.modpow(base, exp);
        }
    }
    modpow_basic(base, exp, m)
}

/// Division-based square-and-multiply — the reference implementation
/// [`modpow`] dispatches away from. Kept public for testing and for the
/// Montgomery-vs-division ablation bench.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn modpow_basic(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    assert!(!m.is_zero(), "modpow modulus must be non-zero");
    if m.is_one() {
        return Ubig::zero();
    }
    let mut result = Ubig::one();
    let mut acc = base % m;
    let nbits = exp.bits();
    for i in 0..nbits {
        if exp.bit(i) {
            result = modmul(&result, &acc, m);
        }
        if i + 1 < nbits {
            acc = modmul(&acc, &acc, m);
        }
    }
    result
}

/// Chinese Remainder Theorem for two coprime moduli: the unique `x` in
/// `[0, m1*m2)` with `x ≡ r1 (mod m1)` and `x ≡ r2 (mod m2)`, or `None` if
/// `gcd(m1, m2) != 1`.
///
/// ```
/// use bigint::{modular, Ubig};
/// // x ≡ 2 (mod 3), x ≡ 3 (mod 5) => x = 8
/// let x = modular::crt_pair(
///     &Ubig::from(2u64), &Ubig::from(3u64),
///     &Ubig::from(3u64), &Ubig::from(5u64),
/// ).unwrap();
/// assert_eq!(x, Ubig::from(8u64));
/// ```
pub fn crt_pair(r1: &Ubig, m1: &Ubig, r2: &Ubig, m2: &Ubig) -> Option<Ubig> {
    let (g, p, _q) = extended_gcd(m1, m2);
    if !g.is_one() {
        return None;
    }
    // x = r1 + m1 * ((r2 - r1) * p mod m2)
    let diff = &Ibig::from(r2.clone()) - &Ibig::from(r1.clone());
    let coeff_mod = (&diff * &p).rem_euclid(m2);
    Some(&(r1 % &(m1 * m2)) + &(m1 * &coeff_mod))
}

/// The multiplicative order-checking helper: `a^k ≡ 1 (mod m)`.
pub fn is_order_divisor(a: &Ubig, k: &Ubig, m: &Ubig) -> bool {
    modpow(a, k, m).is_one()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modadd_wraps() {
        let m = Ubig::from(100u64);
        assert_eq!(modadd(&Ubig::from(60u64), &Ubig::from(70u64), &m), Ubig::from(30u64));
    }

    #[test]
    fn modsub_canonical_range() {
        let m = Ubig::from(100u64);
        let r = modsub(&Ubig::from(10u64), &Ubig::from(99u64), &m);
        assert_eq!(r, Ubig::from(11u64));
        assert_eq!(modsub(&Ubig::from(5u64), &Ubig::from(5u64), &m), Ubig::zero());
        // Unreduced operands.
        assert_eq!(modsub(&Ubig::from(205u64), &Ubig::from(399u64), &m), Ubig::from(6u64));
    }

    #[test]
    fn modneg_inverse_of_add() {
        let m = Ubig::from(97u64);
        let a = Ubig::from(31u64);
        assert_eq!(modadd(&a, &modneg(&a, &m), &m), Ubig::zero());
        assert_eq!(modneg(&Ubig::zero(), &m), Ubig::zero());
    }

    #[test]
    fn modpow_matches_naive() {
        let m = Ubig::from(1009u64);
        for base in [0u64, 1, 2, 17, 1008] {
            for exp in [0u64, 1, 2, 3, 10, 50] {
                let mut naive = 1u64;
                for _ in 0..exp {
                    naive = naive * base % 1009;
                }
                assert_eq!(
                    modpow(&Ubig::from(base), &Ubig::from(exp), &m),
                    Ubig::from(naive),
                    "{base}^{exp} mod 1009"
                );
            }
        }
    }

    #[test]
    fn modpow_fermat_large_modulus() {
        // p is a 89-bit prime: 2^89 - 1 is a Mersenne prime.
        let p = (Ubig::one() << 89) - Ubig::one();
        let a = Ubig::from(123_456_789u64);
        let exp = &p - &Ubig::one();
        assert_eq!(modpow(&a, &exp, &p), Ubig::one());
    }

    #[test]
    fn modpow_modulus_one() {
        assert_eq!(modpow(&Ubig::from(5u64), &Ubig::from(3u64), &Ubig::one()), Ubig::zero());
    }

    #[test]
    fn modpow_zero_exponent() {
        let m = Ubig::from(7u64);
        assert_eq!(modpow(&Ubig::from(4u64), &Ubig::zero(), &m), Ubig::one());
        assert_eq!(modpow(&Ubig::zero(), &Ubig::zero(), &m), Ubig::one());
    }

    #[test]
    fn crt_reconstructs() {
        let x =
            crt_pair(&Ubig::from(6u64), &Ubig::from(7u64), &Ubig::from(4u64), &Ubig::from(11u64))
                .unwrap();
        assert_eq!(&x % &Ubig::from(7u64), Ubig::from(6u64));
        assert_eq!(&x % &Ubig::from(11u64), Ubig::from(4u64));
        let modulus = Ubig::from(77u64);
        assert!(x < modulus);
    }

    #[test]
    fn crt_rejects_common_factor() {
        assert!(
            crt_pair(&Ubig::one(), &Ubig::from(6u64), &Ubig::one(), &Ubig::from(9u64)).is_none()
        );
    }
}
