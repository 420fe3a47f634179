//! Modular arithmetic: addition, subtraction, multiplication,
//! exponentiation, inversion and CRT recombination.
//!
//! All functions take operands that are *not* required to be reduced; they
//! reduce internally. Moduli must be non-zero.

use crate::Ubig;

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

/// Garner's recombination over two coprime moduli: the unique `x` in
/// `[0, p·q)` with `x ≡ x_p (mod p)` and `x ≡ x_q (mod q)`, given
/// `p_inv_q = p⁻¹ mod q` — `x = x_p + p·((x_q − x_p)·p⁻¹ mod q)`. The
/// inverse is the caller's to compute once per `(p, q)`
/// ([`crate::gcd::modinv`]); every CRT recombination in the workspace
/// (DGK key generation, Paillier's CRT decryption and `hs`) is this one
/// function. `x_p` must be reduced (`x_p < p`); `x_q` need not be.
///
/// ```
/// use bigint::{gcd::modinv, modular, Ubig};
/// // x ≡ 2 (mod 3), x ≡ 3 (mod 5) => x = 8
/// let (p, q) = (Ubig::from(3u64), Ubig::from(5u64));
/// let p_inv_q = modinv(&p, &q).unwrap();
/// let x = modular::garner(&Ubig::from(2u64), &Ubig::from(3u64), &p, &q, &p_inv_q);
/// assert_eq!(x, Ubig::from(8u64));
/// ```
pub fn garner(x_p: &Ubig, x_q: &Ubig, p: &Ubig, q: &Ubig, p_inv_q: &Ubig) -> Ubig {
    debug_assert!(x_p < p, "x_p must be reduced");
    let t = modmul(&modsub(x_q, x_p, q), p_inv_q, q);
    x_p + &(p * &t)
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
    fn garner_reconstructs() {
        let (p, q) = (Ubig::from(7u64), Ubig::from(11u64));
        let p_inv_q = crate::gcd::modinv(&p, &q).unwrap();
        for (r_p, r_q) in [(6u64, 4u64), (0, 0), (0, 10), (6, 0), (3, 3)] {
            let x = garner(&Ubig::from(r_p), &Ubig::from(r_q), &p, &q, &p_inv_q);
            assert_eq!(&x % &p, Ubig::from(r_p));
            assert_eq!(&x % &q, Ubig::from(r_q));
            assert!(x < &p * &q);
        }
        // An unreduced x_q is reduced on the way in.
        let x = garner(&Ubig::from(6u64), &Ubig::from(26u64), &p, &q, &p_inv_q);
        assert_eq!(x, garner(&Ubig::from(6u64), &Ubig::from(4u64), &p, &q, &p_inv_q));
    }
}
