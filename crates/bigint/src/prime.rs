//! Primality testing (Miller–Rabin) and random prime generation.

use rand::Rng;

use crate::montgomery::{MontgomeryContext, PowScratch};
use crate::random::{gen_exact_bits, gen_range};
use crate::Ubig;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Deterministic Miller–Rabin witnesses for `n < 3.3 * 10^24` (covers all
/// values below 2^81); see Sorenson & Webster (2015).
const DETERMINISTIC_WITNESSES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// Number of random Miller–Rabin rounds for large candidates; error
/// probability is at most `4^-64`.
const RANDOM_ROUNDS: usize = 64;

/// Tests whether `n` is (very probably) prime.
///
/// Deterministic for `n < 2^81` via fixed witness sets; probabilistic with
/// 64 random rounds above (error `<= 4^-64`).
///
/// ```
/// use bigint::{prime, Ubig};
/// assert!(prime::is_prime(&Ubig::from(1_000_000_007u64), &mut rand::thread_rng()));
/// assert!(!prime::is_prime(&Ubig::from(1_000_000_008u64), &mut rand::thread_rng()));
/// ```
pub fn is_prime<R: Rng + ?Sized>(n: &Ubig, rng: &mut R) -> bool {
    if n < &Ubig::two() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if *n == p {
            return true;
        }
        if n.rem_limb(p) == 0 {
            return false;
        }
    }
    // Miller–Rabin: n − 1 = d·2^s with d odd. One Montgomery context and
    // one scratch serve every round of this candidate.
    let n_minus_1 = n - &Ubig::one();
    let s = n_minus_1.trailing_zeros().expect("n > 1 so n-1 > 0");
    let d = &n_minus_1 >> (s as u32);
    let ctx = MontgomeryContext::new(n).expect("survived trial division by 2, so odd and > 251");
    let mut ws = PowScratch::new();

    if n.bits() <= 81 {
        DETERMINISTIC_WITNESSES
            .iter()
            .all(|&a| ctx.is_strong_probable_prime(&Ubig::from(a), &d, s, &mut ws))
    } else {
        (0..RANDOM_ROUNDS).all(|_| {
            let a = gen_range(rng, &Ubig::two(), &n_minus_1);
            ctx.is_strong_probable_prime(&a, &d, s, &mut ws)
        })
    }
}

/// Generates a random prime with exactly `bits` bits.
///
/// ```
/// use bigint::{prime, Ubig};
/// let p = prime::gen_prime(&mut rand::thread_rng(), 32);
/// assert_eq!(p.bits(), 32);
/// assert!(prime::is_prime(&p, &mut rand::thread_rng()));
/// ```
///
/// # Panics
///
/// Panics if `bits < 2` (no primes below 2 bits).
pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> Ubig {
    assert!(bits >= 2, "smallest prime needs 2 bits");
    loop {
        let mut candidate = gen_exact_bits(rng, bits);
        candidate.set_bit(0, true); // force odd
        if is_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Generates a random prime `p` with exactly `bits` bits such that
/// `p ≡ 1 (mod m)` — i.e. `m | p - 1`. Used by DGK key generation, which
/// needs subgroups of prescribed order inside `Z_p^*`.
///
/// # Panics
///
/// Panics if `m` is zero, or if `bits` is too small to fit `k*m + 1`.
pub fn gen_prime_with_divisor<R: Rng + ?Sized>(rng: &mut R, bits: u64, m: &Ubig) -> Ubig {
    assert!(!m.is_zero(), "divisor must be positive");
    let m_bits = m.bits();
    assert!(bits > m_bits + 1, "bits ({bits}) must exceed divisor bits ({m_bits}) + 1");
    loop {
        // p = k*m + 1 with k sized so p has exactly `bits` bits.
        let k_bits = bits - m_bits;
        let k = gen_exact_bits(rng, k_bits);
        let candidate = &(&k * m) + &Ubig::one();
        if candidate.bits() != bits {
            continue;
        }
        if is_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Returns the smallest prime `>= n`.
///
/// ```
/// use bigint::{prime, Ubig};
/// assert_eq!(prime::next_prime(&Ubig::from(14u64), &mut rand::thread_rng()), Ubig::from(17u64));
/// ```
pub fn next_prime<R: Rng + ?Sized>(n: &Ubig, rng: &mut R) -> Ubig {
    let mut candidate = if n <= &Ubig::two() {
        return Ubig::two();
    } else if n.is_even() {
        n + &Ubig::one()
    } else {
        n.clone()
    };
    loop {
        if is_prime(&candidate, rng) {
            return candidate;
        }
        candidate = &candidate + &Ubig::two();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 97, 251, 257, 65537, 1_000_000_007];
        let composites = [0u64, 1, 4, 9, 91, 221, 65535, 1_000_000_008];
        for p in primes {
            assert!(is_prime(&Ubig::from(p), &mut r), "{p} is prime");
        }
        for c in composites {
            assert!(!is_prime(&Ubig::from(c), &mut r), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut r = rng();
        // Carmichael numbers fool the Fermat test but not Miller–Rabin.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&Ubig::from(c), &mut r), "{c} is a Carmichael number");
        }
    }

    #[test]
    fn mersenne_prime_2_89() {
        let mut r = rng();
        let p = (Ubig::one() << 89) - Ubig::one();
        assert!(is_prime(&p, &mut r));
        // 2^83 - 1 is composite.
        let c = (Ubig::one() << 83) - Ubig::one();
        assert!(!is_prime(&c, &mut r));
    }

    #[test]
    fn gen_prime_has_exact_bits() {
        let mut r = rng();
        for bits in [8u64, 16, 32, 48, 64] {
            let p = gen_prime(&mut r, bits);
            assert_eq!(p.bits(), bits);
            assert!(is_prime(&p, &mut r));
        }
    }

    #[test]
    fn gen_prime_with_divisor_constraint_holds() {
        let mut r = rng();
        let m = Ubig::from(2u64 * 3 * 227); // small composite divisor
        let p = gen_prime_with_divisor(&mut r, 40, &m);
        assert_eq!(p.bits(), 40);
        assert!(is_prime(&p, &mut r));
        assert!(((&p - &Ubig::one()) % &m).is_zero(), "m | p-1");
    }

    #[test]
    fn next_prime_steps_forward() {
        let mut r = rng();
        assert_eq!(next_prime(&Ubig::zero(), &mut r), Ubig::two());
        assert_eq!(next_prime(&Ubig::from(7u64), &mut r), Ubig::from(7u64));
        assert_eq!(next_prime(&Ubig::from(8u64), &mut r), Ubig::from(11u64));
        assert_eq!(next_prime(&Ubig::from(90u64), &mut r), Ubig::from(97u64));
    }

    #[test]
    fn distinct_primes_generated() {
        let mut r = rng();
        let p = gen_prime(&mut r, 32);
        let q = gen_prime(&mut r, 32);
        // Overwhelmingly likely; a fixed seed makes it deterministic.
        assert_ne!(p, q);
    }
}
