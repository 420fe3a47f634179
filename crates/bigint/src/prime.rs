//! Primality testing (Miller–Rabin) and random prime generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::montgomery::{MontgomeryContext, PowScratch};
use crate::random::{gen_exact_bits, gen_range};
use crate::Ubig;

/// Primes below `2^13`, in order: the sieve of the incremental prime
/// search. The first [`TRIAL_PRIMES`] of them are the trial divisors of
/// [`is_prime`].
static SIEVE_PRIMES: [u16; 1028] = {
    let mut composite = [false; 1 << 13];
    let mut primes = [0u16; 1028];
    let (mut n, mut count) = (2, 0);
    while n < composite.len() {
        if !composite[n] {
            primes[count] = n as u16;
            count += 1;
            let mut multiple = n * n;
            while multiple < composite.len() {
                composite[multiple] = true;
                multiple += n;
            }
        }
        n += 1;
    }
    assert!(count == primes.len());
    primes
};

/// Trial divisions (by the primes up to 251) before Miller–Rabin.
const TRIAL_PRIMES: usize = 54;

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
    for &p in &SIEVE_PRIMES[..TRIAL_PRIMES] {
        let p = u64::from(p);
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

/// Finds a prime `p ≡ residue (mod step)` with exactly `bits` bits: the
/// first one at or after a uniformly drawn point of that progression.
///
/// `start mod q` is computed once for each sieve prime `q` and kept up to
/// date by adding `step mod q`, so a candidate with a small factor is
/// discarded for a few word operations — before any Montgomery context
/// is built. Survivors go to [`is_prime`]. The sieve is one prime per
/// candidate bit (a Miller–Rabin round grows with the cube of the width,
/// the sieve linearly), never fewer than `is_prime`'s own trial
/// divisors and only primes below every candidate.
///
/// `step` must be even with `gcd(residue, step) = 1` and
/// `residue < step` (otherwise the progression holds no odd prime).
fn search_progression<R: Rng + ?Sized>(
    rng: &mut R,
    bits: u64,
    residue: &Ubig,
    step: &Ubig,
) -> Ubig {
    debug_assert!(step.is_even() && residue < step && crate::gcd::gcd(residue, step).is_one());
    let sieve = &SIEVE_PRIMES[..(bits as usize).clamp(TRIAL_PRIMES, SIEVE_PRIMES.len())];
    let sieve = &sieve[..sieve.partition_point(|&q| u64::from(q) >> (bits - 1).min(63) == 0)];
    // Per sieve prime q: (q, step mod q, candidate mod q).
    let mut walk: Vec<(u16, u16, u16)> =
        sieve.iter().map(|&q| (q, step.rem_limb(u64::from(q)) as u16, 0)).collect();
    loop {
        // Witnesses come from a stream of the search's own, so a search
        // takes the same few words from the caller however long it runs:
        // the luck of one key's primes does not reshuffle the next key.
        let mut witnesses = StdRng::seed_from_u64(rng.gen());
        let point = gen_exact_bits(rng, bits);
        let start = &(&point - &(&point % step)) + residue;
        for (q, _, r) in &mut walk {
            *r = start.rem_limb(u64::from(*q)) as u16;
        }
        for offset in 0u64.. {
            let mut clean = true;
            for (q, stride, r) in &mut walk {
                clean &= *r != 0;
                // Both below q < 2^13: no overflow.
                *r += *stride;
                if *r >= *q {
                    *r -= *q;
                }
            }
            if !clean {
                continue;
            }
            let candidate = &start + &(step * &Ubig::from(offset));
            match candidate.bits().cmp(&bits) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Greater => break,
                std::cmp::Ordering::Equal => {}
            }
            if is_prime(&candidate, &mut witnesses) {
                return candidate;
            }
        }
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
    search_progression(rng, bits, &Ubig::one(), &Ubig::two())
}

/// Generates a random prime `p ≡ 3 (mod 4)` with exactly `bits` bits —
/// the prime shape Damgård–Jurik–Nielsen Paillier keys are built from
/// (−1 is then a non-residue modulo `p`).
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn gen_prime_3mod4<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> Ubig {
    assert!(bits >= 2, "smallest prime needs 2 bits");
    search_progression(rng, bits, &Ubig::from(3u64), &Ubig::from(4u64))
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
    search_progression(rng, bits, &Ubig::one(), &crate::gcd::lcm(&Ubig::two(), m))
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
    fn progression_searches_hold_their_congruence_at_every_size() {
        type Search<'a> = &'a dyn Fn(&mut StdRng) -> Ubig;
        let m = Ubig::from(2u64 * 3 * 227);
        let odd_m = Ubig::from(89u64 * 227);
        for bits in [32u64, 64, 256, 512] {
            let searches: [(Search<'_>, u64, &Ubig); 4] = [
                (&|r| gen_prime(r, bits), 1, &Ubig::two()),
                (&|r| gen_prime_3mod4(r, bits), 3, &Ubig::from(4u64)),
                (&|r| gen_prime_with_divisor(r, bits, &m), 1, &m),
                (&|r| gen_prime_with_divisor(r, bits, &odd_m), 1, &odd_m),
            ];
            for (search, residue, modulus) in searches {
                let p = search(&mut StdRng::seed_from_u64(bits));
                assert_eq!(p.bits(), bits);
                assert!(is_prime(&p, &mut rng()), "{p} ≡ {residue} mod {modulus}");
                assert_eq!(&p % modulus, Ubig::from(residue), "{p} mod {modulus}");
                assert_eq!(search(&mut StdRng::seed_from_u64(bits)), p, "same prime per seed");
            }
        }
    }

    #[test]
    fn tiny_primes_are_not_sieved_away() {
        // Candidates as small as the sieve primes themselves.
        let mut r = rng();
        for bits in 2u64..=14 {
            for _ in 0..8 {
                let p = gen_prime(&mut r, bits);
                assert_eq!(p.bits(), bits);
                assert!(is_prime(&p, &mut r));
            }
            assert_eq!(gen_prime_3mod4(&mut r, bits).rem_limb(4), 3);
        }
    }

    #[test]
    fn sieve_table_is_the_primes_below_2_pow_13() {
        assert_eq!(SIEVE_PRIMES[..5], [2, 3, 5, 7, 11]);
        assert_eq!(SIEVE_PRIMES[TRIAL_PRIMES - 1], 251);
        assert_eq!(SIEVE_PRIMES[SIEVE_PRIMES.len() - 1], 8191);
        let mut r = rng();
        assert!(SIEVE_PRIMES.iter().all(|&q| is_prime(&Ubig::from(u64::from(q)), &mut r)));
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
