//! Property-based tests for the bigint substrate, checked against `u128`
//! reference arithmetic and against algebraic identities for multi-limb
//! values.

use std::sync::Arc;

use bigint::gcd::{extended_gcd, gcd, lcm, modinv};
use bigint::modular::{modadd, modmul, modpow, modpow_basic, modsub};
use bigint::montgomery::{CachedContext, FixedBaseComb, MontgomeryContext};
use bigint::{Ibig, Ubig};
use proptest::prelude::*;

/// Strategy for an arbitrary multi-limb Ubig (0..2^256).
fn ubig() -> impl Strategy<Value = Ubig> {
    proptest::collection::vec(any::<u64>(), 0..4).prop_map(Ubig::from_limbs)
}

/// Strategy for a non-zero Ubig.
fn ubig_nonzero() -> impl Strategy<Value = Ubig> {
    ubig().prop_filter("non-zero", |v| !v.is_zero())
}

/// Strategy for an odd Montgomery-compatible modulus > 1, from a single
/// limb up to four limbs so the single-limb REDC path is exercised too.
fn odd_modulus() -> impl Strategy<Value = Ubig> {
    proptest::collection::vec(any::<u64>(), 1..4)
        .prop_map(|limbs| {
            let mut m = Ubig::from_limbs(limbs);
            m.set_bit(0, true);
            m
        })
        .prop_filter("> 1", |m| m > &Ubig::one())
}

/// Exponent strategy that keeps zero and tiny values likely while still
/// reaching multi-limb sizes.
fn exponent() -> impl Strategy<Value = Ubig> {
    proptest::collection::vec(any::<u64>(), 0..4).prop_map(|limbs| match limbs.len() {
        0 => Ubig::zero(),
        // Half the single-limb draws collapse to a tiny exponent (0..=3)
        // so exp = 0 and exp = 1 stay likely.
        1 if limbs[0] % 2 == 0 => Ubig::from((limbs[0] / 2) % 4),
        _ => Ubig::from_limbs(limbs),
    })
}

proptest! {
    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = a as u128 + b as u128;
        prop_assert_eq!((&Ubig::from(a) + &Ubig::from(b)).to_u128(), Some(sum));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = a as u128 * b as u128;
        prop_assert_eq!((&Ubig::from(a) * &Ubig::from(b)).to_u128(), Some(prod));
    }

    #[test]
    fn divrem_matches_u128(a in any::<u128>(), b in 1u128..) {
        let (q, r) = Ubig::from(a).div_rem(&Ubig::from(b));
        prop_assert_eq!(q.to_u128(), Some(a / b));
        prop_assert_eq!(r.to_u128(), Some(a % b));
    }

    #[test]
    fn add_commutative_associative(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative_associative(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn mul_distributes(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in ubig(), b in ubig()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn divrem_reconstructs(a in ubig(), b in ubig_nonzero()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shifts_roundtrip(a in ubig(), s in 0u32..200) {
        prop_assert_eq!(&(&a << s) >> s, a);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in ubig(), s in 0u32..100) {
        let pow = Ubig::one() << s;
        prop_assert_eq!(&a << s, &a * &pow);
    }

    #[test]
    fn decimal_roundtrip(a in ubig()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Ubig>().unwrap(), a);
    }

    #[test]
    fn hex_roundtrip(a in ubig()) {
        let s = a.to_str_radix(16);
        prop_assert_eq!(Ubig::from_str_radix(&s, 16).unwrap(), a);
    }

    #[test]
    fn bytes_roundtrip(a in ubig()) {
        prop_assert_eq!(Ubig::from_le_bytes(&a.to_le_bytes()), a);
    }

    #[test]
    fn gcd_divides_both(a in ubig_nonzero(), b in ubig_nonzero()) {
        let g = gcd(&a, &b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn gcd_lcm_product(a in 1u64.., b in 1u64..) {
        let (ba, bb) = (Ubig::from(a), Ubig::from(b));
        prop_assert_eq!(&gcd(&ba, &bb) * &lcm(&ba, &bb), &ba * &bb);
    }

    #[test]
    fn bezout_identity(a in ubig_nonzero(), b in ubig_nonzero()) {
        let (g, x, y) = extended_gcd(&a, &b);
        let lhs = &(&Ibig::from(a) * &x) + &(&Ibig::from(b) * &y);
        prop_assert_eq!(lhs, Ibig::from(g));
    }

    #[test]
    fn modinv_multiplies_to_one(a in 1u64.., ) {
        // Prime modulus guarantees invertibility of non-multiples.
        let m = Ubig::from(4_294_967_311u64); // prime > 2^32
        let a = Ubig::from(a);
        if (&a % &m).is_zero() { return Ok(()); }
        let inv = modinv(&a, &m).unwrap();
        prop_assert_eq!(modmul(&a, &inv, &m), Ubig::one());
    }

    #[test]
    fn modpow_adds_exponents(base in ubig_nonzero(), e1 in 0u64..64, e2 in 0u64..64, m in 2u64..) {
        let m = Ubig::from(m);
        let lhs = modpow(&base, &Ubig::from(e1 + e2), &m);
        let rhs = modmul(
            &modpow(&base, &Ubig::from(e1), &m),
            &modpow(&base, &Ubig::from(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modpow_dispatch_matches_basic(base in ubig(), exp in ubig(), m in ubig_nonzero()) {
        // The Montgomery fast path must be observationally identical to
        // the division-based reference, odd or even modulus alike.
        prop_assert_eq!(modpow(&base, &exp, &m), modpow_basic(&base, &exp, &m));
    }

    #[test]
    fn modular_ops_stay_reduced(a in ubig(), b in ubig(), m in ubig_nonzero()) {
        for v in [modadd(&a, &b, &m), modsub(&a, &b, &m), modmul(&a, &b, &m)] {
            prop_assert!(v < m);
        }
    }

    #[test]
    fn signed_arithmetic_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let (ba, bb) = (Ibig::from(a), Ibig::from(b));
        prop_assert_eq!((&ba + &bb).to_i128(), Some(a as i128 + b as i128));
        prop_assert_eq!((&ba - &bb).to_i128(), Some(a as i128 - b as i128));
        prop_assert_eq!((&ba * &bb).to_i128(), Some(a as i128 * b as i128));
    }

    #[test]
    fn rem_euclid_matches_i128(a in any::<i64>(), m in 1u64..) {
        let got = Ibig::from(a).rem_euclid(&Ubig::from(m));
        let expect = (a as i128).rem_euclid(m as i128) as u128;
        prop_assert_eq!(got.to_u128(), Some(expect));
    }

    #[test]
    fn low_bits_is_mod_pow2(a in ubig(), k in 0u64..200) {
        let m = Ubig::one() << (k as u32);
        prop_assert_eq!(a.low_bits(k), &a % &m);
    }

    #[test]
    fn cached_context_modpow_matches_basic(
        base in ubig(),
        exp in exponent(),
        m in odd_modulus(),
    ) {
        // The per-key cache must be transparent: first call populates the
        // cell, second call reuses it, both agree with the division-based
        // reference. Base is deliberately unreduced (may exceed m).
        let cached = CachedContext::new();
        let expect = modpow_basic(&base, &exp, &m);
        prop_assert_eq!(cached.modpow(&base, &exp, &m), expect.clone());
        prop_assert_eq!(cached.modpow(&base, &exp, &m), expect);
    }

    #[test]
    fn context_modpow_matches_basic(
        base in ubig(),
        exp in exponent(),
        m in odd_modulus(),
    ) {
        let ctx = MontgomeryContext::new(&m).unwrap();
        prop_assert_eq!(
            ctx.modpow(&(&base % &m), &exp),
            modpow_basic(&base, &exp, &m)
        );
    }

    #[test]
    fn fixed_base_comb_matches_basic(
        base in ubig(),
        exp in exponent(),
        m in odd_modulus(),
    ) {
        let ctx = Arc::new(MontgomeryContext::new(&m).unwrap());
        let comb = FixedBaseComb::new(ctx, &(&base % &m), 256);
        prop_assert_eq!(comb.pow(&exp), modpow_basic(&base, &exp, &m));
    }

    #[test]
    fn double_exp_matches_basic(
        g in ubig(),
        a in exponent(),
        h in ubig(),
        b in exponent(),
        m in odd_modulus(),
    ) {
        // Shamir/Straus simultaneous exponentiation vs. two independent
        // reference ladders combined with one modular multiply.
        let ctx = MontgomeryContext::new(&m).unwrap();
        let expect = modmul(
            &modpow_basic(&g, &a, &m),
            &modpow_basic(&h, &b, &m),
            &m,
        );
        prop_assert_eq!(
            ctx.modpow2(&(&g % &m), &a, &(&h % &m), &b),
            expect.clone()
        );

        // The fixed-base pairing (the DGK g^m * h^r shape) must agree too.
        let arc = Arc::new(ctx);
        let tg = FixedBaseComb::new(Arc::clone(&arc), &(&g % &m), 256);
        let th = FixedBaseComb::new(arc, &(&h % &m), 256);
        prop_assert_eq!(tg.pow_mul(&a, &th, &b), expect);
    }

    #[test]
    fn multi_exp_matches_iterated_modpow(
        pairs in proptest::collection::vec((ubig(), exponent()), 0..6),
        m in odd_modulus(),
    ) {
        // The k-ary Straus walk vs. folding k reference exponentiations
        // with modmul. Bases are deliberately unreduced, exponents are
        // biased toward zero/tiny, and the modulus reaches down to a
        // single limb, covering every dispatch edge.
        let ctx = MontgomeryContext::new(&m).unwrap();
        let refs: Vec<(&Ubig, &Ubig)> = pairs.iter().map(|(b, e)| (b, e)).collect();
        let mut expect = &Ubig::one() % &m;
        for (b, e) in &pairs {
            expect = modmul(&expect, &modpow_basic(b, e, &m), &m);
        }
        prop_assert_eq!(ctx.modpow_multi(&refs), expect);
    }

    #[test]
    fn scratch_modpow_matches_basic(
        base in ubig(),
        exps in proptest::collection::vec(exponent(), 1..4),
        m in odd_modulus(),
    ) {
        // One PowScratch reused across several exponentiations must be
        // invisible: every result identical to the allocation-per-call
        // reference.
        let ctx = MontgomeryContext::new(&m).unwrap();
        let mut ws = bigint::montgomery::PowScratch::new();
        for e in &exps {
            prop_assert_eq!(
                ctx.modpow_with_scratch(&base, e, &mut ws),
                modpow_basic(&base, e, &m)
            );
        }
    }
}

/// Limb widths the Montgomery kernel is pinned at: both sides of every
/// power of two up to the 4096-bit `n²` of a 2048-bit Paillier key, so
/// the fused row pairs, the odd tail row and the one-limb case all run.
const KERNEL_WIDTHS: [usize; 15] = [1, 2, 3, 4, 5, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65];

/// A `k`-limb value chosen to stress carry propagation.
fn hostile(pattern: u8, k: usize, seed: u64) -> Ubig {
    let mut state = seed;
    let mut next = || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let limbs: Vec<u64> = match pattern % 4 {
        // Saturated: every limb product and every carry is maximal.
        0 => vec![u64::MAX; k],
        // A lone top bit over zero limbs.
        1 => (0..k).map(|i| if i + 1 == k { 1 << 63 } else { 0 }).collect(),
        // Interior zero limbs between saturated and random ones.
        2 => (0..k)
            .map(|i| match i % 3 {
                0 => u64::MAX,
                1 => 0,
                _ => next(),
            })
            .collect(),
        _ => (0..k).map(|_| next()).collect(),
    };
    Ubig::from_limbs(limbs)
}

/// An odd `k`-limb modulus (top limb non-zero) from a hostile pattern.
fn hostile_modulus(pattern: u8, k: usize, seed: u64) -> Ubig {
    let mut m = hostile(pattern, k, seed);
    m.set_bit(0, true);
    m.set_bit(64 * k as u64 - 1, true);
    m
}

proptest! {
    // Every case walks all fifteen widths; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn kernel_product_square_and_redc_match_division_path(
        pat_n in 0u8..4, pat_a in 0u8..4, pat_b in 0u8..4, seed in any::<u64>(),
    ) {
        for k in KERNEL_WIDTHS {
            let n = hostile_modulus(pat_n, k, seed);
            let ctx = MontgomeryContext::new(&n).unwrap();
            let r = &(Ubig::one() << (64 * k as u32)) % &n;
            let n_minus_1 = &n - &Ubig::one();
            let a = &hostile(pat_a, k, seed ^ 1) % &n;
            let b = &hostile(pat_b, k, seed ^ 2) % &n;
            for (x, y) in [(&a, &b), (&a, &n_minus_1), (&n_minus_1, &n_minus_1)] {
                let (xm, ym) = (ctx.to_mont(x), ctx.to_mont(y));
                // REDC: into and out of Montgomery form is the identity,
                // and from_mont divides by R.
                prop_assert_eq!(&ctx.from_mont(&xm), x, "roundtrip k={}", k);
                prop_assert_eq!(&modmul(&ctx.from_mont(x), &r, &n), x, "redc k={}", k);
                // Product.
                prop_assert_eq!(
                    ctx.from_mont(&ctx.mul_mont(&xm, &ym)), modmul(x, y, &n), "product k={}", k
                );
                // Equal by value, distinct by reference: still a product.
                let xm_copy = xm.clone();
                prop_assert_eq!(
                    ctx.from_mont(&ctx.mul_mont(&xm, &xm_copy)), modmul(x, x, &n), "a·a k={}", k
                );
                // The dedicated squaring: exponent 2 walks the ladder as
                // 1²·x, then x² — one squaring of a non-trivial value.
                prop_assert_eq!(ctx.modpow(x, &Ubig::two()), modmul(x, x, &n), "square k={}", k);
            }
        }
    }

    #[test]
    fn kernel_exponentiation_entry_points_match_basic(
        pat_n in 0u8..4, pat_g in 0u8..4, pat_e in 0u8..4, seed in any::<u64>(),
    ) {
        let mut ws = bigint::montgomery::PowScratch::new();
        for k in KERNEL_WIDTHS {
            let n = hostile_modulus(pat_n, k, seed);
            let ctx = Arc::new(MontgomeryContext::new(&n).unwrap());
            // Unreduced bases: one limb wider than the modulus.
            let g = hostile(pat_g, k + 1, seed ^ 3);
            let h = &n - &Ubig::one();
            // One exponent per path: binary ladder (< 64 bits) and 4-bit
            // windows; saturated exponents hit digit 15 everywhere, the
            // lone top bit hits runs of zero digits.
            let short = hostile(pat_e, 1, seed ^ 4) >> 7;
            let wide = hostile(pat_e, 2, seed ^ 5) >> 3;
            for e in [&short, &wide] {
                let g_e = modpow_basic(&g, e, &n);
                prop_assert_eq!(&ctx.modpow(&g, e), &g_e, "modpow k={}", k);
                prop_assert_eq!(&ctx.modpow_with_scratch(&g, e, &mut ws), &g_e, "scratch k={}", k);
                let h_s = modpow_basic(&h, &short, &n);
                let both = modmul(&g_e, &h_s, &n);
                prop_assert_eq!(&ctx.modpow2(&g, e, &h, &short), &both, "modpow2 k={}", k);
                prop_assert_eq!(
                    &ctx.modpow_multi(&[(&g, e), (&h, &short)]), &both, "modpow_multi k={}", k
                );
                let tg = FixedBaseComb::new(Arc::clone(&ctx), &g, 128);
                let th = FixedBaseComb::new(Arc::clone(&ctx), &h, 64);
                prop_assert_eq!(&tg.pow(e), &g_e, "fixed-base k={}", k);
                prop_assert_eq!(&tg.pow_mul(e, &th, &short), &both, "fixed-base pair k={}", k);
            }
        }
    }

    #[test]
    fn comb_matches_both_ladders_at_every_width_and_exponent_edge(
        pat_n in 0u8..4, pat_g in 0u8..4, pat_e in 0u8..4, seed in any::<u64>(),
    ) {
        // One comb width per geometry: a single row, two rows, the first
        // width whose last row is partly empty, and a full 6-row comb.
        let widths = (1..=9).chain([15, 16, 17, 31, 32, 33, 63, 64, 65]);
        for (k, exp_bits) in widths.zip([1u64, 7, 33, 64].into_iter().cycle()) {
            let n = hostile_modulus(pat_n, k, seed);
            let ctx = Arc::new(MontgomeryContext::new(&n).unwrap());
            let g = hostile(pat_g, k + 1, seed ^ 6);
            let comb = FixedBaseComb::new(Arc::clone(&ctx), &g, exp_bits);
            let full = comb.max_exp_bits();
            prop_assert!(full >= exp_bits);
            let all_ones = (Ubig::one() << full as u32) - Ubig::one();
            let mut exactly_full = &hostile(pat_e, 2, seed ^ 7) % &all_ones;
            exactly_full.set_bit(full - 1, true);
            // One bit wider than the table: the modpow fallback.
            let too_wide = &all_ones + &Ubig::one();
            for e in [Ubig::zero(), Ubig::one(), all_ones.clone(), exactly_full, too_wide] {
                let expect = modpow_basic(&g, &e, &n);
                prop_assert_eq!(&comb.pow(&e), &expect, "comb k={} e={}", k, &e);
                prop_assert_eq!(&ctx.modpow(&g, &e), &expect, "modpow k={} e={}", k, &e);
            }
        }
    }
}
