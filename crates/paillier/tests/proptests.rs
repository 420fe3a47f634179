//! Property-based tests for the Paillier scheme: homomorphic identities,
//! signed-codec ring arithmetic, fixed-point quantization bounds, and the
//! fixed-base (DJN) encryption path against the classical one.

use bigint::modular::{modmul, modpow};
use bigint::random;
use bigint::Ubig;
use paillier::{Ciphertext, Keypair, SignedCodec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One shared keypair for the whole suite: keygen is the expensive part and
/// the properties quantify over messages, not keys.
fn keypair() -> &'static Keypair {
    use std::sync::OnceLock;
    static KP: OnceLock<Keypair> = OnceLock::new();
    KP.get_or_init(|| Keypair::generate(&mut StdRng::seed_from_u64(99), 64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encrypt_decrypt_roundtrip(m in any::<u32>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = kp.public_key().encrypt(&Ubig::from(m as u64), &mut rng).unwrap();
        prop_assert_eq!(kp.private_key().decrypt_u64(&c), m as u64);
    }

    #[test]
    fn homomorphic_add_matches_plain(m1 in any::<u32>(), m2 in any::<u32>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let pk = kp.public_key();
        let c = pk.add(&pk.encrypt_u64(m1 as u64, &mut rng), &pk.encrypt_u64(m2 as u64, &mut rng));
        prop_assert_eq!(kp.private_key().decrypt_u64(&c), m1 as u64 + m2 as u64);
    }

    #[test]
    fn homomorphic_scalar_mul(m in any::<u16>(), a in any::<u16>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let pk = kp.public_key();
        let c = pk.mul_plain(&pk.encrypt_u64(m as u64, &mut rng), &Ubig::from(a as u64));
        prop_assert_eq!(kp.private_key().decrypt_u64(&c), m as u64 * a as u64);
    }

    #[test]
    fn signed_codec_add_roundtrip(x in -(1i64 << 40)..(1i64 << 40), y in -(1i64 << 40)..(1i64 << 40)) {
        let codec = SignedCodec::new(keypair().public_key());
        let ex = codec.encode_i64(x).unwrap();
        let ey = codec.encode_i64(y).unwrap();
        let sum = bigint::modular::modadd(&ex, &ey, codec.modulus());
        prop_assert_eq!(codec.decode_i64(&sum).unwrap(), x + y);
    }

    #[test]
    fn signed_homomorphic_subtraction(x in -(1i64 << 30)..(1i64 << 30), y in -(1i64 << 30)..(1i64 << 30), seed in any::<u64>()) {
        let kp = keypair();
        let codec = SignedCodec::new(kp.public_key());
        let mut rng = StdRng::seed_from_u64(seed);
        let pk = kp.public_key();
        let cx = pk.encrypt(&codec.encode_i64(x).unwrap(), &mut rng).unwrap();
        let cy = pk.encrypt(&codec.encode_i64(y).unwrap(), &mut rng).unwrap();
        let diff = kp.private_key().decrypt(&pk.sub(&cx, &cy)).unwrap();
        prop_assert_eq!(codec.decode_i64(&diff).unwrap(), x - y);
    }

    #[test]
    fn rerandomization_never_alters_plaintext(m in any::<u32>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let pk = kp.public_key();
        let c = pk.encrypt_u64(m as u64, &mut rng);
        let c2 = pk.rerandomize(&c, &mut rng);
        prop_assert_eq!(kp.private_key().decrypt_u64(&c2), m as u64);
    }
}

/// Keypairs at the test, mid and paper key sizes, generated once.
fn sized_keypairs() -> &'static [Keypair] {
    use std::sync::OnceLock;
    static KPS: OnceLock<Vec<Keypair>> = OnceLock::new();
    KPS.get_or_init(|| {
        [64, 512, 1024]
            .map(|bits| Keypair::generate(&mut StdRng::seed_from_u64(bits), bits))
            .to_vec()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn djn_ciphertexts_decrypt_and_combine_like_classical_ones(
        limbs in proptest::collection::vec(any::<u64>(), 0..17),
        scalar in any::<u64>(),
        seed in any::<u64>(),
    ) {
        for kp in sized_keypairs() {
            let (pk, sk) = (kp.public_key(), kp.private_key());
            let n = pk.modulus();
            let mut rng = StdRng::seed_from_u64(seed);
            let random_m = &Ubig::from_limbs(limbs.clone()) % n;
            // A classical r^n ciphertext of 1 to mix with.
            let classical = pk.encrypt_with_randomness(&Ubig::one(), &random::gen_coprime(&mut rng, n));
            for m in [Ubig::zero(), Ubig::one(), n - &Ubig::one(), random_m] {
                let c = pk.encrypt(&m, &mut rng).unwrap();
                prop_assert_eq!(&sk.decrypt(&c).unwrap(), &m);
                prop_assert_eq!(&sk.decrypt_crt(&c).unwrap(), &m);
                // Two encryptions of one message differ.
                prop_assert_ne!(&pk.encrypt(&m, &mut rng).unwrap(), &c);
                // Homomorphic identities hold across the two randomizer kinds.
                let m_plus_1 = &(&m + &Ubig::one()) % n;
                prop_assert_eq!(&sk.decrypt_crt(&pk.add(&c, &classical)).unwrap(), &m_plus_1);
                prop_assert_eq!(
                    sk.decrypt_crt(&pk.mul_plain(&c, &Ubig::from(scalar))).unwrap(),
                    modmul(&m, &Ubig::from(scalar), n)
                );
                prop_assert_eq!(sk.decrypt_crt(&pk.sub(&c, &c)).unwrap(), Ubig::zero());
                let again = pk.rerandomize(&c, &mut rng);
                prop_assert_ne!(&again, &c);
                prop_assert_eq!(&sk.decrypt_crt(&again).unwrap(), &m);
            }
        }
    }

    #[test]
    fn randomizer_is_the_fixed_base_raised_to_a_half_width_exponent(
        m in any::<u64>(),
        seed in any::<u64>(),
    ) {
        for kp in sized_keypairs() {
            let (pk, sk) = (kp.public_key(), kp.private_key());
            let (n, n2) = (pk.modulus(), pk.modulus_squared());
            prop_assert_eq!(pk.randomizer_bits(), n.bits().div_ceil(2));
            // hs is an n-th power: it decrypts to zero.
            let hs = Ciphertext::from_raw(pk.randomizer_base().clone());
            prop_assert_eq!(sk.decrypt(&hs).unwrap(), Ubig::zero());
            // Encryption draws exactly one ⌈|n|/2⌉-bit exponent x and
            // returns (1 + m·n)·hs^x, as the full-width ladder computes it.
            let m = &Ubig::from(m) % n;
            let c = pk.encrypt(&m, &mut StdRng::seed_from_u64(seed)).unwrap();
            let x = random::gen_bits(&mut StdRng::seed_from_u64(seed), pk.randomizer_bits());
            prop_assert!(x.bits() <= n.bits().div_ceil(2));
            let g_m = &(Ubig::one() + &m * n) % n2;
            prop_assert_eq!(c.as_raw(), &modmul(&g_m, &modpow(pk.randomizer_base(), &x, n2), n2));
            // Rerandomization multiplies by the same kind of power.
            let again = pk.rerandomize(&c, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(
                again.as_raw(),
                &modmul(c.as_raw(), &modpow(pk.randomizer_base(), &x, n2), n2)
            );
        }
    }
}
