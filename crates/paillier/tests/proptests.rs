//! Property-based tests for the Paillier scheme: homomorphic identities,
//! signed-codec ring arithmetic, fixed-point quantization bounds, and
//! thread-count invariance of the data-parallel pool paths.

use bigint::Ubig;
use paillier::{FixedCodec, Keypair, RandomizerPool, SignedCodec};
use parallel::Parallelism;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    fn fixed_codec_roundtrip_bounded_error(v in -32768.0f64..32768.0) {
        let c = FixedCodec::paper();
        let enc = c.encode(v).unwrap();
        let err = (c.decode(enc) - v).abs();
        prop_assert!(err < c.resolution());
    }

    #[test]
    fn fixed_scaled_sums_linear(vs in proptest::collection::vec(-100.0f64..100.0, 1..20)) {
        let c = FixedCodec::paper();
        let total_scaled: i64 = vs.iter().map(|&v| c.to_scaled_i64(v).unwrap()).sum();
        let expect: f64 = vs.iter().map(|&v| (v * 65536.0).floor() / 65536.0).sum();
        prop_assert!((c.from_scaled_i64(total_scaled) - expect).abs() < 1e-9);
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

    #[test]
    fn pool_generation_is_thread_count_invariant(
        size in 1usize..12,
        threads in 2usize..9,
        seed in any::<u64>(),
    ) {
        // Sizes below the default min-batch (4) exercise the sequential
        // degenerate path; larger sizes genuinely split across workers.
        let pk = keypair().public_key().clone();
        let mut rng_seq = StdRng::seed_from_u64(seed);
        let mut rng_par = StdRng::seed_from_u64(seed);
        let seq =
            RandomizerPool::generate_with(pk.clone(), size, &Parallelism::sequential(), &mut rng_seq);
        let par =
            RandomizerPool::generate_with(pk.clone(), size, &Parallelism::new(threads), &mut rng_par);
        // Identical pools encrypt identical values to identical ciphertexts.
        let values: Vec<Ubig> = (0..size as u64).map(Ubig::from).collect();
        let c_seq = seq.encrypt_batch(&values, &Parallelism::sequential()).unwrap();
        let c_par = par.encrypt_batch(&values, &Parallelism::sequential()).unwrap();
        prop_assert_eq!(c_seq, c_par);
        // The caller RNG advanced by the same number of draws either way.
        prop_assert_eq!(rng_seq.gen::<u64>(), rng_par.gen::<u64>());
    }

    #[test]
    fn batch_encryption_is_thread_count_invariant(
        raw_values in proptest::collection::vec(any::<u32>(), 1..10),
        pool_size in 0usize..12,
        threads in 2usize..9,
        seed in any::<u64>(),
    ) {
        // Batches shorter than the pool exercise the pooled path, longer
        // ones the deterministic on-the-fly fallback; batches under the
        // min-batch threshold stay sequential regardless of `threads`.
        let pk = keypair().public_key().clone();
        let values: Vec<Ubig> = raw_values.iter().map(|&v| Ubig::from(v as u64)).collect();
        let pool_seq = RandomizerPool::generate_with(
            pk.clone(), pool_size, &Parallelism::sequential(), &mut StdRng::seed_from_u64(seed));
        let pool_par = RandomizerPool::generate_with(
            pk.clone(), pool_size, &Parallelism::sequential(), &mut StdRng::seed_from_u64(seed));
        let c_seq = pool_seq.encrypt_batch(&values, &Parallelism::sequential()).unwrap();
        let c_par = pool_par.encrypt_batch(&values, &Parallelism::new(threads)).unwrap();
        prop_assert_eq!(c_seq, c_par);
        prop_assert_eq!(pool_seq.fallback_generated(), pool_par.fallback_generated());
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
    fn own_key_encryption_matches_public_byte_for_byte(
        limbs in proptest::collection::vec(any::<u64>(), 0..17),
        seed in any::<u64>(),
    ) {
        // The factorization route to r^n must land on the same group
        // element and leave the RNG where the public route leaves it.
        for kp in sized_keypairs() {
            let (pk, sk) = (kp.public_key(), kp.private_key());
            let n = pk.modulus();
            for m in [Ubig::zero(), n - &Ubig::one(), &Ubig::from_limbs(limbs.clone()) % n] {
                let mut rng_pub = StdRng::seed_from_u64(seed);
                let mut rng_own = StdRng::seed_from_u64(seed);
                let public = pk.encrypt(&m, &mut rng_pub).unwrap();
                let own = sk.encrypt(&m, &mut rng_own).unwrap();
                prop_assert_eq!(own.as_raw().to_le_bytes(), public.as_raw().to_le_bytes());
                prop_assert_eq!(rng_own.gen::<u64>(), rng_pub.gen::<u64>());
                prop_assert_eq!(sk.decrypt_crt(&own).unwrap(), m);
            }
        }
    }
}
