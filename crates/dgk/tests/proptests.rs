//! Property-based tests for the DGK comparison protocol: thread-count
//! invariance of every data-parallel round message. The parallel paths
//! split work across seed-derived per-item RNG streams, so whatever the
//! worker count, each round-1/round-2 message must be bit-identical to
//! the sequential execution under the same caller seed. And route
//! invariance of round 1: the evaluator encrypts its bits as the key
//! holder, which must produce the bytes — and consume the draws — the
//! public route would have.

use dgk::comparison::{blinder_build_witnesses, evaluator_decide, evaluator_encrypt_bits};
use dgk::{DgkCiphertext, DgkKeypair, DgkParams};
use parallel::Parallelism;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One shared keypair: DGK keygen is the expensive part and the
/// properties quantify over compared values and seeds, not keys.
fn keypair() -> &'static DgkKeypair {
    use std::sync::OnceLock;
    static KP: OnceLock<DgkKeypair> = OnceLock::new();
    KP.get_or_init(|| {
        DgkKeypair::generate(&mut StdRng::seed_from_u64(913), &DgkParams::insecure_test())
    })
}

/// Keypairs at 128/24, 512/80 and 1024/160 bits: one-limb, four-limb
/// and eight-limb primes, with one-, two- and three-limb subgroup orders.
fn sized_keypairs() -> &'static [DgkKeypair] {
    use std::sync::OnceLock;
    static KPS: OnceLock<Vec<DgkKeypair>> = OnceLock::new();
    KPS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(914);
        [(128, 24, 26), (512, 80, 40), (1024, 160, 40)]
            .into_iter()
            .map(|(modulus_bits, subgroup_bits, compare_bits)| {
                let params = DgkParams { modulus_bits, subgroup_bits, compare_bits };
                DgkKeypair::generate(&mut rng, &params)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every parity suite pins frames by fingerprint and a resumed step
    /// re-derives its stream by position, so the key holder's route has
    /// to be indistinguishable from the public one on the wire and in
    /// the generator: equal ciphertext, equal next draw.
    #[test]
    fn key_holder_bit_encryption_matches_public_byte_for_byte(
        size in 0usize..3,
        bit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let kp = &sized_keypairs()[size];
        let mut rng_public = StdRng::seed_from_u64(seed);
        let mut rng_holder = StdRng::seed_from_u64(seed);
        let by_public = kp.public_key().encrypt_bit(bit, &mut rng_public);
        let by_holder = kp.private_key().encrypt_bit(bit, &mut rng_holder);
        prop_assert_eq!(by_holder.as_raw().to_le_bytes(), by_public.as_raw().to_le_bytes());
        prop_assert_eq!(rng_holder.gen::<u64>(), rng_public.gen::<u64>());
    }

    /// Round 1 as a whole is the message the public route built before
    /// the evaluator used its key: same per-position streams, same bytes,
    /// same caller-generator state — all-zero and all-one inputs included.
    #[test]
    fn round_one_is_the_public_routes_message(
        size in 0usize..3,
        raw_b in any::<u64>(),
        edge in 0u8..4,
        seed in any::<u64>(),
    ) {
        let kp = &sized_keypairs()[size];
        let pk = kp.public_key();
        let ell = pk.compare_bits();
        let max = (1u64 << ell) - 1;
        let b = match edge { 0 => 0, 1 => max, _ => raw_b & max };
        let seq = Parallelism::sequential();
        let mut rng_public = StdRng::seed_from_u64(seed);
        let mut rng_holder = StdRng::seed_from_u64(seed);
        let by_public = seq.map_n_seeded(ell as usize, &mut rng_public, |i, item_rng| {
            pk.encrypt_bit((b >> i) & 1 == 1, item_rng)
        });
        let by_holder =
            evaluator_encrypt_bits(b, kp.private_key(), &seq, &mut rng_holder).unwrap();
        prop_assert_eq!(by_holder.encrypted_bits, by_public);
        prop_assert_eq!(rng_holder.gen::<u64>(), rng_public.gen::<u64>());
    }

    #[test]
    fn round_messages_are_thread_count_invariant(
        raw_x in any::<u64>(),
        raw_y in any::<u64>(),
        threads in 2usize..9,
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let pk = kp.public_key();
        let mask = (1u64 << pk.compare_bits()) - 1;
        let (x, y) = (raw_x & mask, raw_y & mask);
        let seq = Parallelism::sequential();
        let par = Parallelism::new(threads);

        let mut rng_seq = StdRng::seed_from_u64(seed);
        let mut rng_par = StdRng::seed_from_u64(seed);
        let r1_seq = evaluator_encrypt_bits(x, kp.private_key(), &seq, &mut rng_seq).unwrap();
        let r1_par = evaluator_encrypt_bits(x, kp.private_key(), &par, &mut rng_par).unwrap();
        prop_assert_eq!(&r1_seq, &r1_par);

        let r2_seq = blinder_build_witnesses(y, &r1_seq, pk, &seq, &mut rng_seq).unwrap();
        let r2_par = blinder_build_witnesses(y, &r1_par, pk, &par, &mut rng_par).unwrap();
        prop_assert_eq!(&r2_seq, &r2_par);
        // Both executions drew the same number of values from the caller RNG.
        prop_assert_eq!(rng_seq.gen::<u64>(), rng_par.gen::<u64>());

        // The zero-test decision agrees between the parallel scan and the
        // sequential early-exit, and matches the protocol's meaning.
        let d_seq = evaluator_decide(&r2_seq, kp.private_key(), &seq).unwrap();
        let d_par = evaluator_decide(&r2_par, kp.private_key(), &par).unwrap();
        prop_assert_eq!(d_seq, d_par);
        prop_assert_eq!(d_par, y > x);
    }

    /// The batched zero test (one reused exponentiation scratch, CRT
    /// form) agrees with the per-item [`DgkPrivateKey::is_zero`] on every
    /// input.
    #[test]
    fn batched_zero_test_matches_per_item(
        raw in proptest::collection::vec(any::<u64>(), 0..24),
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let pk = kp.public_key();
        let sk = kp.private_key();
        let u = pk.plaintext_space().to_u64().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        // Every third slot forced to an encryption of zero so both
        // branches of the test see real traffic.
        let cs: Vec<DgkCiphertext> = raw
            .iter()
            .map(|&m| pk.encrypt_u64(if m % 3 == 0 { 0 } else { m % u }, &mut rng))
            .collect();
        let expect: Vec<bool> = cs.iter().map(|c| sk.is_zero(c).unwrap()).collect();
        prop_assert_eq!(sk.is_zero_batch(&cs).unwrap(), expect);
    }
}
