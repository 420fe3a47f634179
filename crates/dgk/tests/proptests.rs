//! Property-based tests for the DGK comparison protocol: thread-count
//! invariance of every data-parallel round message. The parallel paths
//! split work across seed-derived per-item RNG streams, so whatever the
//! worker count, each round-1/round-2 message must be bit-identical to
//! the sequential execution under the same caller seed.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
        let r1_seq = evaluator_encrypt_bits(x, pk, &seq, &mut rng_seq).unwrap();
        let r1_par = evaluator_encrypt_bits(x, pk, &par, &mut rng_par).unwrap();
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
