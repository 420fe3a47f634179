//! The DGK two-party secure comparison protocol.
//!
//! Party **B** (the *evaluator*) holds a private `ℓ`-bit integer `b` and
//! the DGK private key. Party **A** (the *blinder*) holds a private
//! `ℓ`-bit integer `a`. The protocol decides `a > b`:
//!
//! 1. **Round 1 (B → A):** B sends bitwise encryptions `E(b_i)` for
//!    `i = 0..ℓ`.
//! 2. **Round 2 (A → B):** for each bit position `i`, A homomorphically
//!    forms `c_i = E(a_i − b_i − 1 + 3·Σ_{j>i} (a_j ⊕ b_j))`. The value
//!    `c_i` is zero iff `a_i = 1, b_i = 0` and all higher bits agree —
//!    i.e. iff position `i` witnesses `a > b`. A blinds each `c_i` by a
//!    random exponent in `[1, u)` (zero stays zero, non-zero stays
//!    non-zero and uniform), rerandomizes, shuffles, and returns the list.
//! 3. **Finish (B):** B zero-tests every entry; some entry is zero iff
//!    `a > b`. In the consensus protocol the result bit is then shared
//!    with A (both servers are allowed to learn comparison outcomes).
//!
//! The round functions here are transport-agnostic (pure data in, message
//! out), so the `smc` crate can run them over real channels while tests
//! use the in-memory driver [`compare_gt_plain`].

use bigint::montgomery::PowScratch;
use bigint::{random, Ubig};
use parallel::Parallelism;
use rand::Rng;

use crate::error::DgkError;
use crate::keys::{DgkCiphertext, DgkKeypair, DgkPrivateKey, DgkPublicKey};

/// Round-1 message: the evaluator's encrypted bits, least significant
/// first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvaluatorBits {
    /// `E(b_0), …, E(b_{ℓ−1})`.
    pub encrypted_bits: Vec<DgkCiphertext>,
}

/// Round-2 message: the blinder's blinded, shuffled per-position
/// witnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlindedWitnesses {
    /// Blinded `E(r_i · c_i)` in random order.
    pub witnesses: Vec<DgkCiphertext>,
}

/// Rough wall-clock model (ns) for one protocol-step item costing
/// `products` Montgomery products over `Z_n`, used to hint
/// [`Parallelism`] splitting at the round call sites. The hint only
/// affects chunking; outputs stay bit-identical.
fn step_cost_ns(pk: &DgkPublicKey, products: u64) -> u64 {
    bigint::montgomery::mont_cost_ns(pk.modulus().bits(), 0, products.max(1))
}

/// Validates that `v` fits the protocol's `ℓ`-bit input domain.
fn check_width(v: u64, pk: &DgkPublicKey) -> Result<(), DgkError> {
    let max_bits = pk.compare_bits();
    let value_bits = 64 - v.leading_zeros() as u64;
    if value_bits > max_bits as u64 {
        return Err(DgkError::InputTooWide { value_bits, max_bits });
    }
    Ok(())
}

/// **Round 1** — run by the evaluator B: encrypt the bits of `b`, the `ℓ`
/// bit encryptions fanned out according to `par`. B is the key holder, so
/// each one is a [`DgkPrivateKey::encrypt_bit`] — the ciphertext a
/// stranger's [`DgkPublicKey::encrypt_bit`] would produce from the same
/// draws, at about a quarter of the limb products. Each bit draws its
/// randomness from its own seed-derived stream, so the message is
/// bit-identical for every thread count.
///
/// # Errors
///
/// Returns [`DgkError::InputTooWide`] if `b` does not fit `ℓ` bits.
pub fn evaluator_encrypt_bits<R: Rng + ?Sized>(
    b: u64,
    sk: &DgkPrivateKey,
    par: &Parallelism,
    rng: &mut R,
) -> Result<EvaluatorBits, DgkError> {
    let pk = sk.public_key();
    check_width(b, pk)?;
    let par = par.with_item_cost_ns(sk.encrypt_bit_cost_ns());
    let encrypted_bits = par.map_n_seeded(pk.compare_bits() as usize, rng, |i, item_rng| {
        sk.encrypt_bit((b >> i) & 1 == 1, item_rng)
    });
    Ok(EvaluatorBits { encrypted_bits })
}

/// **Round 2** — run by the blinder A: form, blind and shuffle the
/// per-position witnesses for `a > b`, the expensive per-position work
/// fanned out according to `par`.
///
/// The round splits into three stages:
/// 1. `xor_enc[j] = E(a_j ⊕ b_j)` — RNG-free, parallel.
/// 2. The suffix sums `E(Σ_{j>i} a_j ⊕ b_j)` — a chain of single modular
///    multiplications where each entry extends the previous, so it stays
///    sequential (parallelizing it would redo the prefix work per item).
/// 3. The per-position witness pipeline — the dominant cost, parallel,
///    each position on its own seed-derived RNG stream. The whole
///    algebraic chain `((E(b_i)^{u−1} · g^{a_i−1} · S^3))^r · h^{r'}`
///    folds into **one** interleaved multi-exponentiation
///    ([`bigint::montgomery::MontgomeryContext::modpow_multi`]) over the
///    bases `E(b_i)`, `g`, `S` with the blinding exponent `r`
///    pre-multiplied in, followed by a fixed-base `h^{r'}` power — one
///    shared squaring chain instead of three independent modpows.
///    `g`'s order is `u·v_p·v_q`, not `u`, so the folded exponent
///    `(a_i−1 mod u)·r` stays unreduced; the result is the same group
///    element the step-by-step pipeline produces, bit for bit.
///
/// The final Fisher–Yates shuffle consumes the caller's RNG in index
/// order and stays sequential. Output is bit-identical for every thread
/// count.
///
/// # Errors
///
/// Returns [`DgkError::InputTooWide`] if `a` does not fit `ℓ` bits, or
/// [`DgkError::MalformedCiphertext`] if the round-1 message has the wrong
/// arity.
pub fn blinder_build_witnesses<R: Rng + ?Sized>(
    a: u64,
    round1: &EvaluatorBits,
    pk: &DgkPublicKey,
    par: &Parallelism,
    rng: &mut R,
) -> Result<BlindedWitnesses, DgkError> {
    check_width(a, pk)?;
    let ell = pk.compare_bits() as usize;
    if round1.encrypted_bits.len() != ell {
        return Err(DgkError::MalformedCiphertext);
    }
    let u = pk.plaintext_space().clone();
    let u_minus_1 = &u - &Ubig::one();
    let three = Ubig::from(3u64);

    // xor_enc[j] = E(a_j ⊕ b_j): equals E(b_j) when a_j = 0, and
    // E(1 − b_j) = g · E(b_j)^{u−1} when a_j = 1 (one |u|-bit modpow).
    let xor_par = par.with_item_cost_ns(step_cost_ns(pk, 2 * pk.plaintext_space().bits()));
    let xor_enc: Vec<DgkCiphertext> = xor_par.map(&round1.encrypted_bits, |j, e_bj| {
        if (a >> j) & 1 == 0 {
            e_bj.clone()
        } else {
            pk.add_plain(&pk.neg(e_bj), &Ubig::one())
        }
    });

    // suffixes[i] = E(Σ_{j>i} a_j ⊕ b_j), with None encoding the empty
    // sum at the top position. Built top-down; each entry is one modular
    // multiplication on top of the previous.
    let mut suffixes: Vec<Option<DgkCiphertext>> = vec![None; ell];
    for i in (0..ell.saturating_sub(1)).rev() {
        suffixes[i] = Some(match &suffixes[i + 1] {
            None => xor_enc[i + 1].clone(),
            Some(s) => pk.add(s, &xor_enc[i + 1]),
        });
    }

    // Per-position witnesses, kept in the top-down order the sequential
    // loop produced: c_i = g^{a_i − 1} · E(b_i)^{u−1} · E(Σ_{j>i} w_j)^3,
    // blinded by a random unit of Z_u and rerandomized. With the blinding
    // exponent r folded in, each witness is one 3-way multi-exponentiation
    // with ~2|u|-bit exponents plus a fixed-base h^{r'} power.
    let ctx = pk.ctx_n();
    let order: Vec<usize> = (0..ell).rev().collect();
    let witness_par = par.with_item_cost_ns(pk.witness_cost_ns());
    let mut witnesses = witness_par.map_seeded(&order, rng, |_, &i, item_rng| {
        let a_i = (a >> i) & 1;
        // Plain part: a_i − 1 ∈ {−1, 0}, encoded mod u.
        let plain = if a_i == 1 { Ubig::zero() } else { u_minus_1.clone() };
        let r = random::gen_range(item_rng, &Ubig::one(), &u);
        // Exponents folded by r. The g exponent must stay unreduced: g's
        // order is u·v_p·v_q, so reducing plain·r mod u would change the
        // group element.
        let e_bit = &u_minus_1 * &r;
        let e_plain = &plain * &r;
        let e_suffix = &three * &r;
        let mut pairs: Vec<(&Ubig, &Ubig)> =
            vec![(round1.encrypted_bits[i].as_raw(), &e_bit), (pk.generator_g(), &e_plain)];
        if let Some(suffix) = &suffixes[i] {
            pairs.push((suffix.as_raw(), &e_suffix));
        }
        // The multi-exponentiation's result is the plain factor the
        // h^{r'} comb multiplies in with its last product.
        let blinded = DgkCiphertext::from_raw(ctx.modpow_multi(&pairs));
        pk.rerandomize(&blinded, item_rng)
    });

    // Fisher–Yates shuffle so B cannot tell which position witnessed.
    // Swap-order-dependent, so it stays on the caller's RNG.
    for i in (1..witnesses.len()).rev() {
        let j = rng.gen_range(0..=i);
        witnesses.swap(i, j);
    }
    Ok(BlindedWitnesses { witnesses })
}

/// **Finish** — run by the evaluator B: `a > b` iff some witness is zero.
///
/// The witnesses split into contiguous per-worker chunks according to
/// `par`, each chunk reusing one exponentiation scratch and stopping at
/// its first zero; the chunk verdicts are then scanned in index order, so
/// a zero at index `i` shadows any malformed ciphertext at index `> i` at
/// every thread count.
///
/// # Errors
///
/// Returns [`DgkError::MalformedCiphertext`] if the round-2 message does
/// not carry exactly `ℓ` witnesses — a short frame has no zero in it and
/// must not read as `a ≤ b` — and propagates it from the zero test.
pub fn evaluator_decide(
    round2: &BlindedWitnesses,
    sk: &DgkPrivateKey,
    par: &Parallelism,
) -> Result<bool, DgkError> {
    let ell = sk.public_key().compare_bits() as usize;
    if round2.witnesses.len() != ell {
        return Err(DgkError::MalformedCiphertext);
    }
    let workers = par.with_item_cost_ns(sk.zero_test_cost_ns()).workers_for(ell);
    let chunks: Vec<&[DgkCiphertext]> =
        round2.witnesses.chunks(ell.div_ceil(workers).max(1)).collect();
    // The split is already decided: one worker per chunk.
    let verdicts = Parallelism::new(chunks.len()).with_min_batch(1).map(&chunks, |_, slice| {
        let mut ws = PowScratch::new();
        for w in *slice {
            if sk.is_zero_scratch(w, &mut ws)? {
                return Ok(true);
            }
        }
        Ok(false)
    });
    for verdict in verdicts {
        if verdict? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// In-memory reference driver: runs all three steps locally. The
/// transport-layer version (two threads, real channels, byte accounting)
/// lives in the `smc` crate.
///
/// Returns `a > b`.
///
/// ```
/// use dgk::{comparison, DgkKeypair, DgkParams};
/// let mut rng = rand::thread_rng();
/// let keys = DgkKeypair::generate(&mut rng, &DgkParams::insecure_test());
/// assert!(comparison::compare_gt_plain(9, 4, &keys, &mut rng)?);
/// assert!(!comparison::compare_gt_plain(4, 9, &keys, &mut rng)?);
/// assert!(!comparison::compare_gt_plain(7, 7, &keys, &mut rng)?);
/// # Ok::<(), dgk::DgkError>(())
/// ```
///
/// # Errors
///
/// Propagates width and ciphertext errors from the individual rounds.
pub fn compare_gt_plain<R: Rng + ?Sized>(
    a: u64,
    b: u64,
    keys: &DgkKeypair,
    rng: &mut R,
) -> Result<bool, DgkError> {
    let par = Parallelism::sequential();
    let round1 = evaluator_encrypt_bits(b, keys.private_key(), &par, rng)?;
    let round2 = blinder_build_witnesses(a, &round1, keys.public_key(), &par, rng)?;
    evaluator_decide(&round2, keys.private_key(), &par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::DgkParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn keys() -> &'static DgkKeypair {
        static KEYS: OnceLock<DgkKeypair> = OnceLock::new();
        KEYS.get_or_init(|| {
            DgkKeypair::generate(&mut StdRng::seed_from_u64(21), &DgkParams::insecure_test())
        })
    }

    fn seq() -> Parallelism {
        Parallelism::sequential()
    }

    #[test]
    fn exhaustive_small_pairs() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(1);
        for a in 0..12u64 {
            for b in 0..12u64 {
                let got = compare_gt_plain(a, b, kp, &mut rng).unwrap();
                assert_eq!(got, a > b, "compare {a} > {b}");
            }
        }
    }

    #[test]
    fn boundary_values() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(2);
        let max = (1u64 << kp.public_key().compare_bits()) - 1;
        assert!(compare_gt_plain(max, 0, kp, &mut rng).unwrap());
        assert!(compare_gt_plain(max, max - 1, kp, &mut rng).unwrap());
        assert!(!compare_gt_plain(max, max, kp, &mut rng).unwrap());
        assert!(!compare_gt_plain(0, max, kp, &mut rng).unwrap());
        assert!(!compare_gt_plain(0, 0, kp, &mut rng).unwrap());
    }

    #[test]
    fn adjacent_values() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(3);
        for v in [0u64, 1, 100, 1000, 30000] {
            assert!(compare_gt_plain(v + 1, v, kp, &mut rng).unwrap());
            assert!(!compare_gt_plain(v, v + 1, kp, &mut rng).unwrap());
        }
    }

    #[test]
    fn too_wide_inputs_rejected() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(4);
        let over = 1u64 << kp.public_key().compare_bits();
        assert!(matches!(
            compare_gt_plain(over, 0, kp, &mut rng),
            Err(DgkError::InputTooWide { .. })
        ));
        assert!(matches!(
            evaluator_encrypt_bits(over, kp.private_key(), &seq(), &mut rng),
            Err(DgkError::InputTooWide { .. })
        ));
    }

    #[test]
    fn wrong_arity_round1_rejected() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(5);
        let short =
            EvaluatorBits { encrypted_bits: vec![kp.public_key().encrypt_bit(true, &mut rng)] };
        assert_eq!(
            blinder_build_witnesses(3, &short, kp.public_key(), &seq(), &mut rng),
            Err(DgkError::MalformedCiphertext)
        );
    }

    #[test]
    fn wrong_arity_round2_rejected() {
        // A truncated or empty witness list has no zero in it; it must be
        // a typed error, never "a ≤ b".
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(9);
        let r1 = evaluator_encrypt_bits(4, kp.private_key(), &seq(), &mut rng).unwrap();
        let full = blinder_build_witnesses(9, &r1, kp.public_key(), &seq(), &mut rng).unwrap();
        assert_eq!(evaluator_decide(&full, kp.private_key(), &seq()), Ok(true));
        for par in [seq(), Parallelism::new(4).with_min_batch(1)] {
            for keep in [0, 1, full.witnesses.len() - 1] {
                let short = BlindedWitnesses { witnesses: full.witnesses[..keep].to_vec() };
                assert_eq!(
                    evaluator_decide(&short, kp.private_key(), &par),
                    Err(DgkError::MalformedCiphertext),
                    "{keep} witnesses"
                );
            }
            let mut long = full.clone();
            long.witnesses.push(full.witnesses[0].clone());
            assert_eq!(
                evaluator_decide(&long, kp.private_key(), &par),
                Err(DgkError::MalformedCiphertext)
            );
        }
    }

    #[test]
    fn at_most_one_zero_witness() {
        // Structural sanity: for any pair there is at most one witnessing
        // position, so at most one zero among the blinded list.
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(6);
        for (a, b) in [(9u64, 4u64), (255, 254), (37, 21)] {
            let r1 = evaluator_encrypt_bits(b, kp.private_key(), &seq(), &mut rng).unwrap();
            let r2 = blinder_build_witnesses(a, &r1, kp.public_key(), &seq(), &mut rng).unwrap();
            let zeros =
                r2.witnesses.iter().filter(|w| kp.private_key().is_zero(w).unwrap()).count();
            assert_eq!(zeros, 1, "exactly one witness expected for {a} > {b}");
        }
    }

    #[test]
    fn witness_count_matches_width() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(7);
        let r1 = evaluator_encrypt_bits(5, kp.private_key(), &seq(), &mut rng).unwrap();
        let r2 = blinder_build_witnesses(3, &r1, kp.public_key(), &seq(), &mut rng).unwrap();
        assert_eq!(r2.witnesses.len(), kp.public_key().compare_bits() as usize);
    }

    #[test]
    fn parallel_round_messages_are_thread_count_invariant() {
        let kp = keys();
        for (a, b) in [(9u64, 4u64), (0, 0), (255, 254)] {
            let runs: Vec<(EvaluatorBits, BlindedWitnesses, bool)> = [1usize, 4]
                .into_iter()
                .map(|threads| {
                    let par = Parallelism::new(threads).with_min_batch(1);
                    let mut rng = StdRng::seed_from_u64(40);
                    let r1 = evaluator_encrypt_bits(b, kp.private_key(), &par, &mut rng).unwrap();
                    let r2 =
                        blinder_build_witnesses(a, &r1, kp.public_key(), &par, &mut rng).unwrap();
                    let gt = evaluator_decide(&r2, kp.private_key(), &par).unwrap();
                    (r1, r2, gt)
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{a} vs {b}");
            assert_eq!(runs[0].2, a > b);
        }
    }

    #[test]
    fn random_pairs_match_plain_comparison() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(8);
        let max = 1u64 << kp.public_key().compare_bits();
        for _ in 0..30 {
            let a = rng.gen_range(0..max);
            let b = rng.gen_range(0..max);
            assert_eq!(compare_gt_plain(a, b, kp, &mut rng).unwrap(), a > b, "{a} vs {b}");
        }
    }
}
