//! Blind-and-Permute — Alg. 2 of the paper, batched.
//!
//! Input: S1 holds vectors of Paillier ciphertexts under **pk2**
//! (aggregated `a`-shares), S2 holds the matching vectors under **pk1**
//! (aggregated `b`-shares). Output: S1 holds the *plaintext* sequences
//! `π(a + r)`, S2 holds `π(b + r)`, where `π = π1∘π2` is known to neither
//! server in full and `r = r1 + r2` combines one secret scalar mask from
//! each server.
//!
//! Two fidelity notes (see DESIGN.md §5):
//!
//! * The per-vector masks `r1`, `r2` are **scalars broadcast across the
//!   K entries** — the paper's "common bias". Per-entry masks would break
//!   the cross-index comparisons of Eqn. 7 that step 4 runs on these
//!   outputs (the bias must cancel between positions `i` and `j`).
//! * The step-4 mask `r3` *is* per-entry: it only has to hide `b` from S1
//!   during the re-encryption bounce and is removed exactly.
//!
//! Every exponentiation below runs under a per-key cached Montgomery
//! context, and every encryption — under the peer's key or the server's
//! own — is the one [`paillier::PublicKey::encrypt`]: a fixed-base comb
//! power of the key's randomizer base.
//!
//! The batch form runs several vectors through one protocol instance with
//! the *same* `π1, π2` but independent masks — exactly what Alg. 5 step 3
//! needs (the vote sums and the noisy threshold sequence must share a
//! permutation).

use paillier::Ciphertext;
use rand::Rng;
use transport::{ByzantineAction, Endpoint, PartyId, Step};

use crate::audit::{transpose01, AuditTap};
use crate::error::SmcError;
use crate::permutation::Permutation;
use crate::session::ServerContext;

/// Result of a Blind-and-Permute run on one server: the masked plaintext
/// sequences (one per input vector, all permuted by the same hidden `π`)
/// and this server's own permutation share.
#[derive(Debug, Clone)]
pub struct BlindPermuteOutput {
    /// Masked sequences `π(x + r)`, one per input vector.
    pub sequences: Vec<Vec<i128>>,
    /// This server's secret permutation (`π1` on S1, `π2` on S2).
    pub own_permutation: Permutation,
}

fn expect_len<T>(v: &[T], expected: usize) -> Result<(), SmcError> {
    if v.len() == expected {
        Ok(())
    } else {
        Err(SmcError::LengthMismatch { expected, got: v.len() })
    }
}

/// S1's side of Alg. 2.
///
/// `enc_a` are the aggregated `a`-share vectors encrypted under pk2.
/// `tap` records the audit transcript (and carries any scheduled covert
/// deviation); pass [`AuditTap::disabled`] for unaudited runs.
///
/// # Errors
///
/// Fails on transport, cryptosystem or domain errors, and with
/// [`SmcError::AuditFailure`] when a challenge convicts the peer.
pub fn server1_blind_permute<R: Rng + ?Sized>(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    enc_a: &[Vec<Ciphertext>],
    step: Step,
    rng: &mut R,
    tap: &mut AuditTap,
) -> Result<BlindPermuteOutput, SmcError> {
    let k = ctx.config().num_classes;
    let m = enc_a.len();
    let domain = ctx.domain();
    let pk2 = ctx.peer_public();
    let codec1 = ctx.own_codec();
    let codec2 = ctx.peer_codec();
    let par = ctx.parallelism();
    tap.begin(endpoint)?;
    let mut pi1 = Permutation::random(k, rng);
    // One scalar mask per vector in the batch.
    let mut r1: Vec<i128> = (0..m).map(|_| domain.random_mask(rng)).collect();
    // Covert deviations replace the committed draws with tampered ones;
    // the tap attests to what is actually used, so a challenge replay
    // from the committed seed exposes the substitution.
    if tap.byzantine() == Some(ByzantineAction::TamperPermutation) {
        pi1 = transpose01(&pi1);
    }
    if tap.byzantine() == Some(ByzantineAction::DropMask) {
        r1[0] = 0;
    }
    tap.permutation(&pi1);
    tap.masks(&r1);

    // Step 1: send E_pk2[a + r1] to S2. The per-entry mask additions are
    // RNG-free homomorphic ops, fanned out across the K labels.
    let mut masked_a: Vec<Vec<Ciphertext>> = enc_a
        .iter()
        .zip(&r1)
        .map(|(vec, &mask)| {
            expect_len(vec, k)?;
            let mask_enc = codec2.encode_i128(mask)?;
            let add_par = par.with_item_cost_ns(crate::costs::paillier_add_cost_ns(pk2));
            Ok(add_par.map(vec, |_, c| pk2.add_plain(c, &mask_enc)))
        })
        .collect::<Result<_, SmcError>>()?;
    tap.record_sent(&masked_a);
    if tap.byzantine() == Some(ByzantineAction::Equivocate) {
        // Attest to the honest frame, put a different one on the wire.
        masked_a[0][0] = pk2.add_plain(&masked_a[0][0], &codec2.encode_i128(1)?);
    }
    endpoint.send(PartyId::Server2, step, &masked_a)?;

    // Step 2 happens on S2; receive π2(a + r1 + r2) in plaintext.
    let permuted_a: Vec<Vec<i128>> = endpoint.recv(PartyId::Server2, step)?;
    tap.record_received(&permuted_a);
    expect_len(&permuted_a, m)?;

    // Step 3: apply π1 — this is S1's output half. Send E_pk1[r1] to S2.
    let sequences: Vec<Vec<i128>> = permuted_a
        .iter()
        .map(|seq| {
            expect_len(seq, k)?;
            Ok(pi1.apply(seq))
        })
        .collect::<Result<_, SmcError>>()?;
    let enc_r1: Vec<Ciphertext> = par
        .with_item_cost_ns(crate::costs::paillier_encrypt_cost_ns(ctx.own_public()))
        .try_map_seeded(&r1, rng, |_, &mask, item_rng| {
            let encoded = codec1.encode_i128(mask)?;
            Ok::<_, SmcError>(ctx.own_public().encrypt(&encoded, item_rng)?)
        })?;
    tap.record_sent(&enc_r1);
    endpoint.send(PartyId::Server2, step, &enc_r1)?;

    // Step 4 happens on S2; receive E_pk1[π2(b+r1+r2)+r3] and E_pk2[−r3].
    let masked_b: Vec<Vec<Ciphertext>> = endpoint.recv(PartyId::Server2, step)?;
    let neg_r3: Vec<Vec<Ciphertext>> = endpoint.recv(PartyId::Server2, step)?;
    tap.record_received(&masked_b);
    tap.record_received(&neg_r3);
    expect_len(&masked_b, m)?;
    expect_len(&neg_r3, m)?;

    // Challenge-verify S2's opening before trusting anything it sent:
    // the decrypt-and-re-encrypt pass below consumes S2's frames.
    tap.verify_peer(endpoint, k, m, &domain)?;

    // Step 5: decrypt under sk1, re-encrypt under pk2, strip r3
    // homomorphically, permute with π1, return to S2. Each entry pays a
    // decrypt + encrypt, so the K labels fan out; only the re-encryption
    // draws randomness, one seed-derived stream per entry.
    let mut reencrypted: Vec<Vec<Ciphertext>> = Vec::with_capacity(m);
    for (vec, negs) in masked_b.iter().zip(&neg_r3) {
        expect_len(vec, k)?;
        expect_len(negs, k)?;
        let row: Vec<Ciphertext> = par
            .with_item_cost_ns(
                crate::costs::paillier_decrypt_cost_ns(ctx.own_public())
                    + crate::costs::paillier_encrypt_cost_ns(pk2),
            )
            .try_map_seeded(vec, rng, |i, c, item_rng| {
                let value = codec1.decode_i128(&ctx.own_private().decrypt_crt(c)?)?;
                let reenc = pk2.encrypt(&codec2.encode_i128(value)?, item_rng)?;
                Ok::<_, SmcError>(pk2.add(&reenc, &negs[i]))
            })?;
        reencrypted.push(pi1.apply(&row));
    }
    tap.record_sent(&reencrypted);
    if tap.byzantine() == Some(ByzantineAction::ReplayStaleFrame) {
        // Resend the step-1 frame in place of the re-encryption; it has
        // the same shape and decrypts cleanly, but is stale.
        endpoint.send(PartyId::Server2, step, &masked_a)?;
    } else {
        endpoint.send(PartyId::Server2, step, &reencrypted)?;
    }
    tap.flush_opening(endpoint)?;

    Ok(BlindPermuteOutput { sequences, own_permutation: pi1 })
}

/// S2's side of Alg. 2.
///
/// `enc_b` are the aggregated `b`-share vectors encrypted under pk1.
/// `tap` records the audit transcript (and carries any scheduled covert
/// deviation); pass [`AuditTap::disabled`] for unaudited runs.
///
/// # Errors
///
/// Fails on transport, cryptosystem or domain errors, and with
/// [`SmcError::AuditFailure`] when a challenge convicts the peer.
pub fn server2_blind_permute<R: Rng + ?Sized>(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    enc_b: &[Vec<Ciphertext>],
    step: Step,
    rng: &mut R,
    tap: &mut AuditTap,
) -> Result<BlindPermuteOutput, SmcError> {
    let k = ctx.config().num_classes;
    let m = enc_b.len();
    let domain = ctx.domain();
    let pk1 = ctx.peer_public();
    let codec1 = ctx.peer_codec();
    let codec2 = ctx.own_codec();
    let par = ctx.parallelism();
    tap.begin(endpoint)?;
    let mut pi2 = Permutation::random(k, rng);
    let mut r2: Vec<i128> = (0..m).map(|_| domain.random_mask(rng)).collect();
    if tap.byzantine() == Some(ByzantineAction::TamperPermutation) {
        pi2 = transpose01(&pi2);
    }
    if tap.byzantine() == Some(ByzantineAction::DropMask) {
        r2[0] = 0;
    }
    tap.permutation(&pi2);
    tap.masks(&r2);

    // Step 2: receive E_pk2[a + r1]; decrypt (RNG-free, fanned out across
    // the K labels), add r2, permute by π2, send the plaintext sequences
    // back.
    let masked_a: Vec<Vec<Ciphertext>> = endpoint.recv(PartyId::Server1, step)?;
    tap.record_received(&masked_a);
    expect_len(&masked_a, m)?;
    let mut permuted_a: Vec<Vec<i128>> = Vec::with_capacity(m);
    for (vec, &mask2) in masked_a.iter().zip(&r2) {
        expect_len(vec, k)?;
        let plain: Vec<i128> = par
            .with_item_cost_ns(crate::costs::paillier_decrypt_cost_ns(ctx.own_public()))
            .try_map(vec, |_, c| {
                Ok::<_, SmcError>(codec2.decode_i128(&ctx.own_private().decrypt_crt(c)?)? + mask2)
            })?;
        permuted_a.push(pi2.apply(&plain));
    }
    tap.record_sent(&permuted_a);
    if tap.byzantine() == Some(ByzantineAction::Equivocate) {
        permuted_a[0][0] += 1;
    }
    endpoint.send(PartyId::Server1, step, &permuted_a)?;

    // Step 4: receive E_pk1[r1]; build E_pk1[π2(b+r1+r2)+r3] and
    // E_pk2[−r3].
    let enc_r1: Vec<Ciphertext> = endpoint.recv(PartyId::Server1, step)?;
    tap.record_received(&enc_r1);
    expect_len(&enc_r1, m)?;
    let mut masked_b: Vec<Vec<Ciphertext>> = Vec::with_capacity(m);
    let mut neg_r3_enc: Vec<Vec<Ciphertext>> = Vec::with_capacity(m);
    for ((vec, enc_mask1), &mask2) in enc_b.iter().zip(&enc_r1).zip(&r2) {
        expect_len(vec, k)?;
        let mask2_enc = codec1.encode_i128(mask2)?;
        // Bias additions are RNG-free homomorphic ops: fan out per label.
        let add_par = par.with_item_cost_ns(crate::costs::paillier_add_cost_ns(pk1));
        let biased: Vec<Ciphertext> =
            add_par.map(vec, |_, c| pk1.add_plain(&pk1.add(c, enc_mask1), &mask2_enc));
        let permuted = pi2.apply(&biased);
        // Per-entry r3, applied after the permutation. The mask draws
        // stay on the caller's RNG (cheap); the homomorphic additions and
        // the −r3 encryptions fan out.
        let r3: Vec<i128> = (0..k).map(|_| domain.random_mask(rng)).collect();
        let row: Vec<Ciphertext> = add_par.try_map(&permuted, |i, c| {
            Ok::<_, SmcError>(pk1.add_plain(c, &codec1.encode_i128(r3[i])?))
        })?;
        masked_b.push(row);
        let negs: Vec<Ciphertext> = par
            .with_item_cost_ns(crate::costs::paillier_encrypt_cost_ns(ctx.own_public()))
            .try_map_seeded(&r3, rng, |_, &mask3, item_rng| {
                Ok::<_, SmcError>(ctx.own_public().encrypt(&codec2.encode_i128(-mask3)?, item_rng)?)
            })?;
        neg_r3_enc.push(negs);
    }
    endpoint.send(PartyId::Server1, step, &masked_b)?;
    tap.record_sent(&masked_b);
    tap.record_sent(&neg_r3_enc);
    if tap.byzantine() == Some(ByzantineAction::ReplayStaleFrame) {
        // Resend the masked-b frame in place of −r3; same shape, stale
        // content.
        endpoint.send(PartyId::Server1, step, &masked_b)?;
    } else {
        endpoint.send(PartyId::Server1, step, &neg_r3_enc)?;
    }
    tap.flush_opening(endpoint)?;

    // Step 6: receive E_pk2[π(b + r1 + r2)] and decrypt — S2's output.
    let final_enc: Vec<Vec<Ciphertext>> = endpoint.recv(PartyId::Server1, step)?;
    tap.record_received(&final_enc);
    expect_len(&final_enc, m)?;

    // Challenge-verify S1's opening before decrypting its output frame.
    tap.verify_peer(endpoint, k, m, &domain)?;
    let sequences: Vec<Vec<i128>> = final_enc
        .iter()
        .map(|vec| {
            expect_len(vec, k)?;
            par.with_item_cost_ns(crate::costs::paillier_decrypt_cost_ns(ctx.own_public()))
                .try_map(vec, |_, c| {
                    Ok::<_, SmcError>(codec2.decode_i128(&ctx.own_private().decrypt_crt(c)?)?)
                })
        })
        .collect::<Result<_, SmcError>>()?;

    Ok(BlindPermuteOutput { sequences, own_permutation: pi2 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure_sum::send_encrypted_vector;
    use crate::session::{SessionConfig, SessionKeys};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transport::Network;

    /// Runs a batched blind-and-permute over real channels and returns
    /// both outputs plus the original plain vectors.
    fn run(
        seed: u64,
        a_vectors: Vec<Vec<i128>>,
        b_vectors: Vec<Vec<i128>>,
    ) -> (BlindPermuteOutput, BlindPermuteOutput) {
        let k = a_vectors[0].len();
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = SessionKeys::generate(SessionConfig::test(1, k), &mut rng);
        let s1_ctx = keys.server1();
        let s2_ctx = keys.server2();
        let user_ctx = keys.user();

        let mut net = Network::new(1);
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        let user = net.take_endpoint(PartyId::User(0));

        // Feed the "aggregated" encrypted vectors through the user path:
        // a under pk2 (to S1), b under pk1 (to S2).
        for a in &a_vectors {
            send_encrypted_vector(
                &user,
                PartyId::Server1,
                Step::Setup,
                a,
                user_ctx.pk2(),
                user_ctx.parallelism(),
                &mut rng,
            )
            .unwrap();
        }
        for b in &b_vectors {
            send_encrypted_vector(
                &user,
                PartyId::Server2,
                Step::Setup,
                b,
                user_ctx.pk1(),
                user_ctx.parallelism(),
                &mut rng,
            )
            .unwrap();
        }

        std::thread::scope(|scope| {
            let h1 = scope.spawn(move || {
                let enc_a: Vec<Vec<paillier::Ciphertext>> = (0..a_vectors.len())
                    .map(|_| s1.recv(PartyId::User(0), Step::Setup).unwrap())
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed + 1);
                server1_blind_permute(
                    &mut s1,
                    &s1_ctx,
                    &enc_a,
                    Step::BlindPermute1,
                    &mut rng,
                    &mut AuditTap::disabled(),
                )
                .unwrap()
            });
            let h2 = scope.spawn(move || {
                let enc_b: Vec<Vec<paillier::Ciphertext>> = (0..b_vectors.len())
                    .map(|_| s2.recv(PartyId::User(0), Step::Setup).unwrap())
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed + 2);
                server2_blind_permute(
                    &mut s2,
                    &s2_ctx,
                    &enc_b,
                    Step::BlindPermute1,
                    &mut rng,
                    &mut AuditTap::disabled(),
                )
                .unwrap()
            });
            (h1.join().unwrap(), h2.join().unwrap())
        })
    }

    /// Recovers (π applied to totals, common bias) from one output pair:
    /// sorted(s1+s2) minus sorted(a+b) must be a constant vector 2r.
    fn common_bias(totals: &[i128], s1_seq: &[i128], s2_seq: &[i128]) -> i128 {
        let mut masked: Vec<i128> = s1_seq.iter().zip(s2_seq).map(|(x, y)| x + y).collect();
        let mut plain = totals.to_vec();
        masked.sort_unstable();
        plain.sort_unstable();
        let bias = masked[0] - plain[0];
        for (m, p) in masked.iter().zip(&plain) {
            assert_eq!(m - p, bias, "bias must be common across entries");
        }
        bias
    }

    #[test]
    fn outputs_are_masked_permutation_of_totals() {
        let a = vec![vec![3i128, -7, 100, 0, 42]];
        let b = vec![vec![10i128, 7, -50, 5, -2]];
        let totals: Vec<i128> = a[0].iter().zip(&b[0]).map(|(x, y)| x + y).collect();
        let (out1, out2) = run(77, a, b);
        let bias = common_bias(&totals, &out1.sequences[0], &out2.sequences[0]);
        assert!(bias >= 0, "masks are non-negative so the bias is too");
    }

    #[test]
    fn batch_vectors_share_the_same_permutation() {
        // Vector 0 is a marker (strictly increasing); vector 1 arbitrary.
        let a = vec![vec![0i128, 0, 0, 0], vec![5i128, -5, 17, 2]];
        let b = vec![vec![0i128, 100, 200, 300], vec![1i128, 2, 3, 4]];
        let totals0: Vec<i128> = a[0].iter().zip(&b[0]).map(|(x, y)| x + y).collect();
        let totals1: Vec<i128> = a[1].iter().zip(&b[1]).map(|(x, y)| x + y).collect();
        let (out1, out2) = run(78, a, b);

        let bias0 = common_bias(&totals0, &out1.sequences[0], &out2.sequences[0]);
        let bias1 = common_bias(&totals1, &out1.sequences[1], &out2.sequences[1]);

        // Infer the hidden permutation from the marker vector, then check
        // vector 1 was permuted identically.
        let masked0: Vec<i128> =
            out1.sequences[0].iter().zip(&out2.sequences[0]).map(|(x, y)| x + y).collect();
        let perm: Vec<usize> = masked0
            .iter()
            .map(|&v| totals0.iter().position(|&t| t + bias0 == v).expect("marker found"))
            .collect();
        let masked1: Vec<i128> =
            out1.sequences[1].iter().zip(&out2.sequences[1]).map(|(x, y)| x + y).collect();
        for (slot, &src) in perm.iter().enumerate() {
            assert_eq!(masked1[slot], totals1[src] + bias1, "vector 1 permuted differently");
        }
    }

    #[test]
    fn cross_index_differences_of_shares_are_preserved() {
        // Eqn. 7 correctness requirement: within one vector, the
        // difference between S1's entries at two permuted slots must equal
        // the difference of the underlying a-sums (masks cancel).
        let a = vec![vec![10i128, 20, 40, 80]];
        let b = vec![vec![1i128, 2, 3, 4]];
        let totals: Vec<i128> = a[0].iter().zip(&b[0]).map(|(x, y)| x + y).collect();
        let a_orig = a[0].clone();
        let (out1, out2) = run(79, a, b);

        // Recover the permutation via totals as above.
        let bias = common_bias(&totals, &out1.sequences[0], &out2.sequences[0]);
        let masked: Vec<i128> =
            out1.sequences[0].iter().zip(&out2.sequences[0]).map(|(x, y)| x + y).collect();
        let perm: Vec<usize> = masked
            .iter()
            .map(|&v| totals.iter().position(|&t| t + bias == v).expect("unique totals"))
            .collect();
        for i in 0..4 {
            for j in 0..4 {
                let lhs = out1.sequences[0][i] - out1.sequences[0][j];
                let rhs = a_orig[perm[i]] - a_orig[perm[j]];
                assert_eq!(lhs, rhs, "scalar mask must cancel across indices");
            }
        }
    }

    #[test]
    fn singleton_class_works() {
        let (out1, out2) = run(80, vec![vec![5i128]], vec![vec![7i128]]);
        assert_eq!(out1.sequences[0].len(), 1);
        let total = out1.sequences[0][0] + out2.sequences[0][0];
        assert!(total >= 12, "12 plus non-negative masks");
    }
}
