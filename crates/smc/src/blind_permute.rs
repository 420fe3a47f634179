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
//! The three frames whose receiver *decrypts* — `E_pk2[a + r1]`,
//! `E_pk1[π2(b+r1+r2)+r3]` and the final `E_pk2[π(b+r1+r2)]` — travel
//! slot-packed ([`crate::pack`]): the sender permutes, then folds the
//! whole batch into `⌈mK / slots⌉` ciphertexts, and the receiver decrypts
//! that many instead of `mK`. `E_pk1[r1]` and `E_pk2[−r3]` stay one
//! ciphertext per entry, because their receiver still has to add them to,
//! or permute them among, individual entries.
//!
//! The batch form runs several vectors through one protocol instance with
//! the *same* `π1, π2` but independent masks — exactly what Alg. 5 step 3
//! needs (the vote sums and the noisy threshold sequence must share a
//! permutation).

use paillier::Ciphertext;
use rand::rngs::StdRng;
use transport::Step;

use crate::error::SmcError;
use crate::machine::{decode, expect_len, from_peer, peer_of, Inbound, Machine, Next, Outbox};
use crate::pack::Packer;
use crate::permutation::Permutation;
use crate::session::{ServerContext, ServerRole};

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

/// Where a [`BlindPermute`] is in Alg. 2's six legs.
#[derive(Debug)]
enum Stage {
    Start,
    /// S1 sent `E_pk2[a + r1]`, waits for `π2(a + r1 + r2)`.
    PermutedA {
        pi1: Permutation,
        r1: Vec<i128>,
    },
    /// S1 sent `E_pk1[r1]`, waits for `E_pk1[π2(b+r1+r2)+r3]` …
    MaskedB {
        pi1: Permutation,
        sequences: Vec<Vec<i128>>,
    },
    /// … and then for `E_pk2[−r3]`.
    NegR3 {
        pi1: Permutation,
        sequences: Vec<Vec<i128>>,
        masked_b: Vec<Ciphertext>,
    },
    /// S2 waits for `E_pk2[a + r1]`.
    MaskedA {
        pi2: Permutation,
        r2: Vec<i128>,
    },
    /// S2 sent `π2(a + r1 + r2)`, waits for `E_pk1[r1]`.
    EncR1 {
        pi2: Permutation,
        r2: Vec<i128>,
    },
    /// S2 sent its two step-4 frames, waits for `E_pk2[π(b + r1 + r2)]`.
    Final {
        pi2: Permutation,
    },
    Finished,
}

/// One server's side of Alg. 2 over `enc`: on S1 the aggregated `a`-share
/// vectors encrypted under pk2, on S2 the `b`-share vectors under pk1.
///
/// # Errors
///
/// Resuming fails on transport, cryptosystem or domain errors.
#[derive(Debug)]
pub struct BlindPermute {
    enc: Vec<Vec<Ciphertext>>,
    step: Step,
    rng: StdRng,
    stage: Stage,
}

impl BlindPermute {
    /// Alg. 2 over `enc` under `step`, drawing from `rng`.
    pub fn new(enc: Vec<Vec<Ciphertext>>, step: Step, rng: StdRng) -> BlindPermute {
        BlindPermute { enc, step, rng, stage: Stage::Start }
    }

    /// Draws this server's permutation and one scalar mask per vector in
    /// the batch.
    fn draw(&mut self, ctx: &ServerContext) -> (Permutation, Vec<i128>) {
        let domain = ctx.domain();
        let pi = Permutation::random(ctx.config().num_classes, &mut self.rng);
        let r = (0..self.enc.len()).map(|_| domain.random_mask(&mut self.rng)).collect();
        (pi, r)
    }
}

impl Machine for BlindPermute {
    type Output = BlindPermuteOutput;

    fn resume(
        &mut self,
        ctx: &ServerContext,
        answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<BlindPermuteOutput>, SmcError> {
        let k = ctx.config().num_classes;
        let m = self.enc.len();
        let domain = ctx.domain();
        let (own, own_pk, peer_pk) = (ctx.own_codec(), ctx.own_public(), ctx.peer_public());
        let sk = ctx.own_private();
        // A frame its receiver decrypts is packed under the receiver's
        // key: what this server sends under the peer's, what it opens
        // under its own.
        let to_peer = Packer::new(ctx.config(), peer_pk)?;
        let to_own = Packer::new(ctx.config(), own_pk)?;
        let encrypt_par =
            |pk| ctx.parallelism().with_item_cost_ns(crate::costs::paillier_encrypt_cost_ns(pk));
        let (peer, step) = (peer_of(ctx.role()), self.step);
        match std::mem::replace(&mut self.stage, Stage::Finished) {
            Stage::Start if ctx.role() == ServerRole::Server1 => {
                let (pi1, r1) = self.draw(ctx);
                // Step 1: send E_pk2[a + r1] to S2, the whole batch packed
                // row after row; each row's scalar mask rides in with the
                // slot offsets.
                for vec in &self.enc {
                    expect_len(k, vec.len())?;
                }
                let masks: Vec<i128> =
                    r1.iter().flat_map(|&mask| std::iter::repeat_n(mask, k)).collect();
                out.send(peer, step, &to_peer.fold_masked(&self.enc.concat(), &masks)?);
                self.stage = Stage::PermutedA { pi1, r1 };
            }
            Stage::PermutedA { pi1, r1 } => {
                // Step 2 happened on S2; π2(a + r1 + r2) arrives in plaintext.
                let permuted_a: Vec<Vec<i128>> = decode(answer)?;
                expect_len(m, permuted_a.len())?;
                // Step 3: apply π1 — this is S1's output half. Send
                // E_pk1[r1] to S2.
                let sequences: Vec<Vec<i128>> = permuted_a
                    .iter()
                    .map(|seq| {
                        expect_len(k, seq.len())?;
                        Ok(pi1.apply(seq))
                    })
                    .collect::<Result<_, SmcError>>()?;
                let enc_r1: Vec<Ciphertext> = encrypt_par(own_pk).try_map_seeded(
                    &r1,
                    &mut self.rng,
                    |_, &mask, item_rng| {
                        Ok::<_, SmcError>(own_pk.encrypt(&own.encode_i128(mask)?, item_rng)?)
                    },
                )?;
                out.send(peer, step, &enc_r1);
                self.stage = Stage::MaskedB { pi1, sequences };
            }
            Stage::MaskedB { pi1, sequences } => {
                // Step 4 happened on S2: E_pk1[π2(b+r1+r2)+r3], packed …
                let masked_b: Vec<Ciphertext> = decode(answer)?;
                expect_len(to_own.frame_len(m * k), masked_b.len())?;
                self.stage = Stage::NegR3 { pi1, sequences, masked_b };
            }
            Stage::NegR3 { pi1, sequences, masked_b } => {
                // … and E_pk2[−r3], entry by entry: S1 has to permute them.
                let neg_r3: Vec<Vec<Ciphertext>> = decode(answer)?;
                expect_len(m, neg_r3.len())?;
                // Step 5: decrypt under sk1, permute with π1 in the clear,
                // re-encrypt the packed rows under pk2, strip r3 with the
                // π1-permuted −r3 entries folded into the same slots, and
                // return to S2. Only the re-encryption draws randomness,
                // one seed-derived stream per packed plaintext.
                let masked = to_own.open(sk, &masked_b, m * k)?;
                let (mut permuted, mut negs) = (Vec::new(), Vec::new());
                for (row, neg_row) in masked.chunks(k).zip(&neg_r3) {
                    expect_len(k, neg_row.len())?;
                    permuted.extend(pi1.apply(row));
                    negs.extend(pi1.apply(neg_row));
                }
                let reencrypted: Vec<Ciphertext> = encrypt_par(peer_pk)
                    .try_map_seeded(&to_peer.pack(&permuted)?, &mut self.rng, |_, plain, rng| {
                        Ok::<_, SmcError>(peer_pk.encrypt(plain, rng)?)
                    })?
                    .iter()
                    .zip(&to_peer.fold(&negs))
                    .map(|(reenc, neg)| peer_pk.add(reenc, neg))
                    .collect();
                out.send(peer, step, &reencrypted);
                return Ok(Next::Done(BlindPermuteOutput { sequences, own_permutation: pi1 }));
            }
            Stage::Start => {
                let (pi2, r2) = self.draw(ctx);
                self.stage = Stage::MaskedA { pi2, r2 };
            }
            Stage::MaskedA { pi2, r2 } => {
                // Step 2: receive E_pk2[a + r1]; decrypt, add r2, permute
                // by π2, send the plaintext sequences back.
                let masked_a = to_own.open(sk, &decode::<Vec<Ciphertext>>(answer)?, m * k)?;
                let permuted_a: Vec<Vec<i128>> = masked_a
                    .chunks(k)
                    .zip(&r2)
                    .map(|(row, &mask2)| {
                        pi2.apply(&row.iter().map(|v| v + mask2).collect::<Vec<i128>>())
                    })
                    .collect();
                out.send(peer, step, &permuted_a);
                self.stage = Stage::EncR1 { pi2, r2 };
            }
            Stage::EncR1 { pi2, r2 } => {
                // Step 4: receive E_pk1[r1]; build E_pk1[π2(b+r1+r2)+r3]
                // and E_pk2[−r3].
                let enc_r1: Vec<Ciphertext> = decode(answer)?;
                expect_len(m, enc_r1.len())?;
                let (mut permuted_b, mut masks) = (Vec::new(), Vec::new());
                let mut neg_r3: Vec<Vec<Ciphertext>> = Vec::with_capacity(m);
                for ((vec, enc_mask1), &mask2) in self.enc.iter().zip(&enc_r1).zip(&r2) {
                    expect_len(k, vec.len())?;
                    // r1 is only known encrypted, so it joins each entry
                    // before the permutation and the fold; r2 and the
                    // per-entry r3 (drawn after the permutation) go in
                    // with the slot offsets.
                    let biased: Vec<Ciphertext> =
                        vec.iter().map(|c| peer_pk.add(c, enc_mask1)).collect();
                    permuted_b.extend(pi2.apply(&biased));
                    let r3: Vec<i128> = (0..k).map(|_| domain.random_mask(&mut self.rng)).collect();
                    masks.extend(r3.iter().map(|&mask3| mask2 + mask3));
                    neg_r3.push(encrypt_par(own_pk).try_map_seeded(
                        &r3,
                        &mut self.rng,
                        |_, &mask3, item_rng| {
                            Ok::<_, SmcError>(own_pk.encrypt(&own.encode_i128(-mask3)?, item_rng)?)
                        },
                    )?);
                }
                out.send(peer, step, &to_peer.fold_masked(&permuted_b, &masks)?);
                out.send(peer, step, &neg_r3);
                self.stage = Stage::Final { pi2 };
            }
            Stage::Final { pi2 } => {
                // Step 6: receive E_pk2[π(b + r1 + r2)] and decrypt —
                // S2's output.
                let plain = to_own.open(sk, &decode::<Vec<Ciphertext>>(answer)?, m * k)?;
                let sequences = plain.chunks(k).map(<[i128]>::to_vec).collect();
                return Ok(Next::Done(BlindPermuteOutput { sequences, own_permutation: pi2 }));
            }
            Stage::Finished => panic!("blind-and-permute resumed after it ended"),
        }
        Ok(from_peer(ctx, step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_pair;
    use crate::secure_sum::encrypt_share_vector;
    use crate::session::{SessionConfig, SessionKeys};
    use rand::SeedableRng;

    /// Runs a batched blind-and-permute in memory and returns both
    /// outputs.
    fn run(
        seed: u64,
        a_vectors: Vec<Vec<i128>>,
        b_vectors: Vec<Vec<i128>>,
    ) -> (BlindPermuteOutput, BlindPermuteOutput) {
        let k = a_vectors[0].len();
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = SessionKeys::generate(SessionConfig::test(1, k), &mut rng);
        let (s1_ctx, s2_ctx, user_ctx) = (keys.server1(), keys.server2(), keys.user());

        // The "aggregated" encrypted vectors come off the user path: a
        // under pk2 (for S1), b under pk1 (for S2).
        let mut encrypt = |vectors: &[Vec<i128>], key| -> Vec<Vec<Ciphertext>> {
            let par = user_ctx.parallelism();
            vectors.iter().map(|v| encrypt_share_vector(v, key, par, &mut rng).unwrap()).collect()
        };
        let enc_a = encrypt(&a_vectors, user_ctx.pk2());
        let enc_b = encrypt(&b_vectors, user_ctx.pk1());

        let step = Step::BlindPermute1;
        let s1 = BlindPermute::new(enc_a, step, StdRng::seed_from_u64(seed + 1));
        let s2 = BlindPermute::new(enc_b, step, StdRng::seed_from_u64(seed + 2));
        run_pair((&s1_ctx, s1), (&s2_ctx, s2), Vec::new()).unwrap().outputs
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
