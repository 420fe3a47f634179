//! Restoration — Alg. 3 of the paper.
//!
//! After the noisy ranking, both servers know the *permuted* winner slot
//! `π(ĩ*)` but neither knows the double permutation `π = π1∘π2`. The
//! restoration protocol walks an encrypted indicator vector back through
//! both servers' permutation inverses, each leg masked so the other side
//! learns nothing it did not already know, until S2 holds the plain
//! indicator `e_{ĩ*}` — the true label index — which it then shares with
//! S1 (the protocol's public output).
//!
//! Message walk (masks `r1` from S1, `r2` from S2, both per-entry):
//!
//! 1. S2 encrypts `π(e)` under its own pk2, sends to S1;
//! 2. S1 applies `π1⁻¹`, homomorphically adds `r1`, returns
//!    `E_pk2[π2(e) + r1]`;
//! 3. S2 decrypts and sends back the plaintext `π2(e) + r1`;
//! 4. S1 strips `r1` and re-encrypts under its own pk1 → `E_pk1[π2(e)]`;
//! 5. S2 applies `π2⁻¹` and adds `r2` → `E_pk1[e + r2]`;
//! 6. S1 decrypts and returns the plaintext `e + r2`;
//! 7. S2 strips `r2`, reads off the winner index, and announces it.
//!
//! The frames of legs 2 and 5 are decrypted by their receiver, so they
//! travel slot-packed ([`crate::pack`]): `⌈K / slots⌉` ciphertexts and as
//! many decryptions. Legs 1 and 4 stay one ciphertext per entry — their
//! receiver permutes them. What legs 2 and 5 fold is the *receiver's own*
//! ciphertexts, so each packed ciphertext is re-randomized before it
//! leaves.

use paillier::{Ciphertext, PublicKey};
use rand::rngs::StdRng;
use transport::Step;

use crate::error::SmcError;
use crate::machine::{decode, expect_len, from_peer, peer_of, Inbound, Machine, Next, Outbox};
use crate::pack::Packer;
use crate::permutation::Permutation;
use crate::session::{ServerContext, ServerRole};

/// Where a [`Restoration`] is in Alg. 3's seven legs.
#[derive(Debug)]
enum Stage {
    Start,
    /// S1 waits for `E_pk2[π(e)]`.
    Indicator,
    /// S1 sent `E_pk2[π2(e) + r1]`, waits for the plaintext `π2(e) + r1`.
    PlainMasked {
        r1: Vec<i128>,
    },
    /// S1 sent `E_pk1[π2(e)]`, waits for `E_pk1[e + r2]`.
    MaskedE,
    /// S1 sent the plaintext `e + r2`, waits for the announcement.
    Winner,
    /// S2 sent `E_pk2[π(e)]`, waits for `E_pk2[π2(e) + r1]`.
    Masked,
    /// S2 sent the plaintext `π2(e) + r1`, waits for `E_pk1[π2(e)]`.
    EncPi2E,
    /// S2 sent `E_pk1[e + r2]`, waits for the plaintext `e + r2`.
    PlainE {
        r2: Vec<i128>,
    },
    Finished,
}

/// One server's side of restoration. `permutation` is the one this
/// server chose during the second Blind-and-Permute and `permuted_slot`
/// the winning slot `π(ĩ*)` both servers learned from the ranking (S2
/// starts the walk from it). Finishes with the true label index.
///
/// # Errors
///
/// Resuming fails on transport, cryptosystem or domain errors, if the
/// recovered vector is not a valid one-hot indicator, or if the announced
/// label is not a class index (either would mean a corrupted run).
#[derive(Debug)]
pub struct Restoration {
    permutation: Permutation,
    permuted_slot: usize,
    step: Step,
    rng: StdRng,
    stage: Stage,
}

impl Restoration {
    /// Alg. 3 under `step`, drawing from `rng`.
    pub fn new(
        permutation: Permutation,
        permuted_slot: usize,
        step: Step,
        rng: StdRng,
    ) -> Restoration {
        Restoration { permutation, permuted_slot, step, rng, stage: Stage::Start }
    }

    /// Draws this server's per-entry masks.
    fn draw_masks(&mut self, ctx: &ServerContext) -> Vec<i128> {
        let (k, domain) = (ctx.config().num_classes, ctx.domain());
        (0..k).map(|_| domain.random_mask(&mut self.rng)).collect()
    }
}

/// A leg-2 or leg-5 frame under fresh randomizers, one per packed
/// ciphertext.
///
/// The entries of such a frame are ciphertexts its receiver made itself.
/// Permuted, folded and plaintext-masked they still carry the randomizers
/// it chose: dividing the plaintext it decrypts out of the frame, and the
/// plaintexts it knows out of what it sent, leaves bare randomizers it
/// can match to positions — the sender's inverse permutation, and with
/// it the labels behind step 8's outcome bits.
fn rerandomized(key: &PublicKey, frame: &[Ciphertext], rng: &mut StdRng) -> Vec<Ciphertext> {
    frame.iter().map(|c| key.rerandomize(c, rng)).collect()
}

impl Machine for Restoration {
    type Output = usize;

    fn resume(
        &mut self,
        ctx: &ServerContext,
        answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<usize>, SmcError> {
        let k = ctx.config().num_classes;
        let (own, own_pk, peer_pk) = (ctx.own_codec(), ctx.own_public(), ctx.peer_public());
        let sk = ctx.own_private();
        // As in Blind-and-Permute: a frame its receiver decrypts is
        // packed under the receiver's key.
        let to_peer = Packer::new(ctx.config(), peer_pk)?;
        let to_own = Packer::new(ctx.config(), own_pk)?;
        let encrypt_par =
            ctx.parallelism().with_item_cost_ns(crate::costs::paillier_encrypt_cost_ns(own_pk));
        let (peer, step) = (peer_of(ctx.role()), self.step);
        let decode_k = |answer| -> Result<Vec<Ciphertext>, SmcError> {
            let vec: Vec<Ciphertext> = decode(answer)?;
            expect_len(k, vec.len())?;
            Ok(vec)
        };
        match std::mem::replace(&mut self.stage, Stage::Finished) {
            Stage::Start => {
                if ctx.role() == ServerRole::Server1 {
                    self.stage = Stage::Indicator;
                } else {
                    // Step 1: encrypted indicator at the permuted slot,
                    // under own pk2.
                    let mut indicator = vec![0i128; k];
                    indicator[self.permuted_slot] = 1;
                    let enc_indicator: Vec<Ciphertext> = encrypt_par.try_map_seeded(
                        &indicator,
                        &mut self.rng,
                        |_, &v, item_rng| {
                            Ok::<_, SmcError>(own_pk.encrypt(&own.encode_i128(v)?, item_rng)?)
                        },
                    )?;
                    out.send(peer, step, &enc_indicator);
                    self.stage = Stage::Masked;
                }
            }
            Stage::Indicator => {
                // Step 1 output from S2: E_pk2[π(e)]. Step 2: revert π1,
                // add per-entry mask r1 and pack for S2's one decryption.
                let reverted = self.permutation.inverse().apply(&decode_k(answer)?);
                let r1 = self.draw_masks(ctx);
                let masked = to_peer.fold_masked(&reverted, &r1)?;
                out.send(peer, step, &rerandomized(peer_pk, &masked, &mut self.rng));
                self.stage = Stage::PlainMasked { r1 };
            }
            Stage::PlainMasked { r1 } => {
                // Step 3 arrives in plaintext: π2(e) + r1. Step 4: strip
                // r1 and re-encrypt under own pk1 — one seed-derived RNG
                // stream per entry, fanned out.
                let plain_masked: Vec<i128> = decode(answer)?;
                expect_len(k, plain_masked.len())?;
                let enc_pi2_e: Vec<Ciphertext> = encrypt_par.try_map_seeded(
                    &plain_masked,
                    &mut self.rng,
                    |i, &v, item_rng| {
                        Ok::<_, SmcError>(own_pk.encrypt(&own.encode_i128(v - r1[i])?, item_rng)?)
                    },
                )?;
                out.send(peer, step, &enc_pi2_e);
                self.stage = Stage::MaskedE;
            }
            Stage::MaskedE => {
                // Step 5 output from S2: E_pk1[e + r2]; step 6: decrypt
                // and return.
                let plain = to_own.open(sk, &decode::<Vec<Ciphertext>>(answer)?, k)?;
                out.send(peer, step, &plain);
                self.stage = Stage::Winner;
            }
            Stage::Winner => {
                // Step 7: S2 announces the winner. Only a class index is
                // released as a label; anything else is protocol
                // corruption, as a malformed indicator is on S2.
                let winner = usize::try_from(decode::<u64>(answer)?).unwrap_or(usize::MAX);
                if winner >= k {
                    return Err(SmcError::LengthMismatch { expected: k, got: winner });
                }
                return Ok(Next::Done(winner));
            }
            Stage::Masked => {
                // Step 3: decrypt S1's masked, π1-reverted vector and
                // bounce it back in plaintext.
                let plain_masked = to_own.open(sk, &decode::<Vec<Ciphertext>>(answer)?, k)?;
                out.send(peer, step, &plain_masked);
                self.stage = Stage::EncPi2E;
            }
            Stage::EncPi2E => {
                // Step 5: revert π2 on the re-encrypted vector, add r2 and
                // pack for S1's one decryption.
                let reverted = self.permutation.inverse().apply(&decode_k(answer)?);
                let r2 = self.draw_masks(ctx);
                let masked_e = to_peer.fold_masked(&reverted, &r2)?;
                out.send(peer, step, &rerandomized(peer_pk, &masked_e, &mut self.rng));
                self.stage = Stage::PlainE { r2 };
            }
            Stage::PlainE { r2 } => {
                // Step 6 arrives in plaintext: e + r2. Step 7: strip r2
                // and read the indicator.
                let plain_e_masked: Vec<i128> = decode(answer)?;
                expect_len(k, plain_e_masked.len())?;
                let e: Vec<i128> = plain_e_masked.iter().zip(&r2).map(|(&v, &m)| v - m).collect();
                let nonzero = e.iter().filter(|&&v| v != 0).count();
                let Some(winner) = e.iter().position(|&v| v == 1).filter(|_| nonzero == 1) else {
                    // A malformed indicator means protocol corruption,
                    // not bad input.
                    return Err(SmcError::LengthMismatch { expected: 1, got: nonzero });
                };
                out.send(peer, step, &(winner as u64));
                return Ok(Next::Done(winner));
            }
            Stage::Finished => panic!("restoration resumed after it ended"),
        }
        Ok(from_peer(ctx, step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{run_pair, PairRun};
    use crate::session::{SessionConfig, SessionKeys};
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn keys() -> &'static SessionKeys {
        static KEYS: OnceLock<SessionKeys> = OnceLock::new();
        KEYS.get_or_init(|| {
            SessionKeys::generate(SessionConfig::test(1, 5), &mut StdRng::seed_from_u64(51))
        })
    }

    /// Runs restoration for a known joint permutation and target label.
    fn run(true_label: usize, seed: u64) -> PairRun<usize, usize> {
        let k = keys().config().num_classes;
        let (s1_ctx, s2_ctx) = (keys().server1(), keys().server2());
        let mut rng = StdRng::seed_from_u64(seed);
        let pi1 = Permutation::random(k, &mut rng);
        let pi2 = Permutation::random(k, &mut rng);
        // π = π1 ∘ π2; where does the true label land?
        let slot = pi1.compose(&pi2).apply_index(true_label);

        let step = Step::Restoration;
        let s1 = Restoration::new(pi1, slot, step, StdRng::seed_from_u64(seed + 1));
        let s2 = Restoration::new(pi2, slot, step, StdRng::seed_from_u64(seed + 2));
        run_pair((&s1_ctx, s1), (&s2_ctx, s2), Vec::new()).unwrap()
    }

    #[test]
    fn recovers_every_label() {
        for label in 0..5 {
            let (w1, w2) = run(label, 900 + label as u64).outputs;
            assert_eq!(w1, w2, "servers must agree");
            assert_eq!(w1, label, "restoration must invert the permutation");
        }
    }

    #[test]
    fn many_random_permutations() {
        for seed in 0..10u64 {
            let label = (seed % 5) as usize;
            let (w1, w2) = run(label, 1000 + seed * 13).outputs;
            assert_eq!((w1, w2), (label, label), "seed {seed}");
        }
    }

    #[test]
    fn restoration_is_seven_frames_under_its_step_tag() {
        let transcript = run(2, 3).transcript;
        assert_eq!(transcript.len(), 7);
        assert!(transcript.iter().all(|f| f.step == Step::Restoration && !f.payload.is_empty()));
    }
}
