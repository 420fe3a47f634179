//! Secure comparison of server-held signed values over channels — the one
//! DGK wire exchange in this crate.
//!
//! Wraps the DGK protocol (see [`dgk::comparison`]) in the form Alg. 5
//! needs: S1 privately holds `x`, S2 privately holds `y`, and both learn
//! the single bit `x ≥ y`. Following Eqn. 6/7 this decides both the vote
//! ranking (with `x = ã_i − ã_j`, `y = b̃_j − b̃_i`; see
//! [`crate::bracket`]) and the threshold check (with `x`, `y` the two
//! sides' threshold sequences at the winning slot).
//!
//! A *round* decides any number of independent matches `x_m ≥ y_m` in
//! exactly three messages:
//!
//! 1. S1 bit-encrypts every `x_m` and ships them in one message;
//! 2. S2 blinds one witness set per match against its `y_m` and ships
//!    them back in one message;
//! 3. S1 zero-tests the witness sets and broadcasts the outcome bits —
//!    `x ≥ y ⟺ ¬(y > x)`.
//!
//! The threshold check is the one-match round. Signed inputs are shifted
//! by the public domain offset before the bitwise protocol, which
//! preserves order. Every DGK operation (bit encryptions, blinding, zero
//! tests) runs on the key's cached Montgomery contexts and `g`/`h`
//! fixed-base combs (see [`dgk::DgkPublicKey::precompute`]). Each match
//! draws from its own seed-derived RNG stream, so both messages are
//! byte-identical at every thread count.
//!
//! Frames from the peer are checked before they are believed: a round-2
//! frame with the wrong number of witness sets, or a witness set that is
//! not exactly `ℓ` ciphertexts, has no zero in it and would otherwise
//! read as `x ≥ y`; both are typed errors on both servers.

use dgk::comparison::{
    blinder_build_witnesses, evaluator_decide, evaluator_encrypt_bits, BlindedWitnesses,
    EvaluatorBits,
};
use rand::rngs::StdRng;
use transport::Step;

use crate::costs;
use crate::error::SmcError;
use crate::machine::{decode, expect_len, from_peer, peer_of, Inbound, Machine, Next, Outbox};
use crate::session::{ServerContext, ServerRole};
use crate::Parallelism;

/// How one round of `matches` comparisons spends the server's workers:
/// `(across matches, within a match)`. A many-match round fans out over
/// its matches, a one-match round over that match's `ℓ` bit positions —
/// never both, so workers do not nest. Only chunking depends on this;
/// the RNG derivation (and hence every byte sent) does not.
fn fan_out(ctx: &ServerContext, matches: usize) -> (Parallelism, Parallelism) {
    let par = *ctx.parallelism();
    if matches > 1 {
        let leg = costs::dgk_compare_leg_cost_ns(ctx);
        (par.with_item_cost_ns(leg), Parallelism::sequential())
    } else {
        (Parallelism::sequential(), par)
    }
}

/// Where a [`CompareRound`] is in its three messages.
#[derive(Debug)]
enum Stage {
    Start,
    /// S1 sent its bit encryptions and waits for the witness sets.
    Witnesses,
    /// S2 waits for S1's bit encryptions.
    Bits,
    /// S2 sent its witness sets and waits for the outcome bits.
    Outcome,
    Finished,
}

/// One server's side of one comparison round. S1 holds `values = xs`, S2
/// holds `values = ys`; both finish with `xs[m] ≥ ys[m]` per match.
///
/// # Errors
///
/// Resuming fails if a value escapes the comparison domain, if the peer's
/// frames do not carry exactly one `ℓ`-bit encryption set / one
/// `ℓ`-witness set / one outcome bit per match, or on transport errors.
#[derive(Debug)]
pub struct CompareRound {
    values: Vec<i128>,
    step: Step,
    rng: StdRng,
    stage: Stage,
}

impl CompareRound {
    /// A round comparing `values` under `step`, drawing from `rng`.
    pub fn new(values: Vec<i128>, step: Step, rng: StdRng) -> CompareRound {
        CompareRound { values, step, rng, stage: Stage::Start }
    }

    /// Rearms a finished round over new `values`, continuing its RNG
    /// stream — how [`crate::bracket::Argmax`] plays round after round.
    pub(crate) fn restart(&mut self, values: Vec<i128>) {
        self.values = values;
        self.stage = Stage::Start;
    }
}

impl Machine for CompareRound {
    type Output = Vec<bool>;

    fn resume(
        &mut self,
        ctx: &ServerContext,
        answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<Vec<bool>>, SmcError> {
        let domain = ctx.domain();
        let (across, within) = fan_out(ctx, self.values.len());
        let (peer, step) = (peer_of(ctx.role()), self.step);
        match std::mem::replace(&mut self.stage, Stage::Finished) {
            Stage::Start if ctx.role() == ServerRole::Server1 => {
                let sk = ctx.dgk_keys().private_key();
                let round1: Vec<EvaluatorBits> =
                    across.try_map_seeded(&self.values, &mut self.rng, |_, &x, match_rng| {
                        let encoded = domain.encode_compare(x)?;
                        Ok::<_, SmcError>(evaluator_encrypt_bits(encoded, sk, &within, match_rng)?)
                    })?;
                out.send(peer, step, &round1);
                self.stage = Stage::Witnesses;
            }
            Stage::Start => self.stage = Stage::Bits,
            Stage::Witnesses => {
                let round2: Vec<BlindedWitnesses> = decode(answer)?;
                expect_len(self.values.len(), round2.len())?;
                let sk = ctx.dgk_keys().private_key();
                let geq: Vec<bool> = across.try_map(&round2, |_, witnesses| {
                    Ok::<_, SmcError>(!evaluator_decide(witnesses, sk, &within)?)
                })?;
                out.send(peer, step, &geq);
                return Ok(Next::Done(geq));
            }
            Stage::Bits => {
                let round1: Vec<EvaluatorBits> = decode(answer)?;
                expect_len(self.values.len(), round1.len())?;
                let pk = ctx.dgk_public();
                let round2: Vec<BlindedWitnesses> =
                    across.try_map_seeded(&self.values, &mut self.rng, |m, &y, match_rng| {
                        let encoded = domain.encode_compare(y)?;
                        Ok::<_, SmcError>(blinder_build_witnesses(
                            encoded, &round1[m], pk, &within, match_rng,
                        )?)
                    })?;
                out.send(peer, step, &round2);
                self.stage = Stage::Outcome;
            }
            Stage::Outcome => {
                let geq: Vec<bool> = decode(answer)?;
                expect_len(self.values.len(), geq.len())?;
                return Ok(Next::Done(geq));
            }
            Stage::Finished => panic!("comparison round resumed after it ended"),
        }
        Ok(from_peer(ctx, step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_pair;
    use crate::session::{SessionConfig, SessionKeys};
    use dgk::DgkError;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use transport::Wire;

    fn keys() -> &'static SessionKeys {
        static KEYS: OnceLock<SessionKeys> = OnceLock::new();
        KEYS.get_or_init(|| {
            SessionKeys::generate(SessionConfig::test(1, 2), &mut StdRng::seed_from_u64(31))
        })
    }

    fn round(values: Vec<i128>, step: Step, seed: u64) -> CompareRound {
        CompareRound::new(values, step, StdRng::seed_from_u64(seed))
    }

    fn run_round(xs: Vec<i128>, ys: Vec<i128>, seed: u64) -> (Vec<bool>, Vec<bool>) {
        let (s1_ctx, s2_ctx) = (keys().server1(), keys().server2());
        let s1 = round(xs, Step::CompareRank, seed);
        let s2 = round(ys, Step::CompareRank, seed + 1);
        run_pair((&s1_ctx, s1), (&s2_ctx, s2), Vec::new()).unwrap().outputs
    }

    /// Resumes `machine` with `frame` as the answer to its last request.
    fn feed<T: Wire>(
        machine: &mut CompareRound,
        ctx: &ServerContext,
        frame: &T,
    ) -> Result<Next<Vec<bool>>, SmcError> {
        machine.resume(ctx, Some(Ok((1, frame.to_bytes()))), &mut Outbox::default())
    }

    #[test]
    fn both_servers_agree_on_every_outcome() {
        let pairs = [(5i128, 3i128), (3, 5), (7, 7), (-10, 2), (2, -10), (-4, -4), (0, 0)];
        let expect: Vec<bool> = pairs.iter().map(|(x, y)| x >= y).collect();
        // All matches in one round, and each as its own one-match round.
        let (xs, ys) = pairs.iter().copied().unzip();
        assert_eq!(run_round(xs, ys, 100), (expect.clone(), expect.clone()));
        for (m, &(x, y)) in pairs.iter().enumerate() {
            let got = run_round(vec![x], vec![y], 200 + m as u64);
            assert_eq!(got, (vec![expect[m]], vec![expect[m]]), "({x}, {y})");
        }
    }

    #[test]
    fn near_domain_boundary() {
        let big = keys().config().domain.compare_offset() - 1;
        let (r1, _) = run_round(vec![big, -big, big], vec![-big, big, big], 7);
        assert_eq!(r1, vec![true, false, true]);
    }

    #[test]
    fn out_of_domain_rejected_locally() {
        let s1_ctx = keys().server1();
        let offset = s1_ctx.domain().compare_offset();
        let err = round(vec![offset], Step::CompareRank, 1)
            .resume(&s1_ctx, None, &mut Outbox::default())
            .unwrap_err();
        assert!(matches!(err, SmcError::Domain(_)));
    }

    #[test]
    fn a_round_is_three_messages_whatever_its_size() {
        for matches in [1usize, 4] {
            let (s1_ctx, s2_ctx) = (keys().server1(), keys().server2());
            let s1 = round(vec![9; matches], Step::ThresholdCheck, 2);
            let s2 = round(vec![4; matches], Step::ThresholdCheck, 3);
            let run = run_pair((&s1_ctx, s1), (&s2_ctx, s2), Vec::new()).unwrap();
            assert!(run.transcript.iter().all(|f| f.step == Step::ThresholdCheck));
            assert_eq!(run.transcript.len(), 3);
            // ℓ bit encryptions + ℓ witnesses per match — substantial traffic.
            let bytes: usize = run.transcript.iter().map(|f| f.payload.len()).sum();
            assert!(bytes > 100 * matches);
        }
    }

    /// Plays a hostile S2 against S1's machine: swallows S1's round 1 and
    /// answers with `forge(honest witness sets)`.
    fn s1_against_forged_round2(
        forge: impl FnOnce(Vec<BlindedWitnesses>) -> Vec<BlindedWitnesses>,
    ) -> SmcError {
        let s1_ctx = keys().server1();
        let pk = keys().server2().dgk_public().clone();
        // x < y on both matches: the honest reply holds a zero.
        let mut s1 = round(vec![1, 2], Step::CompareRank, 50);
        let mut out = Outbox::default();
        s1.resume(&s1_ctx, None, &mut out).unwrap();
        let round1 = Vec::<EvaluatorBits>::from_bytes(out.frames[0].payload.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(51);
        let honest: Vec<BlindedWitnesses> = round1
            .iter()
            .map(|bits| {
                let y = keys().config().domain.encode_compare(5).unwrap();
                blinder_build_witnesses(y, bits, &pk, &Parallelism::sequential(), &mut rng).unwrap()
            })
            .collect();
        feed(&mut s1, &s1_ctx, &forge(honest))
            .expect_err("a malformed frame must never yield an outcome")
    }

    #[test]
    fn s1_rejects_malformed_witness_frames() {
        // Wrong outer arity: a witness set dropped, one added, none at all.
        for forge in [
            (|mut w: Vec<BlindedWitnesses>| {
                w.pop();
                w
            }) as fn(Vec<BlindedWitnesses>) -> Vec<BlindedWitnesses>,
            |mut w| {
                w.push(w[0].clone());
                w
            },
            |_| Vec::new(),
        ] {
            let err = s1_against_forged_round2(forge);
            assert!(matches!(err, SmcError::LengthMismatch { expected: 2, .. }), "{err:?}");
        }
        // Wrong inner arity: a truncated and an empty witness set — no zero
        // left in them, which used to read as `x ≥ y`.
        for forge in [
            (|mut w: Vec<BlindedWitnesses>| {
                w[1].witnesses.truncate(1);
                w
            }) as fn(Vec<BlindedWitnesses>) -> Vec<BlindedWitnesses>,
            |mut w| {
                w[0].witnesses.clear();
                w
            },
        ] {
            let err = s1_against_forged_round2(forge);
            assert!(matches!(err, SmcError::Dgk(DgkError::MalformedCiphertext)), "{err:?}");
        }
    }

    #[test]
    fn s2_rejects_malformed_frames() {
        let s1_ctx = keys().server1();
        let par = Parallelism::sequential();
        let mut rng = StdRng::seed_from_u64(60);
        let bits =
            evaluator_encrypt_bits(3, s1_ctx.dgk_keys().private_key(), &par, &mut rng).unwrap();
        let short = EvaluatorBits { encrypted_bits: bits.encrypted_bits[..1].to_vec() };
        let s2_ctx = keys().server2();
        // S2's machine over two matches, waiting for round 1.
        let waiting = || {
            let mut s2 = round(vec![0, 0], Step::CompareRank, 61);
            s2.resume(&s2_ctx, None, &mut Outbox::default()).unwrap();
            s2
        };

        // Round 1 with the wrong number of matches, then with a short bit
        // vector inside the right number of matches.
        type Check = fn(&SmcError) -> bool;
        let cases: [(Vec<EvaluatorBits>, Check); 3] = [
            (vec![bits.clone()], |e| matches!(e, SmcError::LengthMismatch { expected: 2, got: 1 })),
            (Vec::new(), |e| matches!(e, SmcError::LengthMismatch { expected: 2, got: 0 })),
            (vec![bits.clone(), short], |e| {
                matches!(e, SmcError::Dgk(DgkError::MalformedCiphertext))
            }),
        ];
        for (round1, is_expected) in cases {
            let err = feed(&mut waiting(), &s2_ctx, &round1).unwrap_err();
            assert!(is_expected(&err), "{err:?}");
        }

        // An outcome vector that does not cover the round's matches.
        let mut s2 = waiting();
        feed(&mut s2, &s2_ctx, &vec![bits.clone(), bits]).unwrap();
        let err = feed(&mut s2, &s2_ctx, &vec![true]).unwrap_err();
        assert!(matches!(err, SmcError::LengthMismatch { expected: 2, got: 1 }), "{err:?}");
    }
}
