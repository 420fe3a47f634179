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
use rand::Rng;
use transport::{Endpoint, PartyId, Step};

use crate::costs;
use crate::error::SmcError;
use crate::session::ServerContext;
use crate::Parallelism;

/// How one round of `matches` comparisons spends the server's workers:
/// `(across matches, within a match)`. A many-match round fans out over
/// its matches, a one-match round over that match's `ℓ` bit positions —
/// never both, so workers do not nest. Only chunking depends on this;
/// the RNG derivation (and hence every byte sent) does not.
fn fan_out(ctx: &ServerContext, matches: usize) -> (Parallelism, Parallelism) {
    let par = *ctx.parallelism();
    if matches > 1 {
        let leg = costs::dgk_compare_leg_cost_ns(ctx.dgk_public());
        (par.with_item_cost_ns(leg), Parallelism::sequential())
    } else {
        (Parallelism::sequential(), par)
    }
}

fn check_len(expected: usize, got: usize) -> Result<(), SmcError> {
    if got == expected {
        Ok(())
    } else {
        Err(SmcError::LengthMismatch { expected, got })
    }
}

/// S1's side of one comparison round: compares each own `xs[m]` against
/// S2's hidden `ys[m]`; returns `xs[m] ≥ ys[m]` per match.
///
/// # Errors
///
/// Fails if an `x` escapes the comparison domain, if S2's reply does not
/// carry exactly one `ℓ`-witness set per match, or on transport errors.
pub fn server1_compare_batch<R: Rng + ?Sized>(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    xs: &[i128],
    step: Step,
    rng: &mut R,
) -> Result<Vec<bool>, SmcError> {
    let keys = ctx.dgk_keys();
    let domain = ctx.domain();
    let (across, within) = fan_out(ctx, xs.len());

    let round1: Vec<EvaluatorBits> = across.try_map_seeded(xs, rng, |_, &x, match_rng| {
        let encoded = domain.encode_compare(x)?;
        Ok::<_, SmcError>(evaluator_encrypt_bits(encoded, keys.public_key(), &within, match_rng)?)
    })?;
    endpoint.send(PartyId::Server2, step, &round1)?;

    let round2: Vec<BlindedWitnesses> = endpoint.recv(PartyId::Server2, step)?;
    check_len(xs.len(), round2.len())?;
    let geq: Vec<bool> = across.try_map(&round2, |_, witnesses| {
        Ok::<_, SmcError>(!evaluator_decide(witnesses, keys.private_key(), &within)?)
    })?;
    endpoint.send(PartyId::Server2, step, &geq)?;
    Ok(geq)
}

/// S2's side of one comparison round: compares S1's hidden `xs[m]`
/// against each own `ys[m]`; returns `xs[m] ≥ ys[m]` per match.
///
/// # Errors
///
/// Fails if a `y` escapes the comparison domain, if S1's frames do not
/// carry exactly one `ℓ`-bit encryption set / one outcome bit per match,
/// or on transport errors.
pub fn server2_compare_batch<R: Rng + ?Sized>(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    ys: &[i128],
    step: Step,
    rng: &mut R,
) -> Result<Vec<bool>, SmcError> {
    let pk = ctx.dgk_public();
    let domain = ctx.domain();
    let (across, within) = fan_out(ctx, ys.len());

    let round1: Vec<EvaluatorBits> = endpoint.recv(PartyId::Server1, step)?;
    check_len(ys.len(), round1.len())?;
    let round2: Vec<BlindedWitnesses> = across.try_map_seeded(ys, rng, |m, &y, match_rng| {
        let encoded = domain.encode_compare(y)?;
        Ok::<_, SmcError>(blinder_build_witnesses(encoded, &round1[m], pk, &within, match_rng)?)
    })?;
    endpoint.send(PartyId::Server1, step, &round2)?;

    let geq: Vec<bool> = endpoint.recv(PartyId::Server1, step)?;
    check_len(ys.len(), geq.len())?;
    Ok(geq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionConfig, SessionKeys};
    use dgk::DgkError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use transport::Network;

    fn keys() -> &'static SessionKeys {
        static KEYS: OnceLock<SessionKeys> = OnceLock::new();
        KEYS.get_or_init(|| {
            SessionKeys::generate(SessionConfig::test(1, 2), &mut StdRng::seed_from_u64(31))
        })
    }

    fn endpoints() -> (Endpoint, Endpoint, std::sync::Arc<transport::Meter>) {
        let mut net = Network::new(0);
        let meter = std::sync::Arc::clone(net.meter());
        (net.take_endpoint(PartyId::Server1), net.take_endpoint(PartyId::Server2), meter)
    }

    fn run_round(xs: Vec<i128>, ys: Vec<i128>, seed: u64) -> (Vec<bool>, Vec<bool>) {
        let s1_ctx = keys().server1();
        let s2_ctx = keys().server2();
        let (mut s1, mut s2, _) = endpoints();
        std::thread::scope(|scope| {
            let h1 = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                server1_compare_batch(&mut s1, &s1_ctx, &xs, Step::CompareRank, &mut rng).unwrap()
            });
            let h2 = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + 1);
                server2_compare_batch(&mut s2, &s2_ctx, &ys, Step::CompareRank, &mut rng).unwrap()
            });
            (h1.join().unwrap(), h2.join().unwrap())
        })
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
        let (mut s1, _s2, _) = endpoints();
        let offset = s1_ctx.domain().compare_offset();
        let mut rng = StdRng::seed_from_u64(1);
        let err = server1_compare_batch(&mut s1, &s1_ctx, &[offset], Step::CompareRank, &mut rng)
            .unwrap_err();
        assert!(matches!(err, SmcError::Domain(_)));
    }

    #[test]
    fn a_round_is_three_messages_whatever_its_size() {
        for matches in [1usize, 4] {
            let s1_ctx = keys().server1();
            let s2_ctx = keys().server2();
            let (mut s1, mut s2, meter) = endpoints();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(2);
                    let xs = vec![9; matches];
                    server1_compare_batch(&mut s1, &s1_ctx, &xs, Step::ThresholdCheck, &mut rng)
                        .unwrap()
                });
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(3);
                    let ys = vec![4; matches];
                    server2_compare_batch(&mut s2, &s2_ctx, &ys, Step::ThresholdCheck, &mut rng)
                        .unwrap()
                });
            });
            let stats = meter
                .report()
                .link_stats(Step::ThresholdCheck, transport::LinkKind::ServerToServer);
            assert_eq!(stats.messages, 3);
            // ℓ bit encryptions + ℓ witnesses per match — substantial traffic.
            assert!(stats.bytes > 100 * matches as u64);
        }
    }

    /// Plays a hostile S2 over a raw endpoint: swallows S1's round 1 and
    /// answers with `reply(honest witness sets)`.
    fn s1_against_forged_round2(
        forge: impl FnOnce(Vec<BlindedWitnesses>) -> Vec<BlindedWitnesses> + Send,
    ) -> SmcError {
        let s1_ctx = keys().server1();
        let pk = keys().server2().dgk_public().clone();
        let (mut s1, mut s2, _) = endpoints();
        std::thread::scope(|scope| {
            let h1 = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(50);
                // x < y on both matches: the honest reply holds a zero.
                server1_compare_batch(&mut s1, &s1_ctx, &[1, 2], Step::CompareRank, &mut rng)
            });
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(51);
                let round1: Vec<EvaluatorBits> =
                    s2.recv(PartyId::Server1, Step::CompareRank).unwrap();
                let honest: Vec<BlindedWitnesses> = round1
                    .iter()
                    .map(|bits| {
                        let y = keys().config().domain.encode_compare(5).unwrap();
                        blinder_build_witnesses(y, bits, &pk, &Parallelism::sequential(), &mut rng)
                            .unwrap()
                    })
                    .collect();
                s2.send(PartyId::Server1, Step::CompareRank, &forge(honest)).unwrap();
            });
            h1.join().unwrap().expect_err("a malformed frame must never yield an outcome")
        })
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
        let pk = keys().server2().dgk_public().clone();
        let par = Parallelism::sequential();
        let mut rng = StdRng::seed_from_u64(60);
        let bits = evaluator_encrypt_bits(3, &pk, &par, &mut rng).unwrap();
        let short = EvaluatorBits { encrypted_bits: bits.encrypted_bits[..1].to_vec() };

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
            let s2_ctx = keys().server2();
            let (s1, mut s2, _) = endpoints();
            s1.send(PartyId::Server2, Step::CompareRank, &round1).unwrap();
            let err = server2_compare_batch(&mut s2, &s2_ctx, &[0, 0], Step::CompareRank, &mut rng)
                .unwrap_err();
            assert!(is_expected(&err), "{err:?}");
        }

        // An outcome vector that does not cover the round's matches.
        let s2_ctx = keys().server2();
        let (mut s1, mut s2, _) = endpoints();
        s1.send(PartyId::Server2, Step::CompareRank, &vec![bits.clone(), bits]).unwrap();
        s1.send(PartyId::Server2, Step::CompareRank, &vec![true]).unwrap();
        let err = server2_compare_batch(&mut s2, &s2_ctx, &[0, 0], Step::CompareRank, &mut rng)
            .unwrap_err();
        assert!(matches!(err, SmcError::LengthMismatch { expected: 2, got: 1 }), "{err:?}");
        let _: Vec<BlindedWitnesses> = s1.recv(PartyId::Server2, Step::CompareRank).unwrap();
    }
}
