//! What only the sans-IO shape lets a test do: lose any one frame of any
//! sub-protocol, or of a whole round, and watch where the loss surfaces.
//!
//! Every machine is resumed with `Err(Timeout)` at each of its requests
//! in turn. The outcome must be typed — the timeout itself or, where the
//! lost frame was a user's upload under resilient collection, a dropout —
//! and never a panic. The same goes for a frame that arrives but is not
//! what an honest peer would have sent: the test plays the peer and
//! forges it from its side of the wire.

use std::sync::OnceLock;

use bigint::Ubig;
use paillier::{Ciphertext, PrivateKey, PublicKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::blind_permute::BlindPermute;
use smc::bracket::Argmax;
use smc::compare::CompareRound;
use smc::machine::{run_pair, run_pair_lossy, Frame, Machine, Next, Outbox, PairRun};
use smc::pack::Packer;
use smc::restoration::Restoration;
use smc::secure_sum::{encrypt_share_vector, Collect};
use smc::{
    PackError, Parallelism, Permutation, RoundState, ServerRole, ServerRound, SessionConfig,
    SessionKeys, ShardPlan, SmcError,
};
use transport::{PartyId, Step, TransportError, Wire};

const USERS: usize = 3;
const CLASSES: usize = 3;

fn keys() -> &'static SessionKeys {
    static KEYS: OnceLock<SessionKeys> = OnceLock::new();
    KEYS.get_or_init(|| {
        SessionKeys::generate(SessionConfig::test(USERS, CLASSES), &mut StdRng::seed_from_u64(41))
    })
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Runs `pair()` once per request of either machine, losing exactly that
/// request's frame, and hands every outcome to `check`. Returns how many
/// losses it played.
fn lose_each_frame<A: Machine, B: Machine>(
    pair: impl Fn() -> (A, B),
    uploads: impl Fn() -> Vec<Frame>,
    check: impl Fn(Result<PairRun<A::Output, B::Output>, SmcError>),
) -> usize {
    let (s1_ctx, s2_ctx) = (keys().server1(), keys().server2());
    let mut losses = 0;
    for victim in [ServerRole::Server1, ServerRole::Server2] {
        for nth in 0.. {
            let mut fired = false;
            let (a, b) = pair();
            let run = run_pair_lossy((&s1_ctx, a), (&s2_ctx, b), uploads(), |role, n| {
                let hit = role == victim && n == nth;
                fired |= hit;
                hit
            });
            if !fired {
                break;
            }
            losses += 1;
            check(run);
        }
    }
    losses
}

fn is_timeout<T>(run: &Result<T, SmcError>) -> bool {
    matches!(run, Err(SmcError::Transport(TransportError::Timeout(_))))
}

fn encrypt(values: &[i128], key: &PublicKey, rng: &mut StdRng) -> Vec<paillier::Ciphertext> {
    encrypt_share_vector(values, key, &Parallelism::sequential(), rng).unwrap()
}

#[test]
fn comparison_machines_fail_typed_on_any_lost_frame() {
    let step = Step::CompareRank;
    let losses = lose_each_frame(
        || {
            (
                CompareRound::new(vec![5, -3], step, rng(1)),
                CompareRound::new(vec![2, 4], step, rng(2)),
            )
        },
        Vec::new,
        |run| assert!(is_timeout(&run), "{run:?}"),
    );
    assert_eq!(losses, 3, "one loss per message of the round");

    // K = 5: three bracket rounds of three messages.
    let losses = lose_each_frame(
        || (Argmax::new(vec![3, 9, 4, 4, 1], step, rng(3)), Argmax::new(vec![0; 5], step, rng(4))),
        Vec::new,
        |run| assert!(is_timeout(&run), "{run:?}"),
    );
    assert_eq!(losses, 9);
}

/// Both halves of a blind-and-permute over one encrypted vector each.
fn blind_permute_pair() -> (BlindPermute, BlindPermute) {
    let user = keys().user();
    let mut r = rng(5);
    let half = |enc, seed| BlindPermute::new(vec![enc], Step::BlindPermute1, rng(seed));
    let enc_a = encrypt(&[3, -7, 100], user.pk2(), &mut r);
    let enc_b = encrypt(&[10, 7, -50], user.pk1(), &mut r);
    (half(enc_a, 6), half(enc_b, 7))
}

#[test]
fn blind_permute_and_restoration_fail_typed_on_any_lost_frame() {
    let losses =
        lose_each_frame(blind_permute_pair, Vec::new, |run| assert!(is_timeout(&run.map(|_| ()))));
    assert_eq!(losses, 6, "Alg. 2 is six legs");

    let pi1 = Permutation::random(CLASSES, &mut rng(8));
    let pi2 = Permutation::random(CLASSES, &mut rng(9));
    let slot = pi1.compose(&pi2).apply_index(1);
    let step = Step::Restoration;
    let losses = lose_each_frame(
        || {
            (
                Restoration::new(pi1.clone(), slot, step, rng(10)),
                Restoration::new(pi2.clone(), slot, step, rng(11)),
            )
        },
        Vec::new,
        |run| assert!(is_timeout(&run), "{run:?}"),
    );
    assert_eq!(losses, 7, "Alg. 3 is seven legs");
}

/// A round's uploads: every user votes class 1 and embeds a threshold
/// the unanimous count clears.
fn round_uploads() -> Vec<Frame> {
    let user = keys().user();
    let domain = user.domain();
    let mut r = rng(12);
    let mut frames = Vec::new();
    for u in 0..USERS {
        let (a, b) = domain.split_vec(&[0, 65_536, 0], &mut r);
        let thresh_a: Vec<i128> = a.iter().map(|a| a - 10_000).collect();
        let thresh_b: Vec<i128> = b.iter().map(|b| 10_000 - b).collect();
        let vectors = [
            (PartyId::Server1, Step::SecureSumVotes, &a, user.pk2()),
            (PartyId::Server1, Step::SecureSumVotes, &thresh_a, user.pk2()),
            (PartyId::Server1, Step::SecureSumNoisy, &a, user.pk2()),
            (PartyId::Server2, Step::SecureSumVotes, &b, user.pk1()),
            (PartyId::Server2, Step::SecureSumVotes, &thresh_b, user.pk1()),
            (PartyId::Server2, Step::SecureSumNoisy, &b, user.pk1()),
        ];
        for (to, step, values, key) in vectors {
            let payload = encrypt(values, key, &mut r).to_bytes();
            frames.push(Frame { from: PartyId::User(u), to, step, payload });
        }
    }
    frames
}

fn round_pair(quorum: Option<usize>) -> (ServerRound, ServerRound) {
    let server = |role, seed| ServerRound::new(role, (0..USERS).collect(), [seed; 32], 77, quorum);
    (server(ServerRole::Server1, 13), server(ServerRole::Server2, 14))
}

#[test]
fn collection_turns_a_lost_upload_into_a_dropout_only_when_resilient() {
    let step = Step::SecureSumVotes;
    let (s1_ctx, s2_ctx) = (keys().server1(), keys().server2());
    let pair = |quorum| {
        let plan = || ShardPlan::flat(&[0, 1, 2]);
        (
            Collect::new(&s1_ctx, step, plan(), CLASSES, 2, quorum),
            Collect::new(&s2_ctx, step, plan(), CLASSES, 2, quorum),
        )
    };
    let losses =
        lose_each_frame(|| pair(None), round_uploads, |run| assert!(is_timeout(&run.map(|_| ()))));
    assert_eq!(losses, 2 * 2 * USERS, "strict collection asks for every upload frame");

    // Resilient: a lost upload costs its user on both servers; a lost
    // survivor list is fatal.
    let dropouts = std::cell::Cell::new(0);
    lose_each_frame(
        || pair(Some(2)),
        round_uploads,
        |run| match run {
            Ok(run) => {
                let (s1, s2) = run.outputs;
                assert_eq!(s1.survivors, s2.survivors);
                assert_eq!(s1.survivors.len(), USERS - 1);
                dropouts.set(dropouts.get() + 1);
            }
            run => assert!(is_timeout(&run.map(|_| ()))),
        },
    );
    assert_eq!(dropouts.get(), 2 * 2 * USERS);
}

#[test]
fn a_round_survives_or_fails_typed_on_any_lost_frame() {
    let (s1_ctx, s2_ctx) = (keys().server1(), keys().server2());
    let released = |state: &RoundState| matches!(state, RoundState::Done { label: Some(1), .. });

    // Nothing lost: both servers release the unanimous class.
    let (a, b) = round_pair(None);
    let clean = run_pair((&s1_ctx, a), (&s2_ctx, b), round_uploads()).unwrap();
    assert!(released(&clean.outputs.0) && released(&clean.outputs.1));

    // Strict: every lost frame, an upload's included, is the timeout.
    lose_each_frame(
        || round_pair(None),
        round_uploads,
        |run| assert!(is_timeout(&run.map(|_| ()))),
    );

    // Resilient: a lost upload degrades the round, which still releases;
    // anything else is the timeout.
    let degraded = std::cell::Cell::new(0);
    let losses = lose_each_frame(
        || round_pair(Some(2)),
        round_uploads,
        |run| match run {
            Ok(run) => {
                assert!(released(&run.outputs.0) && released(&run.outputs.1));
                degraded.set(degraded.get() + 1);
            }
            run => assert!(is_timeout(&run.map(|_| ()))),
        },
    );
    assert!(degraded.get() > 0 && degraded.get() < losses);
}

/// S2's half of Alg. 2 over one vector under `keys`, resumed up to its
/// wait for S1's packed `E_pk2[a + r1]` and answered with `frame`.
fn answer_blind_permute(keys: &SessionKeys, frame: &[Ciphertext]) -> Result<(), SmcError> {
    let enc_b = encrypt(&[10, 7, -50], keys.user().pk1(), &mut rng(5));
    let mut s2 = BlindPermute::new(vec![enc_b], Step::BlindPermute1, rng(7));
    let (ctx, mut out) = (keys.server2(), Outbox::default());
    assert!(matches!(s2.resume(&ctx, None, &mut out)?, Next::Recv(_)));
    s2.resume(&ctx, Some(Ok((1, frame.to_vec().to_bytes()))), &mut out).map(|_| ())
}

/// S2's half of Alg. 3, resumed past its indicator frame and answered
/// with `frame` where S1's packed `E_pk2[π2(e) + r1]` is due.
fn answer_restoration(keys: &SessionKeys, frame: &[Ciphertext]) -> Result<(), SmcError> {
    let pi2 = Permutation::random(CLASSES, &mut rng(9));
    let mut s2 = Restoration::new(pi2, 1, Step::Restoration, rng(11));
    let (ctx, mut out) = (keys.server2(), Outbox::default());
    assert!(matches!(s2.resume(&ctx, None, &mut out)?, Next::Recv(_)));
    s2.resume(&ctx, Some(Ok((1, frame.to_vec().to_bytes()))), &mut out).map(|_| ())
}

#[test]
fn a_hostile_packed_frame_is_a_typed_error() {
    let pk2 = keys().user().pk2().clone();
    let packer = Packer::new(keys().config(), &pk2).unwrap();
    // Three values in 27-bit slots, two to a 64-bit key's plaintext: a
    // full ciphertext and a short one.
    assert_eq!((packer.slot_bits(), packer.slots(), packer.frame_len(CLASSES)), (27, 2, 2));
    let encrypt_raw = |plain: &Ubig| pk2.encrypt(plain, &mut rng(15)).unwrap();
    let honest = packed(&[1, -2, 3], &pk2);

    for answer in [answer_blind_permute, answer_restoration] {
        answer(keys(), &honest).expect("the honest shape is accepted");
        // The wrong number of packed ciphertexts — the unpacked frame's
        // K among them.
        for len in [0, 1, 3] {
            let frame: Vec<Ciphertext> = honest.iter().cycle().take(len).cloned().collect();
            let run = answer(keys(), &frame);
            assert!(
                matches!(run, Err(SmcError::LengthMismatch { expected: 2, got }) if got == len),
                "{run:?}"
            );
        }
        // A plaintext with a bit above its last slot: the full one, and
        // the short one, where that bit would be the neighbour's lowest.
        for (at, limit) in [(0, 54u64), (1, 27)] {
            let mut frame = honest.clone();
            frame[at] = encrypt_raw(&(Ubig::one() << limit as u32));
            let run = answer(keys(), &frame);
            assert!(
                matches!(
                    run,
                    Err(SmcError::Packing(PackError::Overflow { bits, limit: l }))
                        if l == limit && bits == limit + 1
                ),
                "{run:?}"
            );
        }
    }

    // A session whose slot does not fit one plaintext fails before it
    // sends or opens anything.
    let crowded = SessionKeys::generate(SessionConfig::test(1 << 44, CLASSES), &mut rng(16));
    for answer in [answer_blind_permute, answer_restoration] {
        let run = answer(&crowded, &honest);
        assert!(matches!(run, Err(SmcError::Packing(PackError::SlotTooWide { .. }))), "{run:?}");
    }
}

/// Resumes `machine` with `frame` as the answer to its last request.
fn resume_with<M: Machine>(
    machine: &mut M,
    ctx: &smc::ServerContext,
    frame: &impl Wire,
    out: &mut Outbox,
) -> Result<Next<M::Output>, SmcError> {
    machine.resume(ctx, Some(Ok((1, frame.to_bytes()))), out)
}

/// `values`, packed and encrypted under `key` as a leg-2 or leg-5 frame.
fn packed(values: &[i128], key: &PublicKey) -> Vec<Ciphertext> {
    let plains = Packer::new(keys().config(), key).unwrap().pack(values).unwrap();
    plains.iter().map(|plain| key.encrypt(plain, &mut rng(15)).unwrap()).collect()
}

/// S2's half of Alg. 3, walked to its last receive by a test that plays
/// S1 with S1's keys and then answers `e + r2` for the "indicator" `e`.
fn announce(e: [i128; CLASSES]) -> Result<usize, SmcError> {
    let (s1, s2) = (keys().server1(), keys().server2());
    let pi2 = Permutation::random(CLASSES, &mut rng(9));
    let mut machine = Restoration::new(pi2, 1, Step::Restoration, rng(11));
    let mut out = Outbox::default();
    machine.resume(&s2, None, &mut out)?;
    resume_with(&mut machine, &s2, &packed(&[0; CLASSES], s2.own_public()), &mut out)?;
    // Leg 4 encrypts zeros, so leg 5 comes back as E_pk1[r2].
    resume_with(
        &mut machine,
        &s2,
        &encrypt(&[0; CLASSES], s1.own_public(), &mut rng(16)),
        &mut out,
    )?;
    let leg5 = Vec::<Ciphertext>::from_bytes(out.frames.last().unwrap().payload.clone()).unwrap();
    let r2 =
        Packer::new(keys().config(), s1.own_public())?.open(s1.own_private(), &leg5, CLASSES)?;
    let leg6: Vec<i128> = e.iter().zip(&r2).map(|(e, mask)| e + mask).collect();
    match resume_with(&mut machine, &s2, &leg6, &mut out)? {
        Next::Done(label) => Ok(label),
        Next::Recv(_) => panic!("leg 6 is S2's last receive"),
    }
}

/// S1's half of Alg. 3, walked to its last receive and told `winner`.
fn hear(winner: u64) -> Result<usize, SmcError> {
    let (s1, s2) = (keys().server1(), keys().server2());
    let pi1 = Permutation::random(CLASSES, &mut rng(8));
    let mut machine = Restoration::new(pi1, 1, Step::Restoration, rng(10));
    let mut out = Outbox::default();
    machine.resume(&s1, None, &mut out)?;
    resume_with(&mut machine, &s1, &encrypt(&[0, 1, 0], s2.own_public(), &mut rng(16)), &mut out)?;
    resume_with(&mut machine, &s1, &vec![0i128; CLASSES], &mut out)?;
    resume_with(&mut machine, &s1, &packed(&[0; CLASSES], s1.own_public()), &mut out)?;
    match resume_with(&mut machine, &s1, &winner, &mut out)? {
        Next::Done(label) => Ok(label),
        Next::Recv(_) => panic!("the announcement is S1's last receive"),
    }
}

/// Alg. 3's last two legs carry plaintext. Neither receiver releases a
/// label a well-formed run could not have produced.
#[test]
fn a_hostile_indicator_or_announcement_is_a_typed_error() {
    for label in 0..CLASSES {
        let mut e = [0; CLASSES];
        e[label] = 1;
        assert!(matches!(announce(e), Ok(l) if l == label));
        assert!(matches!(hear(label as u64), Ok(l) if l == label));
    }
    // All-zero, two-hot, and one entry that is not a bit.
    for (e, nonzero) in [([0, 0, 0], 0), ([1, 0, 1], 2), ([0, 2, 0], 1)] {
        let run = announce(e);
        assert!(
            matches!(run, Err(SmcError::LengthMismatch { expected: 1, got }) if got == nonzero),
            "{e:?}: {run:?}"
        );
    }
    for winner in [CLASSES as u64, u64::from(u32::MAX) + 1, u64::MAX] {
        let run = hear(winner);
        assert!(
            matches!(run, Err(SmcError::LengthMismatch { expected: CLASSES, .. })),
            "{winner}: {run:?}"
        );
    }
}

/// K = 100 under 256-bit keys: 9 slots to a plaintext, so every packed
/// frame of the m = 2 batch is 23 ciphertexts and Restoration's are 12.
#[test]
fn frames_spanning_many_packed_ciphertexts_match_the_clear_oracle() {
    const K: usize = 100;
    let config = SessionConfig { paillier_bits: 256, ..SessionConfig::test(1, K) };
    let keys = SessionKeys::generate(config, &mut rng(17));
    let (s1_ctx, s2_ctx, user) = (keys.server1(), keys.server2(), keys.user());
    let packer = Packer::new(keys.config(), user.pk2()).unwrap();
    assert!(packer.slots() > 2 && packer.frame_len(2 * K) > 2 && packer.frame_len(K) > 2);

    // Signed shares of both signs; class 37 carries the largest total.
    let mut r = rng(18);
    let a: Vec<Vec<i128>> =
        (0..2).map(|v| (0..K as i128).map(|i| (i * 7919 + v) % 1000 - 500).collect()).collect();
    let b: Vec<Vec<i128>> = (0..2)
        .map(|v| (0..K as i128).map(|i| 90_000 * i128::from(i == 37) - i * v).collect())
        .collect();
    let enc = |vectors: &[Vec<i128>], key, r: &mut StdRng| -> Vec<Vec<Ciphertext>> {
        vectors.iter().map(|v| encrypt(v, key, r)).collect()
    };
    let step = Step::BlindPermute1;
    let run = run_pair(
        (&s1_ctx, BlindPermute::new(enc(&a, user.pk2(), &mut r), step, rng(19))),
        (&s2_ctx, BlindPermute::new(enc(&b, user.pk1(), &mut r), step, rng(20))),
        Vec::new(),
    )
    .unwrap();
    let packed: Vec<usize> = [0, 3, 5]
        .iter()
        .map(|&at| Vec::<Ciphertext>::from_bytes(run.transcript[at].payload.clone()).unwrap().len())
        .collect();
    assert_eq!(packed, [packer.frame_len(2 * K); 3]);

    // Oracle: the two outputs sum to π(a + b) plus one common bias per
    // vector, π = π1∘π2.
    let (out1, out2) = run.outputs;
    let (pi1, pi2) = (out1.own_permutation, out2.own_permutation);
    for v in 0..2 {
        let totals: Vec<i128> = a[v].iter().zip(&b[v]).map(|(a, b)| a + b).collect();
        let expected = pi1.apply(&pi2.apply(&totals));
        let masked: Vec<i128> =
            out1.sequences[v].iter().zip(&out2.sequences[v]).map(|(x, y)| x + y).collect();
        let bias = masked[0] - expected[0];
        assert!(bias >= 0);
        assert_eq!(masked, expected.iter().map(|t| t + bias).collect::<Vec<i128>>(), "vector {v}");
    }

    let slot = pi1.compose(&pi2).apply_index(37);
    let step = Step::Restoration;
    let run = run_pair(
        (&s1_ctx, Restoration::new(pi1, slot, step, rng(21))),
        (&s2_ctx, Restoration::new(pi2, slot, step, rng(22))),
        Vec::new(),
    )
    .unwrap();
    assert_eq!(run.outputs, (37, 37));
    for at in [1, 4] {
        let frame = Vec::<Ciphertext>::from_bytes(run.transcript[at].payload.clone()).unwrap();
        assert_eq!(frame.len(), packer.frame_len(K));
    }
}

/// What a semi-honest receiver of an Alg. 3 leg-2 or leg-5 frame can try.
/// It made the ciphertexts it `sent` and it decrypts the packed `frame`,
/// so it strips every plaintext — `ρ_i = c_i·(1+n)^(−m_i)` and
/// `R = P·(1+n)^(−M)` are bare randomizers — and looks for the orders in
/// which its own randomizers fold to the frame's.
fn orders_matching_own_randomizers(
    packer: &Packer<'_>,
    (pk, sk): (&PublicKey, &PrivateKey),
    sent: &[Ciphertext],
    frame: &[Ciphertext],
) -> Vec<Permutation> {
    let strip = |c: &Ciphertext| pk.add_plain(c, &(pk.modulus() - &sk.decrypt_crt(c).unwrap()));
    let (own, target): (Vec<_>, Vec<_>) =
        (sent.iter().map(strip).collect(), frame.iter().map(strip).collect());
    let all_orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    all_orders
        .iter()
        .map(|order| Permutation::from_indices(order.to_vec()).unwrap())
        .filter(|order| packer.fold(&order.apply(&own)) == target)
        .collect()
}

/// ROADMAP hostile-inputs (6). Legs 2 and 5 return the receiver's own
/// ciphertexts, so a frame that is only permuted, folded and masked — as
/// `fold_masked` alone builds it — gives the sender's inverse permutation
/// away; the frames the machines send match no order at all.
#[test]
fn a_restoration_frame_does_not_betray_the_order_of_its_entries() {
    let (s1_ctx, s2_ctx) = (keys().server1(), keys().server2());
    for seed in 0..6u64 {
        let pi1 = Permutation::random(CLASSES, &mut rng(30 + seed));
        let pi2 = Permutation::random(CLASSES, &mut rng(40 + seed));
        let (slot, step) = (seed as usize % CLASSES, Step::Restoration);
        let transcript = run_pair(
            (&s1_ctx, Restoration::new(pi1.clone(), slot, step, rng(50 + seed))),
            (&s2_ctx, Restoration::new(pi2.clone(), slot, step, rng(60 + seed))),
            Vec::new(),
        )
        .unwrap()
        .transcript;
        let frame = |at: usize| Vec::<Ciphertext>::from_bytes(transcript[at].payload.clone());
        // (the receiver, the leg it receives, the permutation whose
        // inverse the sender applied).
        for (receiver, leg, pi) in [(&s2_ctx, 2, &pi1), (&s1_ctx, 5, &pi2)] {
            let keypair = (receiver.own_public(), receiver.own_private());
            let packer = Packer::new(keys().config(), keypair.0).unwrap();
            // Leg n is transcript[n − 1]; it answers the leg before it.
            let (sent, returned) = (frame(leg - 2).unwrap(), frame(leg - 1).unwrap());
            let bare = packer.fold_masked(&pi.inverse().apply(&sent), &[5, -6, 7]).unwrap();
            assert_eq!(
                orders_matching_own_randomizers(&packer, keypair, &sent, &bare),
                [pi.inverse()],
                "seed {seed}: the attack reads an un-randomized frame"
            );
            assert_eq!(
                orders_matching_own_randomizers(&packer, keypair, &sent, &returned),
                [],
                "seed {seed}: leg {leg} as the machine sends it"
            );
        }
    }
}
