//! What only the sans-IO shape lets a test do: lose any one frame of any
//! sub-protocol, or of a whole round, and watch where the loss surfaces.
//!
//! Every machine is resumed with `Err(Timeout)` at each of its requests
//! in turn. The outcome must be typed — the timeout itself, the audit
//! conviction a strict policy turns a missing opening into, or, where the
//! lost frame was a user's upload under resilient collection, a dropout —
//! and never a panic.

use std::sync::OnceLock;

use paillier::PublicKey;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::blind_permute::BlindPermute;
use smc::bracket::Argmax;
use smc::compare::CompareRound;
use smc::machine::{run_pair, run_pair_lossy, Frame, Machine, PairRun};
use smc::restoration::Restoration;
use smc::secure_sum::{encrypt_share_vector, Collect};
use smc::{
    AuditContext, AuditEvidence, AuditPolicy, Parallelism, Permutation, RoundState, ServerRole,
    ServerRound, SessionConfig, SessionKeys, ShardPlan, SmcError,
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

/// Both halves of a blind-and-permute over one encrypted vector each,
/// under `policy`.
fn blind_permute_pair(policy: Option<AuditPolicy>) -> (impl Machine, impl Machine) {
    let user = keys().user();
    let mut r = rng(5);
    let step = Step::BlindPermute1;
    let half = |party, enc, seed| {
        let inner = BlindPermute::new(vec![enc], step, rng(seed), None);
        AuditContext::new(policy, 0, party).wrap(inner, step, seed, CLASSES, 1)
    };
    let enc_a = encrypt(&[3, -7, 100], user.pk2(), &mut r);
    let enc_b = encrypt(&[10, 7, -50], user.pk1(), &mut r);
    (half(PartyId::Server1, enc_a, 6), half(PartyId::Server2, enc_b, 7))
}

#[test]
fn blind_permute_and_restoration_fail_typed_on_any_lost_frame() {
    let losses = lose_each_frame(
        || blind_permute_pair(None),
        Vec::new,
        |run| assert!(is_timeout(&run.map(|_| ()))),
    );
    assert_eq!(losses, 6, "Alg. 2 is six legs");

    // A strict audit adds a commitment and an opening per direction; a
    // lost opening convicts, a lost commitment is a timeout.
    let convictions = std::cell::Cell::new(0);
    let losses = lose_each_frame(
        || blind_permute_pair(Some(AuditPolicy::strict())),
        Vec::new,
        |run| match run.map(|_| ()) {
            Err(SmcError::AuditFailure { evidence: AuditEvidence::MissingOpening, .. }) => {
                convictions.set(convictions.get() + 1);
            }
            run => assert!(is_timeout(&run), "{run:?}"),
        },
    );
    assert_eq!((losses, convictions.get()), (10, 2));

    let pi1 = Permutation::random(CLASSES, &mut rng(8));
    let pi2 = Permutation::random(CLASSES, &mut rng(9));
    let slot = pi1.compose(&pi2).apply_index(1);
    let step = Step::Restoration;
    let losses = lose_each_frame(
        || {
            (
                Restoration::new(pi1.clone(), slot, step, rng(10), None),
                Restoration::new(pi2.clone(), slot, step, rng(11), None),
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

fn round_pair(quorum: Option<usize>, policy: Option<AuditPolicy>) -> (ServerRound, ServerRound) {
    let server = |role, party, seed| {
        let audit = AuditContext::new(policy, 0, party);
        ServerRound::new(role, (0..USERS).collect(), seed, 77, quorum, audit)
    };
    (
        server(ServerRole::Server1, PartyId::Server1, 13),
        server(ServerRole::Server2, PartyId::Server2, 14),
    )
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
    let (a, b) = round_pair(None, None);
    let clean = run_pair((&s1_ctx, a), (&s2_ctx, b), round_uploads()).unwrap();
    assert!(released(&clean.outputs.0) && released(&clean.outputs.1));

    // Strict: every lost frame, an upload's included, is the timeout.
    lose_each_frame(
        || round_pair(None, None),
        round_uploads,
        |run| assert!(is_timeout(&run.map(|_| ()))),
    );

    // Resilient and audited: a lost upload degrades the round, which
    // still releases; anything else is a typed abort.
    let degraded = std::cell::Cell::new(0);
    let losses = lose_each_frame(
        || round_pair(Some(2), Some(AuditPolicy::strict())),
        round_uploads,
        |run| match run {
            Ok(run) => {
                assert!(released(&run.outputs.0) && released(&run.outputs.1));
                degraded.set(degraded.get() + 1);
            }
            Err(SmcError::Transport(TransportError::Timeout(_)))
            | Err(SmcError::AuditFailure { evidence: AuditEvidence::MissingOpening, .. }) => {}
            Err(other) => panic!("untyped failure: {other}"),
        },
    );
    assert!(degraded.get() > 0 && degraded.get() < losses);
}
