//! Multi-session reactor: fault isolation, admission control, overload
//! shedding, and deadline eviction.
//!
//! The acceptance bar is *bit-identical isolation*: with dozens of
//! concurrent sessions — one crashed mid-round, one losing quorum —
//! every unaffected session's
//! consensus fingerprint must equal the fingerprint of a solo
//! [`SecureEngine::run_round`] of the same round, and the reactor's RDP
//! ledger must hold exactly one charge per completed session.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use consensus_core::config::ConsensusConfig;
use consensus_core::reactor::{
    Reactor, ReactorConfig, RejectReason, SessionMachine, SessionResult,
};
use consensus_core::secure::{SecureEngine, SecureOutcome};
use dp::rdp::LinearRdp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::{SessionConfig, SessionKeys, SmcError};
use transport::{FaultPlan, Meter, PartyId, SessionError, SessionFrame, Step, TimeoutPolicy, Wire};

const USERS: usize = 5;
const CLASSES: usize = 3;

/// One shared keygen: sessions differ only in fault plans and votes.
fn keys() -> &'static SessionKeys {
    static KEYS: OnceLock<SessionKeys> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(99);
        SessionKeys::generate(SessionConfig::test(USERS, CLASSES), &mut rng)
    })
}

/// A resilient engine with tiny noise, a short deadline and one retry —
/// identical construction for reactor sessions and solo comparators, so
/// fingerprints are comparable bit for bit.
fn engine(min_users: usize) -> SecureEngine {
    SecureEngine::with_keys(
        keys().clone(),
        ConsensusConfig::paper_default(1e-6, 1e-6).with_min_users(min_users),
    )
    .with_timeout(TimeoutPolicy::with_retries(Duration::from_millis(40), 1, 2.0))
}

fn onehot(k: usize) -> Vec<f64> {
    let mut v = vec![0.0; CLASSES];
    v[k] = 1.0;
    v
}

fn full_roster() -> Vec<usize> {
    (0..USERS).collect()
}

/// Clean-session vote pattern `i`: unanimous, class varies by session.
fn votes_for(i: usize) -> Vec<Vec<f64>> {
    vec![onehot(i % CLASSES); USERS]
}

/// The solo-run outcome of the round session `i` runs: a fresh,
/// identically-built engine and an identically-seeded RNG.
fn solo_outcome(i: usize) -> SecureOutcome {
    let mut rng = StdRng::seed_from_u64(1000 + i as u64);
    engine(3)
        .run_round(&votes_for(i), &full_roster(), Meter::new(), &mut rng)
        .expect("solo run of a clean round")
}

/// Ingests every frame through the wire codec, interleaved round-robin
/// across sessions — the arrival order a multiplexed link produces.
fn ingest_interleaved(reactor: &mut Reactor, frame_sets: Vec<Vec<SessionFrame>>) {
    let max = frame_sets.iter().map(Vec::len).max().unwrap_or(0);
    for slot in 0..max {
        for frames in &frame_sets {
            if let Some(frame) = frames.get(slot) {
                reactor.ingest_encoded(frame.to_bytes()).expect("admitted session");
            }
        }
    }
}

/// The acceptance test: ≥ 32 concurrent sessions with a killed and a
/// quorum-losing session in the mix. Every clean session's fingerprint
/// must be bit-identical to its solo run, and the ledger must hold
/// exactly one charge per completed session.
#[test]
fn chaos_sessions_are_bit_identically_isolated() {
    const CLEAN: usize = 30;
    let meter = Meter::new();
    let mut reactor = Reactor::new(
        ReactorConfig { max_sessions: 64, deadline: Duration::from_secs(120) },
        Arc::clone(&meter),
    )
    .with_budget(1e18, 1e-6, LinearRdp::from_coeff(1.0));

    let mut frame_sets = Vec::new();

    // 30 clean sessions, ids 0..30.
    for i in 0..CLEAN {
        let mut rng = StdRng::seed_from_u64(1000 + i as u64);
        let (machine, frames) = SessionMachine::new(
            i as u64,
            Arc::new(engine(3)),
            &votes_for(i),
            &full_roster(),
            Arc::clone(&meter),
            &mut rng,
        )
        .expect("prepare clean session");
        assert_eq!(reactor.admit(machine).expect("admit clean session"), i as u64);
        frame_sets.push(frames);
    }

    // Session 100: Server1 crashes mid-round (at the first
    // Blind-and-Permute), so its peer times out — a transport failure
    // confined to this session.
    {
        let eng = engine(3)
            .with_fault_plan(FaultPlan::new(1).crash(PartyId::Server1, Step::BlindPermute1));
        let mut rng = StdRng::seed_from_u64(77);
        let (machine, frames) = SessionMachine::new(
            100,
            Arc::new(eng),
            &votes_for(1),
            &full_roster(),
            Arc::clone(&meter),
            &mut rng,
        )
        .expect("prepare crash session");
        reactor.admit(machine).expect("admit crash session");
        frame_sets.push(frames);
    }

    // Session 102: three of five users crash before uploading, leaving
    // 2 < 3 survivors — the typed quorum-lost abort.
    {
        let plan = FaultPlan::new(3)
            .crash(PartyId::User(0), Step::SecureSumVotes)
            .crash(PartyId::User(1), Step::SecureSumVotes)
            .crash(PartyId::User(2), Step::SecureSumVotes);
        let eng = engine(3).with_fault_plan(plan);
        let mut rng = StdRng::seed_from_u64(79);
        let (machine, frames) = SessionMachine::new(
            102,
            Arc::new(eng),
            &votes_for(2),
            &full_roster(),
            Arc::clone(&meter),
            &mut rng,
        )
        .expect("prepare quorum-loss session");
        reactor.admit(machine).expect("admit quorum-loss session");
        frame_sets.push(frames);
    }

    assert_eq!(reactor.live_sessions(), CLEAN + 2);
    ingest_interleaved(&mut reactor, frame_sets);
    let polls = reactor.run_until_idle();
    assert!(polls > 0);
    assert_eq!(reactor.live_sessions(), 0, "every session must terminate");

    // The two faulty sessions fail with their own typed errors.
    match reactor.take_result(100) {
        Some(SessionResult::Failed(SmcError::Transport(_))) => {}
        other => panic!("crashed session must fail with a transport error, got {other:?}"),
    }
    match reactor.take_result(102) {
        Some(SessionResult::Failed(SmcError::QuorumLost { survivors, required, .. })) => {
            assert_eq!((survivors, required), (2, 3));
        }
        other => panic!("quorum-loss session must abort typed, got {other:?}"),
    }

    // Every clean session: Done, with a fingerprint bit-identical to the
    // solo run of the same round.
    let mut charged_total = LinearRdp::zero();
    for i in 0..CLEAN {
        let solo = solo_outcome(i);
        match reactor.take_result(i as u64) {
            Some(SessionResult::Done(out)) => {
                assert_eq!(
                    out.consensus_fingerprint(),
                    solo.consensus_fingerprint(),
                    "session {i} diverged from its solo run"
                );
                charged_total = charged_total.compose(&out.health.charged_rdp());
            }
            other => panic!("clean session {i} must complete, got {other:?}"),
        }
    }

    // Exactly-once RDP accounting: one charge per completed session, and
    // the composed total matches the outcomes' own costs.
    let ledger = reactor.ledger().expect("budget attached");
    assert_eq!(ledger.charges(), CLEAN, "one charge per Done session, none for failures");
    let total = ledger.total().expect("clean sessions charged");
    assert!((total.coeff() - charged_total.coeff()).abs() <= 1e-9 * charged_total.coeff().abs());

    // Scheduler telemetry: all admissions counted, no evictions, one
    // Done-latency sample per completed session.
    let stats = meter.fault_stats();
    assert_eq!(stats.sessions_admitted, (CLEAN + 2) as u64);
    assert_eq!(stats.sessions_evicted, 0);
    assert_eq!(reactor.latencies().len(), CLEAN);
}

/// CI smoke: 16 concurrent clean sessions, two seeds, every session
/// releases the unanimous label.
#[test]
fn sixteen_session_smoke() {
    for seed in [11u64, 22] {
        let meter = Meter::new();
        let mut reactor = Reactor::new(
            ReactorConfig { max_sessions: 16, deadline: Duration::from_secs(120) },
            Arc::clone(&meter),
        );
        let mut frame_sets = Vec::new();
        for i in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + i);
            let (machine, frames) = SessionMachine::new(
                i,
                Arc::new(engine(3)),
                &vec![onehot(1); USERS],
                &full_roster(),
                Arc::clone(&meter),
                &mut rng,
            )
            .expect("prepare smoke session");
            reactor.admit(machine).expect("admit smoke session");
            frame_sets.push(frames);
        }
        ingest_interleaved(&mut reactor, frame_sets);
        reactor.run_until_idle();
        for i in 0..16u64 {
            match reactor.take_result(i) {
                Some(SessionResult::Done(out)) => {
                    assert_eq!(out.label, Some(1), "unanimous round must release class 1");
                }
                other => panic!("smoke session {i} (seed {seed}) must complete, got {other:?}"),
            }
        }
        assert_eq!(meter.fault_stats().sessions_admitted, 16);
    }
}

/// A session whose client stops sending mid-upload is evicted by the
/// watchdog — and its neighbors' fingerprints are untouched.
#[test]
fn stalled_session_is_evicted_without_touching_neighbors() {
    let meter = Meter::new();
    let mut reactor = Reactor::new(
        ReactorConfig { max_sessions: 8, deadline: Duration::from_millis(300) },
        Arc::clone(&meter),
    );
    let mut frame_sets = Vec::new();
    for i in 0..2usize {
        let mut rng = StdRng::seed_from_u64(1000 + i as u64);
        let (machine, frames) = SessionMachine::new(
            i as u64,
            Arc::new(engine(3)),
            &votes_for(i),
            &full_roster(),
            Arc::clone(&meter),
            &mut rng,
        )
        .expect("prepare neighbor session");
        reactor.admit(machine).expect("admit neighbor session");
        frame_sets.push(frames);
    }
    // Session 50 delivers only half its upload frames, then goes silent.
    let mut rng = StdRng::seed_from_u64(50);
    let (machine, frames) = SessionMachine::new(
        50,
        Arc::new(engine(3)),
        &votes_for(0),
        &full_roster(),
        Arc::clone(&meter),
        &mut rng,
    )
    .expect("prepare stalling session");
    reactor.admit(machine).expect("admit stalling session");
    frame_sets.push(frames.into_iter().take(USERS * 3).collect());

    ingest_interleaved(&mut reactor, frame_sets);
    reactor.run_until_idle();

    match reactor.take_result(50) {
        Some(SessionResult::Evicted { stalled_for }) => {
            assert!(stalled_for >= Duration::from_millis(300));
        }
        other => panic!("stalled session must be evicted, got {other:?}"),
    }
    for i in 0..2usize {
        let solo = solo_outcome(i);
        match reactor.take_result(i as u64) {
            Some(SessionResult::Done(out)) => assert_eq!(
                out.consensus_fingerprint(),
                solo.consensus_fingerprint(),
                "neighbor {i} must be untouched by the eviction"
            ),
            other => panic!("neighbor session {i} must complete, got {other:?}"),
        }
    }
    let stats = meter.fault_stats();
    assert_eq!(stats.sessions_evicted, 1);
    assert_eq!(stats.sessions_admitted, 3);
    // Frames for the evicted session now fail typed at the demux.
    let err = reactor
        .ingest(SessionFrame {
            session: 50,
            from: PartyId::User(0),
            to: PartyId::Server1,
            step: Step::SecureSumVotes,
            seq: 999,
            payload: bytes::Bytes::new(),
        })
        .unwrap_err();
    assert_eq!(err, SessionError::UnknownSession(50));
}

/// Overload shedding: admissions past the session cap are refused with a
/// typed error and counted, and capacity frees once sessions finish.
#[test]
fn admission_sheds_load_past_capacity() {
    let meter = Meter::new();
    let mut reactor = Reactor::new(
        ReactorConfig { max_sessions: 2, deadline: Duration::from_secs(120) },
        Arc::clone(&meter),
    );
    let mut frame_sets = Vec::new();
    for i in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(1000 + i);
        let (machine, frames) = SessionMachine::new(
            i,
            Arc::new(engine(3)),
            &votes_for(i as usize),
            &full_roster(),
            Arc::clone(&meter),
            &mut rng,
        )
        .expect("prepare session");
        reactor.admit(machine).expect("admit under cap");
        frame_sets.push(frames);
    }
    // Third admission: shed.
    let mut rng = StdRng::seed_from_u64(1002);
    let (overflow, overflow_frames) = SessionMachine::new(
        2,
        Arc::new(engine(3)),
        &votes_for(2),
        &full_roster(),
        Arc::clone(&meter),
        &mut rng,
    )
    .expect("prepare overflow session");
    let rejected = reactor.admit(overflow).unwrap_err();
    assert_eq!(rejected.session, 2);
    assert_eq!(rejected.reason, RejectReason::CapacityExhausted { limit: 2 });
    // Its frames bounce typed too: the session was never registered.
    assert_eq!(
        reactor.ingest(overflow_frames[0].clone()).unwrap_err(),
        SessionError::UnknownSession(2)
    );

    ingest_interleaved(&mut reactor, frame_sets);
    reactor.run_until_idle();

    // Capacity freed: a fresh session admits and completes.
    let mut rng = StdRng::seed_from_u64(1003);
    let (machine, frames) = SessionMachine::new(
        3,
        Arc::new(engine(3)),
        &votes_for(0),
        &full_roster(),
        Arc::clone(&meter),
        &mut rng,
    )
    .expect("prepare post-drain session");
    reactor.admit(machine).expect("admit after drain");
    ingest_interleaved(&mut reactor, vec![frames]);
    reactor.run_until_idle();
    assert!(matches!(reactor.take_result(3), Some(SessionResult::Done(_))));

    let stats = meter.fault_stats();
    assert_eq!(stats.sessions_admitted, 3);
    assert_eq!(stats.sessions_rejected, 1);
}

/// Budget admission reserves the worst case of every in-flight session:
/// the second concurrent admission is refused even though nothing has
/// been charged yet, and a duplicate session id is refused typed.
#[test]
fn admission_enforces_budget_and_unique_ids() {
    let worst = LinearRdp::from_coeff(0.1);
    let delta = 1e-6;
    // Fits one reserved session, not two.
    let budget = (worst.to_epsilon(delta) + worst.repeat(2).to_epsilon(delta)) / 2.0;
    let meter = Meter::new();
    let mut reactor = Reactor::new(
        ReactorConfig { max_sessions: 8, deadline: Duration::from_secs(120) },
        Arc::clone(&meter),
    )
    .with_budget(budget, delta, worst);

    let mut rng = StdRng::seed_from_u64(1);
    let (first, _) = SessionMachine::new(
        10,
        Arc::new(engine(3)),
        &votes_for(0),
        &full_roster(),
        Arc::clone(&meter),
        &mut rng,
    )
    .expect("prepare first");
    reactor.admit(first).expect("first session fits the budget");

    let (second, _) = SessionMachine::new(
        11,
        Arc::new(engine(3)),
        &votes_for(1),
        &full_roster(),
        Arc::clone(&meter),
        &mut rng,
    )
    .expect("prepare second");
    match reactor.admit(second).unwrap_err().reason {
        RejectReason::BudgetExhausted { remaining_epsilon } => {
            assert!(remaining_epsilon < budget);
        }
        other => panic!("expected a budget rejection, got {other:?}"),
    }

    let (dup, _) = SessionMachine::new(
        10,
        Arc::new(engine(3)),
        &votes_for(2),
        &full_roster(),
        Arc::clone(&meter),
        &mut rng,
    )
    .expect("prepare duplicate");
    assert_eq!(reactor.admit(dup).unwrap_err().reason, RejectReason::DuplicateSession);

    let stats = meter.fault_stats();
    assert_eq!(stats.sessions_admitted, 1);
    assert_eq!(stats.sessions_rejected, 2);
}

/// Frames for sessions the reactor never admitted surface as typed
/// errors, both pre-decoded and raw off the wire.
#[test]
fn unknown_and_malformed_frames_are_typed_errors() {
    let meter = Meter::new();
    let mut reactor = Reactor::new(ReactorConfig::default(), meter);
    let frame = SessionFrame {
        session: 424242,
        from: PartyId::User(0),
        to: PartyId::Server1,
        step: Step::SecureSumVotes,
        seq: 0,
        payload: bytes::Bytes::new(),
    };
    assert_eq!(reactor.ingest(frame.clone()).unwrap_err(), SessionError::UnknownSession(424242));
    assert_eq!(
        reactor.ingest_encoded(frame.to_bytes()).unwrap_err(),
        SessionError::UnknownSession(424242)
    );
    assert!(matches!(
        reactor.ingest_encoded(bytes::Bytes::from(b"\xFFgarbage".to_vec())).unwrap_err(),
        SessionError::Codec(_)
    ));
}

/// Admits clean sessions `0..n` and returns their upload frames.
fn admit_clean(reactor: &mut Reactor, meter: &Arc<Meter>, n: usize) -> Vec<Vec<SessionFrame>> {
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(1000 + i as u64);
            let (machine, frames) = SessionMachine::new(
                i as u64,
                Arc::new(engine(3)),
                &votes_for(i),
                &full_roster(),
                Arc::clone(meter),
                &mut rng,
            )
            .expect("prepare clean session");
            reactor.admit(machine).expect("admit clean session");
            frames
        })
        .collect()
}

/// Every session `0..n` finished `Done`, bit-identical to its solo run.
fn assert_all_match_solo(reactor: &mut Reactor, n: usize) {
    for i in 0..n {
        match reactor.take_result(i as u64) {
            Some(SessionResult::Done(out)) => assert_eq!(
                out.consensus_fingerprint(),
                solo_outcome(i).consensus_fingerprint(),
                "session {i} diverged from its solo run"
            ),
            other => panic!("session {i} must complete, got {other:?}"),
        }
    }
}

/// Frames a peer could forge — another party's name on them, a user off
/// the roster, the wrong destination or step, a renumbered or
/// out-of-range `seq` — are one typed error each, raw off the wire or
/// pre-decoded, and neither the session they name nor its neighbours
/// notice: all three fingerprints equal their solo runs.
#[test]
fn forged_and_renumbered_frames_are_typed_errors_that_touch_no_session() {
    let meter = Meter::new();
    let mut reactor = Reactor::new(
        ReactorConfig { max_sessions: 8, deadline: Duration::from_secs(120) },
        Arc::clone(&meter),
    );
    let frame_sets = admit_clean(&mut reactor, &meter, 3);
    // User 1's threshold vector for S1 in session 1.
    let good = frame_sets[1][7].clone();
    assert_eq!(
        (good.from, good.to, good.step),
        (PartyId::User(1), PartyId::Server1, Step::SecureSumVotes)
    );

    let uploads = (6 * USERS) as u64;
    let hostile = [
        ("a server's name", SessionFrame { from: PartyId::Server1, ..good.clone() }),
        ("another roster user's name", SessionFrame { from: PartyId::User(0), ..good.clone() }),
        ("a user off the roster", SessionFrame { from: PartyId::User(USERS), ..good.clone() }),
        ("the other server", SessionFrame { to: PartyId::Server2, ..good.clone() }),
        ("a user as destination", SessionFrame { to: PartyId::User(1), ..good.clone() }),
        ("the wrong step", SessionFrame { step: Step::SecureSumNoisy, ..good.clone() }),
        ("a server-to-server step", SessionFrame { step: Step::BlindPermute1, ..good.clone() }),
        ("the next user's index", SessionFrame { seq: good.seq + 6, ..good.clone() }),
        ("its own noisy-share index", SessionFrame { seq: good.seq + 1, ..good.clone() }),
        ("one past the upload", SessionFrame { seq: uploads, ..good.clone() }),
        ("an index no table has", SessionFrame { seq: u64::MAX, ..good.clone() }),
    ];
    for (what, frame) in hostile {
        let refused = SessionError::UnexpectedFrame { session: 1, seq: frame.seq };
        assert_eq!(reactor.ingest_encoded(frame.to_bytes()).unwrap_err(), refused, "{what}");
        assert_eq!(reactor.ingest(frame).unwrap_err(), refused, "{what}");
    }

    ingest_interleaved(&mut reactor, frame_sets);
    reactor.run_until_idle();
    assert_all_match_solo(&mut reactor, 3);
    let stats = meter.fault_stats();
    assert_eq!(
        (stats.sessions_admitted, stats.sessions_rejected, stats.sessions_evicted),
        (3, 0, 0)
    );
}

/// The same frame twice is a no-op — while its session is still
/// collecting, and again once every slot is full and the round is ready
/// to launch (where a queued extra frame used to trip a debug assertion
/// in the running machine). The first copy wins: a redelivery carrying
/// different bytes changes nothing.
#[test]
fn redelivered_frames_are_ignored_before_and_after_the_table_fills() {
    let meter = Meter::new();
    let mut reactor = Reactor::new(
        ReactorConfig { max_sessions: 8, deadline: Duration::from_secs(120) },
        Arc::clone(&meter),
    );
    let frame_sets = admit_clean(&mut reactor, &meter, 2);
    let first = frame_sets[0][0].clone();
    let last = frame_sets[0].last().expect("uploads").clone();
    let emptied =
        |frame: &SessionFrame| SessionFrame { payload: bytes::Bytes::new(), ..frame.clone() };

    reactor.ingest(first.clone()).expect("first copy");
    reactor.ingest(first.clone()).expect("second copy is a no-op");
    reactor.ingest(emptied(&first)).expect("so is one with other bytes");
    // Delivers `first` once more, and everything else once.
    ingest_interleaved(&mut reactor, frame_sets);
    for frame in [&first, &last] {
        assert_eq!(reactor.ingest_encoded(frame.to_bytes()), Ok(0));
        reactor.ingest(emptied(frame)).expect("a full table ignores redeliveries");
    }

    reactor.run_until_idle();
    assert_all_match_solo(&mut reactor, 2);
    let stats = meter.fault_stats();
    assert_eq!((stats.sessions_admitted, stats.sessions_evicted), (2, 0));
    // Finished sessions are unknown again, duplicates included.
    assert_eq!(reactor.ingest(first).unwrap_err(), SessionError::UnknownSession(0));
}
