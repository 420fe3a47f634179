//! Covert-server audit chaos matrix: commit-and-challenge verification
//! of the blind-permute and restoration steps under injected Byzantine
//! deviations.
//!
//! Every cell of the matrix — each [`ByzantineAction`] by each server at
//! each auditable step — must end in the typed
//! [`SmcError::AuditFailure`] naming the guilty party and step, with the
//! evidence class the deviation implies. Honest rounds must be
//! fingerprint-identical with auditing on and off (the audit layer
//! commits to seeds the protocol already derives; it draws no randomness
//! of its own), including rounds resumed from a mid-round checkpoint.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use consensus_core::config::ConsensusConfig;
use consensus_core::recovery::{RdpLedger, RoundSupervisor};
use consensus_core::secure::SecureEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::{AuditEvidence, AuditPolicy, SessionConfig, SessionKeys, SmcError};
use transport::{
    ByzantineAction, CheckpointStore, FaultPlan, MemoryCheckpointStore, Meter, PartyId, Step,
    TcpConfig, TimeoutPolicy, TransportBackend,
};

const USERS: usize = 5;
const CLASSES: usize = 3;

/// One shared keygen: audit runs differ only in policies and fault plans.
fn keys() -> &'static SessionKeys {
    static KEYS: OnceLock<SessionKeys> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(77);
        SessionKeys::generate(SessionConfig::test(USERS, CLASSES), &mut rng)
    })
}

/// An engine with short receive windows and the given fault plan.
fn engine(plan: FaultPlan) -> SecureEngine {
    SecureEngine::with_keys(
        keys().clone(),
        ConsensusConfig::paper_default(1e-6, 1e-6).with_min_users(2),
    )
    .with_timeout(TimeoutPolicy::with_retries(Duration::from_millis(40), 1, 2.0))
    .with_fault_plan(plan)
}

/// Unanimous votes for class 1: the threshold gate passes, so every run
/// reaches all nine steps — both blind-permutes and the restoration.
fn votes() -> Vec<Vec<f64>> {
    let mut v = vec![0.0; CLASSES];
    v[1] = 1.0;
    vec![v; USERS]
}

/// A fault plan carrying exactly one Byzantine deviation.
fn byzantine_plan(action: ByzantineAction, party: PartyId, step: Step) -> FaultPlan {
    let plan = FaultPlan::new(1);
    match action {
        ByzantineAction::Equivocate => plan.equivocate(party, step),
        ByzantineAction::TamperPermutation => plan.tamper_permutation(party, step),
        ByzantineAction::DropMask => plan.drop_mask(party, step),
        ByzantineAction::ReplayStaleFrame => plan.replay_stale_frame(party, step),
    }
}

/// The evidence class each deviation must be convicted with: wire
/// substitutions diverge the transcripts, tampered draws diverge the
/// replayed permutation or masks.
fn expected_evidence(action: ByzantineAction, evidence: &AuditEvidence) -> bool {
    match action {
        ByzantineAction::Equivocate | ByzantineAction::ReplayStaleFrame => {
            matches!(evidence, AuditEvidence::TranscriptDivergence { .. })
        }
        ByzantineAction::TamperPermutation => {
            matches!(evidence, AuditEvidence::PermutationMismatch { .. })
        }
        ByzantineAction::DropMask => matches!(evidence, AuditEvidence::MaskMismatch { .. }),
    }
}

const ACTIONS: [ByzantineAction; 4] = [
    ByzantineAction::Equivocate,
    ByzantineAction::TamperPermutation,
    ByzantineAction::DropMask,
    ByzantineAction::ReplayStaleFrame,
];
const AUDITED_STEPS: [Step; 3] = [Step::BlindPermute1, Step::BlindPermute2, Step::Restoration];

/// S1's restoration sends nothing before its final plaintext message, so
/// there is no earlier same-type frame a stale replay could substitute —
/// the one structurally inapplicable cell of the matrix.
fn applicable(action: ByzantineAction, party: PartyId, step: Step) -> bool {
    !(action == ByzantineAction::ReplayStaleFrame
        && party == PartyId::Server1
        && step == Step::Restoration)
}

/// The full strict-mode matrix: every deviation by every server at every
/// auditable step is convicted — typed abort, guilty party, guilty step,
/// matching evidence class, and the meter counters record the challenge
/// and the conviction.
#[test]
fn strict_audit_convicts_every_byzantine_cell() {
    for action in ACTIONS {
        for party in [PartyId::Server1, PartyId::Server2] {
            for step in AUDITED_STEPS {
                if !applicable(action, party, step) {
                    continue;
                }
                let cell = format!("{action:?} by {party:?} at {step:?}");
                let eng =
                    engine(byzantine_plan(action, party, step)).with_audit(AuditPolicy::strict());
                let meter = Meter::new();
                let mut rng = StdRng::seed_from_u64(30);
                let err = eng
                    .run_instance(&votes(), Arc::clone(&meter), &mut rng)
                    .expect_err(&format!("{cell}: deviation must not yield an outcome"));
                match err {
                    SmcError::AuditFailure { party: guilty, step: at, evidence } => {
                        assert_eq!(guilty, party, "{cell}: wrong party convicted");
                        assert_eq!(at, step, "{cell}: wrong step convicted");
                        assert!(
                            expected_evidence(action, &evidence),
                            "{cell}: wrong evidence class: {evidence}"
                        );
                    }
                    other => panic!("{cell}: expected an audit conviction, got {other}"),
                }
                let stats = meter.fault_stats();
                assert!(stats.audit_challenges > 0, "{cell}: no challenge verified");
                assert!(stats.audit_failures > 0, "{cell}: conviction not counted");
                if matches!(action, ByzantineAction::Equivocate | ByzantineAction::ReplayStaleFrame)
                {
                    assert!(stats.equivocation_detected > 0, "{cell}: equivocation not counted");
                }
            }
        }
    }
}

/// Resilient policy under a deviating server: the abort stays typed and
/// clean — no panic, no label released from tainted data — and a
/// supervised round never charges privacy budget for it, no matter how
/// many resumption attempts re-convict.
#[test]
fn resilient_audit_aborts_cleanly_and_charges_nothing() {
    let plan = byzantine_plan(ByzantineAction::Equivocate, PartyId::Server2, Step::BlindPermute2);
    let eng = engine(plan).with_audit(AuditPolicy::resilient());
    let ledger = Arc::new(RdpLedger::new());
    let store = Arc::new(MemoryCheckpointStore::new());
    let mut sup = RoundSupervisor::new(&eng, Arc::clone(&store) as Arc<dyn CheckpointStore>)
        .with_ledger(Arc::clone(&ledger));
    let mut rng = StdRng::seed_from_u64(31);
    let err = sup.run_instance(&votes(), Meter::new(), &mut rng).unwrap_err();
    assert!(
        matches!(
            err,
            SmcError::AuditFailure { party: PartyId::Server2, step: Step::BlindPermute2, .. }
        ),
        "expected the conviction to survive every attempt, got {err}"
    );
    assert_eq!(ledger.charges(), 0, "a convicted round must never charge the ledger");
}

/// Honest rounds with auditing on are bit-identical to auditing off: the
/// audit layer commits to seeds the pipeline already derives and draws
/// no protocol randomness, so the consensus fingerprint cannot move.
#[test]
fn honest_round_fingerprint_is_audit_invariant() {
    let mut rng = StdRng::seed_from_u64(32);
    let base = engine(FaultPlan::new(2))
        .run_instance(&votes(), Meter::new(), &mut rng)
        .expect("audit-off round completes");
    assert!(base.health.is_clean());
    assert_eq!(base.health.audit_challenges, 0, "auditing off records no challenges");

    let meter = Meter::new();
    let mut rng = StdRng::seed_from_u64(32);
    let out = engine(FaultPlan::new(2))
        .with_audit(AuditPolicy::strict())
        .run_instance(&votes(), Arc::clone(&meter), &mut rng)
        .expect("audited honest round completes");
    assert_eq!(out.consensus_fingerprint(), base.consensus_fingerprint());
    assert!(out.health.is_clean(), "a passed challenge is not a fault");
    assert!(out.health.audit_challenges > 0, "every step audit must be surfaced in health");
    let stats = meter.fault_stats();
    assert!(stats.audit_challenges > 0);
    assert_eq!(stats.audit_failures, 0, "honest servers are never convicted");

    // A sampled policy challenges only its seeded fraction of rounds but
    // never perturbs the outcome either way.
    let mut rng = StdRng::seed_from_u64(32);
    let sampled = engine(FaultPlan::new(2))
        .with_audit(AuditPolicy::sampled(0.5, 9))
        .run_instance(&votes(), Meter::new(), &mut rng)
        .expect("sampled-audit round completes");
    assert_eq!(sampled.consensus_fingerprint(), base.consensus_fingerprint());
}

/// The TCP backend carries the commit/open frames over real sockets with
/// the same fingerprint as the in-proc mesh.
#[test]
fn tcp_audited_round_matches_inproc_fingerprint() {
    let mut rng = StdRng::seed_from_u64(33);
    let base = engine(FaultPlan::new(3))
        .run_instance(&votes(), Meter::new(), &mut rng)
        .expect("in-proc round completes");

    let mut rng = StdRng::seed_from_u64(33);
    let out = SecureEngine::with_keys(
        keys().clone(),
        ConsensusConfig::paper_default(1e-6, 1e-6).with_min_users(2),
    )
    .with_timeout(TimeoutPolicy::fast_local())
    .with_transport(TransportBackend::Tcp(TcpConfig::fast_local()))
    .with_audit(AuditPolicy::strict())
    .run_instance(&votes(), Meter::new(), &mut rng)
    .expect("audited tcp round completes");
    assert_eq!(out.consensus_fingerprint(), base.consensus_fingerprint());
    assert!(out.health.audit_challenges > 0);
}

/// Crash recovery composed with auditing: the audit commitments live in
/// the round's checkpoints, so a round resumed mid-challenge re-verifies
/// against the seeds committed before the crash. A crash *after* the
/// second blind-permute is the critical cell — the restoration check
/// compares against the peer permutation digest learned at that step,
/// which must survive the checkpoint round-trip.
#[test]
fn resumed_audited_round_keeps_fingerprint_and_charges_once() {
    let mut rng = StdRng::seed_from_u64(34);
    let base = engine(FaultPlan::new(4))
        .run_instance(&votes(), Meter::new(), &mut rng)
        .expect("baseline completes");

    for crash_step in [Step::CompareRank, Step::CompareNoisyRank, Step::Restoration] {
        let cell = format!("crash at {crash_step:?}");
        let eng = engine(FaultPlan::new(4).crash(PartyId::Server1, crash_step))
            .with_audit(AuditPolicy::strict());
        let ledger = Arc::new(RdpLedger::new());
        let store = Arc::new(MemoryCheckpointStore::new());
        let mut sup = RoundSupervisor::new(&eng, Arc::clone(&store) as Arc<dyn CheckpointStore>)
            .with_ledger(Arc::clone(&ledger));
        let mut rng = StdRng::seed_from_u64(34);
        let out = sup
            .run_instance(&votes(), Meter::new(), &mut rng)
            .unwrap_or_else(|e| panic!("{cell}: audited round not recovered: {e}"));
        assert_eq!(
            out.consensus_fingerprint(),
            base.consensus_fingerprint(),
            "{cell}: resumed audited fingerprint diverged"
        );
        assert!(out.health.resumptions >= 1, "{cell}: the crash must force a resumption");
        assert!(out.health.audit_challenges > 0, "{cell}: resumed challenges must re-verify");
        assert_eq!(ledger.charges(), 1, "{cell}: RDP charged exactly once");
        assert!(store.is_empty(), "{cell}: a finished round leaves no snapshots behind");
    }
}

/// The CI smoke slice: one strict conviction and one resilient clean
/// abort per seed — fast enough for every pipeline run; the full matrix
/// covers the rest.
#[test]
fn audit_smoke_two_seeds() {
    for seed in [90u64, 91] {
        let plan = byzantine_plan(
            ByzantineAction::TamperPermutation,
            PartyId::Server1,
            Step::BlindPermute1,
        );
        let eng = engine(plan.clone()).with_audit(AuditPolicy::strict());
        let mut rng = StdRng::seed_from_u64(seed);
        let err = eng.run_instance(&votes(), Meter::new(), &mut rng).unwrap_err();
        assert!(
            matches!(
                err,
                SmcError::AuditFailure { party: PartyId::Server1, step: Step::BlindPermute1, .. }
            ),
            "seed {seed}: expected a conviction, got {err}"
        );

        let eng = engine(plan).with_audit(AuditPolicy::resilient());
        let mut rng = StdRng::seed_from_u64(seed);
        let err = eng.run_instance(&votes(), Meter::new(), &mut rng).unwrap_err();
        assert!(
            matches!(err, SmcError::AuditFailure { .. }),
            "seed {seed}: resilient mode must still convict a real divergence, got {err}"
        );
    }
}

/// How a deviation ends when nobody audits (DESIGN.md §11 carries this
/// table).
enum Unaudited {
    /// The round fails with a typed error, every time.
    TypedError,
    /// The round releases a label decided by tampered data: wrong or, by
    /// luck, right.
    WrongLabel,
    /// The round releases the honest label with the honest fingerprint.
    Unnoticed,
}

fn unaudited(action: ByzantineAction, party: PartyId, step: Step) -> Unaudited {
    use ByzantineAction::*;
    match (action, party, step) {
        // Restoration's one-hot check refuses a nudged or stale
        // indicator, and S2's stale Blind-and-Permute frame comes back to
        // it as a plaintext that overruns its slots.
        (Equivocate, _, Step::Restoration) | (ReplayStaleFrame, PartyId::Server2, _) => {
            Unaudited::TypedError
        }
        // A wrong inverse walks the indicator to another class; S1's
        // stale frame hands S2 well-formed sequences of the wrong values.
        (TamperPermutation, _, Step::Restoration) | (ReplayStaleFrame, PartyId::Server1, _) => {
            Unaudited::WrongLabel
        }
        // One fixed-point unit in one slot, another permutation as
        // uniform as the committed one, a mask that only hid something.
        _ => Unaudited::Unnoticed,
    }
}

/// ROADMAP "hostile inputs" (5): the same matrix with the audit off.
/// Nothing panics and nothing hangs; what a deviation costs is typed,
/// a label, or nothing the servers can see.
#[test]
fn without_an_audit_every_byzantine_cell_ends_as_documented() {
    const SEEDS: std::ops::Range<u64> = 30..36;
    let honest: Vec<_> = SEEDS
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            engine(FaultPlan::new(1)).run_instance(&votes(), Meter::new(), &mut rng).unwrap()
        })
        .collect();
    for action in ACTIONS {
        for party in [PartyId::Server1, PartyId::Server2] {
            for step in AUDITED_STEPS.into_iter().filter(|&step| applicable(action, party, step)) {
                let cell = format!("{action:?} by {party:?} at {step:?}");
                let runs: Vec<_> = SEEDS
                    .map(|seed| {
                        let mut rng = StdRng::seed_from_u64(seed);
                        engine(byzantine_plan(action, party, step)).run_instance(
                            &votes(),
                            Meter::new(),
                            &mut rng,
                        )
                    })
                    .collect();
                match unaudited(action, party, step) {
                    Unaudited::TypedError => {
                        for run in &runs {
                            assert!(
                                matches!(
                                    run,
                                    Err(SmcError::LengthMismatch { .. } | SmcError::Packing(_))
                                ),
                                "{cell}: {run:?}"
                            );
                        }
                    }
                    Unaudited::WrongLabel => {
                        let released = runs.into_iter().map(|run| run.expect(&cell).label);
                        assert!(released.ne(honest.iter().map(|out| out.label)), "{cell}");
                    }
                    Unaudited::Unnoticed => {
                        for (run, honest) in runs.iter().zip(&honest) {
                            let out = run.as_ref().expect(&cell);
                            assert_eq!(
                                out.consensus_fingerprint(),
                                honest.consensus_fingerprint(),
                                "{cell}"
                            );
                        }
                    }
                }
            }
        }
    }
}
