//! Crash-recovery chaos matrix: every protocol step, either server,
//! with and without a concurrent user dropout.
//!
//! The headline invariant of the recovery subsystem: for every crash
//! step × seed, the supervised-and-recovered round's consensus result
//! is **bit-identical** to the uninterrupted round's — same label, same
//! witness aggregates, same survivor sets, same realized noise — and
//! its privacy budget is charged exactly once, no matter how many
//! attempts the execution took. Only reliability counters (timeouts,
//! retries, resumptions) may differ between the two runs.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use consensus_core::config::ConsensusConfig;
use consensus_core::recovery::{RdpLedger, RoundSupervisor};
use consensus_core::secure::{SecureEngine, SecureOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::{SessionConfig, SessionKeys};
use transport::{
    Checkpoint, CheckpointError, CheckpointStore, FaultPlan, FileCheckpointStore,
    MemoryCheckpointStore, Meter, PartyId, Step, TcpConfig, TimeoutPolicy, TransportBackend,
};

const USERS: usize = 5;
const CLASSES: usize = 3;

/// One shared keygen: recovery runs differ only in fault plans.
fn keys() -> &'static SessionKeys {
    static KEYS: OnceLock<SessionKeys> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(101);
        SessionKeys::generate(SessionConfig::test(USERS, CLASSES), &mut rng)
    })
}

/// A resilient engine with tiny noise, a short deadline and one retry,
/// so a crashed peer turns into a typed failure quickly.
fn engine(plan: FaultPlan) -> SecureEngine {
    SecureEngine::with_keys(
        keys().clone(),
        ConsensusConfig::paper_default(1e-6, 1e-6).with_min_users(2),
    )
    .with_timeout(TimeoutPolicy::with_retries(Duration::from_millis(40), 1, 2.0))
    .with_fault_plan(plan)
}

/// Unanimous votes for class 1: the threshold gate passes even after a
/// dropout, so every run exercises all nine steps of the pipeline.
fn votes() -> Vec<Vec<f64>> {
    let mut v = vec![0.0; CLASSES];
    v[1] = 1.0;
    vec![v; USERS]
}

/// The non-crash part of a cell's fault plan: clean, or one user lost
/// before its first upload lands.
fn base_plan(dropout: bool) -> FaultPlan {
    let plan = FaultPlan::new(7);
    if dropout {
        plan.crash(PartyId::User(3), Step::SecureSumVotes)
    } else {
        plan
    }
}

fn rng_seed(dropout: bool) -> u64 {
    if dropout {
        41
    } else {
        40
    }
}

/// The uninterrupted reference round for a dropout configuration. The
/// host RNG is re-seeded identically per cell, so the prepared round
/// (shares, noise, encryptions, server seeds) matches bit for bit.
fn baseline(dropout: bool) -> SecureOutcome {
    let eng = engine(base_plan(dropout));
    let mut rng = StdRng::seed_from_u64(rng_seed(dropout));
    eng.run_instance(&votes(), Meter::new(), &mut rng).expect("baseline round completes")
}

/// One matrix cell: crash `server` at `step`, recover via the
/// supervisor, and demand a bit-identical outcome with exactly-once
/// privacy accounting.
fn assert_crash_recovers(server: PartyId, step: Step, dropout: bool, base: &SecureOutcome) {
    let cell = format!("{server:?} crash at {step:?} (dropout={dropout})");
    let eng = engine(base_plan(dropout).crash(server, step));
    let store = Arc::new(MemoryCheckpointStore::new());
    let ledger = Arc::new(RdpLedger::new());
    let mut sup = RoundSupervisor::new(&eng, Arc::clone(&store) as Arc<dyn CheckpointStore>)
        .with_ledger(Arc::clone(&ledger));
    let meter = Meter::new();
    let mut rng = StdRng::seed_from_u64(rng_seed(dropout));
    let out = sup
        .run_instance(&votes(), Arc::clone(&meter), &mut rng)
        .unwrap_or_else(|e| panic!("{cell}: round not recovered: {e}"));

    assert_eq!(out.consensus_fingerprint(), base.consensus_fingerprint(), "{cell}: fingerprint");
    assert_eq!(out.health.charged_rdp(), base.health.charged_rdp(), "{cell}: realized RDP");
    assert!(out.health.resumptions >= 1, "{cell}: the crash must force a resumption");
    assert_eq!(
        out.health.resumed_from.len(),
        out.health.resumptions as usize,
        "{cell}: one re-entry step per resumption"
    );
    assert!(!out.health.is_clean(), "{cell}: a resumed round is not clean");
    assert_eq!(ledger.charges(), 1, "{cell}: RDP charged exactly once");
    assert_eq!(ledger.total(), Some(base.health.charged_rdp()), "{cell}: ledger total");
    assert!(store.is_empty(), "{cell}: a finished round leaves no snapshots behind");

    let stats = meter.fault_stats();
    assert!(stats.crashed_sends > 0, "{cell}: the crash never manifested");
    assert!(stats.checkpoints_saved > 0, "{cell}: no snapshots were written");
    assert_eq!(stats.rounds_resumed, out.health.resumptions, "{cell}: resumption counter");
}

#[test]
fn recovery_matrix_server1() {
    let base = baseline(false);
    for step in Step::ALL {
        assert_crash_recovers(PartyId::Server1, step, false, &base);
    }
}

#[test]
fn recovery_matrix_server2() {
    let base = baseline(false);
    for step in Step::ALL {
        assert_crash_recovers(PartyId::Server2, step, false, &base);
    }
}

#[test]
fn recovery_matrix_server1_with_user_dropout() {
    let base = baseline(true);
    assert_eq!(base.health.survivors, vec![0, 1, 2, 4], "dropout baseline loses user 3");
    for step in Step::ALL {
        assert_crash_recovers(PartyId::Server1, step, true, &base);
    }
}

#[test]
fn recovery_matrix_server2_with_user_dropout() {
    let base = baseline(true);
    for step in Step::ALL {
        assert_crash_recovers(PartyId::Server2, step, true, &base);
    }
}

/// The CI smoke slice of the matrix: one crash step, two seeds. Fast
/// enough for every pipeline run; the full matrix covers the rest.
#[test]
fn recovery_smoke_two_seeds() {
    for seed in [80u64, 81] {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = engine(FaultPlan::new(7))
            .run_instance(&votes(), Meter::new(), &mut rng)
            .expect("baseline completes");

        let eng = engine(FaultPlan::new(7).crash(PartyId::Server1, Step::BlindPermute1));
        let ledger = Arc::new(RdpLedger::new());
        let mut sup = RoundSupervisor::new(&eng, Arc::new(MemoryCheckpointStore::new()))
            .with_ledger(Arc::clone(&ledger));
        let mut rng = StdRng::seed_from_u64(seed);
        let out = sup.run_instance(&votes(), Meter::new(), &mut rng).expect("recovered");
        assert_eq!(out.consensus_fingerprint(), base.consensus_fingerprint(), "seed {seed}");
        assert!(out.health.resumptions >= 1, "seed {seed}");
        assert_eq!(ledger.charges(), 1, "seed {seed}");
    }
}

/// A mid-round TCP connection kill on the server spine: the chaos proxy
/// severs the Server1 → Server2 socket in the middle of a frame, the
/// link layer redials and replays from the last acknowledged sequence
/// number, and the supervised round finishes with the uninterrupted
/// in-proc fingerprint and a single RDP charge. The socket failure must
/// stay below the protocol: no dropout, no resumption, no torn frame
/// ever surfacing as data.
#[test]
fn tcp_connection_kill_recovers_two_seeds() {
    for seed in [80u64, 81] {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = engine(FaultPlan::new(7))
            .run_instance(&votes(), Meter::new(), &mut rng)
            .expect("baseline completes");

        let plan = FaultPlan::new(7).sever_connection(PartyId::Server1, PartyId::Server2, 2_000);
        let eng = engine(plan)
            .with_timeout(TimeoutPolicy::fast_local())
            .with_transport(TransportBackend::Tcp(TcpConfig::fast_local()));
        let ledger = Arc::new(RdpLedger::new());
        let mut sup = RoundSupervisor::new(&eng, Arc::new(MemoryCheckpointStore::new()))
            .with_ledger(Arc::clone(&ledger));
        let meter = Meter::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = sup.run_instance(&votes(), Arc::clone(&meter), &mut rng).expect("recovered");

        assert_eq!(
            out.consensus_fingerprint(),
            base.consensus_fingerprint(),
            "seed {seed}: fingerprint after the connection kill"
        );
        assert_eq!(ledger.charges(), 1, "seed {seed}: RDP charged exactly once");
        let stats = meter.fault_stats();
        assert!(stats.reconnects >= 1, "seed {seed}: the kill never forced a redial");
        assert!(out.health.dropouts.is_empty(), "seed {seed}: a severed socket is not a dropout");
    }
}

type StoreResult<T> = Result<T, CheckpointError>;

/// A store whose snapshots come back damaged: `mangle` is applied to
/// every payload on its way out.
struct Mangled {
    inner: MemoryCheckpointStore,
    mangle: fn(&mut Vec<u8>),
}

impl Mangled {
    fn damage(&self, loaded: Option<Checkpoint>) -> Option<Checkpoint> {
        loaded.map(|mut checkpoint| {
            (self.mangle)(&mut checkpoint.payload);
            checkpoint
        })
    }
}

impl CheckpointStore for Mangled {
    fn save(&self, round: u64, party: PartyId, step: Step, payload: &[u8]) -> StoreResult<()> {
        self.inner.save(round, party, step, payload)
    }

    fn load_latest(&self, round: u64, party: PartyId) -> StoreResult<Option<Checkpoint>> {
        self.inner.load_latest(round, party).map(|loaded| self.damage(loaded))
    }

    fn load_at(&self, round: u64, party: PartyId, step: Step) -> StoreResult<Option<Checkpoint>> {
        self.inner.load_at(round, party, step).map(|loaded| self.damage(loaded))
    }

    fn clear_round(&self, round: u64) -> StoreResult<()> {
        self.inner.clear_round(round)
    }
}

/// A checkpoint is a `RoundState`'s bytes and nothing else. A snapshot
/// in the previous format (one trailing byte) or cut short anywhere is
/// refused by the decoder, and the supervisor then restarts the round
/// from the beginning: same outcome, one charge, nothing restored.
#[test]
fn an_undecodable_snapshot_restarts_the_round_from_the_start() {
    let base = baseline(false);
    let manglings: [fn(&mut Vec<u8>); 4] = [
        |payload| payload.push(0),
        |payload| payload.truncate(payload.len() - 1),
        |payload| payload.truncate(payload.len() / 2),
        |payload| payload.clear(),
    ];
    for (case, mangle) in manglings.into_iter().enumerate() {
        let eng = engine(base_plan(false).crash(PartyId::Server1, Step::BlindPermute2));
        let store = Mangled { inner: MemoryCheckpointStore::new(), mangle };
        let ledger = Arc::new(RdpLedger::new());
        let mut sup = RoundSupervisor::new(&eng, Arc::new(store)).with_ledger(Arc::clone(&ledger));
        let meter = Meter::new();
        let mut rng = StdRng::seed_from_u64(rng_seed(false));
        let out = sup.run_instance(&votes(), Arc::clone(&meter), &mut rng).expect("recovered");
        assert_eq!(out.consensus_fingerprint(), base.consensus_fingerprint(), "case {case}");
        assert_eq!(out.health.resumed_from, [Step::SecureSumVotes], "case {case}");
        assert_eq!(meter.fault_stats().checkpoints_restored, 0, "case {case}");
        assert_eq!(ledger.charges(), 1, "case {case}");
    }
}

/// A user that crashes before its votes land but revives mid-round
/// stays excluded — the survivor set was fixed at step 2, and its late
/// noisy upload is never read — yet its link attempts fewer dead sends
/// than a crash-forever user's.
#[test]
fn revived_user_stays_excluded_with_fewer_dead_sends() {
    let run = |plan: FaultPlan| {
        let eng = engine(plan);
        let meter = Meter::new();
        let mut rng = StdRng::seed_from_u64(90);
        let out = eng.run_instance(&votes(), Arc::clone(&meter), &mut rng).expect("completes");
        (out, meter.fault_stats())
    };
    let forever = FaultPlan::new(7).crash(PartyId::User(3), Step::SecureSumVotes);
    // Back online at SecureSumNoisy: the noisy upload goes out, but the
    // servers only collect from step-2 survivors.
    let revived = forever.clone().revive_after(PartyId::User(3), 4);
    let (out_forever, stats_forever) = run(forever);
    let (out_revived, stats_revived) = run(revived);

    assert_eq!(out_forever.consensus_fingerprint(), out_revived.consensus_fingerprint());
    assert_eq!(out_revived.health.dropouts, vec![(3, Step::SecureSumVotes)]);
    assert_eq!(out_revived.health.survivors, vec![0, 1, 2, 4]);
    assert!(
        stats_revived.crashed_sends < stats_forever.crashed_sends,
        "a revived link must attempt fewer dead sends ({} vs {})",
        stats_revived.crashed_sends,
        stats_forever.crashed_sends
    );
}

/// Temporary directory with automatic cleanup, mirroring the journal
/// tests in the transport crate.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tempdir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The file-backed journal drives the same recovery as the in-memory
/// store, snapshots are tombstoned at round end, and a second round on
/// the same supervisor charges the ledger independently.
#[test]
fn file_backed_supervisor_recovers_and_clears() {
    let tmp = TempDir::new("journal");
    let base = baseline(false);
    let eng = engine(base_plan(false).crash(PartyId::Server2, Step::CompareRank));
    let store = Arc::new(FileCheckpointStore::open(&tmp.0).expect("open journal"));
    let ledger = Arc::new(RdpLedger::new());
    let mut sup = RoundSupervisor::new(&eng, Arc::clone(&store) as Arc<dyn CheckpointStore>)
        .with_ledger(Arc::clone(&ledger));

    let mut rng = StdRng::seed_from_u64(rng_seed(false));
    assert_eq!(sup.next_round_id(), 0);
    let out = sup.run_instance(&votes(), Meter::new(), &mut rng).expect("recovered");
    assert_eq!(out.consensus_fingerprint(), base.consensus_fingerprint());
    assert!(out.health.resumptions >= 1);
    assert!(tmp.0.join("journal.ckpt").exists(), "the journal file must exist");
    for party in [PartyId::Server1, PartyId::Server2] {
        assert_eq!(
            store.load_latest(0, party).expect("journal readable"),
            None,
            "round 0 snapshots must be cleared after success"
        );
    }

    // A second logical round on the same supervisor: fresh round id,
    // fresh charge. (Different host RNG position — only validity and
    // accounting are asserted, not a fingerprint match.)
    assert_eq!(sup.next_round_id(), 1);
    let out2 = sup.run_instance(&votes(), Meter::new(), &mut rng).expect("second round");
    assert_eq!(out2.label, Some(1));
    assert_eq!(ledger.charges(), 2);
}
