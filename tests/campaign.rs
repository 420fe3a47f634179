//! Durable campaign-daemon soak: kill-and-restart resumption with
//! exactly-once RDP charging, admission control at the budget edge,
//! roster churn, stall parking, and whole-shard dropout degradation.
//!
//! The headline invariant: a campaign killed at arbitrary round
//! boundaries and restarted from its directory produces the **same
//! released-label sequence** as an uninterrupted run, spends the **same
//! epsilon to the bit**, and charges every round **exactly once** — the
//! durable ledger refuses duplicate charges during the deterministic
//! replay.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use consensus_core::campaign::{
    CampaignConfig, CampaignRunner, CampaignStop, RosterChange, RosterEvent,
};
use consensus_core::config::ConsensusConfig;
use consensus_core::secure::SecureEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::shard::recalibrate_sigma;
use smc::{SessionConfig, SessionKeys, ShardConfig};
use transport::{FaultPlan, Meter, PartyId, Step, TimeoutPolicy};

const USERS: usize = 5;
const CLASSES: usize = 3;

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("campaign-test-{label}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn onehot(k: usize, classes: usize) -> Vec<f64> {
    let mut v = vec![0.0; classes];
    v[k] = 1.0;
    v
}

/// `n` instances with `rows` unanimous voters each (row count covers the
/// largest roster the campaign can churn up to).
fn unanimous_instances(n: usize, rows: usize) -> Vec<Vec<Vec<f64>>> {
    (0..n).map(|i| vec![onehot(i % CLASSES, CLASSES); rows]).collect()
}

/// The soak campaign: σ₁ = σ₂ = 1.5 (measurable per-round spend), 60%
/// threshold, quorum 2 of 5, fixed campaign seed.
fn campaign_config(budget: f64) -> CampaignConfig {
    CampaignConfig::new(
        ConsensusConfig::paper_default(1.5, 1.5).with_min_users(2),
        USERS,
        CLASSES,
        budget,
        1e-6,
    )
    .with_seed(1234)
}

/// A short receive deadline so injected crashes surface quickly.
fn fast_timeout() -> TimeoutPolicy {
    TimeoutPolicy::with_retries(Duration::from_millis(40), 1, 2.0)
}

/// A fault plan that crashes Server1 mid-pipeline — it re-fires every
/// round, so *every* round of the campaign resumes from checkpoints.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(7).crash(PartyId::Server1, Step::BlindPermute1)
}

fn open_runner(dir: &TempDir, budget: f64) -> CampaignRunner {
    CampaignRunner::open(&dir.0, campaign_config(budget))
        .expect("open campaign")
        .with_timeout(fast_timeout())
        .with_fault_plan(chaos_plan())
}

/// The 30-round chaos soak. Every round is crash-resumed mid-pipeline
/// by the fault plan; on top of that the daemon itself is killed at two
/// round boundaries and restarted from its directory. The interrupted
/// lineage must reproduce the uninterrupted run exactly: same released
/// labels, bitwise-equal epsilon, every round charged exactly once.
#[test]
fn campaign_soak_kill_restart_30_rounds() {
    const ROUNDS: usize = 30;
    let instances = unanimous_instances(ROUNDS, USERS);
    let budget = 1000.0;

    // Reference: one uninterrupted lifetime.
    let reference = {
        let dir = TempDir::new("soak-ref");
        let mut runner = open_runner(&dir, budget);
        runner.run(&instances, Meter::new()).expect("uninterrupted run")
    };
    assert_eq!(reference.stop, CampaignStop::InstancesExhausted);
    assert_eq!(reference.rounds.len(), ROUNDS, "every instance answers");
    assert!(reference.rounds.iter().all(|r| r.charged), "first lifetime charges every round");
    assert!(
        reference.rounds.iter().all(|r| r.resumptions >= 1),
        "the chaos plan must force a resumption every round"
    );
    assert!(reference.epsilon_spent <= budget, "budget never exceeded");
    // The ledger only ever composes: the ε trajectory climbs with every
    // charged round and ends at the campaign's spend.
    let trajectory: Vec<f64> = reference.rounds.iter().map(|r| r.epsilon_total).collect();
    assert!(trajectory[0] > 0.0 && trajectory.windows(2).all(|w| w[0] < w[1]), "{trajectory:?}");
    assert_eq!(trajectory[ROUNDS - 1], reference.epsilon_spent);

    // Chaos lineage: kill after 9 rounds, again after 21, then finish.
    let dir = TempDir::new("soak-kill");
    {
        let mut runner = open_runner(&dir, budget);
        let partial = runner.run(&instances[..9], Meter::new()).expect("first lifetime");
        assert_eq!(partial.rounds.len(), 9);
        // Runner dropped here = kill -9 at a round boundary.
    }
    {
        let mut runner = open_runner(&dir, budget);
        assert!(
            runner.epsilon_spent() > 0.0,
            "reopened ledger resumes at the epsilon already spent"
        );
        let partial = runner.run(&instances[..21], Meter::new()).expect("second lifetime");
        let replayed = partial.rounds.iter().filter(|r| !r.charged).count();
        assert_eq!(replayed, 9, "the 9 paid rounds replay without re-charging");
    }
    let resumed = {
        let mut runner = open_runner(&dir, budget);
        runner.run(&instances, Meter::new()).expect("final lifetime")
    };

    assert_eq!(
        resumed.released, reference.released,
        "released-label sequence must be bit-identical across kills"
    );
    assert_eq!(
        resumed.epsilon_spent, reference.epsilon_spent,
        "epsilon must resume exactly (same charges, same composition)"
    );
    let replayed = resumed.rounds.iter().filter(|r| !r.charged).count();
    assert_eq!(replayed, 21, "rounds paid by earlier lifetimes are not re-charged");
    let ledger_rounds = {
        let runner = open_runner(&dir, budget);
        runner.ledger().charged_rounds()
    };
    assert_eq!(
        ledger_rounds,
        (0..ROUNDS as u64).collect::<Vec<_>>(),
        "exactly one durable charge per logical round"
    );
}

/// Admission control: the ledger refuses the first round whose
/// *worst-case* spend would exceed the budget — and keeps refusing it
/// after a restart, at the same instance, with the paid prefix replayed
/// for free.
#[test]
fn admission_refuses_first_over_budget_round() {
    // At σ = 1.5, quorum 2/5: one clean round spends ε ≈ 14.1 and the
    // worst-case admission charge is ε ≈ 24.5; admitting a second round
    // would need ε ≈ 30.3. A budget of 28 admits exactly one round.
    let budget = 28.0;
    let instances = unanimous_instances(5, USERS);
    let dir = TempDir::new("budget");

    let first = {
        let mut runner = CampaignRunner::open(&dir.0, campaign_config(budget))
            .expect("open campaign")
            .with_timeout(fast_timeout());
        runner.run(&instances, Meter::new()).expect("run to refusal")
    };
    match first.stop {
        CampaignStop::BudgetExhausted { refused_instance, worst_case_epsilon } => {
            assert_eq!(refused_instance, 1, "round 0 fits, round 1 is refused");
            assert!(worst_case_epsilon > budget, "the refused round would overshoot");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert_eq!(first.rounds.len(), 1);
    assert!(first.epsilon_spent <= budget, "spend stays under budget");
    assert!(first.epsilon_spent > 0.0);

    // Restart: the paid round replays uncharged, the refusal repeats.
    let second = {
        let mut runner = CampaignRunner::open(&dir.0, campaign_config(budget))
            .expect("reopen campaign")
            .with_timeout(fast_timeout());
        runner.run(&instances, Meter::new()).expect("replay to refusal")
    };
    assert_eq!(second.released, first.released);
    assert_eq!(second.epsilon_spent, first.epsilon_spent, "epsilon resumes exactly");
    assert!(second.rounds.iter().all(|r| !r.charged), "no new charges after restart");
    assert!(matches!(second.stop, CampaignStop::BudgetExhausted { refused_instance: 1, .. }));
}

/// A fault plan alone (no configured `min_users`) makes the engine
/// resilient with an effective quorum of **one** survivor — admission
/// must budget for that deepest legal cohort, not the full roster,
/// or a ragged round could charge past the admitted worst case.
#[test]
fn fault_plan_without_quorum_budgets_for_single_survivor() {
    let (s1, s2) = (1.5, 1.5);
    let delta = 1e-6;
    let round_at = |sigma: f64| {
        dp::rdp::LinearRdp::sparse_vector(sigma)
            .compose(&dp::rdp::LinearRdp::report_noisy_max(sigma))
            .to_epsilon(delta)
    };
    let clean = round_at(s1);
    let worst_single = round_at(recalibrate_sigma(s1, USERS, 1));
    assert!(worst_single > clean);
    // Admits one strict (all-members) round, refuses the quorum-1 worst case.
    let budget = (clean + worst_single) / 2.0;
    let config = CampaignConfig::new(
        ConsensusConfig::paper_default(s1, s2), // deliberately no min_users
        USERS,
        CLASSES,
        budget,
        delta,
    )
    .with_seed(1234);
    let instances = unanimous_instances(1, USERS);

    // Without a fault plan the rounds are strict: every member survives
    // or the round aborts, so the worst case is the clean charge — fits.
    let dir = TempDir::new("strict-fits");
    let strict = CampaignRunner::open(&dir.0, config.clone())
        .expect("open strict campaign")
        .with_timeout(fast_timeout())
        .run(&instances, Meter::new())
        .expect("strict run");
    assert_eq!(strict.stop, CampaignStop::InstancesExhausted);
    assert_eq!(strict.rounds.len(), 1, "the strict round fits the budget");
    assert!(strict.epsilon_spent <= budget);

    // Attaching a fault plan — even one that never fires — drops the
    // engine's effective quorum to 1, so a round may legally realize
    // the single-survivor charge. Admission must refuse it up front.
    let dir = TempDir::new("resilient-refuses");
    let resilient = CampaignRunner::open(&dir.0, config)
        .expect("open resilient campaign")
        .with_timeout(fast_timeout())
        .with_fault_plan(FaultPlan::new(7))
        .run(&instances, Meter::new())
        .expect("resilient run");
    match resilient.stop {
        CampaignStop::BudgetExhausted { refused_instance, worst_case_epsilon } => {
            assert_eq!(refused_instance, 0, "refused before any spend");
            assert!(worst_case_epsilon > budget, "the worst case overshoots");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert!(resilient.rounds.is_empty());
    assert_eq!(resilient.epsilon_spent, 0.0, "a refused round charges nothing");
}

/// Roster churn between rounds: leaves shrink the session, joins grow
/// it, crashes are counted separately — and every epoch still answers.
#[test]
fn roster_churn_rebuilds_sessions_between_rounds() {
    let instances = unanimous_instances(3, USERS + 2);
    let dir = TempDir::new("churn");
    // σ = 0.25: even the shrunken 4-member epoch clears its threshold by
    // >6σ, so every epoch deterministically releases.
    let config = CampaignConfig::new(
        ConsensusConfig::paper_default(0.25, 0.25).with_min_users(2),
        USERS,
        CLASSES,
        1e6,
        1e-6,
    )
    .with_seed(1234);
    let mut runner = CampaignRunner::open(&dir.0, config)
        .expect("open campaign")
        .with_timeout(fast_timeout())
        .with_roster_events(vec![
            RosterEvent::new(1, RosterChange::Leave(1)),
            RosterEvent::new(2, RosterChange::Join(2)),
            RosterEvent::new(2, RosterChange::Crash(1)),
        ]);
    let report = runner.run(&instances, Meter::new()).expect("churned campaign");

    assert_eq!(report.stop, CampaignStop::InstancesExhausted);
    assert_eq!((report.joins, report.leaves, report.crashes), (2, 1, 1));
    let members: Vec<usize> = report.rounds.iter().map(|r| r.members).collect();
    assert_eq!(members, vec![5, 4, 5], "leave → 4, join 2 + crash 1 → 5");
    assert_eq!(report.released.len(), 3, "every epoch still releases");
    for (cost, idx) in report.rounds.iter().zip(0..) {
        assert_eq!(cost.instance, idx);
        assert_eq!(cost.survivors, cost.members, "clean rounds lose nobody");
    }
}

/// Persistent quorum loss: instances burn their retry budget, get
/// parked, and a streak of parked instances stops the run with a typed
/// stall carrying a backoff hint.
#[test]
fn repeated_quorum_loss_parks_and_stalls() {
    // Quorum = all 5 users, but user 3 crashes before its first upload
    // in every round: quorum is unrecoverably lost each time.
    let config = CampaignConfig::new(
        ConsensusConfig::paper_default(1.5, 1.5).with_min_users(USERS),
        USERS,
        CLASSES,
        1000.0,
        1e-6,
    )
    .with_seed(99)
    .with_instance_retries(1)
    .with_stall_threshold(2);
    let dir = TempDir::new("stall");
    let mut runner = CampaignRunner::open(&dir.0, config)
        .expect("open campaign")
        .with_timeout(fast_timeout())
        .with_fault_plan(FaultPlan::new(7).crash(PartyId::User(3), Step::SecureSumVotes));
    let instances = unanimous_instances(5, USERS);
    let report = runner.run(&instances, Meter::new()).expect("stalled campaign");

    match report.stop {
        CampaignStop::Stalled(stall) => {
            assert_eq!(stall.consecutive_failures, 2);
            assert_eq!(stall.at_instance, 1);
            assert!(stall.backoff >= Duration::from_millis(100), "backoff hint grows");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
    assert_eq!(report.parked, vec![0, 1], "both attempted instances parked");
    assert!(report.rounds.is_empty(), "no round completed");
    assert_eq!(report.epsilon_spent, 0.0, "failed rounds charge nothing");
}

/// Whole-shard dropout: when every member of an aggregation shard
/// crashes, the round completes on the surviving shards with honestly
/// recalibrated noise — and produces the *identical* consensus
/// fingerprint as the flat (unsharded) path under the same faults.
#[test]
fn whole_shard_dropout_recalibrates_and_matches_flat_path() {
    const N: usize = 8;
    // Tiny noise (deterministic outcome), 20% threshold so the two
    // survivors still clear T = 1.6 votes and the release step runs.
    let consensus = ConsensusConfig::new(0.2, 0.05, 0.05).with_min_users(2);
    // Crash users 2..8 before their first upload: survivors {0, 1}
    // occupy at most two of the three shards, so at least one populated
    // shard loses its entire membership.
    let mut plan = FaultPlan::new(7);
    for u in 2..N {
        plan = plan.crash(PartyId::User(u), Step::SecureSumVotes);
    }
    let votes = vec![onehot(1, CLASSES); N];

    let run = |shards: Option<usize>| {
        let mut cfg = SessionConfig::test(N, CLASSES);
        if let Some(k) = shards {
            cfg = cfg.with_shards(ShardConfig::new(k));
        }
        let mut keyrng = StdRng::seed_from_u64(7);
        let keys = SessionKeys::generate(cfg, &mut keyrng);
        let engine = SecureEngine::with_keys(keys, consensus)
            .with_timeout(fast_timeout())
            .with_fault_plan(plan.clone());
        let meter = Meter::new();
        let mut rng = StdRng::seed_from_u64(57);
        let out = engine
            .run_instance(&votes, Arc::clone(&meter), &mut rng)
            .expect("degraded round completes");
        (out, meter.fault_stats())
    };

    let (flat, flat_stats) = run(None);
    let (sharded, sharded_stats) = run(Some(3));

    assert_eq!(
        sharded.consensus_fingerprint(),
        flat.consensus_fingerprint(),
        "shard geometry must not change the consensus"
    );
    assert_eq!(sharded.health.survivors, vec![0, 1]);
    assert_eq!(
        sharded.health.realized_sigma1,
        recalibrate_sigma(consensus.sigma1, N, 2),
        "threshold noise recalibrates to the realized survivor count"
    );
    assert_eq!(sharded.label, Some(1), "the survivors' unanimous class is released");
    let noisy = sharded.health.noisy_survivors.as_ref().expect("release step ran");
    assert_eq!(
        sharded.health.realized_sigma2,
        Some(recalibrate_sigma(consensus.sigma2, N, noisy.len())),
        "argmax noise recalibrates to the step-6 survivor count"
    );
    assert!(
        sharded_stats.shards_dropped >= 1,
        "losing a whole shard must be recorded: {sharded_stats:?}"
    );
    assert_eq!(flat_stats.shards_dropped, 0, "the flat path has no shards to lose");
    // Honest accounting: the degraded round charges more than a clean one.
    let clean = dp::rdp::LinearRdp::sparse_vector(consensus.sigma1)
        .compose(&dp::rdp::LinearRdp::report_noisy_max(consensus.sigma2));
    assert!(
        sharded.health.charged_rdp().coeff() > clean.coeff(),
        "shrunk realized noise must cost more budget"
    );
}

/// The CI smoke slice: two seeds, a kill at a seed-derived round, one
/// restart. Fast enough for every pipeline run; the 30-round soak above
/// covers the rest.
#[test]
fn campaign_soak_smoke() {
    const ROUNDS: usize = 8;
    for seed in [5u64, 6] {
        let instances = unanimous_instances(ROUNDS, USERS);
        let config = campaign_config(1000.0).with_seed(seed);
        let kill_at = 3 + (seed as usize % 4);

        let dir_ref = TempDir::new("smoke-ref");
        let reference = CampaignRunner::open(&dir_ref.0, config.clone())
            .expect("open reference")
            .with_timeout(fast_timeout())
            .with_fault_plan(chaos_plan())
            .run(&instances, Meter::new())
            .expect("uninterrupted smoke");

        let dir = TempDir::new("smoke-kill");
        {
            let mut runner = CampaignRunner::open(&dir.0, config.clone())
                .expect("open first lifetime")
                .with_timeout(fast_timeout())
                .with_fault_plan(chaos_plan());
            runner.run(&instances[..kill_at], Meter::new()).expect("first lifetime");
        }
        let resumed = CampaignRunner::open(&dir.0, config)
            .expect("reopen")
            .with_timeout(fast_timeout())
            .with_fault_plan(chaos_plan())
            .run(&instances, Meter::new())
            .expect("resumed smoke");

        assert_eq!(resumed.released, reference.released, "seed {seed}");
        assert_eq!(resumed.epsilon_spent, reference.epsilon_spent, "seed {seed}");
        assert_eq!(
            resumed.rounds.iter().filter(|r| !r.charged).count(),
            kill_at,
            "seed {seed}: paid prefix replays uncharged"
        );
    }
}
