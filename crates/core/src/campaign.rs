//! Budget-gated labeling campaigns: the durable [`CampaignRunner`] daemon
//! that drives the *secure* engine across process restarts.
//!
//! The experiment pipeline answers a fixed number of queries and reports
//! the privacy spent; a *deployment* works the other way around — it is
//! given an `(ε, δ)` budget and must stop querying before exceeding it.
//! [`CampaignRunner`] implements that contract over the full secure
//! pipeline: rounds run through [`RoundSupervisor`] with durable
//! checkpoints, every realized RDP charge lands in a crash-safe
//! [`DurableRdpLedger`] *before* the next round is admitted, and a
//! restarted daemon replays its instance queue deterministically — the
//! ledger deduplicates charges by round id, so epsilon resumes at the
//! exact value spent and the released-label sequence is bit-identical
//! to an uninterrupted run.
//!
//! The runner also models a living deployment: a standing roster with
//! join/leave/crash events between rounds (session keys are rebuilt only
//! when membership actually changes), degraded rounds that complete on
//! the surviving cohort at honestly recalibrated noise scales, a bounded
//! retry budget per instance before the instance is parked, and a typed
//! [`CampaignStall`] stop with a backoff hint when quorum is repeatedly
//! lost. Per-round cost telemetry ([`RoundCost`]) splits communication
//! from computation and tracks the epsilon trajectory for the bench
//! gate.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dp::ledger::{DurableRdpLedger, LedgerError};
use dp::rdp::LinearRdp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::shard::recalibrate_sigma;
use smc::{SessionConfig, SessionKeys, ShardConfig, SmcError};
use transport::{
    CheckpointError, CheckpointStore, FaultPlan, FaultStats, FileCheckpointStore, LinkKind, Meter,
    MeterReport, TimeoutPolicy,
};

use crate::config::ConsensusConfig;
use crate::recovery::RoundSupervisor;

/// Typed failures of campaign construction and execution.
///
/// Configuration mistakes that used to panic — zero noise scales
/// (infinite spend), non-positive budgets, out-of-range deltas — are
/// ordinary recoverable errors for a daemon that reads its parameters
/// from the outside world.
#[derive(Debug)]
pub enum CampaignError {
    /// A noise scale is zero, negative, or non-finite: every query would
    /// cost infinite privacy budget.
    ZeroNoiseScale {
        /// The configured Sparse Vector noise scale.
        sigma1: f64,
        /// The configured Report Noisy Max noise scale.
        sigma2: f64,
    },
    /// The epsilon budget is not a positive finite number.
    NonPositiveBudget(f64),
    /// `delta` is outside the open interval `(0, 1)`.
    InvalidDelta(f64),
    /// The campaign would start — or a roster event would leave it —
    /// with no users.
    EmptyRoster {
        /// The instance index the roster emptied before (0 = at start).
        at_instance: usize,
    },
    /// A leave/crash event removes at least as many users as remain.
    RosterUnderflow {
        /// The instance index the event was scheduled before.
        at_instance: usize,
        /// Members present when the event fired.
        members: usize,
        /// Members the event tried to remove.
        leaving: usize,
    },
    /// An instance supplies fewer vote vectors than the roster has
    /// members.
    VoteShape {
        /// The offending instance index.
        instance: usize,
        /// Vote vectors supplied.
        rows: usize,
        /// Current roster size.
        members: usize,
    },
    /// The durable RDP ledger failed to open, replay, or append.
    Ledger(LedgerError),
    /// The round checkpoint store failed to open.
    Checkpoint(CheckpointError),
    /// A round died with a failure retries cannot fix: a vote-shape or
    /// protocol violation, a cryptographic failure.
    /// Only the typed liveness aborts — [`SmcError::QuorumLost`] and its
    /// strict-path twin [`SmcError::Transport`] — burn retries and park;
    /// everything else surfaces here instead of masquerading as a stall.
    Round {
        /// The instance whose round failed.
        instance: usize,
        /// The underlying protocol failure.
        source: SmcError,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::ZeroNoiseScale { sigma1, sigma2 } => write!(
                f,
                "noise scales must be positive and finite (sigma1 = {sigma1}, sigma2 = {sigma2})"
            ),
            CampaignError::NonPositiveBudget(b) => {
                write!(f, "epsilon budget must be positive and finite (got {b})")
            }
            CampaignError::InvalidDelta(d) => write!(f, "delta must lie in (0, 1) (got {d})"),
            CampaignError::EmptyRoster { at_instance } => {
                write!(f, "roster is empty before instance {at_instance}")
            }
            CampaignError::RosterUnderflow { at_instance, members, leaving } => write!(
                f,
                "roster event before instance {at_instance} removes {leaving} of {members} members"
            ),
            CampaignError::VoteShape { instance, rows, members } => write!(
                f,
                "instance {instance} supplies {rows} vote vectors for a roster of {members}"
            ),
            CampaignError::Ledger(e) => write!(f, "durable ledger: {e}"),
            CampaignError::Checkpoint(e) => write!(f, "checkpoint store: {e}"),
            CampaignError::Round { instance, source } => {
                write!(f, "instance {instance}: unrecoverable round failure: {source}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<LedgerError> for CampaignError {
    fn from(e: LedgerError) -> Self {
        CampaignError::Ledger(e)
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// Validates the `(σ₁, σ₂, ε, δ)` quadruple a campaign needs.
fn validate_budget_params(
    config: &ConsensusConfig,
    budget_epsilon: f64,
    delta: f64,
) -> Result<(), CampaignError> {
    let sigma_ok = |s: f64| s > 0.0 && s.is_finite();
    if !sigma_ok(config.sigma1) || !sigma_ok(config.sigma2) {
        return Err(CampaignError::ZeroNoiseScale { sigma1: config.sigma1, sigma2: config.sigma2 });
    }
    if !(budget_epsilon > 0.0 && budget_epsilon.is_finite()) {
        return Err(CampaignError::NonPositiveBudget(budget_epsilon));
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(CampaignError::InvalidDelta(delta));
    }
    Ok(())
}

/// A membership change applied to the standing roster between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RosterChange {
    /// `n` new users join before the instance.
    Join(usize),
    /// `n` users announce departure and leave gracefully.
    Leave(usize),
    /// `n` users vanish without announcement — operationally identical
    /// to a leave (the next epoch excludes them), but counted separately
    /// in the report because unplanned churn is the signal an operator
    /// watches.
    Crash(usize),
}

/// A scheduled [`RosterChange`], applied before the given instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RosterEvent {
    /// Queue position the change takes effect before.
    pub before_instance: usize,
    /// The membership change.
    pub change: RosterChange,
}

impl RosterEvent {
    /// Convenience constructor.
    pub fn new(before_instance: usize, change: RosterChange) -> Self {
        RosterEvent { before_instance, change }
    }
}

/// The campaign lost quorum on enough consecutive instances that
/// continuing immediately is pointless: the daemon should back off and
/// re-run later (a restarted runner resumes exactly, so stopping is
/// cheap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignStall {
    /// The instance the stall was declared at.
    pub at_instance: usize,
    /// Consecutive instances that exhausted their retry budget.
    pub consecutive_failures: usize,
    /// Suggested wait before the next attempt (exponential in the
    /// failure streak, capped).
    pub backoff: Duration,
}

/// Why a [`CampaignRunner::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignStop {
    /// Every queued instance was processed (answered or parked).
    InstancesExhausted,
    /// Admission control refused the next round: even its *worst-case*
    /// realized spend would push the composed epsilon past the budget.
    BudgetExhausted {
        /// The instance whose round was refused.
        refused_instance: usize,
        /// The composed epsilon the refused round could have reached.
        worst_case_epsilon: f64,
    },
    /// Quorum was lost on too many consecutive instances.
    Stalled(CampaignStall),
}

/// Per-round cost telemetry: the computation/communication split, the
/// epsilon trajectory, and the degradation counters — one row per
/// *successful* round, appendable as a JSON time series.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundCost {
    /// Logical round id (stable across restarts).
    pub round: u64,
    /// Queue position of the instance this round answered.
    pub instance: usize,
    /// Roster size the round was launched with.
    pub members: usize,
    /// Users whose uploads survived the collection step.
    pub survivors: usize,
    /// The released label (`None` = threshold rejection).
    pub label: Option<usize>,
    /// Whether this execution actually appended the charge (`false` when
    /// a restarted daemon replayed an already-charged round).
    pub charged: bool,
    /// Epsilon of this round's realized RDP curve alone.
    pub epsilon_round: f64,
    /// Composed epsilon over all charged rounds after this one.
    pub epsilon_total: f64,
    /// Wall time of the round, milliseconds.
    pub wall_ms: f64,
    /// Metered computation time inside protocol steps, milliseconds.
    pub compute_ms: f64,
    /// Bytes on user→server links this round.
    pub user_bytes: u64,
    /// Bytes on server↔server and server→user links this round.
    pub server_bytes: u64,
    /// Messages across all links this round.
    pub messages: u64,
    /// Checkpoint resumptions the round needed (0 = uninterrupted).
    pub resumptions: u64,
    /// Aggregation shards whose whole membership dropped this round.
    pub shards_dropped: u64,
}

impl RoundCost {
    /// Renders the row as a single JSON object (hand-rolled — the
    /// workspace has no JSON serializer dependency).
    pub fn to_json(&self) -> String {
        let label = self.label.map_or_else(|| "null".to_string(), |l| l.to_string());
        format!(
            "{{\"round\":{},\"instance\":{},\"members\":{},\"survivors\":{},\"label\":{label},\
             \"charged\":{},\"epsilon_round\":{:.6},\"epsilon_total\":{:.6},\"wall_ms\":{:.3},\
             \"compute_ms\":{:.3},\"user_bytes\":{},\"server_bytes\":{},\"messages\":{},\
             \"resumptions\":{},\"shards_dropped\":{}}}",
            self.round,
            self.instance,
            self.members,
            self.survivors,
            self.charged,
            self.epsilon_round,
            self.epsilon_total,
            self.wall_ms,
            self.compute_ms,
            self.user_bytes,
            self.server_bytes,
            self.messages,
            self.resumptions,
            self.shards_dropped,
        )
    }
}

/// Everything a [`CampaignRunner`] needs besides its directory.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Consensus parameters (noise scales, threshold, quorum).
    pub consensus: ConsensusConfig,
    /// Roster size at campaign start.
    pub initial_users: usize,
    /// Number of classes per query.
    pub num_classes: usize,
    /// Hard epsilon budget the durable ledger enforces.
    pub budget_epsilon: f64,
    /// The δ of the `(ε, δ)` guarantee.
    pub delta: f64,
    /// Campaign seed: all randomness (keys per epoch, per-instance round
    /// randomness) derives from it, so a restart replays identically.
    pub seed: u64,
    /// Aggregation shards per server (≤ 1 = flat).
    pub num_shards: usize,
    /// Checkpoint-resume attempts per round (see
    /// [`RoundSupervisor::with_max_attempts`]).
    pub max_attempts: usize,
    /// Extra fresh-randomness tries per instance after the supervisor
    /// gives up, before the instance is parked.
    pub instance_retries: usize,
    /// Consecutive parked instances before the run stops with
    /// [`CampaignStop::Stalled`].
    pub stall_threshold: usize,
    /// Base of the exponential backoff hint in [`CampaignStall`].
    pub backoff_base: Duration,
}

impl CampaignConfig {
    /// A config with the default resilience knobs: 4 resume attempts per
    /// round, 1 retry per instance, stall after 3 consecutive parks,
    /// 100 ms backoff base, flat aggregation, seed 0.
    pub fn new(
        consensus: ConsensusConfig,
        initial_users: usize,
        num_classes: usize,
        budget_epsilon: f64,
        delta: f64,
    ) -> Self {
        CampaignConfig {
            consensus,
            initial_users,
            num_classes,
            budget_epsilon,
            delta,
            seed: 0,
            num_shards: 1,
            max_attempts: 4,
            instance_retries: 1,
            stall_threshold: 3,
            backoff_base: Duration::from_millis(100),
        }
    }

    /// Sets the campaign seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects sharded streaming aggregation.
    #[must_use]
    pub fn with_shards(mut self, num_shards: usize) -> Self {
        self.num_shards = num_shards;
        self
    }

    /// Sets the per-round checkpoint-resume attempt cap.
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Sets the per-instance retry budget before parking.
    #[must_use]
    pub fn with_instance_retries(mut self, retries: usize) -> Self {
        self.instance_retries = retries;
        self
    }

    /// Sets how many consecutive parked instances declare a stall.
    #[must_use]
    pub fn with_stall_threshold(mut self, threshold: usize) -> Self {
        self.stall_threshold = threshold.max(1);
        self
    }
}

/// Result of one [`CampaignRunner::run`] call.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// `(instance index, released label)` pairs, in query order.
    pub released: Vec<(usize, usize)>,
    /// One telemetry row per successful round, in round order.
    pub rounds: Vec<RoundCost>,
    /// Instances that exhausted their retry budget and were set aside.
    pub parked: Vec<usize>,
    /// Instances processed (successful rounds + parked instances).
    pub queried: usize,
    /// Why the run returned.
    pub stop: CampaignStop,
    /// Composed epsilon over every charged round, including rounds from
    /// earlier lifetimes of the same campaign directory.
    pub epsilon_spent: f64,
    /// Users that joined via roster events during the run.
    pub joins: u64,
    /// Users that left gracefully during the run.
    pub leaves: u64,
    /// Users that crashed out during the run.
    pub crashes: u64,
}

impl CampaignReport {
    /// All telemetry rows as JSON lines, ready to append to a time
    /// series file.
    pub fn telemetry_json(&self) -> Vec<String> {
        self.rounds.iter().map(RoundCost::to_json).collect()
    }
}

/// Mixes a campaign seed with a stream tag and an index into an RNG
/// seed (splitmix64 finalizer — cheap, stateless, restart-stable).
fn mix(seed: u64, tag: u64, v: u64) -> u64 {
    let mut x =
        seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Sums a meter report into `(user bytes, server bytes, messages)`.
fn link_totals(report: &MeterReport) -> (u64, u64, u64) {
    let mut user = 0u64;
    let mut server = 0u64;
    let mut messages = 0u64;
    for (_, link, stats) in report.comm_rows() {
        match link {
            LinkKind::UserToServer => user += stats.bytes,
            LinkKind::ServerToServer | LinkKind::ServerToUser => server += stats.bytes,
        }
        messages += stats.messages;
    }
    (user, server, messages)
}

/// A durable labeling-campaign daemon over the secure engine.
///
/// The runner owns a campaign *directory*: the crash-safe RDP ledger
/// lives at `<dir>/ledger.rdp` and round checkpoints under
/// `<dir>/checkpoints`. Killing the process at any point and reopening
/// the same directory resumes the campaign: [`CampaignRunner::run`]
/// replays the instance queue deterministically (all randomness derives
/// from the campaign seed and queue position), already-charged rounds
/// re-execute only to reproduce their labels — the ledger refuses the
/// duplicate charge — and admission control picks up at the exact
/// epsilon spent.
///
/// **Budget invariant**: a round is admitted only if its *worst-case*
/// realized spend — the charge at the smallest cohort quorum allows,
/// where dropouts shrink the realized noise — still fits the budget
/// when composed with everything already charged. The durable total can
/// therefore never exceed the budget, no matter how ragged the round.
pub struct CampaignRunner {
    config: CampaignConfig,
    dir: PathBuf,
    ledger: DurableRdpLedger,
    events: Vec<RosterEvent>,
    faults: Option<FaultPlan>,
    timeout: Option<TimeoutPolicy>,
}

impl CampaignRunner {
    /// Opens (or creates) the campaign rooted at `dir`, replaying the
    /// durable ledger.
    ///
    /// # Errors
    ///
    /// Configuration errors ([`CampaignError::ZeroNoiseScale`],
    /// [`CampaignError::NonPositiveBudget`],
    /// [`CampaignError::InvalidDelta`], [`CampaignError::EmptyRoster`])
    /// and ledger open/replay failures ([`CampaignError::Ledger`]).
    pub fn open(dir: impl AsRef<Path>, config: CampaignConfig) -> Result<Self, CampaignError> {
        validate_budget_params(&config.consensus, config.budget_epsilon, config.delta)?;
        if config.initial_users == 0 {
            return Err(CampaignError::EmptyRoster { at_instance: 0 });
        }
        let dir = dir.as_ref().to_path_buf();
        let ledger = DurableRdpLedger::open(&dir, config.budget_epsilon, config.delta)?;
        Ok(CampaignRunner { config, dir, ledger, events: Vec::new(), faults: None, timeout: None })
    }

    /// Schedules roster churn. Events fire before the instance they
    /// name; several events before the same instance apply in order.
    #[must_use]
    pub fn with_roster_events(mut self, events: Vec<RosterEvent>) -> Self {
        self.events = events;
        self
    }

    /// Injects a transport fault plan into every epoch's engine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the engines' receive-timeout policy.
    #[must_use]
    pub fn with_timeout(mut self, policy: TimeoutPolicy) -> Self {
        self.timeout = Some(policy);
        self
    }

    /// The durable ledger backing this campaign.
    pub fn ledger(&self) -> &DurableRdpLedger {
        &self.ledger
    }

    /// Composed epsilon over every charged round so far (survives
    /// restarts).
    pub fn epsilon_spent(&self) -> f64 {
        self.ledger.epsilon_spent()
    }

    /// Builds the engine for one membership epoch. Key material is a
    /// deterministic function of (seed, epoch), so a restarted daemon
    /// regenerates identical sessions.
    fn build_engine(&self, epoch: u64, members: usize) -> crate::secure::SecureEngine {
        let mut session = SessionConfig::test(members, self.config.num_classes);
        if self.config.num_shards > 1 {
            session = session.with_shards(ShardConfig::new(self.config.num_shards));
        }
        let mut rng = StdRng::seed_from_u64(mix(self.config.seed, 0xE90C_11AD, epoch));
        let keys = SessionKeys::generate(session, &mut rng);
        let mut engine = crate::secure::SecureEngine::with_keys(keys, self.config.consensus);
        if let Some(timeout) = self.timeout {
            engine = engine.with_timeout(timeout);
        }
        if let Some(plan) = &self.faults {
            engine = engine.with_fault_plan(plan.clone());
        }
        engine
    }

    /// The largest RDP charge a round over `members` users can realize:
    /// the charge at the smallest cohort quorum admits. Dropouts shrink
    /// the realized noise, so the *minimum* surviving cohort maximizes
    /// the spend — admission must budget for it.
    ///
    /// The assumed quorum mirrors `SecureEngine::quorum` exactly:
    /// resilient rounds (a configured `min_users`, or a fault plan
    /// alone) can complete with as few as `min_users.unwrap_or(1)`
    /// survivors, while strict rounds need every member. Budgeting at
    /// any larger cohort would admit rounds whose *legal* realized
    /// charge exceeds the admitted worst case — and the ledger appends
    /// whatever the round actually charges.
    fn worst_case_round(&self, members: usize) -> LinearRdp {
        let resilient = self.faults.is_some() || self.config.consensus.min_users.is_some();
        let quorum = if resilient { self.config.consensus.min_users.unwrap_or(1) } else { members }
            .clamp(1, members);
        let s1 = recalibrate_sigma(self.config.consensus.sigma1, members, quorum);
        let s2 = recalibrate_sigma(self.config.consensus.sigma2, members, quorum);
        LinearRdp::sparse_vector(s1).compose(&LinearRdp::report_noisy_max(s2))
    }

    /// Drives the instance queue to completion, budget exhaustion, or a
    /// stall.
    ///
    /// The queue is the campaign: every call replays it from position 0
    /// with seed-derived randomness, which is what makes kill-and-reopen
    /// resumption exact — re-executed rounds reproduce their labels and
    /// the ledger ignores their duplicate charges. Instances whose
    /// rounds keep failing are parked (recorded in the report) rather
    /// than blocking the queue.
    ///
    /// # Errors
    ///
    /// Roster underflow, vote-shape mismatches, checkpoint-store and
    /// ledger failures, and unrecoverable round failures
    /// ([`CampaignError::Round`]: any protocol error other than the
    /// typed quorum-loss/transport liveness aborts, which burn retries
    /// and park instead). Budget exhaustion and stalls are *not* errors
    /// — they are ordinary [`CampaignStop`] outcomes in the report.
    ///
    /// # Panics
    ///
    /// Panics if a vote matrix shape disagrees with the session mid-run
    /// or a checkpoint save fails (see [`RoundSupervisor::run_round`]).
    pub fn run(
        &mut self,
        instances: &[Vec<Vec<f64>>],
        meter: Arc<Meter>,
    ) -> Result<CampaignReport, CampaignError> {
        let store: Arc<FileCheckpointStore> =
            Arc::new(FileCheckpointStore::open(self.dir.join("checkpoints"))?);
        let mut members = self.config.initial_users;
        let mut epoch = 0u64;
        let mut engine = self.build_engine(epoch, members);
        let mut round_id = 0u64;
        let mut released = Vec::new();
        let mut rounds: Vec<RoundCost> = Vec::new();
        let mut parked = Vec::new();
        let mut queried = 0usize;
        let (mut joins, mut leaves, mut crashes) = (0u64, 0u64, 0u64);
        let mut consecutive_failures = 0usize;
        let mut stop = CampaignStop::InstancesExhausted;

        'queue: for (idx, votes) in instances.iter().enumerate() {
            // Membership churn between rounds. Keys are rebuilt only
            // when the roster actually changed.
            let mut changed = false;
            for event in self.events.iter().filter(|e| e.before_instance == idx) {
                match event.change {
                    RosterChange::Join(n) => {
                        members += n;
                        joins += n as u64;
                    }
                    RosterChange::Leave(n) | RosterChange::Crash(n) => {
                        if n >= members {
                            return Err(CampaignError::RosterUnderflow {
                                at_instance: idx,
                                members,
                                leaving: n,
                            });
                        }
                        members -= n;
                        match event.change {
                            RosterChange::Leave(_) => leaves += n as u64,
                            _ => crashes += n as u64,
                        }
                    }
                }
                changed = true;
            }
            if changed {
                epoch += 1;
                engine = self.build_engine(epoch, members);
            }
            if votes.len() < members {
                return Err(CampaignError::VoteShape { instance: idx, rows: votes.len(), members });
            }
            let roster: Vec<usize> = (0..members).collect();
            let round_votes = &votes[..members];
            let worst = self.worst_case_round(members);

            let mut success = None;
            for attempt in 0..=self.config.instance_retries {
                // Admission control: an uncharged round must fit even
                // its worst case. A replayed (already-charged) round is
                // paid for — it runs only to reproduce its label.
                let already = self.ledger.charged(round_id);
                if !already && !self.ledger.admits(worst) {
                    stop = CampaignStop::BudgetExhausted {
                        refused_instance: idx,
                        worst_case_epsilon: self
                            .ledger
                            .total()
                            .compose(&worst)
                            .to_epsilon(self.config.delta),
                    };
                    break 'queue;
                }
                let mut supervisor =
                    RoundSupervisor::new(&engine, Arc::clone(&store) as Arc<dyn CheckpointStore>)
                        .with_max_attempts(self.config.max_attempts)
                        .with_start_round(round_id);
                let mut rng =
                    StdRng::seed_from_u64(mix(self.config.seed, idx as u64, attempt as u64));
                let before = meter.report();
                let before_faults: FaultStats = meter.fault_stats();
                let start = Instant::now();
                match supervisor.run_round(round_votes, &roster, Arc::clone(&meter), &mut rng) {
                    Ok(outcome) => {
                        success = Some((outcome, start.elapsed(), before, before_faults));
                        break;
                    }
                    // The typed liveness aborts — quorum loss, and
                    // transport loss on the strict path — are what the
                    // retry/park/stall machinery exists for: a failed
                    // attempt burns one retry, or falls through to park.
                    Err(SmcError::QuorumLost { .. } | SmcError::Transport(_)) => {}
                    // Everything else is deterministic (vote shapes,
                    // crypto, a corrupted frame): retrying cannot fix it
                    // and parking would disguise it as a stall.
                    Err(source) => {
                        return Err(CampaignError::Round { instance: idx, source });
                    }
                }
            }
            queried += 1;
            match success {
                Some((outcome, wall, before, before_faults)) => {
                    let charge = outcome.health.charged_rdp();
                    let charged = self.ledger.charge(round_id, charge)?;
                    let after = meter.report();
                    let after_faults = meter.fault_stats();
                    let (user_before, server_before, msgs_before) = link_totals(&before);
                    let (user_after, server_after, msgs_after) = link_totals(&after);
                    let cost = RoundCost {
                        round: round_id,
                        instance: idx,
                        members,
                        survivors: outcome.health.survivors.len(),
                        label: outcome.label,
                        charged,
                        epsilon_round: charge.to_epsilon(self.config.delta),
                        epsilon_total: self.ledger.epsilon_spent(),
                        wall_ms: wall.as_secs_f64() * 1e3,
                        compute_ms: (after.total_time() - before.total_time()).as_secs_f64() * 1e3,
                        user_bytes: user_after - user_before,
                        server_bytes: server_after - server_before,
                        messages: msgs_after - msgs_before,
                        resumptions: outcome.health.resumptions,
                        shards_dropped: after_faults.shards_dropped - before_faults.shards_dropped,
                    };
                    rounds.push(cost);
                    if let Some(label) = outcome.label {
                        released.push((idx, label));
                    }
                    round_id += 1;
                    consecutive_failures = 0;
                }
                None => {
                    parked.push(idx);
                    consecutive_failures += 1;
                    if consecutive_failures >= self.config.stall_threshold {
                        let shift = (consecutive_failures - 1).min(10) as u32;
                        stop = CampaignStop::Stalled(CampaignStall {
                            at_instance: idx,
                            consecutive_failures,
                            backoff: self.config.backoff_base.saturating_mul(1 << shift),
                        });
                        break 'queue;
                    }
                }
            }
        }

        Ok(CampaignReport {
            released,
            rounds,
            parked,
            queried,
            stop,
            epsilon_spent: self.ledger.epsilon_spent(),
            joins,
            leaves,
            crashes,
        })
    }
}

impl std::fmt::Debug for CampaignRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("dir", &self.dir)
            .field("config", &self.config)
            .field("epsilon_spent", &self.ledger.epsilon_spent())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Validation runs before the campaign directory is touched.
    fn open(consensus: ConsensusConfig, budget: f64, delta: f64) -> Result<(), CampaignError> {
        let dir = std::env::temp_dir().join("campaign-config-errors-never-created");
        CampaignRunner::open(dir, CampaignConfig::new(consensus, 10, 3, budget, delta)).map(|_| ())
    }

    #[test]
    fn zero_noise_scale_is_a_typed_error() {
        let config = ConsensusConfig::paper_default(0.0, 20.0);
        match open(config, 2.0, 1e-6) {
            Err(CampaignError::ZeroNoiseScale { sigma1, .. }) => assert_eq!(sigma1, 0.0),
            other => panic!("expected ZeroNoiseScale, got {other:?}"),
        }
    }

    #[test]
    fn non_positive_budget_is_a_typed_error() {
        let config = ConsensusConfig::paper_default(20.0, 20.0);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(open(config, bad, 1e-6), Err(CampaignError::NonPositiveBudget(_))),
                "budget {bad} must be refused"
            );
        }
    }

    #[test]
    fn invalid_delta_is_a_typed_error() {
        let config = ConsensusConfig::paper_default(20.0, 20.0);
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            assert!(
                matches!(open(config, 2.0, bad), Err(CampaignError::InvalidDelta(_))),
                "delta {bad} must be refused"
            );
        }
    }

    #[test]
    fn round_cost_renders_parseable_json() {
        let cost = RoundCost {
            round: 3,
            instance: 7,
            members: 5,
            survivors: 4,
            label: Some(2),
            charged: true,
            epsilon_round: 0.125,
            epsilon_total: 0.5,
            wall_ms: 12.5,
            compute_ms: 8.25,
            user_bytes: 1024,
            server_bytes: 2048,
            messages: 99,
            resumptions: 1,
            shards_dropped: 0,
        };
        let json = cost.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in ["\"round\":3", "\"label\":2", "\"epsilon_total\":0.500000", "\"charged\":true"]
        {
            assert!(json.contains(key), "{json} missing {key}");
        }
        let rejection = RoundCost { label: None, ..cost };
        assert!(rejection.to_json().contains("\"label\":null"));
    }

    #[test]
    fn worst_case_mix_is_restart_stable() {
        // Same inputs, same seed — and distinct streams don't collide.
        assert_eq!(mix(42, 1, 2), mix(42, 1, 2));
        assert_ne!(mix(42, 1, 2), mix(42, 2, 1));
        assert_ne!(mix(42, 1, 2), mix(43, 1, 2));
    }
}
