//! The full secure execution of Alg. 5 over real channels.
//!
//! One [`SecureEngine::run_instance`] call performs, for a single query
//! instance:
//!
//! 1. **Setup** — each user splits its scaled vote vector into additive
//!    shares, draws distributed noise shares, and embeds its slice of the
//!    threshold (`T/(2|U|)` per share side, split exactly);
//! 2. **Secure sum (step 2)** — users upload `E_pk2[a^u]`,
//!    `E_pk2[a^u − T/(2|U|) + z₁ₐ^u]` to S1 and the mirrored vectors to
//!    S2; servers aggregate homomorphically;
//! 3. **Blind-and-Permute (step 3)** — both aggregated vectors pass
//!    through Alg. 2 under one shared hidden permutation `π`;
//! 4. **Secure comparison (step 4)** — a knock-out bracket of DGK
//!    comparisons finds the permuted winner slot `π(i*)`;
//! 5. **Threshold check (step 5)** — one DGK comparison of the two
//!    threshold sequences at `π(i*)` decides
//!    `c_{i*} + N(0, σ₁²) ≥ T`; on failure both servers output `⊥`;
//! 6. **Secure sum (step 6)** — the noisy vote shares
//!    `a^u + z₂ₐ^u` / `b^u + z₂ᵦ^u` are aggregated;
//! 7. **Blind-and-Permute (step 7)** — under a fresh permutation `π′`;
//! 8. **Secure comparison (step 8)** — the same bracket over the noisy
//!    votes finds `π′(ĩ*)`;
//! 9. **Restoration (step 9)** — Alg. 3 recovers and publishes `ĩ*`.
//!
//! The engine runs users up-front (they are non-interactive senders) and
//! then drives the two servers' [`ServerRound`] machines from one loop on
//! the calling thread (`Servers`): inside a step only one server ever
//! has work, so the loop resumes whichever machine can run, sends what it
//! emits and performs the receive it asks for. Every message is metered
//! per step, and the loop records each step's wall time from its first
//! instruction on either server to the moment both have completed it —
//! together regenerating Tables I and II.
//!
//! # Failure model
//!
//! By default the protocol is strict: any lost user upload fails the
//! round with a transport error. Configuring a quorum
//! ([`ConsensusConfig::with_min_users`]) or attaching a
//! [`FaultPlan`](transport::FaultPlan) switches the engine to
//! *dropout-resilient* rounds: the servers collect whatever arrives
//! within the round deadline, reconcile their surviving sets over the
//! server↔server link, and either continue over `U' ⊆ U` or abort with
//! the typed [`SmcError::QuorumLost`]. Every outcome carries a
//! [`RoundHealth`] record of who survived, who dropped at which step,
//! and the noise scale actually realized (see `DESIGN.md`, "Failure
//! model"). The loop stops at the first error either server returns: a
//! server that fails locally reports at once, and nobody waits out a
//! receive deadline the failure would have induced on its peer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use paillier::Ciphertext;
use rand::Rng;
use smc::machine::{Frame, Next, Outbound, Outbox, Recv};
use smc::secure_sum::encrypt_share_vector;
use smc::{
    Parallelism, RoundState, ServerContext, ServerRole, ServerRound, SessionConfig, SessionKeys,
    SmcError,
};
use transport::{
    Endpoint, FaultPlan, FaultStats, Meter, Network, PartyId, Step, TimeoutPolicy,
    TransportBackend, Wire,
};

use crate::clear::draw_user_noise_shares;
use crate::config::{scale_vote_vector, scale_votes, split_evenly, ConsensusConfig};

/// Aggregate quantities the simulation driver observed while playing all
/// users — the ground truth the secure output can be checked against
/// (Theorem 3 correctness). A real deployment has no such observer; this
/// exists because the harness legitimately controls every party.
///
/// Under dropout-resilient rounds the aggregates cover exactly the users
/// the servers actually counted: `counts_scaled`/`z1_scaled` sum over the
/// step-2 survivors `U'`, `noisy_counts_scaled`/`z2_scaled` over the
/// step-6 survivors `U'' ⊆ U'`, and `threshold_scaled` is the *effective*
/// threshold embedded in the surviving shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureWitness {
    /// Exact scaled vote counts over the step-2 survivors.
    pub counts_scaled: Vec<i64>,
    /// Aggregated scaled threshold noise over the step-2 survivors.
    pub z1_scaled: Vec<i64>,
    /// Exact scaled vote counts over the step-6 survivors (equals
    /// `counts_scaled` whenever no user dropped between steps 2 and 6).
    pub noisy_counts_scaled: Vec<i64>,
    /// Aggregated scaled argmax noise over the step-6 survivors.
    pub z2_scaled: Vec<i64>,
    /// The effective scaled threshold the surviving shares embed.
    pub threshold_scaled: i64,
}

/// Structured fault history of one protocol round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundHealth {
    /// The roster the round was launched with.
    pub intended_users: Vec<usize>,
    /// Users whose step-2 upload reached both servers (`U'`).
    pub survivors: Vec<usize>,
    /// Users whose step-6 upload reached both servers (`U'' ⊆ U'`);
    /// `None` when the round never reached step 6 (threshold rejection).
    pub noisy_survivors: Option<Vec<usize>>,
    /// Users lost during the round, each with the step it first failed.
    pub dropouts: Vec<(usize, Step)>,
    /// Extended receive windows this round consumed.
    pub retries: u64,
    /// Receives that exhausted every retry window.
    pub timeouts: u64,
    /// The threshold-noise scale actually realized: the users drew
    /// shares calibrated for `|U|` participants, so the `|U'|` surviving
    /// shares sum to `N(0, σ₁²·|U'|/|U|)`.
    pub realized_sigma1: f64,
    /// The argmax-noise scale actually realized over `U''`; `None` when
    /// step 6 never ran.
    pub realized_sigma2: Option<f64>,
    /// How many times a crashed round attempt was resumed from durable
    /// checkpoints before this outcome was produced (0 = uninterrupted).
    pub resumptions: u64,
    /// For each resumption, the step the round re-entered the pipeline
    /// at after restoring the latest consistent S1/S2 snapshot pair.
    pub resumed_from: Vec<Step>,
}

impl RoundHealth {
    /// `true` when every intended user survived, no receive needed a
    /// retry and the round was never resumed from a checkpoint — it ran
    /// exactly as the strict protocol would.
    pub fn is_clean(&self) -> bool {
        self.dropouts.is_empty() && self.retries == 0 && self.timeouts == 0 && self.resumptions == 0
    }

    /// The RDP cost of the round *actually executed*: the Sparse Vector
    /// test at the realized `σ₁`, composed with Report Noisy Max at the
    /// realized `σ₂` only if the release step ran. Dropouts shrink the
    /// realized noise, so a faulty round charges **more** privacy budget
    /// than a clean one — the accountant must never assume the
    /// calibrated scales.
    ///
    /// # Panics
    ///
    /// Panics if a realized scale is zero (infinite privacy loss).
    pub fn charged_rdp(&self) -> dp::rdp::LinearRdp {
        let svt = dp::rdp::LinearRdp::sparse_vector(self.realized_sigma1);
        match self.realized_sigma2 {
            Some(s2) => svt.compose(&dp::rdp::LinearRdp::report_noisy_max(s2)),
            None => svt,
        }
    }
}

/// Output of one secure consensus query.
#[derive(Debug, Clone, PartialEq)]
pub struct SecureOutcome {
    /// The released label (`None` = `⊥`, threshold failed).
    pub label: Option<usize>,
    /// Driver-side ground truth for verification.
    pub witness: SecureWitness,
    /// Fault history: survivors, dropouts, retries, realized noise.
    pub health: RoundHealth,
}

/// Everything about a round's *consensus result* — as opposed to its
/// *execution history*. Two runs of the same round agree on this
/// fingerprint iff they released the same label from the same counted
/// contributions at the same realized noise scales; a recovered run
/// necessarily differs from an uninterrupted one in timeouts, retries
/// and resumption counters, and identically-recovered consensus is
/// exactly what the recovery subsystem guarantees (see `tests/chaos.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusFingerprint {
    /// The released label (`None` = `⊥`).
    pub label: Option<usize>,
    /// Ground-truth aggregates over the counted users.
    pub witness: SecureWitness,
    /// The roster the round was launched with.
    pub intended_users: Vec<usize>,
    /// The step-2 surviving set `U'`.
    pub survivors: Vec<usize>,
    /// The step-6 surviving set `U''`, when step 6 ran.
    pub noisy_survivors: Option<Vec<usize>>,
    /// Users lost, each with the step it first failed.
    pub dropouts: Vec<(usize, Step)>,
    /// Realized threshold-noise scale.
    pub realized_sigma1: f64,
    /// Realized argmax-noise scale, when step 6 ran.
    pub realized_sigma2: Option<f64>,
}

impl SecureOutcome {
    /// Projects out the [`ConsensusFingerprint`] — the part of the
    /// outcome that must be bit-identical between a crash-recovered
    /// round and the same round run uninterrupted.
    pub fn consensus_fingerprint(&self) -> ConsensusFingerprint {
        ConsensusFingerprint {
            label: self.label,
            witness: self.witness.clone(),
            intended_users: self.health.intended_users.clone(),
            survivors: self.health.survivors.clone(),
            noisy_survivors: self.health.noisy_survivors.clone(),
            dropouts: self.health.dropouts.clone(),
            realized_sigma1: self.health.realized_sigma1,
            realized_sigma2: self.health.realized_sigma2,
        }
    }
}

/// A provisioned secure deployment: session keys plus consensus
/// parameters.
pub struct SecureEngine {
    keys: SessionKeys,
    consensus: ConsensusConfig,
    timeout: TimeoutPolicy,
    faults: Option<FaultPlan>,
    transport: TransportBackend,
}

impl std::fmt::Debug for SecureEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecureEngine({:?})", self.keys.config())
    }
}

/// One user's six captured upload payloads, already encrypted. Sending
/// them is a pure replay: a supervisor can rebuild the network after a
/// crash and re-inject the *same* ciphertexts, which is what keeps a
/// recovered round bit-identical to an uninterrupted one.
pub(crate) struct UserUpload {
    pub(crate) user: usize,
    /// S1-bound: votes + threshold shares (step 2), noisy shares (step 6).
    pub(crate) s1_votes: Vec<Ciphertext>,
    pub(crate) s1_thresh: Vec<Ciphertext>,
    pub(crate) s1_noisy: Vec<Ciphertext>,
    /// S2-bound mirrors.
    pub(crate) s2_votes: Vec<Ciphertext>,
    pub(crate) s2_thresh: Vec<Ciphertext>,
    pub(crate) s2_noisy: Vec<Ciphertext>,
}

/// Everything drawn ONCE per logical round, before the first attempt:
/// user shares, noise, encrypted payloads, witness bookkeeping and the
/// two server seeds. Crash-recovery attempts replay this; nothing in it
/// is re-drawn, so every attempt reruns the *same* round.
pub(crate) struct PreparedRound {
    pub(crate) roster: Vec<usize>,
    pub(crate) num_classes: usize,
    pub(crate) uploads: Vec<UserUpload>,
    pub(crate) user_counts: Vec<Vec<i64>>,
    pub(crate) user_z1: Vec<Vec<i64>>,
    pub(crate) user_z2: Vec<Vec<i64>>,
    /// Exact integer split of T across 2|U| share slots.
    pub(crate) offsets: Vec<i64>,
    /// S1's and S2's private root seeds: each is handed to its own
    /// [`ServerRound`] and to nothing else.
    pub(crate) seed1: [u8; 32],
    pub(crate) seed2: [u8; 32],
    /// Round-shared seed for the shard plan — unlike the private per-server
    /// `seed1`/`seed2`, both servers derive the identical plan from it, so
    /// their per-shard survivor exchanges pair up without coordination. A
    /// draw of its own: both servers see it, so it must say nothing about
    /// either root seed.
    pub(crate) shard_seed: u64,
}

/// Where and under which step each of a user's six uploads goes, in the
/// canonical per-user order.
pub(crate) const UPLOAD_SLOTS: [(PartyId, Step); 6] = [
    (PartyId::Server1, Step::SecureSumVotes),
    (PartyId::Server1, Step::SecureSumVotes),
    (PartyId::Server1, Step::SecureSumNoisy),
    (PartyId::Server2, Step::SecureSumVotes),
    (PartyId::Server2, Step::SecureSumVotes),
    (PartyId::Server2, Step::SecureSumNoisy),
];

impl PreparedRound {
    /// Every user's six upload frames, in the canonical per-user,
    /// per-link order — fresh networks restart each link's sequence
    /// numbers at 1, so fault decisions keyed on (from, to, step, seq)
    /// reproduce identically per attempt.
    pub(crate) fn upload_frames(&self) -> impl Iterator<Item = Frame> + '_ {
        self.uploads.iter().flat_map(|up| {
            let vectors = [
                &up.s1_votes,
                &up.s1_thresh,
                &up.s1_noisy,
                &up.s2_votes,
                &up.s2_thresh,
                &up.s2_noisy,
            ];
            std::iter::zip(UPLOAD_SLOTS, vectors).map(move |((to, step), vector)| Frame {
                from: PartyId::User(up.user),
                to,
                step,
                payload: vector.to_bytes(),
            })
        })
    }

    /// The `(from, to, step)` of the upload frame at canonical index
    /// `seq`, or `None` past the end of the round's upload.
    pub(crate) fn upload_header(&self, seq: usize) -> Option<(PartyId, PartyId, Step)> {
        let user = *self.roster.get(seq / UPLOAD_SLOTS.len())?;
        let (to, step) = UPLOAD_SLOTS[seq % UPLOAD_SLOTS.len()];
        Some((PartyId::User(user), to, step))
    }
}

/// Where a round attempt seats its two servers: S1's state and S2's.
pub(crate) type Seats = [RoundState; 2];

/// Both servers at the start of the pipeline.
pub(crate) const FROM_START: Seats = [RoundState::Start, RoundState::Start];

/// Link-queue slots beyond the uploads: server↔server frames in flight
/// (a server emits at most a handful before it needs its peer) and their
/// injected duplicates.
const SERVER_LINK_ALLOWANCE: usize = 64;

impl SecureEngine {
    /// Generates key material for `session` and binds the consensus
    /// parameters.
    pub fn new<R: Rng + ?Sized>(
        session: SessionConfig,
        consensus: ConsensusConfig,
        rng: &mut R,
    ) -> Self {
        Self::with_keys(SessionKeys::generate(session, rng), consensus)
    }

    /// Builds an engine from pre-generated keys. The keys' per-modulus
    /// exponentiation caches are warmed here so deserialized or
    /// hand-constructed keys start protocol rounds at full speed (keys
    /// from [`SessionKeys::generate`] arrive pre-warmed; the call is
    /// idempotent).
    pub fn with_keys(keys: SessionKeys, consensus: ConsensusConfig) -> Self {
        keys.precompute();
        SecureEngine {
            keys,
            consensus,
            timeout: TimeoutPolicy::default(),
            faults: None,
            transport: TransportBackend::default(),
        }
    }

    /// Sets the per-receive deadline/retry policy every round's network
    /// is built with (the default waits 120 s with no retries).
    #[must_use]
    pub fn with_timeout(mut self, timeout: TimeoutPolicy) -> Self {
        self.timeout = timeout;
        self
    }

    /// Attaches a deterministic fault-injection plan to every round's
    /// network, and switches the engine to dropout-resilient rounds.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Selects the transport backend every round's network is built over
    /// (default in-proc channels). The protocol is backend-agnostic:
    /// rounds over loopback TCP produce fingerprints bit-identical to
    /// in-proc rounds under the same seed.
    #[must_use]
    pub fn with_transport(mut self, backend: TransportBackend) -> Self {
        self.transport = backend;
        self
    }

    /// The configured transport backend.
    pub fn transport(&self) -> TransportBackend {
        self.transport
    }

    /// Sets the data-parallelism config every party in every round uses
    /// for its crypto hot loops (Paillier batch encryption, per-label
    /// aggregation/masking, per-bit DGK witnesses, per-match compare
    /// fan-out). Defaults to sequential. Protocol transcripts and
    /// outcomes are bit-identical for every setting — parallel loops
    /// derive per-item RNG streams from the same root draws the
    /// sequential path uses (see the `parallel` crate).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.keys.set_parallelism(parallelism);
        self
    }

    /// The configured data-parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.keys.parallelism()
    }

    /// The session configuration.
    pub fn session_config(&self) -> &SessionConfig {
        self.keys.config()
    }

    /// The consensus configuration.
    pub fn consensus_config(&self) -> &ConsensusConfig {
        &self.consensus
    }

    /// Whether rounds run dropout-resilient (quorum configured or faults
    /// injected) instead of strict.
    pub fn resilient(&self) -> bool {
        self.faults.is_some() || self.consensus.min_users.is_some()
    }

    /// The quorum resilient rounds enforce: the configured `min_users`,
    /// or 1 when resilience was triggered by a fault plan alone.
    pub(crate) fn quorum(&self) -> usize {
        self.consensus.min_users.unwrap_or(1)
    }

    /// Runs a batch of queries sequentially, sharing the key material and
    /// meter — how the cost-table binaries drive multi-instance runs.
    ///
    /// In resilient mode the surviving roster carries across instances:
    /// a user that dropped out of round `k` is not waited for in round
    /// `k+1`, and the remaining users draw their distributed noise
    /// shares recalibrated to `N(0, σ²/(2|U'|))` so later rounds regain
    /// the full aggregate noise scale.
    ///
    /// # Errors
    ///
    /// Stops at the first failing instance and propagates its error.
    ///
    /// # Panics
    ///
    /// Panics if any instance's vote matrix shape disagrees with the
    /// session.
    pub fn run_batch<R: Rng + ?Sized>(
        &self,
        instances: &[Vec<Vec<f64>>],
        meter: Arc<Meter>,
        rng: &mut R,
    ) -> Result<Vec<SecureOutcome>, SmcError> {
        let total_users = self.keys.config().num_users;
        let resilient = self.resilient();
        let mut roster: Vec<usize> = (0..total_users).collect();
        let mut outcomes = Vec::with_capacity(instances.len());
        for votes in instances {
            assert_eq!(votes.len(), total_users, "one vote vector per user");
            let surviving_votes: Vec<Vec<f64>> = roster.iter().map(|&u| votes[u].clone()).collect();
            let out = self.run_round(&surviving_votes, &roster, Arc::clone(&meter), rng)?;
            if resilient {
                roster = out.health.survivors.clone();
            }
            outcomes.push(out);
        }
        Ok(outcomes)
    }

    /// Runs one query end to end over the full user set. `votes` holds
    /// each user's vote vector in vote units (one-hot or softmax).
    /// Traffic and timing are recorded into `meter`.
    ///
    /// # Errors
    ///
    /// Propagates protocol failures ([`SmcError`]), including the typed
    /// [`SmcError::QuorumLost`] abort of resilient rounds. A threshold
    /// rejection is *not* an error: it returns `label: None`.
    ///
    /// # Panics
    ///
    /// Panics if the vote matrix shape disagrees with the session.
    pub fn run_instance<R: Rng + ?Sized>(
        &self,
        votes: &[Vec<f64>],
        meter: Arc<Meter>,
        rng: &mut R,
    ) -> Result<SecureOutcome, SmcError> {
        let roster: Vec<usize> = (0..self.keys.config().num_users).collect();
        self.run_round(votes, &roster, meter, rng)
    }

    /// Runs one query over an explicit `roster` of user ids — `votes[i]`
    /// is the vote vector of user `roster[i]`. [`Self::run_batch`] uses
    /// this to keep dropped users out of later rounds; the distributed
    /// noise each roster user draws is calibrated for `|roster|`
    /// participants, and so is the threshold `T = fraction·|roster|`.
    ///
    /// # Errors
    ///
    /// See [`Self::run_instance`].
    ///
    /// # Panics
    ///
    /// Panics if the vote matrix shape disagrees with the roster, if the
    /// roster is empty or not a strictly ascending list of known user
    /// ids, or if a partial roster is used without resilient mode.
    pub fn run_round<R: Rng + ?Sized>(
        &self,
        votes: &[Vec<f64>],
        roster: &[usize],
        meter: Arc<Meter>,
        rng: &mut R,
    ) -> Result<SecureOutcome, SmcError> {
        let prepared = self.prepare_round(votes, roster, rng)?;
        let fault_stats_before = meter.fault_stats();
        let servers = self.launch(
            &prepared,
            prepared.upload_frames(),
            &meter,
            self.faults.clone(),
            FROM_START,
        )?;
        let (done1, done2) = servers.run(&mut ())?;
        Ok(self.finalize_round(&prepared, done1, done2, &meter, fault_stats_before, 0, Vec::new()))
    }

    /// The attached fault-injection plan, if any.
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The user phase, run once per *logical* round: shares, noise,
    /// threshold offsets and the six encrypted payloads per user are all
    /// drawn here. Crash-recovery attempts replay this prepared data
    /// verbatim — nothing is re-drawn, so every attempt reruns the same
    /// round and a recovered outcome can be bit-identical to an
    /// uninterrupted one.
    ///
    /// Randomness is consumed in a fixed order: per user z1, z2, the share
    /// split and the six payload encryptions in upload order; then the
    /// round's three seeds — S1's root, S2's root, the shard seed — as
    /// three raw draws, none a function of another.
    pub(crate) fn prepare_round<R: Rng + ?Sized>(
        &self,
        votes: &[Vec<f64>],
        roster: &[usize],
        rng: &mut R,
    ) -> Result<PreparedRound, SmcError> {
        let total_users = self.keys.config().num_users;
        let num_classes = self.keys.config().num_classes;
        let num_users = roster.len();
        assert!(num_users > 0, "roster must not be empty");
        assert!(
            roster.windows(2).all(|w| w[0] < w[1]) && *roster.last().unwrap() < total_users,
            "roster must be strictly ascending user ids below {total_users}"
        );
        assert_eq!(votes.len(), num_users, "one vote vector per roster user");
        assert!(
            self.resilient() || roster.iter().copied().eq(0..total_users),
            "a partial roster requires resilient mode (set min_users or attach a fault plan)"
        );

        let threshold_scaled = scale_votes(self.consensus.threshold_votes(num_users));
        // Exact integer split of T across 2|U| share slots: the first |U|
        // are subtracted on the S1 side, the rest added on the S2 side.
        let offsets = split_evenly(threshold_scaled, 2 * num_users);
        let (off1, off2) = offsets.split_at(num_users);

        let user_ctx = self.keys.user();
        let domain = user_ctx.domain();
        let par = user_ctx.parallelism();
        let mut uploads: Vec<UserUpload> = Vec::with_capacity(num_users);
        let mut user_counts: Vec<Vec<i64>> = Vec::with_capacity(num_users);
        let mut user_z1: Vec<Vec<i64>> = Vec::with_capacity(num_users);
        let mut user_z2: Vec<Vec<i64>> = Vec::with_capacity(num_users);
        for (idx, (&u, vote)) in roster.iter().zip(votes).enumerate() {
            assert_eq!(vote.len(), num_classes, "vote arity for user {u}");
            let scaled = scale_vote_vector(vote);
            let z1 = draw_user_noise_shares(self.consensus.sigma1, num_users, num_classes, rng);
            let z2 = draw_user_noise_shares(self.consensus.sigma2, num_users, num_classes, rng);
            user_z1.push((0..num_classes).map(|k| z1.for_s1[k] + z1.for_s2[k]).collect());
            user_z2.push((0..num_classes).map(|k| z2.for_s1[k] + z2.for_s2[k]).collect());

            let as_i128: Vec<i128> = scaled.iter().map(|&v| v as i128).collect();
            user_counts.push(scaled);
            let (a, b) = domain.split_vec(&as_i128, rng);

            // Step 2 payloads.
            let thresh_a: Vec<i128> =
                (0..num_classes).map(|k| a[k] - off1[idx] as i128 + z1.for_s1[k] as i128).collect();
            let thresh_b: Vec<i128> =
                (0..num_classes).map(|k| off2[idx] as i128 - b[k] - z1.for_s2[k] as i128).collect();
            // Step 6 payloads.
            let noisy_a: Vec<i128> =
                (0..num_classes).map(|k| a[k] + z2.for_s1[k] as i128).collect();
            let noisy_b: Vec<i128> =
                (0..num_classes).map(|k| b[k] + z2.for_s2[k] as i128).collect();

            uploads.push(UserUpload {
                user: u,
                s1_votes: encrypt_share_vector(&a, user_ctx.pk2(), par, rng)?,
                s1_thresh: encrypt_share_vector(&thresh_a, user_ctx.pk2(), par, rng)?,
                s1_noisy: encrypt_share_vector(&noisy_a, user_ctx.pk2(), par, rng)?,
                s2_votes: encrypt_share_vector(&b, user_ctx.pk1(), par, rng)?,
                s2_thresh: encrypt_share_vector(&thresh_b, user_ctx.pk1(), par, rng)?,
                s2_noisy: encrypt_share_vector(&noisy_b, user_ctx.pk1(), par, rng)?,
            });
        }
        let (mut seed1, mut seed2) = ([0u8; 32], [0u8; 32]);
        rng.fill_bytes(&mut seed1);
        rng.fill_bytes(&mut seed2);
        let shard_seed: u64 = rng.gen();
        Ok(PreparedRound {
            roster: roster.to_vec(),
            num_classes,
            uploads,
            user_counts,
            user_z1,
            user_z2,
            offsets,
            seed1,
            seed2,
            shard_seed,
        })
    }

    /// Builds one attempt's network over the engine's transport backend
    /// (`plan` may differ from the engine's own on recovery attempts,
    /// where the supervisor strips the server crashes that already
    /// fired). Its link queues are sized from the round: the one thread
    /// that drives a round cannot drain a queue it is blocked sending
    /// into, so a server's queue holds all `3·|U|` of its uploads (twice
    /// that when a fault plan may duplicate each) plus
    /// [`SERVER_LINK_ALLOWANCE`].
    fn build_network(&self, meter: &Arc<Meter>, plan: Option<FaultPlan>) -> Network {
        let num_users = self.keys.config().num_users;
        let uploads = 3 * num_users * if plan.is_some() { 2 } else { 1 };
        let mut builder = Network::builder(num_users)
            .meter(Arc::clone(meter))
            .timeout(self.timeout)
            .backend(self.transport)
            .capacity(uploads + SERVER_LINK_ALLOWANCE);
        if let Some(plan) = plan {
            builder = builder.faults(plan);
        }
        builder.build()
    }

    /// Starts one attempt of `prepared`'s round: builds the network,
    /// injects `uploads` and seats both servers.
    pub(crate) fn launch(
        &self,
        prepared: &PreparedRound,
        uploads: impl IntoIterator<Item = Frame>,
        meter: &Arc<Meter>,
        plan: Option<FaultPlan>,
        seats: Seats,
    ) -> Result<Servers, SmcError> {
        let mut net = self.build_network(meter, plan);
        let endpoints = [net.take_endpoint(PartyId::Server1), net.take_endpoint(PartyId::Server2)];
        let mut sender: Option<Endpoint> = None;
        for Frame { from, to, step, payload } in uploads {
            if sender.as_ref().map(Endpoint::id) != Some(from) {
                sender = Some(net.take_endpoint(from));
            }
            sender.as_ref().expect("seated above").send_frame(to, step, payload)?;
        }
        let quorum = self.resilient().then(|| self.quorum());
        let seat = |role, seed, state| {
            ServerRound::new(role, prepared.roster.clone(), seed, prepared.shard_seed, quorum)
                .from_state(state)
        };
        let [seat1, seat2] = seats;
        let rounds = [
            seat(ServerRole::Server1, prepared.seed1, seat1),
            seat(ServerRole::Server2, prepared.seed2, seat2),
        ];
        Ok(Servers {
            ctx: [self.keys.server1(), self.keys.server2()],
            rounds,
            endpoints,
            waiting: [None, None],
            in_flight: [0, 0],
        })
    }

    /// Cross-checks the two terminal states and assembles the outcome:
    /// witness aggregates over the sets actually counted, plus the
    /// round's fault and recovery history.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finalize_round(
        &self,
        prepared: &PreparedRound,
        done1: RoundState,
        done2: RoundState,
        meter: &Meter,
        fault_stats_before: FaultStats,
        resumptions: u64,
        resumed_from: Vec<Step>,
    ) -> SecureOutcome {
        let (
            RoundState::Done { label, survivors, noisy_survivors },
            RoundState::Done { label: label2, survivors: survivors2, noisy_survivors: noisy2 },
        ) = (done1, done2)
        else {
            panic!("a round is finalized from terminal states");
        };
        assert_eq!(label, label2, "servers must agree on the outcome");
        assert_eq!(survivors, survivors2, "servers must agree on the surviving set");
        assert_eq!(noisy_survivors, noisy2, "servers must agree on the step-6 surviving set");

        let roster = &prepared.roster;
        let num_users = roster.len();
        let num_classes = prepared.num_classes;
        let (off1, off2) = prepared.offsets.split_at(num_users);

        // ---- Witness and health over the sets actually counted. ----
        let pos = |user: usize| {
            roster.iter().position(|&r| r == user).expect("survivor must be on the roster")
        };
        let mut witness = SecureWitness {
            counts_scaled: vec![0i64; num_classes],
            z1_scaled: vec![0i64; num_classes],
            noisy_counts_scaled: vec![0i64; num_classes],
            z2_scaled: vec![0i64; num_classes],
            threshold_scaled: survivors.iter().map(|&u| off1[pos(u)] + off2[pos(u)]).sum(),
        };
        for &u in &survivors {
            let p = pos(u);
            for k in 0..num_classes {
                witness.counts_scaled[k] += prepared.user_counts[p][k];
                witness.z1_scaled[k] += prepared.user_z1[p][k];
            }
        }
        let z2_cohort = noisy_survivors.as_deref().unwrap_or(&survivors);
        for &u in z2_cohort {
            let p = pos(u);
            for k in 0..num_classes {
                witness.noisy_counts_scaled[k] += prepared.user_counts[p][k];
                witness.z2_scaled[k] += prepared.user_z2[p][k];
            }
        }

        let fault_stats = meter.fault_stats();
        let mut dropouts: Vec<(usize, Step)> = roster
            .iter()
            .filter(|u| !survivors.contains(u))
            .map(|&u| (u, Step::SecureSumVotes))
            .collect();
        if let Some(nv) = &noisy_survivors {
            dropouts.extend(
                survivors.iter().filter(|u| !nv.contains(u)).map(|&u| (u, Step::SecureSumNoisy)),
            );
        }
        let health = RoundHealth {
            intended_users: roster.to_vec(),
            realized_sigma1: smc::shard::recalibrate_sigma(
                self.consensus.sigma1,
                num_users,
                survivors.len(),
            ),
            realized_sigma2: noisy_survivors.as_ref().map(|nv| {
                smc::shard::recalibrate_sigma(self.consensus.sigma2, num_users, nv.len())
            }),
            survivors,
            noisy_survivors,
            dropouts,
            retries: fault_stats.retries - fault_stats_before.retries,
            timeouts: fault_stats.timeouts - fault_stats_before.timeouts,
            resumptions,
            resumed_from,
        };
        SecureOutcome { label, witness, health }
    }
}

/// The two servers of one round attempt and the one loop that drives
/// them: their [`ServerRound`] machines, the keys lent to them on every
/// resume, and their [`Endpoint`]s — the IO edge, so fault plans,
/// metering, timeouts and the TCP backend apply exactly as they do to any
/// other endpoint user.
pub(crate) struct Servers {
    ctx: [ServerContext; 2],
    rounds: [ServerRound; 2],
    endpoints: [Endpoint; 2],
    /// The frame each server's machine asked for last, if it is mid-step.
    waiting: [Option<Recv>; 2],
    /// Frames the peer has emitted to each server that it has not
    /// received yet. A crashed or dropping link still counts — the frame
    /// vanished after the send returned — so its receiver times out
    /// exactly as it would on its own thread.
    in_flight: [usize; 2],
}

/// What the round loop reports as it happens; `()` listens to nothing.
pub(crate) trait RoundHook {
    /// `from`'s frame is about to be handed to its endpoint.
    fn sending(&mut self, _from: PartyId, _frame: &Outbound) {}

    /// `server` completed a pipeline step.
    fn completed(&mut self, _server: &ServerRound) {}
}

impl RoundHook for () {}

impl Servers {
    /// Whether both servers hold a terminal state.
    pub(crate) fn is_terminal(&self) -> bool {
        self.rounds.iter().all(|round| round.state().is_terminal())
    }

    /// Both servers' states.
    pub(crate) fn states(&self) -> (RoundState, RoundState) {
        (self.rounds[0].state().clone(), self.rounds[1].state().clone())
    }

    /// Drives both servers to their terminal states, reporting to `hook`
    /// on the way.
    pub(crate) fn run(
        mut self,
        hook: &mut dyn RoundHook,
    ) -> Result<(RoundState, RoundState), SmcError> {
        while !self.is_terminal() {
            self.step(hook)?;
        }
        Ok(self.states())
    }

    /// Drives both servers through their next pipeline step and records
    /// its wall time, from the first instruction on either server to the
    /// moment both have completed it — less the time spent in `hook`: a
    /// snapshot is the supervisor's cost, not the step's.
    ///
    /// A server's receive is performed only when the frame can exist —
    /// it comes from a user, or the peer has emitted a frame that is
    /// still in flight — so with both machines waiting the loop never
    /// blocks on the wrong one and turns an injected delay (or a frame
    /// still in a socket) into a false timeout.
    ///
    /// # Errors
    ///
    /// The first error either server returns; nothing runs after it.
    pub(crate) fn step(&mut self, hook: &mut dyn RoundHook) -> Result<(), SmcError> {
        let step = self.rounds[0].state().next_step().expect("a live round has a next step");
        assert_eq!(self.rounds[1].state().next_step(), Some(step), "servers advance in lockstep");
        let meter = Arc::clone(self.endpoints[0].meter());
        let (started, mut in_hook) = (Instant::now(), Duration::ZERO);
        let result = self.advance(&meter, hook, &mut in_hook);
        meter.record_time(step, started.elapsed().saturating_sub(in_hook));
        result
    }

    fn advance(
        &mut self,
        meter: &Meter,
        hook: &mut dyn RoundHook,
        in_hook: &mut Duration,
    ) -> Result<(), SmcError> {
        let mut done = [false; 2];
        while done != [true; 2] {
            let mut progressed = false;
            for side in [0, 1] {
                if done[side] {
                    continue;
                }
                let endpoint = &mut self.endpoints[side];
                let answer = match self.waiting[side].take() {
                    None => None,
                    Some(recv) => {
                        let from_user = matches!(recv.from, PartyId::User(_));
                        if !from_user && self.in_flight[side] == 0 {
                            self.waiting[side] = Some(recv);
                            continue;
                        }
                        let policy = endpoint.timeout_policy();
                        let policy = match recv.patience {
                            None => policy,
                            Some(n) => TimeoutPolicy::new(policy.total_budget().saturating_mul(n)),
                        };
                        if !from_user {
                            self.in_flight[side] -= 1;
                        }
                        Some(endpoint.recv_frame(recv.from, recv.step, policy))
                    }
                };
                progressed = true;
                let mut out = Outbox::default();
                let next = self.rounds[side].resume_step(&self.ctx[side], answer, &mut out);
                out.events.into_iter().for_each(|event| meter.record_fault(event));
                for frame in out.frames {
                    hook.sending(endpoint.id(), &frame);
                    endpoint.send_frame(frame.to, frame.step, frame.payload)?;
                    self.in_flight[1 - side] += 1;
                }
                match next? {
                    Next::Recv(recv) => self.waiting[side] = Some(recv),
                    Next::Done(()) => {
                        done[side] = true;
                        let called = Instant::now();
                        hook.completed(&self.rounds[side]);
                        *in_hook += called.elapsed();
                    }
                }
            }
            assert!(progressed, "both servers wait for a frame that nobody sent");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::threshold_decision_scaled;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// Shared small-parameter engine: keygen dominates otherwise.
    fn engine() -> &'static SecureEngine {
        static ENGINE: OnceLock<SecureEngine> = OnceLock::new();
        ENGINE.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(2024);
            SecureEngine::new(
                SessionConfig::test(4, 3),
                ConsensusConfig::paper_default(1e-6, 1e-6),
                &mut rng,
            )
        })
    }

    fn onehot(k: usize) -> Vec<f64> {
        let mut v = vec![0.0; 3];
        v[k] = 1.0;
        v
    }

    #[test]
    fn unanimous_vote_released() {
        let mut rng = StdRng::seed_from_u64(1);
        let votes: Vec<Vec<f64>> = (0..4).map(|_| onehot(1)).collect();
        let out = engine().run_instance(&votes, Meter::new(), &mut rng).unwrap();
        assert_eq!(out.label, Some(1));
        assert_eq!(out.witness.counts_scaled[1], 4 * 65536);
        // A clean strict round: everyone survived, noise at full scale.
        assert!(out.health.is_clean());
        assert_eq!(out.health.survivors, vec![0, 1, 2, 3]);
        assert_eq!(out.health.noisy_survivors.as_deref(), Some(&[0, 1, 2, 3][..]));
        assert_eq!(out.health.realized_sigma1, 1e-6);
        assert_eq!(out.health.realized_sigma2, Some(1e-6));
        assert_eq!(out.witness.noisy_counts_scaled, out.witness.counts_scaled);
    }

    #[test]
    fn split_vote_rejected_at_threshold() {
        let mut rng = StdRng::seed_from_u64(2);
        // 2/1/1 split over 4 users: top vote 2 < T = 2.4.
        let votes = vec![onehot(0), onehot(0), onehot(1), onehot(2)];
        let out = engine().run_instance(&votes, Meter::new(), &mut rng).unwrap();
        assert_eq!(out.label, None);
        // Rejected rounds never run step 6: no realized argmax noise, and
        // the accountant only charges the Sparse Vector test.
        assert_eq!(out.health.noisy_survivors, None);
        assert_eq!(out.health.realized_sigma2, None);
        let rejected = out.health.charged_rdp().to_epsilon(1e-6);
        let released = dp::rdp::LinearRdp::sparse_vector(1e-6)
            .compose(&dp::rdp::LinearRdp::report_noisy_max(1e-6))
            .to_epsilon(1e-6);
        assert!(rejected < released, "a rejected round must charge less than a release");
    }

    #[test]
    fn secure_path_matches_clear_decision_function() {
        // Theorem 3 pinned by test: the secure label equals the decision
        // function applied to the witness aggregates.
        let mut rng = StdRng::seed_from_u64(3);
        let vote_sets = [
            vec![onehot(0), onehot(0), onehot(0), onehot(2)],
            vec![onehot(2), onehot(2), onehot(2), onehot(2)],
            vec![onehot(0), onehot(1), onehot(1), onehot(1)],
            vec![
                vec![0.5, 0.25, 0.25],
                vec![0.6, 0.2, 0.2],
                vec![0.7, 0.2, 0.1],
                vec![0.9, 0.05, 0.05],
            ],
        ];
        for votes in vote_sets {
            let out = engine().run_instance(&votes, Meter::new(), &mut rng).unwrap();
            let expect = threshold_decision_scaled(
                &out.witness.counts_scaled,
                &out.witness.z1_scaled,
                &out.witness.z2_scaled,
                out.witness.threshold_scaled,
            );
            assert_eq!(out.label, expect, "votes {votes:?}");
        }
    }

    #[test]
    fn per_step_traffic_and_time_recorded() {
        let mut rng = StdRng::seed_from_u64(4);
        let votes: Vec<Vec<f64>> = (0..4).map(|_| onehot(0)).collect();
        let meter = Meter::new();
        let out = engine().run_instance(&votes, Arc::clone(&meter), &mut rng).unwrap();
        assert_eq!(out.label, Some(0));
        let report = meter.report();
        for step in [
            Step::SecureSumVotes,
            Step::BlindPermute1,
            Step::CompareRank,
            Step::ThresholdCheck,
            Step::SecureSumNoisy,
            Step::BlindPermute2,
            Step::CompareNoisyRank,
            Step::Restoration,
        ] {
            assert!(report.step_bytes(step) > 0, "no traffic recorded for {step}");
        }
        assert!(report.step_time(Step::CompareRank) > Duration::ZERO);
        // The K = 3 bracket plays 2 matches vs the threshold check's 1.
        assert!(
            report.step_bytes(Step::CompareRank) > report.step_bytes(Step::ThresholdCheck),
            "the ranking bracket must outweigh the single threshold check"
        );
    }

    #[test]
    fn rejected_queries_skip_late_steps() {
        let mut rng = StdRng::seed_from_u64(5);
        let votes = vec![onehot(0), onehot(1), onehot(2), onehot(0)];
        let meter = Meter::new();
        let out = engine().run_instance(&votes, Arc::clone(&meter), &mut rng).unwrap();
        assert_eq!(out.label, None);
        let report = meter.report();
        // Steps 7-9 never run on a rejection; step 6 shares were sent by
        // users but never aggregated into server traffic beyond that.
        assert_eq!(report.step_bytes(Step::BlindPermute2), 0);
        assert_eq!(report.step_bytes(Step::Restoration), 0);
    }

    #[test]
    fn bracket_ranking_matches_clear_oracle_at_k10_with_ties() {
        let mut rng = StdRng::seed_from_u64(7);
        let engine = SecureEngine::new(
            SessionConfig::test(4, 10),
            ConsensusConfig::paper_default(1e-6, 1e-6),
            &mut rng,
        );
        // Most classes tie at zero votes in every case; [3, 3, 5, 5] also
        // ties at the top (2 < T = 2.4, so either winner is rejected).
        for picks in [[7, 7, 7, 2], [0, 0, 0, 0], [9, 9, 9, 9], [3, 3, 5, 5], [4, 9, 4, 4]] {
            let votes: Vec<Vec<f64>> = picks
                .iter()
                .map(|&k| {
                    let mut v = vec![0.0; 10];
                    v[k] = 1.0;
                    v
                })
                .collect();
            let meter = Meter::new();
            let out = engine.run_instance(&votes, Arc::clone(&meter), &mut rng).unwrap();
            let expect = threshold_decision_scaled(
                &out.witness.counts_scaled,
                &out.witness.z1_scaled,
                &out.witness.z2_scaled,
                out.witness.threshold_scaled,
            );
            assert_eq!(out.label, expect, "picks {picks:?}");
            // K = 10: 9 comparisons in ⌈log₂10⌉ = 4 three-message rounds.
            let rank =
                meter.report().link_stats(Step::CompareRank, transport::LinkKind::ServerToServer);
            assert_eq!(rank.messages, 12, "picks {picks:?}");
        }
    }

    #[test]
    fn noise_changes_released_label_with_large_sigma2() {
        // With σ2 comparable to the margin the noisy winner sometimes
        // differs from the true winner — that is the DP mechanism working.
        let mut rng = StdRng::seed_from_u64(6);
        let noisy_engine = SecureEngine::with_keys(
            SessionKeys::generate(SessionConfig::test(4, 3), &mut rng),
            ConsensusConfig::paper_default(1e-6, 8.0),
        );
        let votes = vec![onehot(0), onehot(0), onehot(0), onehot(1)];
        let mut flips = 0;
        for _ in 0..12 {
            let out = noisy_engine.run_instance(&votes, Meter::new(), &mut rng).unwrap();
            // Threshold noise is tiny, so the gate always passes (3 ≥ 2.4).
            let label = out.label.expect("gate passes");
            let expect = threshold_decision_scaled(
                &out.witness.counts_scaled,
                &out.witness.z1_scaled,
                &out.witness.z2_scaled,
                out.witness.threshold_scaled,
            );
            assert_eq!(Some(label), expect, "secure must track the noisy decision");
            if label != 0 {
                flips += 1;
            }
        }
        assert!(flips > 0, "σ2 = 8 over a 2-vote margin must flip sometimes");
    }

    #[test]
    fn a_local_failure_reports_at_once() {
        // 640 users' masked aggregate escapes the test share domain on
        // S1 at step 4. Under the default policy its peer would wait 120 s
        // for the frame that never comes; the round must not.
        let mut rng = StdRng::seed_from_u64(5);
        let engine = SecureEngine::new(
            SessionConfig::test(640, 2),
            ConsensusConfig::paper_default(1e-6, 1e-6),
            &mut rng,
        );
        let votes = vec![vec![0.0, 1.0]; 640];
        let started = Instant::now();
        let err = engine.run_instance(&votes, Meter::new(), &mut rng).unwrap_err();
        assert!(matches!(err, SmcError::Domain(smc::SharesOutOfRange { .. })), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5), "{:?}", started.elapsed());
    }

    #[test]
    fn a_round_larger_than_any_fixed_queue_completes() {
        // 3·1366 upload frames per server overflow a 4096-slot queue that
        // the one driving thread cannot drain while it is still sending.
        let mut rng = StdRng::seed_from_u64(8);
        let engine = SecureEngine::new(
            SessionConfig::paper(1366, 2),
            ConsensusConfig::paper_default(1e-6, 1e-6),
            &mut rng,
        );
        let votes = vec![vec![1.0, 0.0]; 1366];
        let out = engine.run_instance(&votes, Meter::new(), &mut rng).unwrap();
        assert_eq!(out.label, Some(0));
        assert_eq!(out.health.survivors.len(), 1366);
    }

    #[test]
    fn upload_header_names_every_upload_frame_and_nothing_past_them() {
        let engine = SecureEngine::with_keys(
            SessionKeys::generate(SessionConfig::test(4, 3), &mut StdRng::seed_from_u64(2024)),
            ConsensusConfig::paper_default(1e-6, 1e-6).with_min_users(2),
        );
        let votes: Vec<Vec<f64>> = (0..3).map(|_| onehot(0)).collect();
        let prepared =
            engine.prepare_round(&votes, &[0, 2, 3], &mut StdRng::seed_from_u64(10)).unwrap();
        let frames: Vec<Frame> = prepared.upload_frames().collect();
        assert_eq!(frames.len(), 18);
        for (seq, frame) in frames.iter().enumerate() {
            assert_eq!(prepared.upload_header(seq), Some((frame.from, frame.to, frame.step)));
        }
        assert_eq!(prepared.upload_header(18), None);
        assert_eq!(prepared.upload_header(usize::MAX), None);
    }

    /// Passes `inner`'s output through and keeps every byte of it.
    struct Recording {
        inner: StdRng,
        tape: Vec<u8>,
    }

    impl rand::RngCore for Recording {
        fn next_u32(&mut self) -> u32 {
            let word = self.inner.next_u32();
            self.tape.extend(word.to_le_bytes());
            word
        }

        fn next_u64(&mut self) -> u64 {
            let word = self.inner.next_u64();
            self.tape.extend(word.to_le_bytes());
            word
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.inner.fill_bytes(dest);
            self.tape.extend(&*dest);
        }

        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
            self.fill_bytes(dest);
            Ok(())
        }
    }

    #[test]
    fn a_rounds_three_seeds_are_three_raw_draws() {
        // Either server holds its own root seed and the shard seed: if one
        // of the three were computed from the others, it could solve for
        // its peer's root and replay every permutation and mask it drew.
        let votes: Vec<Vec<f64>> = (0..4).map(|_| onehot(1)).collect();
        let mut rng = Recording { inner: StdRng::seed_from_u64(12), tape: Vec::new() };
        let prepared = engine().prepare_round(&votes, &[0, 1, 2, 3], &mut rng).unwrap();
        let drawn =
            [&prepared.seed1[..], &prepared.seed2[..], &prepared.shard_seed.to_le_bytes()].concat();
        assert_eq!(drawn.len(), 32 + 32 + 8);
        assert_eq!(rng.tape[rng.tape.len() - drawn.len()..], drawn[..]);
        assert_ne!(prepared.seed1, prepared.seed2);
    }

    #[test]
    fn server_link_transcript_is_the_same_in_memory_and_over_endpoints() {
        let engine = SecureEngine::with_keys(
            SessionKeys::generate(SessionConfig::test(4, 3), &mut StdRng::seed_from_u64(2024)),
            ConsensusConfig::paper_default(1e-6, 1e-6).with_min_users(3),
        );
        let votes: Vec<Vec<f64>> = (0..4).map(|_| onehot(2)).collect();
        let prepared =
            engine.prepare_round(&votes, &[0, 1, 2, 3], &mut StdRng::seed_from_u64(9)).unwrap();

        let launch =
            || engine.launch(&prepared, prepared.upload_frames(), &Meter::new(), None, FROM_START);
        struct Tape(Vec<Frame>);
        impl RoundHook for Tape {
            fn sending(&mut self, from: PartyId, frame: &Outbound) {
                let (to, step, payload) = (frame.to, frame.step, frame.payload.clone());
                self.0.push(Frame { from, to, step, payload });
            }
        }
        let mut tape = Tape(Vec::new());
        let over_endpoints = launch().unwrap().run(&mut tape).unwrap();

        let Servers { ctx: [ctx1, ctx2], rounds: [round1, round2], .. } = launch().unwrap();
        let uploads = prepared.upload_frames().collect();
        let in_memory = smc::run_pair((&ctx1, round1), (&ctx2, round2), uploads).unwrap();

        assert_eq!(in_memory.outputs, over_endpoints);
        // Each driver may interleave the two directions its own way; what
        // a link carries, in order, is the machines' alone.
        for sender in [PartyId::Server1, PartyId::Server2] {
            let link = |frames: &[Frame]| -> Vec<Frame> {
                frames.iter().filter(|f| f.from == sender).cloned().collect()
            };
            assert!(link(&in_memory.transcript).len() > 10);
            assert_eq!(link(&in_memory.transcript), link(&tape.0), "{sender}");
        }
    }
}
