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
//! the two servers on real threads. Every message is metered per step,
//! and S1's thread records per-step wall time — together regenerating
//! Tables I and II.
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
//! model").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use paillier::Ciphertext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smc::blind_permute::{server1_blind_permute, server2_blind_permute};
use smc::bracket::{server1_argmax, server2_argmax};
use smc::compare::{server1_compare_batch, server2_compare_batch};
use smc::restoration::{server1_restore, server2_restore};
use smc::secure_sum::{
    aggregate_surviving_vectors_sharded, aggregate_user_vectors_sharded, encrypt_share_vector,
};
use smc::{
    AuditCheckpoint, AuditContext, AuditPolicy, CheckpointImage, Parallelism, RoundState,
    ServerContext, SessionConfig, SessionKeys, ShardConfig, ShardPlan, SmcError,
};
use transport::{
    CheckpointStore, Endpoint, FaultEvent, FaultPlan, FaultStats, Meter, Network, PartyId, Step,
    TimeoutPolicy, TransportBackend, Wire,
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
    /// Covert-security audit challenges verified during the round (0
    /// when auditing is off or the round was not a challenge round).
    pub audit_challenges: u64,
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
    audit: Option<AuditPolicy>,
    /// Monotonic round counter feeding the audit challenge schedule
    /// (each [`SecureEngine::run_round`] call is one audited round id).
    audit_rounds: AtomicU64,
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
    pub(crate) seed1: u64,
    pub(crate) seed2: u64,
    /// Round-shared seed for the shard plan — unlike the private per-server
    /// `seed1`/`seed2`, both servers derive the identical plan from it, so
    /// their per-shard survivor exchanges pair up without coordination.
    pub(crate) shard_seed: u64,
}

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
            audit: None,
            audit_rounds: AtomicU64::new(0),
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

    /// Attaches a covert-security [`AuditPolicy`]: servers exchange
    /// commitments to their per-step randomness before every audited
    /// step, and a seeded `challenge_rate` fraction of rounds
    /// cross-verify the opened transcripts, turning a deviating server
    /// into a typed [`SmcError::AuditFailure`].
    #[must_use]
    pub fn with_audit(mut self, policy: AuditPolicy) -> Self {
        self.audit = Some(policy);
        self
    }

    /// The attached audit policy, if any.
    pub fn audit(&self) -> Option<AuditPolicy> {
        self.audit
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
    /// Panics if the vote matrix shape disagrees with the session, or if
    /// a server thread panics.
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
        let mut net = self.build_network(&meter, self.faults.clone());
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        self.send_uploads(&mut net, &prepared)?;
        let round_id = self.audit_rounds.fetch_add(1, Ordering::Relaxed);
        let (done1, done2) = self.drive_servers(
            &mut s1,
            &mut s2,
            &prepared,
            RoundState::Start,
            RoundState::Start,
            (None, None),
            round_id,
            None,
        )?;
        Ok(self.finalize_round(&prepared, done1, done2, &meter, fault_stats_before, 0, Vec::new()))
    }

    /// The attached fault-injection plan, if any.
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The two server-side decryption/evaluation contexts, for callers
    /// that drive [`server1_advance`]/[`server2_advance`] step by step
    /// instead of through [`SecureEngine::drive_servers`] (the
    /// multi-session reactor).
    pub(crate) fn server_contexts(&self) -> (ServerContext, ServerContext) {
        (self.keys.server1(), self.keys.server2())
    }

    /// Claims the next audit round id from the engine's monotonic
    /// counter — one id per driven round, feeding the audit challenge
    /// schedule exactly as [`SecureEngine::run_round`] does.
    pub(crate) fn next_audit_round(&self) -> u64 {
        self.audit_rounds.fetch_add(1, Ordering::Relaxed)
    }

    /// The user phase, run once per *logical* round: shares, noise,
    /// threshold offsets and the six encrypted payloads per user are all
    /// drawn here. Crash-recovery attempts replay this prepared data
    /// verbatim — nothing is re-drawn, so every attempt reruns the same
    /// round and a recovered outcome can be bit-identical to an
    /// uninterrupted one.
    ///
    /// Randomness is consumed in the exact order the pre-decomposition
    /// engine did (per user: z1, z2, share split, then the six payload
    /// encryptions in upload order, and finally the two server seeds).
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
        let seed1: u64 = rng.gen();
        let seed2: u64 = rng.gen();
        // The shard plan must be identical on both servers, so its seed is
        // a hashed mix of the two server seeds instead of a fresh draw —
        // the round's RNG stream stays identical to pre-shard builds, and
        // the mix does not linearly expose either private seed.
        let shard_seed = {
            let mut z = seed1 ^ seed2.rotate_left(32);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
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
    /// fired).
    pub(crate) fn build_network(&self, meter: &Arc<Meter>, plan: Option<FaultPlan>) -> Network {
        let mut builder = Network::builder(self.keys.config().num_users)
            .meter(Arc::clone(meter))
            .timeout(self.timeout)
            .backend(self.transport);
        if let Some(plan) = plan {
            builder = builder.faults(plan);
        }
        builder.build()
    }

    /// Injects the prepared uploads into a fresh network, in the same
    /// per-user, per-link order as the original engine — fresh networks
    /// restart each link's sequence numbers at 1, so fault decisions
    /// keyed on (from, to, step, seq) reproduce identically per attempt.
    pub(crate) fn send_uploads(
        &self,
        net: &mut Network,
        prepared: &PreparedRound,
    ) -> Result<(), SmcError> {
        for up in &prepared.uploads {
            let endpoint = net.take_endpoint(PartyId::User(up.user));
            endpoint.send(PartyId::Server1, Step::SecureSumVotes, &up.s1_votes)?;
            endpoint.send(PartyId::Server1, Step::SecureSumVotes, &up.s1_thresh)?;
            endpoint.send(PartyId::Server1, Step::SecureSumNoisy, &up.s1_noisy)?;
            endpoint.send(PartyId::Server2, Step::SecureSumVotes, &up.s2_votes)?;
            endpoint.send(PartyId::Server2, Step::SecureSumVotes, &up.s2_thresh)?;
            endpoint.send(PartyId::Server2, Step::SecureSumNoisy, &up.s2_noisy)?;
        }
        Ok(())
    }

    /// Runs both server threads from the given states to termination,
    /// snapshotting each completed step into `checkpoints` when attached.
    /// `audits` carries each side's restored audit material on recovery
    /// attempts; `round_id` feeds the audit challenge schedule.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn drive_servers(
        &self,
        s1: &mut Endpoint,
        s2: &mut Endpoint,
        prepared: &PreparedRound,
        state1: RoundState,
        state2: RoundState,
        audits: (Option<AuditCheckpoint>, Option<AuditCheckpoint>),
        round_id: u64,
        checkpoints: Option<(&dyn CheckpointStore, u64)>,
    ) -> Result<(RoundState, RoundState), SmcError> {
        let ctx1 = self.keys.server1();
        let ctx2 = self.keys.server2();
        let quorum = if self.resilient() { Some(self.quorum()) } else { None };
        let roster = &prepared.roster;
        let num_classes = prepared.num_classes;
        let (seed1, seed2) = (prepared.seed1, prepared.seed2);
        let shard_seed = prepared.shard_seed;
        let policy = self.audit;
        let faults = self.faults.as_ref();
        let (audit1, audit2) = audits;
        let (r1, r2) = std::thread::scope(|scope| {
            let h1 = scope.spawn(move || {
                server_drive(
                    PartyId::Server1,
                    s1,
                    &ctx1,
                    roster,
                    num_classes,
                    seed1,
                    shard_seed,
                    quorum,
                    state1,
                    checkpoints,
                    policy,
                    round_id,
                    audit1,
                    faults,
                )
            });
            let h2 = scope.spawn(move || {
                server_drive(
                    PartyId::Server2,
                    s2,
                    &ctx2,
                    roster,
                    num_classes,
                    seed2,
                    shard_seed,
                    quorum,
                    state2,
                    checkpoints,
                    policy,
                    round_id,
                    audit2,
                    faults,
                )
            });
            (h1.join().expect("S1 thread panicked"), h2.join().expect("S2 thread panicked"))
        });
        // When one server fails mid-protocol the other times out waiting;
        // surface the root cause, not the timeout it induced. An audit
        // conviction outranks everything — the convicted side's own
        // error (usually the timeout its abort induced on the peer, or
        // a transport teardown) must never mask the verdict.
        match (r1, r2) {
            (Ok(d1), Ok(d2)) => Ok((d1, d2)),
            (Err(e @ SmcError::AuditFailure { .. }), _)
            | (_, Err(e @ SmcError::AuditFailure { .. })) => Err(e),
            (Err(SmcError::Transport(_)), Err(root)) => Err(root),
            (Err(root), _) => Err(root),
            (_, Err(root)) => Err(root),
        }
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
            panic!("drive_servers must return terminal states");
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
            audit_challenges: fault_stats.audit_challenges - fault_stats_before.audit_challenges,
        };
        SecureOutcome { label, witness, health }
    }
}

/// The aggregated vote vector, threshold vector and surviving user ids
/// of a step-2 collection.
type VotesThreshSurvivors = (Vec<Ciphertext>, Vec<Ciphertext>, Vec<usize>);

/// Step-2 collection for either server: strict (`quorum == None`, every
/// roster upload must arrive) or resilient (collect what arrives,
/// reconcile survivors with the peer per shard, enforce the quorum).
/// Both servers derive the identical shard plan from the round-shared
/// `shard_seed`, so the streaming folds and per-shard exchanges line up.
#[allow(clippy::too_many_arguments)]
fn collect_votes_and_thresh(
    endpoint: &mut Endpoint,
    roster: &[usize],
    num_classes: usize,
    peer_key: &paillier::PublicKey,
    peer_server: PartyId,
    quorum: Option<usize>,
    shard_seed: u64,
    shards: ShardConfig,
    par: &Parallelism,
) -> Result<VotesThreshSurvivors, SmcError> {
    let plan = ShardPlan::derive(shard_seed, roster, shards);
    match quorum {
        None => {
            let votes = aggregate_user_vectors_sharded(
                endpoint,
                Step::SecureSumVotes,
                &plan,
                num_classes,
                peer_key,
                par,
            )?;
            let thresh = aggregate_user_vectors_sharded(
                endpoint,
                Step::SecureSumVotes,
                &plan,
                num_classes,
                peer_key,
                par,
            )?;
            Ok((votes, thresh, roster.to_vec()))
        }
        Some(q) => {
            let mut agg = aggregate_surviving_vectors_sharded(
                endpoint,
                Step::SecureSumVotes,
                &plan,
                num_classes,
                2,
                peer_key,
                peer_server,
                q,
                par,
            )?;
            let thresh = agg.sums.pop().expect("two aggregated vectors");
            let votes = agg.sums.pop().expect("two aggregated vectors");
            Ok((votes, thresh, agg.survivors))
        }
    }
}

/// Step-6 collection for either server, over the step-2 survivors.
#[allow(clippy::too_many_arguments)]
fn collect_noisy(
    endpoint: &mut Endpoint,
    survivors: &[usize],
    num_classes: usize,
    peer_key: &paillier::PublicKey,
    peer_server: PartyId,
    quorum: Option<usize>,
    shard_seed: u64,
    shards: ShardConfig,
    par: &Parallelism,
) -> Result<(Vec<Ciphertext>, Vec<usize>), SmcError> {
    let plan = ShardPlan::derive(shard_seed, survivors, shards);
    match quorum {
        None => {
            let noisy = aggregate_user_vectors_sharded(
                endpoint,
                Step::SecureSumNoisy,
                &plan,
                num_classes,
                peer_key,
                par,
            )?;
            Ok((noisy, survivors.to_vec()))
        }
        Some(q) => {
            let mut agg = aggregate_surviving_vectors_sharded(
                endpoint,
                Step::SecureSumNoisy,
                &plan,
                num_classes,
                1,
                peer_key,
                peer_server,
                q,
                par,
            )?;
            let noisy = agg.sums.pop().expect("one aggregated vector");
            Ok((noisy, agg.survivors))
        }
    }
}

/// Derives the RNG seed for one protocol step from a server's root seed
/// (SplitMix64 of the seed and the step ordinal).
///
/// Each step draws from its own derived stream instead of one rolling
/// RNG: resuming the pipeline at step *k* then reproduces the exact
/// randomness the uninterrupted run would have used there, which is what
/// makes recovered rounds bit-identical. Crash recovery never needs to
/// checkpoint RNG *states* — only the root seeds, drawn once per round.
/// The audit layer commits to this seed before the step runs, so a
/// challenged server's draws can be replayed verbatim by its peer.
fn step_seed(root_seed: u64, step: Step) -> u64 {
    let mut z = root_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(step.ordinal()) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Executes the single next step of S1's pipeline from `state`,
/// returning the state after it. S1 wraps every step in the meter's wall
/// clock (S2's overlapping work is covered by the same clock, matching
/// how the paper reports per-step costs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn server1_advance(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    roster: &[usize],
    num_classes: usize,
    root_seed: u64,
    shard_seed: u64,
    quorum: Option<usize>,
    state: RoundState,
    audit: &mut AuditContext,
    faults: Option<&FaultPlan>,
) -> Result<RoundState, SmcError> {
    let meter = Arc::clone(endpoint.meter());
    let step = state.next_step().expect("cannot advance a terminal round state");
    let seed = step_seed(root_seed, step);
    let mut rng = StdRng::seed_from_u64(seed);
    let byz = faults.and_then(|p| p.byzantine_action(PartyId::Server1, step));
    Ok(match state {
        RoundState::Start => {
            // Step 2: aggregate the vote shares and threshold shares.
            let pk2 = ctx.peer_public().clone();
            let (votes, thresh, survivors) = meter.time(Step::SecureSumVotes, || {
                collect_votes_and_thresh(
                    endpoint,
                    roster,
                    num_classes,
                    &pk2,
                    PartyId::Server2,
                    quorum,
                    shard_seed,
                    ctx.config().shards,
                    ctx.parallelism(),
                )
            })?;
            RoundState::Summed { votes, thresh, survivors }
        }
        RoundState::Summed { votes, thresh, survivors } => {
            // Step 3: Blind-and-Permute over both vectors, one shared π.
            let mut tap = audit.tap(step, seed, byz);
            let bp = meter.time(Step::BlindPermute1, || {
                server1_blind_permute(
                    endpoint,
                    ctx,
                    &[votes, thresh],
                    Step::BlindPermute1,
                    &mut rng,
                    &mut tap,
                )
            })?;
            audit.complete(&tap);
            let [votes_seq, thresh_seq]: [Vec<i128>; 2] =
                bp.sequences.try_into().expect("two permuted sequences");
            RoundState::Permuted {
                votes_seq,
                thresh_seq,
                permutation: bp.own_permutation,
                survivors,
            }
        }
        RoundState::Permuted { votes_seq, thresh_seq, survivors, .. } => {
            // Step 4: ranking → permuted winner slot.
            let slot = meter.time(Step::CompareRank, || {
                server1_argmax(endpoint, ctx, &votes_seq, Step::CompareRank, &mut rng)
            })?;
            RoundState::Ranked { slot, thresh_seq, survivors }
        }
        RoundState::Ranked { slot, thresh_seq, survivors } => {
            // Step 5: noisy threshold check at that slot — a one-match
            // comparison round.
            let passed = meter.time(Step::ThresholdCheck, || {
                let x = [thresh_seq[slot]];
                server1_compare_batch(endpoint, ctx, &x, Step::ThresholdCheck, &mut rng)
            })?;
            if passed[0] {
                RoundState::Gated { survivors }
            } else {
                RoundState::Done { label: None, survivors, noisy_survivors: None }
            }
        }
        RoundState::Gated { survivors } => {
            // Step 6: aggregate the noisy vote shares over the survivors.
            let pk2 = ctx.peer_public().clone();
            let (noisy, noisy_survivors) = meter.time(Step::SecureSumNoisy, || {
                collect_noisy(
                    endpoint,
                    &survivors,
                    num_classes,
                    &pk2,
                    PartyId::Server2,
                    quorum,
                    shard_seed,
                    ctx.config().shards,
                    ctx.parallelism(),
                )
            })?;
            RoundState::SummedNoisy { noisy, survivors, noisy_survivors: Some(noisy_survivors) }
        }
        RoundState::SummedNoisy { noisy, survivors, noisy_survivors } => {
            // Step 7: second Blind-and-Permute, fresh π′.
            let mut tap = audit.tap(step, seed, byz);
            let bp = meter.time(Step::BlindPermute2, || {
                server1_blind_permute(
                    endpoint,
                    ctx,
                    &[noisy],
                    Step::BlindPermute2,
                    &mut rng,
                    &mut tap,
                )
            })?;
            audit.complete(&tap);
            let [noisy_seq]: [Vec<i128>; 1] =
                bp.sequences.try_into().expect("one permuted sequence");
            RoundState::PermutedNoisy {
                noisy_seq,
                permutation: bp.own_permutation,
                survivors,
                noisy_survivors,
            }
        }
        RoundState::PermutedNoisy { noisy_seq, permutation, survivors, noisy_survivors } => {
            // Step 8: rank the noisy votes (S2 drives restoration from
            // the same slot).
            let noisy_slot = meter.time(Step::CompareNoisyRank, || {
                server1_argmax(endpoint, ctx, &noisy_seq, Step::CompareNoisyRank, &mut rng)
            })?;
            RoundState::RankedNoisy { noisy_slot, permutation, survivors, noisy_survivors }
        }
        RoundState::RankedNoisy { permutation, survivors, noisy_survivors, .. } => {
            // Step 9: restore the true label.
            let mut tap = audit.tap(step, seed, byz);
            let label = meter.time(Step::Restoration, || {
                server1_restore(endpoint, ctx, &permutation, Step::Restoration, &mut rng, &mut tap)
            })?;
            audit.complete(&tap);
            RoundState::Done { label: Some(label), survivors, noisy_survivors }
        }
        RoundState::Done { .. } => unreachable!("terminal state has no next step"),
    })
}

/// Executes the single next step of S2's pipeline (mirror of
/// [`server1_advance`], no timing records).
#[allow(clippy::too_many_arguments)]
pub(crate) fn server2_advance(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    roster: &[usize],
    num_classes: usize,
    root_seed: u64,
    shard_seed: u64,
    quorum: Option<usize>,
    state: RoundState,
    audit: &mut AuditContext,
    faults: Option<&FaultPlan>,
) -> Result<RoundState, SmcError> {
    let step = state.next_step().expect("cannot advance a terminal round state");
    let seed = step_seed(root_seed, step);
    let mut rng = StdRng::seed_from_u64(seed);
    let byz = faults.and_then(|p| p.byzantine_action(PartyId::Server2, step));
    Ok(match state {
        RoundState::Start => {
            let pk1 = ctx.peer_public().clone();
            let (votes, thresh, survivors) = collect_votes_and_thresh(
                endpoint,
                roster,
                num_classes,
                &pk1,
                PartyId::Server1,
                quorum,
                shard_seed,
                ctx.config().shards,
                ctx.parallelism(),
            )?;
            RoundState::Summed { votes, thresh, survivors }
        }
        RoundState::Summed { votes, thresh, survivors } => {
            let mut tap = audit.tap(step, seed, byz);
            let bp = server2_blind_permute(
                endpoint,
                ctx,
                &[votes, thresh],
                Step::BlindPermute1,
                &mut rng,
                &mut tap,
            )?;
            audit.complete(&tap);
            let [votes_seq, thresh_seq]: [Vec<i128>; 2] =
                bp.sequences.try_into().expect("two permuted sequences");
            RoundState::Permuted {
                votes_seq,
                thresh_seq,
                permutation: bp.own_permutation,
                survivors,
            }
        }
        RoundState::Permuted { votes_seq, thresh_seq, survivors, .. } => {
            let slot = server2_argmax(endpoint, ctx, &votes_seq, Step::CompareRank, &mut rng)?;
            RoundState::Ranked { slot, thresh_seq, survivors }
        }
        RoundState::Ranked { slot, thresh_seq, survivors } => {
            let y = [thresh_seq[slot]];
            let passed = server2_compare_batch(endpoint, ctx, &y, Step::ThresholdCheck, &mut rng)?;
            if passed[0] {
                RoundState::Gated { survivors }
            } else {
                RoundState::Done { label: None, survivors, noisy_survivors: None }
            }
        }
        RoundState::Gated { survivors } => {
            let pk1 = ctx.peer_public().clone();
            let (noisy, noisy_survivors) = collect_noisy(
                endpoint,
                &survivors,
                num_classes,
                &pk1,
                PartyId::Server1,
                quorum,
                shard_seed,
                ctx.config().shards,
                ctx.parallelism(),
            )?;
            RoundState::SummedNoisy { noisy, survivors, noisy_survivors: Some(noisy_survivors) }
        }
        RoundState::SummedNoisy { noisy, survivors, noisy_survivors } => {
            let mut tap = audit.tap(step, seed, byz);
            let bp = server2_blind_permute(
                endpoint,
                ctx,
                &[noisy],
                Step::BlindPermute2,
                &mut rng,
                &mut tap,
            )?;
            audit.complete(&tap);
            let [noisy_seq]: [Vec<i128>; 1] =
                bp.sequences.try_into().expect("one permuted sequence");
            RoundState::PermutedNoisy {
                noisy_seq,
                permutation: bp.own_permutation,
                survivors,
                noisy_survivors,
            }
        }
        RoundState::PermutedNoisy { noisy_seq, permutation, survivors, noisy_survivors } => {
            let noisy_slot =
                server2_argmax(endpoint, ctx, &noisy_seq, Step::CompareNoisyRank, &mut rng)?;
            RoundState::RankedNoisy { noisy_slot, permutation, survivors, noisy_survivors }
        }
        RoundState::RankedNoisy { noisy_slot, permutation, survivors, noisy_survivors } => {
            let mut tap = audit.tap(step, seed, byz);
            let label = server2_restore(
                endpoint,
                ctx,
                &permutation,
                noisy_slot,
                Step::Restoration,
                &mut rng,
                &mut tap,
            )?;
            audit.complete(&tap);
            RoundState::Done { label: Some(label), survivors, noisy_survivors }
        }
        RoundState::Done { .. } => unreachable!("terminal state has no next step"),
    })
}

/// Runs one server from `state` to a terminal state, snapshotting after
/// every completed step when a checkpoint store is attached. A resumed
/// server passes its restored state here and re-enters the pipeline at
/// exactly the step the snapshot pair agrees on.
#[allow(clippy::too_many_arguments)]
fn server_drive(
    side: PartyId,
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    roster: &[usize],
    num_classes: usize,
    root_seed: u64,
    shard_seed: u64,
    quorum: Option<usize>,
    mut state: RoundState,
    checkpoints: Option<(&dyn CheckpointStore, u64)>,
    audit_policy: Option<AuditPolicy>,
    round_id: u64,
    restored_audit: Option<AuditCheckpoint>,
    faults: Option<&FaultPlan>,
) -> Result<RoundState, SmcError> {
    let mut audit = match restored_audit {
        Some(ckpt) => AuditContext::restore(audit_policy, round_id, side, ckpt),
        None => AuditContext::new(audit_policy, round_id, side),
    };
    while !state.is_terminal() {
        state = match side {
            PartyId::Server1 => server1_advance(
                endpoint,
                ctx,
                roster,
                num_classes,
                root_seed,
                shard_seed,
                quorum,
                state,
                &mut audit,
                faults,
            )?,
            PartyId::Server2 => server2_advance(
                endpoint,
                ctx,
                roster,
                num_classes,
                root_seed,
                shard_seed,
                quorum,
                state,
                &mut audit,
                faults,
            )?,
            PartyId::User(_) => unreachable!("only servers drive the pipeline"),
        };
        if let Some((store, round)) = checkpoints {
            let image = CheckpointImage {
                state: state.clone(),
                audit: audit_policy.is_some().then(|| audit.checkpoint()),
            };
            store
                .save(round, side, state.completed_step(), &image.to_bytes())
                .expect("checkpoint store failed while saving a snapshot");
            endpoint.meter().record_fault(FaultEvent::CheckpointSaved);
        }
    }
    Ok(state)
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
        assert!(report.step_time(Step::CompareRank) > std::time::Duration::ZERO);
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
}
