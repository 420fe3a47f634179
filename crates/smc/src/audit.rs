//! Covert-security audit of the blind-permute-and-mask steps.
//!
//! The paper's two servers are honest-but-curious; this module upgrades
//! them to *covert* adversaries — a server may deviate (mis-permute,
//! drop a mask, equivocate between what it sends and what it attests,
//! replay a stale frame) but is caught with tunable probability and
//! named when caught.
//!
//! The mechanism is commit-and-challenge over the existing S1↔S2 link:
//!
//! 1. **Commit** — before executing an audited step (both
//!    Blind-and-Permute runs and Restoration), each server sends the
//!    peer a hash commitment over `(step seed, step, round id)`. The
//!    step seed is the value its permutation and mask draws derive from
//!    (see `step_seed` in [`crate::round`]), so committing to it commits
//!    to every random choice the server is about to make.
//! 2. **Transcript** — during the step, each server folds the frames it
//!    sends, the frames it receives, the permutation it applies and the
//!    masks it uses into running FNV-1a digests.
//! 3. **Challenge** — in a seeded fraction of rounds
//!    ([`AuditPolicy::challenge_rate`]) each server *opens* its
//!    commitment after its last content send of the step: it reveals
//!    the seed and its attested digests. The counterpart replays the
//!    permutation/mask draws from the opened seed and cross-checks
//!    every digest before using any data the peer produced.
//!
//! All three ride on the audited sub-protocol from outside: [`Audited`]
//! wraps its [`Machine`] and works at the message boundary, so the
//! sub-protocol itself only declares what it drew ([`Attest`]).
//!
//! Any inconsistency yields a typed [`SmcError::AuditFailure`] naming
//! the guilty party, the step and the [`AuditEvidence`] — distinct from
//! `QuorumLost` and never releasing a label. The FNV-1a fold is
//! injective per byte position (every fold step is invertible mod
//! 2^64), so any single-byte substitution in an attested transcript
//! provably changes its digest — pinned by proptests.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transport::{FaultEvent, PartyId, Step, TransportError, Wire, WireError};

use crate::domain::ShareDomain;
use crate::error::SmcError;
use crate::machine::{decode, Attest, Inbound, Machine, Next, Outbox, Recv};
use crate::permutation::Permutation;
use crate::session::ServerContext;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running 64-bit FNV-1a digest.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A fresh FNV-1a digest state.
pub fn fnv1a_start() -> u64 {
    FNV_OFFSET
}

/// SplitMix64-style avalanche of `h` and `salt` (the same construction
/// the transport's fault injector uses; duplicated because it is three
/// lines and the transport keeps its copy private).
fn mix(h: u64, salt: u64) -> u64 {
    let mut z = h ^ salt.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hash commitment a server sends before executing an audited step:
/// binding to the step seed, the step and the round id.
pub fn commit_seed(seed: u64, step: Step, round_id: u64) -> u64 {
    let mut h = mix(seed, 0xa0d1_7000);
    h = mix(h, u64::from(step.ordinal()) + 1);
    mix(h, round_id ^ 0x5eed_c0de)
}

/// Why an audit challenge failed — carried inside
/// [`SmcError::AuditFailure`] and rendered in health reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEvidence {
    /// The frames the peer attested to sending differ from the frames
    /// that actually arrived (equivocation or a stale-frame replay).
    TranscriptDivergence {
        /// Digest of the frames the peer claims it sent.
        attested: u64,
        /// Digest of the frames that actually arrived.
        observed: u64,
    },
    /// The permutation the peer used is not the one its committed seed
    /// derives (or, at Restoration, not the one it used at the second
    /// Blind-and-Permute).
    PermutationMismatch {
        /// Digest of the permutation the committed seed derives.
        expected: u64,
        /// Digest of the permutation the peer attested to using.
        used: u64,
    },
    /// The masks the peer used are not the ones its committed seed
    /// derives (a dropped or altered blinding mask).
    MaskMismatch {
        /// Digest of the masks the committed seed derives.
        expected: u64,
        /// Digest of the masks the peer attested to using.
        used: u64,
    },
    /// The opened seed does not match the commitment exchanged before
    /// the step ran.
    CommitmentMismatch {
        /// The commitment received before the step.
        committed: u64,
        /// The commitment recomputed from the opened seed.
        reopened: u64,
    },
    /// The peer failed to produce a well-formed opening when challenged.
    MissingOpening,
}

impl std::fmt::Display for AuditEvidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditEvidence::TranscriptDivergence { attested, observed } => write!(
                f,
                "attested transcript {attested:#018x} differs from observed {observed:#018x}"
            ),
            AuditEvidence::PermutationMismatch { expected, used } => {
                write!(f, "permutation {used:#018x} is not the committed draw {expected:#018x}")
            }
            AuditEvidence::MaskMismatch { expected, used } => {
                write!(f, "masks {used:#018x} are not the committed draws {expected:#018x}")
            }
            AuditEvidence::CommitmentMismatch { committed, reopened } => write!(
                f,
                "opened seed recommits to {reopened:#018x}, not the committed {committed:#018x}"
            ),
            AuditEvidence::MissingOpening => write!(f, "no well-formed opening arrived"),
        }
    }
}

/// The audit configuration attached to a `SecureEngine`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditPolicy {
    /// Fraction of rounds run as challenge rounds (0.0 ..= 1.0). A
    /// covert server deviating in a uniformly chosen round is caught
    /// with this probability.
    pub challenge_rate: f64,
    /// In strict mode a peer that fails to open when challenged is
    /// treated as guilty ([`AuditEvidence::MissingOpening`]); in
    /// resilient mode the missing opening surfaces as the transport
    /// failure it may innocently be (a crash), and only *inconsistent*
    /// openings convict.
    pub strict: bool,
    /// Seed of the deterministic challenge-round schedule.
    pub seed: u64,
}

impl AuditPolicy {
    /// Challenge every round; missing openings convict.
    pub fn strict() -> AuditPolicy {
        AuditPolicy { challenge_rate: 1.0, strict: true, seed: 0 }
    }

    /// Challenge every round; missing openings degrade to transport
    /// errors (crash-tolerant), inconsistent openings still convict.
    pub fn resilient() -> AuditPolicy {
        AuditPolicy { challenge_rate: 1.0, strict: false, seed: 0 }
    }

    /// Challenge a seeded `rate` fraction of rounds, strict.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn sampled(rate: f64, seed: u64) -> AuditPolicy {
        assert!((0.0..=1.0).contains(&rate), "challenge rate out of range");
        AuditPolicy { challenge_rate: rate, strict: true, seed }
    }

    /// Whether `round_id` is a challenge round under this policy: a
    /// deterministic function of the policy seed and the round id, so
    /// both servers agree without coordination.
    pub fn is_challenge(&self, round_id: u64) -> bool {
        if self.challenge_rate >= 1.0 {
            return true;
        }
        if self.challenge_rate <= 0.0 {
            return false;
        }
        let h = mix(self.seed ^ 0xc4a1_1e46_e5ee_d000, round_id);
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.challenge_rate
    }
}

/// The audit bookkeeping one server carries across a round attempt:
/// policy, challenge decision, and cross-step context (the peer's
/// verified second-Blind-and-Permute permutation digest, which
/// Restoration is checked against).
#[derive(Debug, Clone)]
pub struct AuditContext {
    policy: Option<AuditPolicy>,
    round_id: u64,
    self_party: PartyId,
    challenge: bool,
    /// Replayed digest of the peer's BP2 permutation, learned when the
    /// second Blind-and-Permute was challenge-verified (or restored
    /// from a checkpoint). Restoration's permutation must match it.
    peer_perm: Option<u64>,
    /// `(step, commitment)` pairs this server has sent so far, persisted
    /// into checkpoints so a resumed round re-verifies with the same
    /// committed material.
    commitments: Vec<(Step, u64)>,
}

impl AuditContext {
    /// A context for one server's round attempt. `policy: None` disables
    /// auditing entirely (no frames, no digests).
    pub fn new(policy: Option<AuditPolicy>, round_id: u64, self_party: PartyId) -> AuditContext {
        let challenge = policy.as_ref().is_some_and(|p| p.is_challenge(round_id));
        AuditContext {
            policy,
            round_id,
            self_party,
            challenge,
            peer_perm: None,
            commitments: Vec::new(),
        }
    }

    /// A disabled context (no auditing).
    pub fn disabled(self_party: PartyId) -> AuditContext {
        AuditContext::new(None, 0, self_party)
    }

    /// Whether this round is a challenge round.
    pub fn is_challenge(&self) -> bool {
        self.challenge
    }

    /// Whether auditing is on at all.
    pub(crate) fn enabled(&self) -> bool {
        self.policy.is_some()
    }

    /// Puts `inner`, the sub-protocol of one audited step, under audit.
    /// `step_seed` must be the seed the step's RNG is built from; `k` is
    /// the permuted vector length and `m` the number of per-vector masks
    /// the peer draws this step.
    pub fn wrap<M>(
        &mut self,
        inner: M,
        step: Step,
        step_seed: u64,
        k: usize,
        m: usize,
    ) -> Audited<M> {
        let Some(policy) = self.policy else {
            return Audited { inner, tap: None };
        };
        let commitment = commit_seed(step_seed, step, self.round_id);
        if !self.commitments.iter().any(|&(s, _)| s == step) {
            self.commitments.push((step, commitment));
        }
        Audited {
            inner,
            tap: Some(Box::new(Tap {
                step,
                round_id: self.round_id,
                peer: peer_of(self.self_party),
                seed: step_seed,
                commitment,
                challenge: self.challenge,
                strict: policy.strict,
                draws: (k, m),
                phase: Phase::Start,
                sent: (0, fnv1a_start()),
                received: (0, fnv1a_start()),
                perm: fnv1a_start(),
                masks: fnv1a_start(),
                peer_commitment: None,
                expected_peer_perm: self.peer_perm,
                learned_peer_perm: None,
            })),
        }
    }

    /// Absorbs what a completed step's audit learned (the peer's verified
    /// BP2 permutation digest, needed later by Restoration).
    pub fn complete<M>(&mut self, audited: &Audited<M>) {
        if let Some(tap) = &audited.tap {
            if tap.step == Step::BlindPermute2 {
                if let Some(d) = tap.learned_peer_perm {
                    self.peer_perm = Some(d);
                }
            }
        }
    }

    /// Snapshot for durable round checkpoints.
    pub fn checkpoint(&self) -> AuditCheckpoint {
        AuditCheckpoint { commitments: self.commitments.clone(), peer_perm: self.peer_perm }
    }

    /// Restores a context from a checkpointed snapshot: the same policy
    /// and round id, plus the persisted cross-step audit material — a
    /// resumed round re-verifies from the same commitments instead of
    /// re-charging.
    pub fn restore(
        policy: Option<AuditPolicy>,
        round_id: u64,
        self_party: PartyId,
        ckpt: AuditCheckpoint,
    ) -> AuditContext {
        let mut ctx = AuditContext::new(policy, round_id, self_party);
        ctx.peer_perm = ckpt.peer_perm;
        ctx.commitments = ckpt.commitments;
        ctx
    }
}

/// The other server.
fn peer_of(party: PartyId) -> PartyId {
    match party {
        PartyId::Server1 => PartyId::Server2,
        PartyId::Server2 => PartyId::Server1,
        PartyId::User(_) => unreachable!("only servers are audited"),
    }
}

/// The durable audit state embedded in round checkpoints alongside the
/// [`crate::RoundState`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditCheckpoint {
    /// `(step, commitment)` pairs sent before the crash.
    pub commitments: Vec<(Step, u64)>,
    /// The peer's verified BP2 permutation digest, if learned.
    pub peer_perm: Option<u64>,
}

impl Wire for AuditCheckpoint {
    fn encode(&self, buf: &mut BytesMut) {
        (self.commitments.len() as u32).encode(buf);
        for &(step, c) in &self.commitments {
            step.encode(buf);
            c.encode(buf);
        }
        self.peer_perm.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = u32::decode(buf)? as usize;
        if n > Step::ALL.len() {
            return Err(WireError::Malformed("more audit commitments than steps"));
        }
        let mut commitments = Vec::with_capacity(n);
        for _ in 0..n {
            commitments.push((Step::decode(buf)?, u64::decode(buf)?));
        }
        Ok(AuditCheckpoint { commitments, peer_perm: Option::decode(buf)? })
    }
}

/// An audit frame on the S1↔S2 link, tagged with the audited step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMsg {
    /// The pre-step hash commitment over `(seed, step, round_id)`.
    Commit(u64),
    /// A challenge-round opening: the seed plus the attested digests.
    Open {
        /// The step seed the commitment binds.
        seed: u64,
        /// Digest of every content frame the server sent this step.
        sent: u64,
        /// Digest of the permutation the server applied.
        perm: u64,
        /// Digest of the masks the server used.
        masks: u64,
    },
}

impl Wire for AuditMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            AuditMsg::Commit(c) => {
                buf.put_u8(0);
                c.encode(buf);
            }
            AuditMsg::Open { seed, sent, perm, masks } => {
                buf.put_u8(1);
                seed.encode(buf);
                sent.encode(buf);
                perm.encode(buf);
                masks.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(AuditMsg::Commit(u64::decode(buf)?)),
            1 => Ok(AuditMsg::Open {
                seed: u64::decode(buf)?,
                sent: u64::decode(buf)?,
                perm: u64::decode(buf)?,
                masks: u64::decode(buf)?,
            }),
            tag => Err(WireError::InvalidTag(tag)),
        }
    }
}

/// Content frames an audited sub-protocol moves in each direction:
/// Alg. 2 and Alg. 3 both send three and receive three per server. They
/// are the attested transcript; Restoration's winner announcement trails
/// both openings and is outside it.
const TRANSCRIPT_FRAMES: usize = 3;

/// Where an audited step is between its audit frames.
#[derive(Debug)]
enum Phase {
    Start,
    /// The commitment is out; the peer's is awaited.
    Commit,
    /// The sub-protocol runs.
    Running,
    /// The last content frame is held back until the peer's opening has
    /// been verified.
    Opening {
        held: Inbound,
    },
}

/// Everything the audit tracks for one audited step on one server.
#[derive(Debug)]
struct Tap {
    step: Step,
    round_id: u64,
    peer: PartyId,
    seed: u64,
    commitment: u64,
    challenge: bool,
    strict: bool,
    /// `(k, m)` of [`AuditContext::wrap`].
    draws: (usize, usize),
    phase: Phase,
    /// Content frames sent / received so far, and their digests.
    sent: (usize, u64),
    received: (usize, u64),
    perm: u64,
    masks: u64,
    peer_commitment: Option<u64>,
    expected_peer_perm: Option<u64>,
    learned_peer_perm: Option<u64>,
}

/// A sub-protocol [`Machine`] under commit-and-challenge audit. With
/// auditing off it is `inner` and nothing else.
///
/// The commitment frame leads every content frame in the step's FIFO
/// stream. The transcript digests fold the frames in wire order — what a
/// frame [attests](crate::machine::Outbound::attested) where that
/// differs from its bytes. In a challenge round the opening (the seed
/// and the attested digests) trails the *last* content frame sent, and
/// the peer's opening is received and verified after the last content
/// frame received and **before** `inner` sees it, so nothing the peer
/// produced is used unverified.
#[derive(Debug)]
pub struct Audited<M> {
    inner: M,
    tap: Option<Box<Tap>>,
}

impl<M: Machine> Machine for Audited<M> {
    type Output = M::Output;

    /// # Errors
    ///
    /// Besides `inner`'s: [`SmcError::AuditFailure`] naming the peer on
    /// any mismatch, and transport errors when the opening never arrives
    /// (a strict policy converts those to
    /// [`AuditEvidence::MissingOpening`]).
    fn resume(
        &mut self,
        ctx: &ServerContext,
        answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<M::Output>, SmcError> {
        let Some(tap) = self.tap.as_deref_mut() else {
            return self.inner.resume(ctx, answer, out);
        };
        let await_peer = Next::Recv(Recv { from: tap.peer, step: tap.step, patience: None });
        let answer = match std::mem::replace(&mut tap.phase, Phase::Running) {
            Phase::Start => {
                out.send(tap.peer, tap.step, &AuditMsg::Commit(tap.commitment));
                tap.phase = Phase::Commit;
                return Ok(await_peer);
            }
            Phase::Commit => match decode(answer)? {
                AuditMsg::Commit(c) => {
                    tap.peer_commitment = Some(c);
                    None
                }
                AuditMsg::Open { .. } => return Err(tap.convict(AuditEvidence::MissingOpening)),
            },
            Phase::Running => {
                let frame = answer.expect("resumed without the requested frame");
                if let (Ok((_, payload)), true) = (&frame, tap.received.0 < TRANSCRIPT_FRAMES) {
                    tap.received = (tap.received.0 + 1, fnv1a(tap.received.1, payload));
                    if tap.challenge && tap.received.0 == TRANSCRIPT_FRAMES {
                        tap.phase = Phase::Opening { held: frame };
                        return Ok(await_peer);
                    }
                }
                Some(frame)
            }
            Phase::Opening { held } => {
                tap.verify(answer.expect("resumed without the opening"), &ctx.domain(), out)?;
                Some(held)
            }
        };
        let mut inner_out = Outbox::default();
        let next = self.inner.resume(ctx, answer, &mut inner_out);
        for draw in &inner_out.attest {
            match draw {
                Attest::Permutation(pi) => tap.perm = fold_permutation(tap.perm, pi),
                Attest::Masks(masks) => tap.masks = fold_masks(tap.masks, masks),
            }
        }
        out.events.append(&mut inner_out.events);
        for frame in inner_out.frames {
            let content = tap.sent.0 < TRANSCRIPT_FRAMES;
            if content {
                let attested = frame.attested.as_ref().unwrap_or(&frame.payload);
                tap.sent = (tap.sent.0 + 1, fnv1a(tap.sent.1, attested));
            }
            out.frames.push(frame);
            if content && tap.challenge && tap.sent.0 == TRANSCRIPT_FRAMES {
                let open = AuditMsg::Open {
                    seed: tap.seed,
                    sent: tap.sent.1,
                    perm: tap.perm,
                    masks: tap.masks,
                };
                out.send(tap.peer, tap.step, &open);
            }
        }
        next
    }
}

impl Tap {
    fn convict(&self, evidence: AuditEvidence) -> SmcError {
        SmcError::AuditFailure { party: self.peer, step: self.step, evidence }
    }

    /// [`Self::convict`], counted.
    fn fail(&self, evidence: AuditEvidence, out: &mut Outbox) -> SmcError {
        out.events.push(FaultEvent::AuditFailureDetected);
        if matches!(
            evidence,
            AuditEvidence::TranscriptDivergence { .. } | AuditEvidence::CommitmentMismatch { .. }
        ) {
            out.events.push(FaultEvent::EquivocationDetected);
        }
        self.convict(evidence)
    }

    /// Verifies the peer's opening: commitment binding, transcript
    /// digest, and a full replay of the permutation/mask draws from the
    /// opened seed.
    fn verify(
        &mut self,
        opening: Inbound,
        domain: &ShareDomain,
        out: &mut Outbox,
    ) -> Result<(), SmcError> {
        out.events.push(FaultEvent::AuditChallenge);
        let (seed, sent, perm, masks) = match opening {
            Err(TransportError::Timeout(_) | TransportError::Disconnected(_)) if self.strict => {
                return Err(self.fail(AuditEvidence::MissingOpening, out));
            }
            opening => match decode(Some(opening))? {
                AuditMsg::Open { seed, sent, perm, masks } => (seed, sent, perm, masks),
                AuditMsg::Commit(_) => return Err(self.fail(AuditEvidence::MissingOpening, out)),
            },
        };
        let committed = self.peer_commitment.unwrap_or(0);
        let reopened = commit_seed(seed, self.step, self.round_id);
        if reopened != committed {
            return Err(self.fail(AuditEvidence::CommitmentMismatch { committed, reopened }, out));
        }
        if sent != self.received.1 {
            let observed = self.received.1;
            return Err(
                self.fail(AuditEvidence::TranscriptDivergence { attested: sent, observed }, out)
            );
        }
        // Replay the peer's draws from the opened seed.
        let (k, m) = self.draws;
        let (expected_perm, expected_masks) =
            replay_draws(seed, self.step, self.peer, k, m, domain);
        // Restoration draws no permutation — the one used must match the
        // peer's verified BP2 permutation.
        if let Some(expected) = expected_perm.or(self.expected_peer_perm) {
            if expected != perm {
                return Err(
                    self.fail(AuditEvidence::PermutationMismatch { expected, used: perm }, out)
                );
            }
        }
        if self.step == Step::BlindPermute2 {
            self.learned_peer_perm = expected_perm;
        }
        if expected_masks != masks {
            let evidence = AuditEvidence::MaskMismatch { expected: expected_masks, used: masks };
            return Err(self.fail(evidence, out));
        }
        Ok(())
    }
}

/// Folds a permutation's index vector into a digest.
fn fold_permutation(h: u64, pi: &Permutation) -> u64 {
    let mut h = h;
    for &i in pi.as_indices() {
        h = fnv1a(h, &(i as u64).to_le_bytes());
    }
    h
}

/// Folds masks (in draw order) into a digest.
fn fold_masks(h: u64, masks: &[i128]) -> u64 {
    let mut h = h;
    for &m in masks {
        h = fnv1a(h, &m.to_le_bytes());
    }
    h
}

/// Replays the permutation and mask draws a server makes at an audited
/// step from its (opened) seed, returning their digests. The draw order
/// mirrors the protocol implementations exactly:
///
/// * Blind-and-Permute (either server): one `Permutation::random(k)`
///   then `m` scalar mask draws;
/// * Restoration S1: `k` mask draws (the permutation comes from BP2);
/// * Restoration S2: `k` encryption seeds (the indicator encryption
///   consumes one `u64` per entry *before* the masks), then `k` mask
///   draws.
fn replay_draws(
    seed: u64,
    step: Step,
    party: PartyId,
    k: usize,
    m: usize,
    domain: &ShareDomain,
) -> (Option<u64>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    match step {
        Step::Restoration => {
            if party == PartyId::Server2 {
                for _ in 0..k {
                    let _: u64 = rng.gen();
                }
            }
            let masks: Vec<i128> = (0..k).map(|_| domain.random_mask(&mut rng)).collect();
            (None, fold_masks(fnv1a_start(), &masks))
        }
        _ => {
            let pi = Permutation::random(k, &mut rng);
            let masks: Vec<i128> = (0..m).map(|_| domain.random_mask(&mut rng)).collect();
            (Some(fold_permutation(fnv1a_start(), &pi)), fold_masks(fnv1a_start(), &masks))
        }
    }
}

/// Swaps the first two images of `pi` — the deterministic
/// "tampered permutation" a Byzantine server substitutes for its
/// committed draw. With `k < 2` there is nothing to swap and the
/// deviation is a no-op (and undetectable, since the tampered
/// permutation equals the committed one).
pub fn transpose01(pi: &Permutation) -> Permutation {
    let mut indices = pi.as_indices().to_vec();
    if indices.len() >= 2 {
        indices.swap(0, 1);
    }
    Permutation::from_indices(indices).expect("swapping two entries preserves the bijection")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> ShareDomain {
        ShareDomain::test()
    }

    #[test]
    fn fnv_single_byte_substitution_changes_digest() {
        let base = fnv1a(fnv1a_start(), b"transcript");
        for i in 0..b"transcript".len() {
            let mut copy = b"transcript".to_vec();
            copy[i] ^= 0x01;
            assert_ne!(fnv1a(fnv1a_start(), &copy), base, "byte {i}");
        }
    }

    #[test]
    fn commitment_binds_all_three_coordinates() {
        let c = commit_seed(7, Step::BlindPermute1, 3);
        assert_eq!(c, commit_seed(7, Step::BlindPermute1, 3));
        assert_ne!(c, commit_seed(8, Step::BlindPermute1, 3));
        assert_ne!(c, commit_seed(7, Step::BlindPermute2, 3));
        assert_ne!(c, commit_seed(7, Step::BlindPermute1, 4));
    }

    #[test]
    fn challenge_schedule_is_deterministic_and_rate_shaped() {
        let all = AuditPolicy::strict();
        let none = AuditPolicy::sampled(0.0, 9);
        let half = AuditPolicy::sampled(0.5, 9);
        assert!((0..32).all(|r| all.is_challenge(r)));
        assert!((0..32).all(|r| !none.is_challenge(r)));
        let hits = (0..2000).filter(|&r| half.is_challenge(r)).count();
        assert!((800..=1200).contains(&hits), "expected ~1000 challenges, got {hits}");
        // Deterministic: both servers agree round by round.
        for r in 0..64 {
            assert_eq!(half.is_challenge(r), half.is_challenge(r));
        }
    }

    #[test]
    fn audit_msg_roundtrips() {
        for msg in
            [AuditMsg::Commit(0xdead_beef), AuditMsg::Open { seed: 1, sent: 2, perm: 3, masks: 4 }]
        {
            assert_eq!(AuditMsg::from_bytes(msg.to_bytes()).unwrap(), msg);
        }
        let mut buf = BytesMut::new();
        buf.put_u8(9);
        assert_eq!(AuditMsg::from_bytes(buf.freeze()), Err(WireError::InvalidTag(9)));
    }

    #[test]
    fn audit_checkpoint_roundtrips() {
        let ckpt = AuditCheckpoint {
            commitments: vec![(Step::BlindPermute1, 11), (Step::BlindPermute2, 22)],
            peer_perm: Some(33),
        };
        assert_eq!(AuditCheckpoint::from_bytes(ckpt.to_bytes()).unwrap(), ckpt);
        let empty = AuditCheckpoint::default();
        assert_eq!(AuditCheckpoint::from_bytes(empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn replay_matches_protocol_draw_order_for_blind_permute() {
        // The protocol draws pi then m masks from the step RNG; replaying
        // from the same seed must reproduce both digests.
        let seed = 0x5eed;
        let (k, m) = (5, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = Permutation::random(k, &mut rng);
        let masks: Vec<i128> = (0..m).map(|_| domain().random_mask(&mut rng)).collect();
        let (perm_d, mask_d) =
            replay_draws(seed, Step::BlindPermute1, PartyId::Server1, k, m, &domain());
        assert_eq!(perm_d, Some(fold_permutation(fnv1a_start(), &pi)));
        assert_eq!(mask_d, fold_masks(fnv1a_start(), &masks));
    }

    #[test]
    fn replay_skips_indicator_seeds_for_s2_restoration() {
        let seed = 0xabc;
        let k = 4;
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..k {
            let _: u64 = rng.gen();
        }
        let masks: Vec<i128> = (0..k).map(|_| domain().random_mask(&mut rng)).collect();
        let (perm_d, mask_d) =
            replay_draws(seed, Step::Restoration, PartyId::Server2, k, 0, &domain());
        assert_eq!(perm_d, None);
        assert_eq!(mask_d, fold_masks(fnv1a_start(), &masks));
        // S1 draws masks immediately — a different digest for the same seed.
        let (_, s1_masks) =
            replay_draws(seed, Step::Restoration, PartyId::Server1, k, 0, &domain());
        assert_ne!(s1_masks, mask_d);
    }

    #[test]
    fn transpose01_swaps_and_preserves_bijection() {
        let pi = Permutation::from_indices(vec![2, 0, 1]).unwrap();
        let t = transpose01(&pi);
        assert_eq!(t.as_indices(), &[0, 2, 1]);
        let single = Permutation::identity(1);
        assert_eq!(transpose01(&single), single);
    }

    #[test]
    fn context_learns_peer_perm_only_from_bp2() {
        let mut ctx = AuditContext::new(Some(AuditPolicy::strict()), 0, PartyId::Server1);
        assert!(ctx.is_challenge());
        let mut audited = ctx.wrap((), Step::BlindPermute2, 99, 3, 1);
        audited.tap.as_deref_mut().unwrap().learned_peer_perm = Some(123);
        ctx.complete(&audited);
        assert_eq!(ctx.checkpoint().peer_perm, Some(123));
        // Restored contexts carry it into Restoration taps.
        let restored = AuditContext::restore(
            Some(AuditPolicy::strict()),
            0,
            PartyId::Server1,
            ctx.checkpoint(),
        );
        let mut r = restored.clone();
        let audited = r.wrap((), Step::Restoration, 7, 3, 0);
        assert_eq!(audited.tap.as_deref().unwrap().expected_peer_perm, Some(123));
    }
}
