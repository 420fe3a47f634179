//! Multi-session consensus reactor: event-driven round state machines
//! with per-session fault isolation, admission control, and overload
//! shedding.
//!
//! [`SecureEngine::run_round`](crate::SecureEngine::run_round) drives
//! exactly one round to completion, blocking its caller until the round
//! terminates. A labeling service fields *many* concurrent queries; this
//! module turns the server side of a round into an explicit non-blocking
//! state machine and drives hundreds of them from one scheduler loop:
//!
//! * [`SessionMachine`] — one round, seeded by the serializable
//!   [`smc::RoundState`] the crash-recovery layer already checkpoints. It
//!   holds one slot per upload frame it expects (six per roster user),
//!   indexed by the frame's canonical `seq`; once every slot is full the
//!   round launches, and from then on one poll advances both servers
//!   exactly one pipeline step.
//! * [`Reactor`] — the session table and scheduler: admission control
//!   against a hard session cap and an optional RDP budget (typed
//!   [`SessionRejected`], never a panic), fair round-robin servicing,
//!   per-session deadline watchdogs that evict stalled sessions, and
//!   `sessions_{admitted,rejected,evicted}` counters on the shared
//!   [`Meter`].
//!
//! # The network-facing edge
//!
//! [`Reactor::ingest`] is where bytes off the network meet a session, so
//! nothing it is handed is trusted. A frame is looked up by session id
//! (typed [`SessionError::UnknownSession`]) and stored — once, with no
//! queue in front of it — in the slot its `seq` names, and only if its
//! `(from, to, step)` is exactly what the roster puts at that index:
//! a forged sender, a user off the roster, a wrong destination or step,
//! or a renumbered `seq` is a typed [`SessionError::UnexpectedFrame`] that
//! touches no other session. A frame for an occupied slot — before or
//! after the round launched — is a redelivery and is ignored, so arrival
//! order and duplication never matter. The reactor emits no frames: a
//! session's only output is its [`SessionResult`].
//!
//! # Fault isolation
//!
//! Each session runs over its own private micro-network (two fresh
//! bounded inboxes, sequence numbers restarting at 1), so a crashed,
//! equivocating, or quorum-losing session is torn down without touching
//! any neighbor: every other session's
//! [`ConsensusFingerprint`](crate::ConsensusFingerprint) stays
//! bit-identical to a solo run of the same round. A running session is
//! the engine's own round loop (`secure::Servers`) taken one step at a
//! time — the loop `run_round` runs to the end, launched through the same
//! `SecureEngine::launch` — so the reactor cannot drift from the blocking
//! path.
//!
//! # Scheduling model
//!
//! One poll advances both servers by one protocol step on the calling
//! thread: the steps are interactive, but strictly alternating, so one
//! loop resumes whichever server's machine can run. No poll creates a
//! thread. Work per poll is bounded by the most expensive single step
//! (the first poll also launches the round: it injects the stored
//! payloads, which copies no ciphertext), which is what makes round-robin
//! servicing fair: no session can hold the scheduler for a whole round.
//!
//! # Exactly-once accounting
//!
//! When a budget gate is attached, admission reserves the worst-case
//! spend of every in-flight session (so concurrent admissions cannot
//! jointly overshoot the epsilon budget), and a finished session is
//! charged its realized cost exactly once, keyed by session id, on the
//! in-memory [`RdpLedger`].

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dp::rdp::LinearRdp;
use rand::Rng;
use smc::machine::Frame;
use smc::SmcError;
use transport::{FaultEvent, FaultStats, Meter, SessionError, SessionFrame, Wire};

use crate::recovery::RdpLedger;
use crate::secure::{PreparedRound, SecureEngine, SecureOutcome, Servers, FROM_START};

/// One consensus round as a non-blocking state machine.
///
/// Construction prepares the round (user shares, noise, encrypted
/// payloads) and returns the session-tagged upload frames a client-side
/// gateway would put on the wire; the machine then takes those frames
/// back through [`Reactor::ingest`] and, once it holds them all, advances
/// the two server pipelines one step per poll. See the
/// [module docs](self).
pub struct SessionMachine {
    session: u64,
    engine: Arc<SecureEngine>,
    meter: Arc<Meter>,
    prepared: PreparedRound,
    fault_stats_before: FaultStats,
    /// One slot per expected upload frame, indexed by canonical `seq`;
    /// emptied into the round when it launches.
    slots: Vec<Option<Bytes>>,
    /// Slots still empty. Stays 0 after the launch.
    missing: usize,
    /// Both servers, once the round launched.
    servers: Option<Box<Servers>>,
}

impl fmt::Debug for SessionMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SessionMachine(session {})", self.session)
    }
}

impl SessionMachine {
    /// Prepares one round for `session` and returns the machine plus the
    /// client upload frames (six per roster user, in the canonical
    /// per-user order, each numbered with its index so arrival order
    /// never matters).
    ///
    /// # Errors
    ///
    /// Propagates [`SmcError`] from round preparation.
    ///
    /// # Panics
    ///
    /// As [`SecureEngine::run_round`]: panics on a vote matrix shape
    /// that disagrees with the roster, or an invalid roster.
    pub fn new<R: Rng + ?Sized>(
        session: u64,
        engine: Arc<SecureEngine>,
        votes: &[Vec<f64>],
        roster: &[usize],
        meter: Arc<Meter>,
        rng: &mut R,
    ) -> Result<(SessionMachine, Vec<SessionFrame>), SmcError> {
        let prepared = engine.prepare_round(votes, roster, rng)?;
        let frames: Vec<SessionFrame> = prepared
            .upload_frames()
            .enumerate()
            .map(|(seq, Frame { from, to, step, payload })| SessionFrame {
                session,
                from,
                to,
                step,
                seq: seq as u64,
                payload,
            })
            .collect();
        let fault_stats_before = meter.fault_stats();
        let machine = SessionMachine {
            session,
            engine,
            meter,
            prepared,
            fault_stats_before,
            slots: vec![None; frames.len()],
            missing: frames.len(),
            servers: None,
        };
        Ok((machine, frames))
    }

    /// This machine's session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Stores `frame` in the slot its `seq` names, if its header is the
    /// one that slot expects. Returns whether the slot was empty — a
    /// frame for an occupied slot (every slot, once the round launched)
    /// is a redelivery and changes nothing.
    fn accept(&mut self, frame: SessionFrame) -> Result<bool, SessionError> {
        let header = Some((frame.from, frame.to, frame.step));
        let index = usize::try_from(frame.seq)
            .ok()
            .filter(|&index| self.prepared.upload_header(index) == header)
            .ok_or(SessionError::UnexpectedFrame { session: self.session, seq: frame.seq })?;
        match self.slots.get_mut(index) {
            Some(slot @ None) => {
                *slot = Some(frame.payload);
                self.missing -= 1;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Advances both servers exactly one pipeline step — launching the
    /// round first if this is the first poll: the session's private
    /// micro-network is built and the stored payloads injected per user,
    /// in canonical slot order, so each fresh link's sequence numbers
    /// reproduce the solo run's and any fault decisions keyed on
    /// `(from, to, step, seq)` fire identically. Returns the outcome once
    /// the round is terminal and cross-checked; after an error the machine
    /// is dead. The scheduler polls only machines with every slot full.
    fn poll(&mut self) -> Result<Option<Box<SecureOutcome>>, SmcError> {
        if self.servers.is_none() {
            let payloads = std::mem::take(&mut self.slots).into_iter().enumerate();
            let uploads = payloads.map(|(seq, payload)| {
                let (from, to, step) =
                    self.prepared.upload_header(seq).expect("one slot per upload");
                Frame { from, to, step, payload: payload.expect("polled with every slot full") }
            });
            let servers = self.engine.launch(
                &self.prepared,
                uploads,
                &self.meter,
                self.engine.fault_plan().cloned(),
                FROM_START,
            )?;
            self.servers = Some(Box::new(servers));
        }
        let servers = self.servers.as_mut().expect("launched above");
        servers.step(&mut ())?;
        if !servers.is_terminal() {
            return Ok(None);
        }
        let (done1, done2) = servers.states();
        let outcome = self.engine.finalize_round(
            &self.prepared,
            done1,
            done2,
            &self.meter,
            self.fault_stats_before,
            0,
            Vec::new(),
        );
        Ok(Some(Box::new(outcome)))
    }
}

/// Why the reactor refused a session at admission.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The session table is at its configured capacity.
    CapacityExhausted {
        /// The configured cap the table is at.
        limit: usize,
    },
    /// Admitting the session could overshoot the epsilon budget even in
    /// the best case, counting the worst-case reservation of every
    /// in-flight session.
    BudgetExhausted {
        /// Epsilon still unreserved under the budget (never negative).
        remaining_epsilon: f64,
    },
    /// A session with this id is already live or already finished.
    DuplicateSession,
}

/// Typed admission refusal — overload is shed, never panicked on.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRejected {
    /// The refused session's id.
    pub session: u64,
    /// Why it was refused.
    pub reason: RejectReason,
}

impl fmt::Display for SessionRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            RejectReason::CapacityExhausted { limit } => {
                write!(f, "session {} rejected: {limit} sessions already live", self.session)
            }
            RejectReason::BudgetExhausted { remaining_epsilon } => write!(
                f,
                "session {} rejected: ε budget exhausted ({remaining_epsilon} unreserved)",
                self.session
            ),
            RejectReason::DuplicateSession => {
                write!(f, "session {} rejected: id already in use", self.session)
            }
        }
    }
}

impl Error for SessionRejected {}

/// How one admitted session ended.
#[derive(Debug)]
pub enum SessionResult {
    /// Terminated cleanly with a cross-checked outcome.
    Done(Box<SecureOutcome>),
    /// Failed with a protocol error (crash, quorum loss, …) — isolated
    /// to this session.
    Failed(SmcError),
    /// Evicted by the deadline watchdog after stalling without progress.
    Evicted {
        /// How long the session had been stalled when evicted.
        stalled_for: Duration,
    },
}

/// Scheduler limits.
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Hard cap on concurrently live sessions; admissions past it are
    /// shed with [`RejectReason::CapacityExhausted`].
    pub max_sessions: usize,
    /// Per-session progress deadline: a session that makes no progress
    /// for this long is evicted by the watchdog.
    pub deadline: Duration,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig { max_sessions: 256, deadline: Duration::from_secs(5) }
    }
}

/// Optional RDP budget gate over admissions and completions.
struct BudgetGate {
    ledger: RdpLedger,
    budget_epsilon: f64,
    delta: f64,
    worst_case: LinearRdp,
}

struct SessionEntry {
    machine: SessionMachine,
    admitted_at: Instant,
    last_progress: Instant,
}

/// The session table and scheduler loop. See the [module docs](self).
pub struct Reactor {
    config: ReactorConfig,
    meter: Arc<Meter>,
    sessions: HashMap<u64, SessionEntry>,
    run_queue: VecDeque<u64>,
    results: HashMap<u64, SessionResult>,
    latencies: Vec<(u64, Duration)>,
    budget: Option<BudgetGate>,
}

impl fmt::Debug for Reactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reactor({} live, {} finished)", self.sessions.len(), self.results.len())
    }
}

impl Reactor {
    /// An empty reactor recording its session counters on `meter`.
    pub fn new(config: ReactorConfig, meter: Arc<Meter>) -> Reactor {
        Reactor {
            config,
            meter,
            sessions: HashMap::new(),
            run_queue: VecDeque::new(),
            results: HashMap::new(),
            latencies: Vec::new(),
            budget: None,
        }
    }

    /// Attaches an RDP budget: admission reserves `worst_case` for every
    /// in-flight session against `budget_epsilon` at `delta`, and each
    /// completed session is charged its realized cost exactly once.
    pub fn with_budget(
        mut self,
        budget_epsilon: f64,
        delta: f64,
        worst_case: LinearRdp,
    ) -> Reactor {
        self.budget =
            Some(BudgetGate { ledger: RdpLedger::new(), budget_epsilon, delta, worst_case });
        self
    }

    /// The shared meter the session counters accumulate on.
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    /// Number of currently live (admitted, not yet terminal) sessions.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The budget ledger, when a budget gate is attached.
    pub fn ledger(&self) -> Option<&RdpLedger> {
        self.budget.as_ref().map(|g| &g.ledger)
    }

    /// Admits `machine` into the session table, or sheds it with a typed
    /// [`SessionRejected`]. Records `sessions admitted` / `sessions
    /// rejected` on the meter either way.
    ///
    /// # Errors
    ///
    /// [`RejectReason::DuplicateSession`] for a reused id,
    /// [`RejectReason::CapacityExhausted`] past the session cap,
    /// [`RejectReason::BudgetExhausted`] when the worst-case spend of
    /// this session plus every in-flight one no longer fits the budget.
    pub fn admit(&mut self, machine: SessionMachine) -> Result<u64, SessionRejected> {
        let session = machine.session();
        let reject = |meter: &Meter, reason| {
            meter.record_fault(FaultEvent::SessionRejected);
            Err(SessionRejected { session, reason })
        };
        if self.sessions.contains_key(&session) || self.results.contains_key(&session) {
            return reject(&self.meter, RejectReason::DuplicateSession);
        }
        if self.sessions.len() >= self.config.max_sessions {
            return reject(
                &self.meter,
                RejectReason::CapacityExhausted { limit: self.config.max_sessions },
            );
        }
        if let Some(gate) = &self.budget {
            // Reserve the worst case for every admitted-but-uncharged
            // session too: concurrent sessions must not jointly overshoot.
            let reserved = gate.worst_case.repeat(self.sessions.len() as u64 + 1);
            let spent = gate.ledger.total().unwrap_or_else(LinearRdp::zero);
            if spent.compose(&reserved).to_epsilon(gate.delta) > gate.budget_epsilon {
                let already = spent.compose(&gate.worst_case.repeat(self.sessions.len() as u64));
                let remaining = (gate.budget_epsilon - already.to_epsilon(gate.delta)).max(0.0);
                return reject(
                    &self.meter,
                    RejectReason::BudgetExhausted { remaining_epsilon: remaining },
                );
            }
        }
        let now = Instant::now();
        self.sessions
            .insert(session, SessionEntry { machine, admitted_at: now, last_progress: now });
        self.run_queue.push_back(session);
        self.meter.record_fault(FaultEvent::SessionAdmitted);
        Ok(session)
    }

    /// Hands one session-tagged frame to its session, which stores it in
    /// the slot its `seq` names (see the [module docs](self)). A
    /// redelivered frame is accepted and ignored.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownSession`] for a session never admitted or
    /// already finished; [`SessionError::UnexpectedFrame`] when `seq` is
    /// out of range or the header is not the one the session expects
    /// there. Typed, never a panic, and no other session is touched.
    pub fn ingest(&mut self, frame: SessionFrame) -> Result<(), SessionError> {
        let entry = self
            .sessions
            .get_mut(&frame.session)
            .ok_or(SessionError::UnknownSession(frame.session))?;
        if entry.machine.accept(frame)? {
            entry.last_progress = Instant::now();
        }
        Ok(())
    }

    /// Decodes raw bytes off a shared link and ingests the frame.
    ///
    /// # Errors
    ///
    /// [`SessionError::Codec`] on malformed bytes, otherwise as
    /// [`Reactor::ingest`].
    pub fn ingest_encoded(&mut self, bytes: Bytes) -> Result<u64, SessionError> {
        let frame = SessionFrame::from_bytes(bytes)?;
        let session = frame.session;
        self.ingest(frame)?;
        Ok(session)
    }

    /// Drives every live session until all are terminal, servicing them
    /// round-robin with one poll — one pipeline step — per session per
    /// sweep. Sessions blocked on frames that never arrive are evicted
    /// once their progress deadline lapses, so the call always returns.
    /// Returns the number of machine polls performed.
    pub fn run_until_idle(&mut self) -> usize {
        let mut polls = 0;
        loop {
            let mut progressed = false;
            for _ in 0..self.run_queue.len() {
                let Some(sid) = self.run_queue.pop_front() else { break };
                let Some(entry) = self.sessions.get_mut(&sid) else { continue };
                // Watchdog: evict before polling, without touching any
                // neighbor session.
                let stalled_for = entry.last_progress.elapsed();
                if stalled_for > self.config.deadline {
                    self.sessions.remove(&sid);
                    self.meter.record_fault(FaultEvent::SessionEvicted);
                    self.results.insert(sid, SessionResult::Evicted { stalled_for });
                    progressed = true;
                    continue;
                }
                if entry.machine.missing > 0 {
                    // Blocked: uploads outstanding. Stays queued for the
                    // next sweep (or the watchdog).
                    self.run_queue.push_back(sid);
                    continue;
                }
                polls += 1;
                progressed = true;
                match entry.machine.poll() {
                    Ok(None) => {
                        entry.last_progress = Instant::now();
                        self.run_queue.push_back(sid);
                    }
                    Ok(Some(outcome)) => {
                        let entry = self.sessions.remove(&sid).expect("entry live");
                        if let Some(gate) = &mut self.budget {
                            // Exactly once per session id, by construction
                            // of the ledger.
                            gate.ledger.charge(sid, outcome.health.charged_rdp());
                        }
                        self.latencies.push((sid, entry.admitted_at.elapsed()));
                        self.results.insert(sid, SessionResult::Done(outcome));
                    }
                    Err(e) => {
                        self.sessions.remove(&sid);
                        self.results.insert(sid, SessionResult::Failed(e));
                    }
                }
            }
            if self.sessions.is_empty() {
                break;
            }
            if !progressed {
                // Everything live is blocked on missing frames. Sleep to
                // the earliest watchdog deadline; the next sweep evicts.
                let wait = self
                    .sessions
                    .values()
                    .map(|e| self.config.deadline.saturating_sub(e.last_progress.elapsed()))
                    .min()
                    .unwrap_or_default();
                std::thread::sleep(wait + Duration::from_millis(1));
            }
        }
        polls
    }

    /// Takes the result of a finished session, if it finished.
    pub fn take_result(&mut self, session: u64) -> Option<SessionResult> {
        self.results.remove(&session)
    }

    /// Ids of every finished session (any [`SessionResult`] variant).
    pub fn finished_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.results.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Admission→completion latency of every session that finished
    /// [`SessionResult::Done`], in completion order.
    pub fn latencies(&self) -> &[(u64, Duration)] {
        &self.latencies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reasons_render() {
        let cap =
            SessionRejected { session: 7, reason: RejectReason::CapacityExhausted { limit: 2 } };
        assert!(cap.to_string().contains("2 sessions already live"));
        let bud = SessionRejected {
            session: 8,
            reason: RejectReason::BudgetExhausted { remaining_epsilon: 0.25 },
        };
        assert!(bud.to_string().contains("budget exhausted"));
        let dup = SessionRejected { session: 9, reason: RejectReason::DuplicateSession };
        assert!(dup.to_string().contains("already in use"));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ReactorConfig::default();
        assert!(cfg.max_sessions > 0);
        assert!(cfg.deadline > Duration::ZERO);
    }

    #[test]
    fn a_frame_redelivered_to_a_running_round_is_ignored() {
        use crate::config::ConsensusConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use smc::SessionConfig;

        let mut rng = StdRng::seed_from_u64(41);
        let engine = SecureEngine::new(
            SessionConfig::test(3, 2),
            ConsensusConfig::paper_default(1e-6, 1e-6),
            &mut rng,
        );
        let votes = vec![vec![0.0, 1.0]; 3];
        let meter = Meter::new();
        let (machine, frames) = SessionMachine::new(
            5,
            Arc::new(engine),
            &votes,
            &[0, 1, 2],
            Arc::clone(&meter),
            &mut rng,
        )
        .unwrap();
        let mut reactor = Reactor::new(ReactorConfig::default(), meter);
        reactor.admit(machine).unwrap();
        for frame in &frames {
            reactor.ingest(frame.clone()).unwrap();
        }
        // One poll: the round launches (its slots are spent) and step 2 runs.
        let running = &mut reactor.sessions.get_mut(&5).unwrap().machine;
        assert!(running.poll().unwrap().is_none());
        assert!(running.servers.is_some() && running.slots.is_empty());
        for frame in &frames {
            reactor.ingest(frame.clone()).expect("a redelivery, not an error");
        }
        // A forgery still is one.
        let forged = SessionFrame { from: transport::PartyId::Server2, ..frames[0].clone() };
        assert_eq!(
            reactor.ingest(forged).unwrap_err(),
            SessionError::UnexpectedFrame { session: 5, seq: 0 }
        );
        // The first poll launched and ran step 2; steps 3–9 remain.
        assert_eq!(reactor.run_until_idle(), 7);
        match reactor.take_result(5) {
            Some(SessionResult::Done(out)) => assert_eq!(out.label, Some(1)),
            other => panic!("the round must complete, got {other:?}"),
        }
    }
}
