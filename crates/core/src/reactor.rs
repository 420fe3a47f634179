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
//! * [`SessionMachine`] — one round as a pollable state machine, seeded
//!   by the serializable [`smc::RoundState`] the crash-recovery layer already
//!   checkpoints. `poll(incoming_frame)` ingests at most one
//!   session-tagged frame and performs one bounded unit of work — either
//!   buffering an upload or advancing both servers exactly one pipeline
//!   step — and reports [`SessionPoll::NeedMore`], `Emit`, `Done`, or
//!   `Failed`.
//! * [`Reactor`] — the session table and scheduler: admission control
//!   against a hard session cap and an optional RDP budget (typed
//!   [`SessionRejected`], never a panic), fair round-robin servicing,
//!   per-session deadline watchdogs that evict stalled sessions, and
//!   `sessions_{admitted,rejected,evicted}` counters on the shared
//!   [`Meter`].
//!
//! # Fault isolation
//!
//! Each session runs over its own private micro-network (fresh bounded
//! links, sequence numbers restarting at 1), so a crashed, equivocating,
//! or quorum-losing session is torn down without touching any neighbor:
//! every other session's
//! [`ConsensusFingerprint`](crate::ConsensusFingerprint) stays
//! bit-identical to a solo run of the same round. A running session is
//! the engine's own round loop (`secure::Servers`) taken one step at a
//! time — the loop `run_round` runs to the end — so the reactor cannot
//! drift from the blocking path.
//!
//! # Scheduling model
//!
//! One poll advances both servers by one protocol step on the calling
//! thread: the steps are interactive, but strictly alternating, so one
//! loop resumes whichever server's machine can run. No poll creates a
//! thread. Work per poll is bounded by the most expensive single step,
//! which is what makes round-robin servicing fair: no session can hold
//! the scheduler for a whole round.
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
use transport::{FaultEvent, FaultStats, Meter, PartyId, SessionDemux, SessionError, SessionFrame};

use crate::recovery::RdpLedger;
use crate::secure::{PreparedRound, SecureEngine, SecureOutcome, Servers, FROM_START};

/// What one [`SessionMachine::poll`] call produced.
#[derive(Debug)]
pub enum SessionPoll {
    /// The machine is blocked on frames that have not arrived yet.
    NeedMore,
    /// One pipeline step completed; the frames are outbound progress
    /// beacons for the session's gateway.
    Emit(Vec<SessionFrame>),
    /// The round reached its terminal state and cross-checked cleanly.
    Done(Box<SecureOutcome>),
    /// The round failed; the machine is dead and must not be polled
    /// again.
    Failed(SmcError),
}

/// Internal lifecycle of a session machine.
enum Phase {
    /// Waiting for the client upload frames (6 per roster user).
    Collecting { buffered: Vec<SessionFrame>, expected: usize },
    /// Both servers live over the session's private micro-network.
    Running(Box<Servers>),
    /// Done, failed, or poisoned mid-transition.
    Finished,
}

/// One consensus round as a pollable, non-blocking state machine.
///
/// Construction prepares the round (user shares, noise, encrypted
/// payloads) and returns the session-tagged upload frames a client-side
/// gateway would put on the wire; the machine then consumes those frames
/// back through [`SessionMachine::poll`] and advances the two server
/// pipelines one step per poll. See the [module docs](self).
pub struct SessionMachine {
    session: u64,
    engine: Arc<SecureEngine>,
    meter: Arc<Meter>,
    prepared: PreparedRound,
    fault_stats_before: FaultStats,
    phase: Phase,
}

impl fmt::Debug for SessionMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SessionMachine(session {})", self.session)
    }
}

impl SessionMachine {
    /// Prepares one round for `session` and returns the machine plus the
    /// client upload frames (six per roster user, in the canonical
    /// per-user order, sequence-numbered so arrival order never matters).
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
        let expected = frames.len();
        let fault_stats_before = meter.fault_stats();
        let machine = SessionMachine {
            session,
            engine,
            meter,
            prepared,
            fault_stats_before,
            phase: Phase::Collecting { buffered: Vec::new(), expected },
        };
        Ok((machine, frames))
    }

    /// This machine's session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// True while the machine is still waiting for upload frames (and
    /// therefore cannot progress without one).
    pub fn is_collecting(&self) -> bool {
        matches!(self.phase, Phase::Collecting { .. })
    }

    /// Ingests at most one frame and performs one bounded unit of work.
    ///
    /// While collecting, the frame is buffered; once all uploads are
    /// present the private network is built and the payloads injected
    /// (the heavy transition — still one poll). While running, both
    /// servers advance exactly one pipeline step; the poll returns
    /// [`SessionPoll::Emit`] with a progress beacon, or
    /// [`SessionPoll::Done`]/[`SessionPoll::Failed`] on termination.
    ///
    /// # Panics
    ///
    /// Panics if called after the machine reported `Done` or `Failed` —
    /// a scheduler bug, not a protocol condition.
    pub fn poll(&mut self, incoming: Option<SessionFrame>) -> SessionPoll {
        match &mut self.phase {
            Phase::Collecting { buffered, expected } => {
                if let Some(frame) = incoming {
                    debug_assert_eq!(frame.session, self.session, "demux routed a foreign frame");
                    // Duplicate-tolerant: redelivered frames are keyed out
                    // by their sequence number.
                    if buffered.iter().all(|f| f.seq != frame.seq) {
                        buffered.push(frame);
                    }
                }
                if buffered.len() < *expected {
                    return SessionPoll::NeedMore;
                }
                let mut frames = std::mem::take(buffered);
                frames.sort_by_key(|f| f.seq);
                // Poisoned until the transition succeeds: a failed start
                // must not leave a half-built Running phase behind.
                self.phase = Phase::Finished;
                match self.start_round(frames) {
                    Ok(run) => {
                        self.phase = Phase::Running(run);
                        SessionPoll::NeedMore
                    }
                    Err(e) => SessionPoll::Failed(e),
                }
            }
            Phase::Running(servers) => {
                debug_assert!(incoming.is_none(), "running sessions consume no further frames");
                if let Err(e) = servers.step(&mut ()) {
                    self.phase = Phase::Finished;
                    return SessionPoll::Failed(e);
                }
                if !servers.is_terminal() {
                    let step = servers.completed_step();
                    let beacon = SessionFrame {
                        session: self.session,
                        from: PartyId::Server1,
                        to: PartyId::User(self.prepared.roster[0]),
                        step,
                        seq: u64::from(step.ordinal()),
                        payload: Bytes::new(),
                    };
                    return SessionPoll::Emit(vec![beacon]);
                }
                let (done1, done2) = servers.states();
                self.phase = Phase::Finished;
                let outcome = self.engine.finalize_round(
                    &self.prepared,
                    done1,
                    done2,
                    &self.meter,
                    self.fault_stats_before,
                    0,
                    Vec::new(),
                );
                SessionPoll::Done(Box::new(outcome))
            }
            Phase::Finished => panic!("poll on a terminal session machine"),
        }
    }

    /// Builds the session's private micro-network and injects the
    /// collected upload payloads — per user, in canonical slot order, so
    /// each fresh link's sequence numbers reproduce the solo run's and
    /// any fault decisions keyed on `(from, to, step, seq)` fire
    /// identically.
    fn start_round(&self, frames: Vec<SessionFrame>) -> Result<Box<Servers>, SmcError> {
        let servers = self.engine.launch(
            &self.prepared,
            frames.into_iter().map(|f| Frame {
                from: f.from,
                to: f.to,
                step: f.step,
                payload: f.payload,
            }),
            &self.meter,
            self.engine.fault_plan().cloned(),
            FROM_START,
            self.engine.next_audit_round(),
        )?;
        Ok(Box::new(servers))
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
    /// Failed with a protocol error (crash, audit conviction, quorum
    /// loss, …) — isolated to this session.
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
    demux: SessionDemux,
    sessions: HashMap<u64, SessionEntry>,
    run_queue: VecDeque<u64>,
    results: HashMap<u64, SessionResult>,
    latencies: Vec<(u64, Duration)>,
    outbox: Vec<SessionFrame>,
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
            demux: SessionDemux::new(),
            sessions: HashMap::new(),
            run_queue: VecDeque::new(),
            results: HashMap::new(),
            latencies: Vec::new(),
            outbox: Vec::new(),
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
        self.demux.register(session);
        let now = Instant::now();
        self.sessions
            .insert(session, SessionEntry { machine, admitted_at: now, last_progress: now });
        self.run_queue.push_back(session);
        self.meter.record_fault(FaultEvent::SessionAdmitted);
        Ok(session)
    }

    /// Routes one session-tagged frame toward its session's queue.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownSession`] for a session never admitted or
    /// already finished — typed, never a panic.
    pub fn ingest(&mut self, frame: SessionFrame) -> Result<(), SessionError> {
        self.demux.route(frame)
    }

    /// Decodes raw bytes off a shared link and routes the frame.
    ///
    /// # Errors
    ///
    /// [`SessionError::Codec`] on malformed bytes, otherwise as
    /// [`Reactor::ingest`].
    pub fn ingest_encoded(&mut self, bytes: Bytes) -> Result<u64, SessionError> {
        self.demux.decode_and_route(bytes)
    }

    /// Drives every live session until all are terminal, servicing them
    /// round-robin with one poll per session per sweep. Sessions blocked
    /// on frames that never arrive are evicted once their progress
    /// deadline lapses, so the call always returns. Returns the number
    /// of machine polls performed.
    pub fn run_until_idle(&mut self) -> usize {
        let mut polls = 0;
        loop {
            let mut progressed = false;
            for _ in 0..self.run_queue.len() {
                let Some(sid) = self.run_queue.pop_front() else { break };
                let Some(entry) = self.sessions.get(&sid) else { continue };
                // Watchdog: evict before polling, without touching any
                // neighbor session.
                let stalled_for = entry.last_progress.elapsed();
                if stalled_for > self.config.deadline {
                    self.sessions.remove(&sid);
                    self.demux.retire(sid);
                    self.meter.record_fault(FaultEvent::SessionEvicted);
                    self.results.insert(sid, SessionResult::Evicted { stalled_for });
                    progressed = true;
                    continue;
                }
                let frame = self.demux.next_frame(sid);
                let had_frame = frame.is_some();
                let entry = self.sessions.get_mut(&sid).expect("entry checked above");
                if !had_frame && entry.machine.is_collecting() {
                    // Blocked: nothing to feed it. Stays queued for the
                    // next sweep (or the watchdog).
                    self.run_queue.push_back(sid);
                    continue;
                }
                polls += 1;
                match entry.machine.poll(frame) {
                    SessionPoll::NeedMore => {
                        entry.last_progress = Instant::now();
                        progressed = true;
                        self.run_queue.push_back(sid);
                    }
                    SessionPoll::Emit(frames) => {
                        entry.last_progress = Instant::now();
                        self.outbox.extend(frames);
                        progressed = true;
                        self.run_queue.push_back(sid);
                    }
                    SessionPoll::Done(outcome) => {
                        let entry = self.sessions.remove(&sid).expect("entry live");
                        self.demux.retire(sid);
                        if let Some(gate) = &mut self.budget {
                            // Exactly once per session id, by construction
                            // of the ledger.
                            gate.ledger.charge(sid, outcome.health.charged_rdp());
                        }
                        self.latencies.push((sid, entry.admitted_at.elapsed()));
                        self.results.insert(sid, SessionResult::Done(outcome));
                        progressed = true;
                    }
                    SessionPoll::Failed(e) => {
                        self.sessions.remove(&sid);
                        self.demux.retire(sid);
                        self.results.insert(sid, SessionResult::Failed(e));
                        progressed = true;
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

    /// Drains the outbound progress beacons emitted since the last call.
    pub fn drain_outbox(&mut self) -> Vec<SessionFrame> {
        std::mem::take(&mut self.outbox)
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
}
