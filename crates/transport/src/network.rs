//! Network of parties and endpoints with typed, metered send/receive.
//!
//! A [`Network`] wires `N` users and two servers into the paper's *star*
//! (Alg. 5 steps 2/6): every user sends to S1 and S2 and never receives a
//! frame, and the two servers talk to each other. Only the servers have
//! an inbox — two *bounded* queues over one of two interchangeable
//! backends ([`TransportBackend`]): in-proc channels, or real loopback
//! TCP sockets (see [`crate::tcp`]) — so building a network costs the same
//! for five users as for a million; a user's send-only [`Endpoint`] is
//! made when it is taken. Each party takes its endpoint and can then be
//! moved onto its own thread; `send`/`recv` are typed through the
//! [`Wire`] codec and metered per [`Step`]. Everything above the link —
//! sequence numbers, checksums, dedup, stashing, timeouts, fault
//! injection — is backend-agnostic, so protocol code runs unmodified
//! over either backend and produces identical transcripts.
//!
//! Reliability: every frame carries a sequence number and checksum, so
//! duplicated frames are suppressed and corrupted frames are detected on
//! receive. Link queues are bounded (a slow consumer blocks its senders
//! instead of growing an unbounded buffer — see [`crate::link`]).
//! Receive deadlines come from a per-network [`TimeoutPolicy`]
//! (overridable per call), and a [`FaultPlan`] can be attached at
//! construction to inject deterministic drop/delay/duplicate/corrupt/crash
//! faults — see [`crate::faults`]. On the TCP backend a heartbeat-fed
//! liveness deadline additionally converts a dead peer into a prompt
//! [`TransportError::Timeout`] (the existing dropout path).

use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};

use crate::faults::FaultPlan;
use crate::link::{corrupt_payload, frame_checksum, Envelope, LinkSender, DEFAULT_CAPACITY};
use crate::metrics::{FaultEvent, LinkKind, Meter, Step};
use crate::tcp::{build_star, Liveness, TcpConfig, TcpFabric};
use crate::wire::{Wire, WireError};

/// Identifies a protocol party.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PartyId {
    /// User `u ∈ U` (a teacher).
    User(usize),
    /// Aggregation server S1.
    Server1,
    /// Aggregation server S2.
    Server2,
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartyId::User(u) => write!(f, "user{u}"),
            PartyId::Server1 => write!(f, "S1"),
            PartyId::Server2 => write!(f, "S2"),
        }
    }
}

impl PartyId {
    /// Classifies the link from `self` to `to` for metering.
    pub fn link_to(&self, to: PartyId) -> LinkKind {
        match (self, to) {
            (PartyId::User(_), _) => LinkKind::UserToServer,
            (_, PartyId::User(_)) => LinkKind::ServerToUser,
            _ => LinkKind::ServerToServer,
        }
    }
}

impl Wire for PartyId {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            PartyId::Server1 => 1u8.encode(buf),
            PartyId::Server2 => 2u8.encode(buf),
            PartyId::User(u) => {
                3u8.encode(buf);
                (*u as u64).encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            1 => Ok(PartyId::Server1),
            2 => Ok(PartyId::Server2),
            3 => Ok(PartyId::User(u64::decode(buf)? as usize)),
            tag => Err(WireError::InvalidTag(tag)),
        }
    }
}

/// Errors surfaced by endpoint operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The destination endpoint's receiver was dropped.
    Disconnected(PartyId),
    /// Decoding a received payload failed.
    Codec(WireError),
    /// A receive did not complete within the configured timeout.
    Timeout(PartyId),
    /// A received frame failed its checksum (payload damaged in flight).
    Corrupt(PartyId),
    /// The requested endpoint was already taken or does not exist.
    UnknownParty(PartyId),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected(p) => write!(f, "party {p} disconnected"),
            TransportError::Codec(e) => write!(f, "codec error: {e}"),
            TransportError::Timeout(p) => write!(f, "timed out waiting for {p}"),
            TransportError::Corrupt(p) => write!(f, "corrupt frame from {p}"),
            TransportError::UnknownParty(p) => write!(f, "unknown or taken party {p}"),
        }
    }
}

impl Error for TransportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransportError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Codec(e)
    }
}

/// Per-receive deadline and bounded-retry schedule.
///
/// A receive waits up to [`Self::base`]; each retry extends the wait by an
/// exponentially backed-off window ([`Self::backoff`]×), up to
/// [`Self::max_retries`] extra windows. Retries and final timeouts are
/// counted on the shared [`Meter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeoutPolicy {
    /// First wait window per receive.
    pub base: Duration,
    /// Extra windows granted after the first expires.
    pub max_retries: u32,
    /// Multiplier applied to each successive window (≥ 1).
    pub backoff: f64,
}

impl Default for TimeoutPolicy {
    /// 120 s single window — generous for in-process channels, but
    /// prevents a peer's mid-protocol failure from hanging the other side
    /// forever.
    fn default() -> TimeoutPolicy {
        TimeoutPolicy { base: Duration::from_secs(120), max_retries: 0, backoff: 2.0 }
    }
}

impl TimeoutPolicy {
    /// Single window of `base`, no retries.
    pub fn new(base: Duration) -> TimeoutPolicy {
        TimeoutPolicy { base, max_retries: 0, backoff: 2.0 }
    }

    /// A full schedule.
    ///
    /// # Panics
    ///
    /// Panics if `backoff < 1.0` (windows must not shrink).
    pub fn with_retries(base: Duration, max_retries: u32, backoff: f64) -> TimeoutPolicy {
        assert!(backoff >= 1.0, "backoff must be >= 1");
        TimeoutPolicy { base, max_retries, backoff }
    }

    /// Tuned for loopback transports in tests, examples and CI smokes:
    /// short windows with a couple of backed-off retries (~350 ms total
    /// budget), so a dead loopback peer is detected in milliseconds
    /// instead of riding the 120 s default.
    pub fn fast_local() -> TimeoutPolicy {
        TimeoutPolicy::with_retries(Duration::from_millis(50), 2, 2.0)
    }

    /// The duration of wait window `attempt` (0 = initial window).
    pub fn window(&self, attempt: u32) -> Duration {
        self.base.mul_f64(self.backoff.powi(attempt as i32))
    }

    /// Total wait across the initial window and every retry window.
    pub fn total_budget(&self) -> Duration {
        (0..=self.max_retries).map(|a| self.window(a)).sum()
    }
}

/// How a pulled envelope relates to the current receive deadline.
enum Delivery {
    /// Consumable now.
    Ready,
    /// Consumable after sleeping until the instant.
    Sleep(Instant),
    /// Not consumable in the current window, but a retry window could
    /// still reach it.
    NotYet,
    /// Cannot arrive within any window of this receive — discard.
    TooLate,
}

fn classify_delay(env: &Envelope, window_end: Instant, final_deadline: Instant) -> Delivery {
    match env.deliver_after {
        None => Delivery::Ready,
        Some(at) => {
            if at <= Instant::now() {
                Delivery::Ready
            } else if at <= window_end {
                Delivery::Sleep(at)
            } else if at <= final_deadline {
                Delivery::NotYet
            } else {
                Delivery::TooLate
            }
        }
    }
}

/// One directed link out of an endpoint.
struct Uplink {
    to: PartyId,
    sender: LinkSender,
    /// Frames sent on this link so far: the last sequence number issued
    /// (atomic because `send` takes `&self`, so one party can fan out
    /// from shared references).
    sent: AtomicU64,
}

/// A party's handle on the network: typed send/receive plus the shared
/// meter.
pub struct Endpoint {
    id: PartyId,
    /// A server's link to its peer; a user's links to S1 and S2.
    outgoing: Vec<Uplink>,
    /// `None` on a user's endpoint: nobody can send a user a frame.
    incoming: Option<Receiver<Envelope>>,
    /// Messages received from other parties while waiting for a specific
    /// sender; replayed on later receives.
    stashed: HashMap<PartyId, VecDeque<Envelope>>,
    /// Highest sequence number accepted per sender (duplicate dedup).
    seen_seq: HashMap<PartyId, u64>,
    timeout: TimeoutPolicy,
    faults: Option<Arc<FaultPlan>>,
    meter: Arc<Meter>,
    /// TCP backend only: when each connected peer was last heard from.
    liveness: Option<Arc<Liveness>>,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Endpoint({})", self.id)
    }
}

impl Endpoint {
    /// This endpoint's identity.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// The shared meter.
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    /// The receive policy this endpoint inherited from its network.
    pub fn timeout_policy(&self) -> TimeoutPolicy {
        self.timeout
    }

    /// Sends `value` to `to`, tagged with `step` — [`Self::send_frame`]
    /// of its [`Wire`] encoding.
    ///
    /// # Errors
    ///
    /// See [`Self::send_frame`].
    pub fn send<T: Wire>(&self, to: PartyId, step: Step, value: &T) -> Result<(), TransportError> {
        self.send_frame(to, step, value.to_bytes())
    }

    /// Sends an already-encoded `payload` to `to`, tagged with `step`.
    ///
    /// If a [`FaultPlan`] is attached, the message may be silently
    /// dropped, delayed, duplicated or corrupted here (each recorded on
    /// the meter); a crashed sender's messages always vanish.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownParty`] for a destination this
    /// endpoint has no link to — any user, or a party outside the network
    /// — before anything is metered, and [`TransportError::Disconnected`]
    /// if the peer's endpoint was dropped.
    pub fn send_frame(
        &self,
        to: PartyId,
        step: Step,
        payload: Bytes,
    ) -> Result<(), TransportError> {
        let link =
            self.outgoing.iter().find(|l| l.to == to).ok_or(TransportError::UnknownParty(to))?;
        if let Some(plan) = &self.faults {
            if plan.is_crashed(self.id, step) {
                // The dead party doesn't know it is dead: the send
                // "succeeds" locally and the bytes never leave.
                self.meter.record_fault(FaultEvent::CrashedSend);
                return Ok(());
            }
        }
        self.meter.record_message(step, self.id.link_to(to), payload.len());
        let seq = link.sent.fetch_add(1, Ordering::SeqCst) + 1;
        let decision = match &self.faults {
            Some(plan) => plan.decide(self.id, to, step, seq),
            None => crate::faults::FaultDecision::clean(),
        };
        if decision.drop {
            self.meter.record_fault(FaultEvent::DropInjected);
            return Ok(());
        }
        let checksum = frame_checksum(&payload, seq);
        let payload = if decision.corrupt {
            self.meter.record_fault(FaultEvent::CorruptionInjected);
            corrupt_payload(&payload, seq)
        } else {
            payload
        };
        let deliver_after = decision.delay.map(|d| {
            self.meter.record_fault(FaultEvent::DelayInjected);
            Instant::now() + d
        });
        let env = Envelope { from: self.id, step, seq, checksum, deliver_after, payload };
        for _ in 0..decision.duplicates {
            self.meter.record_fault(FaultEvent::DuplicateInjected);
            // A failed duplicate enqueue is indistinguishable from the
            // duplicate being lost — ignore it.
            let _ = link.sender.send(env.clone(), to, &self.meter);
        }
        link.sender.send(env, to, &self.meter)
    }

    /// Receives the next message *from a specific sender tagged with a
    /// specific step* under the network's [`TimeoutPolicy`]. Messages
    /// from other senders — or from this sender under a different step —
    /// that arrive in the meantime are stashed and replayed in order.
    /// Ordering within one `(sender, step)` stream is FIFO; matching on
    /// the step keeps a lossy link from desynchronizing a sender's
    /// stream across protocol steps (a dropped step-2 share must never
    /// make its step-6 share masquerade as the missing message).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`] when every wait window is
    /// exhausted, [`TransportError::Corrupt`] if the frame fails its
    /// checksum, [`TransportError::Disconnected`] if all senders are
    /// gone (always, on a user's endpoint: it has no inbox), or
    /// [`TransportError::Codec`] if the payload fails to decode.
    pub fn recv<T: Wire>(&mut self, from: PartyId, step: Step) -> Result<T, TransportError> {
        let (_, payload) = self.recv_frame(from, step, self.timeout)?;
        T::from_bytes(payload).map_err(Into::into)
    }

    /// The undecoded form of [`Self::recv`] under an explicit `policy`:
    /// the frame's per-link sequence number (so application-layer
    /// validation can reject duplicate `(sender, step, seq)` submissions)
    /// and its payload bytes.
    ///
    /// # Errors
    ///
    /// See [`Self::recv`] ([`TransportError::Codec`] excepted).
    pub fn recv_frame(
        &mut self,
        from: PartyId,
        step: Step,
        policy: TimeoutPolicy,
    ) -> Result<(u64, Bytes), TransportError> {
        let env = self.recv_envelope(from, step, policy)?;
        Ok((env.seq, env.payload))
    }

    /// The blocking matcher behind every receive: returns the next
    /// checksum-verified envelope from `(from, step)` within the policy's
    /// windows, stashing unrelated traffic.
    fn recv_envelope(
        &mut self,
        from: PartyId,
        step: Step,
        policy: TimeoutPolicy,
    ) -> Result<Envelope, TransportError> {
        let start = Instant::now();
        let final_deadline = start + policy.total_budget();
        let mut window_end = start + policy.window(0);
        let mut attempt: u32 = 0;
        loop {
            // Replay the oldest stashed message matching this sender and
            // step first (FIFO within the stream: nothing newer may
            // overtake it). Other-step stash entries stay put for their
            // own receives.
            let stash_idx =
                self.stashed.get(&from).and_then(|q| q.iter().position(|e| e.step == step));
            if let Some(idx) = stash_idx {
                let env = self
                    .stashed
                    .get_mut(&from)
                    .and_then(|q| q.remove(idx))
                    .expect("stash index just found");
                match classify_delay(&env, window_end, final_deadline) {
                    Delivery::Ready => return self.verify_envelope(env),
                    Delivery::Sleep(until) => {
                        std::thread::sleep(until.saturating_duration_since(Instant::now()));
                        return self.verify_envelope(env);
                    }
                    Delivery::NotYet => {
                        // Re-insert at the same position: it stays the
                        // stream head and blocks later same-step
                        // messages from overtaking it.
                        self.stashed.entry(from).or_default().insert(idx, env);
                    }
                    Delivery::TooLate => continue,
                }
            }
            // A stashed NotYet head must keep blocking the stream.
            let stream_blocked =
                self.stashed.get(&from).is_some_and(|q| q.iter().any(|e| e.step == step));
            let mut wait = window_end.saturating_duration_since(Instant::now());
            if let Some(live) = &self.liveness {
                // Wake periodically so a peer going silent mid-window is
                // noticed at the liveness deadline, not the policy one.
                wait = wait.min(live.poll_interval());
            }
            let pulled = match &self.incoming {
                Some(inbox) => inbox.recv_timeout(wait),
                None => Err(RecvTimeoutError::Disconnected),
            };
            match pulled {
                Ok(env) => {
                    let Some(env) = self.intake(env) else { continue };
                    if env.from == from && env.step == step && !stream_blocked {
                        match classify_delay(&env, window_end, final_deadline) {
                            Delivery::Ready => return self.verify_envelope(env),
                            Delivery::Sleep(until) => {
                                std::thread::sleep(until.saturating_duration_since(Instant::now()));
                                return self.verify_envelope(env);
                            }
                            Delivery::NotYet => {
                                self.stashed.entry(from).or_default().push_back(env);
                            }
                            Delivery::TooLate => continue,
                        }
                    } else {
                        self.stashed.entry(env.from).or_default().push_back(env);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.liveness.as_ref().is_some_and(|l| l.expired(from)) {
                        // The peer connected and then went silent past the
                        // heartbeat deadline: declare it dead here instead
                        // of waiting out the full receive budget.
                        self.meter.record_fault(FaultEvent::LivenessExpired);
                        self.meter.record_fault(FaultEvent::Timeout);
                        return Err(TransportError::Timeout(from));
                    }
                    if Instant::now() < window_end {
                        continue; // liveness poll tick, window still open
                    }
                    if attempt < policy.max_retries {
                        attempt += 1;
                        self.meter.record_fault(FaultEvent::Retry);
                        window_end += policy.window(attempt);
                    } else {
                        self.meter.record_fault(FaultEvent::Timeout);
                        return Err(TransportError::Timeout(from));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TransportError::Disconnected(from))
                }
            }
        }
    }

    /// Dedup gate: admits an envelope freshly pulled from the channel, or
    /// discards it as an already-seen duplicate.
    fn intake(&mut self, env: Envelope) -> Option<Envelope> {
        let last = self.seen_seq.entry(env.from).or_insert(0);
        if env.seq <= *last {
            self.meter.record_fault(FaultEvent::DuplicateSuppressed);
            return None;
        }
        *last = env.seq;
        Some(env)
    }

    /// Checksum-verifies a deliverable envelope.
    fn verify_envelope(&self, env: Envelope) -> Result<Envelope, TransportError> {
        if frame_checksum(&env.payload, env.seq) != env.checksum {
            self.meter.record_fault(FaultEvent::CorruptionDetected);
            return Err(TransportError::Corrupt(env.from));
        }
        Ok(env)
    }
}

/// Which wire a [`Network`]'s links run over.
///
/// Protocol code is backend-agnostic: the same engine, supervisor and
/// examples run unmodified over either backend and produce bit-identical
/// transcripts (per-link FIFO and the seq-keyed dedup layer are
/// preserved by both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportBackend {
    /// Bounded in-process channels — fastest, no sockets.
    #[default]
    InProc,
    /// Real loopback TCP sockets with handshake, heartbeats and
    /// reconnect-and-resume — see [`crate::tcp`].
    Tcp(TcpConfig),
}

/// Source of default session ids: every TCP network gets a fresh one so a
/// stray connection from an earlier round fails the handshake.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// Configures a [`Network`] before construction.
#[derive(Debug)]
pub struct NetworkBuilder {
    num_users: usize,
    meter: Option<Arc<Meter>>,
    timeout: TimeoutPolicy,
    faults: Option<FaultPlan>,
    capacity: usize,
    backend: TransportBackend,
    session: Option<u64>,
}

impl NetworkBuilder {
    /// Records into an existing meter instead of a fresh one.
    #[must_use]
    pub fn meter(mut self, meter: Arc<Meter>) -> NetworkBuilder {
        self.meter = Some(meter);
        self
    }

    /// Receive deadline/retry schedule for every endpoint.
    #[must_use]
    pub fn timeout(mut self, policy: TimeoutPolicy) -> NetworkBuilder {
        self.timeout = policy;
        self
    }

    /// Attaches a deterministic fault plan to every endpoint.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> NetworkBuilder {
        self.faults = Some(plan);
        self
    }

    /// Bounded capacity of every link queue (default
    /// generous — a full protocol round never blocks on it). A send into
    /// a full queue records backpressure on the meter and blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> NetworkBuilder {
        assert!(capacity > 0, "link capacity must be positive");
        self.capacity = capacity;
        self
    }

    /// Selects the transport backend (default in-proc).
    #[must_use]
    pub fn backend(mut self, backend: TransportBackend) -> NetworkBuilder {
        self.backend = backend;
        self
    }

    /// Shorthand for [`Self::backend`] with a TCP configuration.
    #[must_use]
    pub fn tcp(self, cfg: TcpConfig) -> NetworkBuilder {
        self.backend(TransportBackend::Tcp(cfg))
    }

    /// Overrides the session id the TCP handshake negotiates (defaults
    /// to a process-unique counter value).
    #[must_use]
    pub fn session(mut self, session: u64) -> NetworkBuilder {
        self.session = Some(session);
        self
    }

    /// Wires the star.
    pub fn build(self) -> Network {
        Network::assemble(self)
    }
}

/// The two parties with an inbox, in inbox order.
const SERVERS: [PartyId; 2] = [PartyId::Server1, PartyId::Server2];

/// How a link to a server's inbox is made, per backend.
enum Wiring {
    /// The sending halves of the two bounded inbox queues.
    InProc([Sender<Envelope>; 2]),
    /// The socket fabric holding the two listeners.
    Tcp(Arc<TcpFabric>),
}

/// A network of `num_users` users plus the two servers over one
/// [`TransportBackend`].
pub struct Network {
    /// S1's and S2's endpoints until taken.
    servers: [Option<Endpoint>; 2],
    /// Users whose endpoint was handed out: a second take is a harness
    /// bug, and the record costs nothing until a user is taken.
    taken_users: HashSet<usize>,
    wiring: Wiring,
    meter: Arc<Meter>,
    num_users: usize,
    timeout: TimeoutPolicy,
    faults: Option<Arc<FaultPlan>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network({} users + 2 servers)", self.num_users)
    }
}

impl Network {
    /// Builds the star over `num_users` users and both servers, sharing
    /// one [`Meter`], with the default [`TimeoutPolicy`] and no faults.
    pub fn new(num_users: usize) -> Network {
        Self::builder(num_users).build()
    }

    /// Builds a network that records into an existing meter.
    pub fn with_meter(num_users: usize, meter: Arc<Meter>) -> Network {
        Self::builder(num_users).meter(meter).build()
    }

    /// Starts configuring a network.
    pub fn builder(num_users: usize) -> NetworkBuilder {
        NetworkBuilder {
            num_users,
            meter: None,
            timeout: TimeoutPolicy::default(),
            faults: None,
            capacity: DEFAULT_CAPACITY,
            backend: TransportBackend::default(),
            session: None,
        }
    }

    fn assemble(builder: NetworkBuilder) -> Network {
        let NetworkBuilder { num_users, meter, timeout, faults, capacity, backend, session } =
            builder;
        let meter = meter.unwrap_or_default();
        let faults = faults.map(Arc::new);

        let (wiring, inboxes) = match backend {
            TransportBackend::InProc => {
                let (tx1, rx1) = bounded(capacity);
                let (tx2, rx2) = bounded(capacity);
                (Wiring::InProc([tx1, tx2]), [(rx1, None), (rx2, None)])
            }
            TransportBackend::Tcp(cfg) => {
                let session =
                    session.unwrap_or_else(|| NEXT_SESSION.fetch_add(1, Ordering::Relaxed));
                let (fabric, inboxes) =
                    build_star(SERVERS, session, cfg, capacity, &meter, faults.as_deref());
                (Wiring::Tcp(fabric), inboxes.map(|(rx, live)| (rx, Some(live))))
            }
        };
        let mut net = Network {
            servers: [None, None],
            taken_users: HashSet::new(),
            wiring,
            meter,
            num_users,
            timeout,
            faults,
        };
        // No self-link: a party never messages itself, and a sender kept
        // on one's own inbox would stop its disconnection from showing
        // once every peer is gone.
        let [(inbox1, live1), (inbox2, live2)] = inboxes;
        net.servers = [
            Some(net.endpoint(PartyId::Server1, &[PartyId::Server2], Some(inbox1), live1)),
            Some(net.endpoint(PartyId::Server2, &[PartyId::Server1], Some(inbox2), live2)),
        ];
        net
    }

    /// Makes `id`'s endpoint: a link to each of `peers` (all servers — only
    /// they can be sent to) and, for a server, its inbox and (over TCP) the
    /// liveness record its readers keep.
    fn endpoint(
        &self,
        id: PartyId,
        peers: &[PartyId],
        incoming: Option<Receiver<Envelope>>,
        liveness: Option<Arc<Liveness>>,
    ) -> Endpoint {
        let outgoing = peers
            .iter()
            .map(|&to| {
                let sender = match &self.wiring {
                    Wiring::InProc([to_s1, to_s2]) => LinkSender::Channel(
                        if to == PartyId::Server1 { to_s1 } else { to_s2 }.clone(),
                    ),
                    Wiring::Tcp(fabric) => LinkSender::Tcp(fabric.link(id, to)),
                };
                Uplink { to, sender, sent: AtomicU64::new(0) }
            })
            .collect();
        Endpoint {
            id,
            outgoing,
            incoming,
            stashed: HashMap::new(),
            seen_seq: HashMap::new(),
            timeout: self.timeout,
            faults: self.faults.clone(),
            meter: Arc::clone(&self.meter),
            liveness,
        }
    }

    /// Number of users in the network.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// The shared meter.
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// Loopback listener address of each server when built with the TCP
    /// backend (`None` in-proc; users have no listener) — for diagnostics
    /// and for tests that poke the fabric with raw sockets.
    pub fn listener_addrs(&self) -> Option<&HashMap<PartyId, std::net::SocketAddr>> {
        match &self.wiring {
            Wiring::InProc(_) => None,
            Wiring::Tcp(fabric) => Some(&fabric.addrs),
        }
    }

    /// Removes and returns a party's endpoint so it can be moved to a
    /// thread. A server's endpoint was made with the network; a user's
    /// send-only endpoint — links to S1 and S2, sequence numbers starting
    /// at 1 — is made here.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint was already taken or never existed — that is
    /// always a harness bug.
    pub fn take_endpoint(&mut self, id: PartyId) -> Endpoint {
        let endpoint = match id {
            PartyId::Server1 => self.servers[0].take(),
            PartyId::Server2 => self.servers[1].take(),
            PartyId::User(u) => (u < self.num_users && self.taken_users.insert(u))
                .then(|| self.endpoint(id, &SERVERS, None, None)),
        };
        endpoint.unwrap_or_else(|| panic!("endpoint {id} already taken or unknown"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigint::Ubig;

    #[test]
    fn point_to_point_roundtrip() {
        let mut net = Network::new(0);
        let s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        s1.send(PartyId::Server2, Step::BlindPermute1, &Ubig::from(777u64)).unwrap();
        let v: Ubig = s2.recv(PartyId::Server1, Step::BlindPermute1).unwrap();
        assert_eq!(v, Ubig::from(777u64));
    }

    #[test]
    fn out_of_order_senders_are_stashed() {
        let mut net = Network::new(2);
        let u0 = net.take_endpoint(PartyId::User(0));
        let u1 = net.take_endpoint(PartyId::User(1));
        let mut s1 = net.take_endpoint(PartyId::Server1);
        // user1's message arrives first, but we ask for user0's first.
        u1.send(PartyId::Server1, Step::SecureSumVotes, &11u64).unwrap();
        u0.send(PartyId::Server1, Step::SecureSumVotes, &10u64).unwrap();
        let a: u64 = s1.recv(PartyId::User(0), Step::SecureSumVotes).unwrap();
        let b: u64 = s1.recv(PartyId::User(1), Step::SecureSumVotes).unwrap();
        assert_eq!((a, b), (10, 11));
    }

    #[test]
    fn fifo_per_sender() {
        let mut net = Network::new(1);
        let u = net.take_endpoint(PartyId::User(0));
        let mut s1 = net.take_endpoint(PartyId::Server1);
        for i in 0..5u64 {
            u.send(PartyId::Server1, Step::SecureSumVotes, &i).unwrap();
        }
        for i in 0..5u64 {
            let v: u64 = s1.recv(PartyId::User(0), Step::SecureSumVotes).unwrap();
            assert_eq!(v, i);
        }
    }

    #[test]
    fn metering_by_link_kind() {
        let mut net = Network::new(1);
        let u = net.take_endpoint(PartyId::User(0));
        let s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        u.send(PartyId::Server1, Step::SecureSumVotes, &1u64).unwrap();
        s1.send(PartyId::Server2, Step::BlindPermute1, &2u64).unwrap();
        let _ = s2.recv::<u64>(PartyId::Server1, Step::BlindPermute1).unwrap();
        let report = net.meter().report();
        assert_eq!(report.link_stats(Step::SecureSumVotes, LinkKind::UserToServer).messages, 1);
        assert_eq!(report.link_stats(Step::BlindPermute1, LinkKind::ServerToServer).bytes, 8);
    }

    #[test]
    fn unknown_party_rejected() {
        let mut net = Network::new(0);
        let s1 = net.take_endpoint(PartyId::Server1);
        let err = s1.send(PartyId::User(9), Step::Setup, &0u64).unwrap_err();
        assert_eq!(err, TransportError::UnknownParty(PartyId::User(9)));
        // A send that went nowhere is not in Table II.
        let report = net.meter().report();
        assert_eq!(report.link_stats(Step::Setup, LinkKind::ServerToUser).messages, 0);
    }

    #[test]
    fn an_inbox_disconnects_once_the_network_and_every_sender_are_gone() {
        // The network can still hand out senders, so a silent inbox reads
        // as a timeout while it lives and as a disconnect after.
        let mut net =
            Network::builder(1).timeout(TimeoutPolicy::new(Duration::from_millis(20))).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let s2 = net.take_endpoint(PartyId::Server2);
        let u = net.take_endpoint(PartyId::User(0));
        drop((s2, u));
        let err = s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::User(0)));
        drop(net);
        let err = s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap_err();
        assert_eq!(err, TransportError::Disconnected(PartyId::User(0)));
    }

    #[test]
    fn building_does_not_depend_on_the_number_of_users() {
        let started = Instant::now();
        let mut net = Network::builder(1_000_000).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        let mut last = net.take_endpoint(PartyId::User(999_999));
        last.send(PartyId::Server1, Step::SecureSumVotes, &7u64).unwrap();
        assert_eq!(s1.recv::<u64>(PartyId::User(999_999), Step::SecureSumVotes).unwrap(), 7);
        s1.send(PartyId::Server2, Step::BlindPermute1, &8u64).unwrap();
        assert_eq!(s2.recv::<u64>(PartyId::Server1, Step::BlindPermute1).unwrap(), 8);
        // The star: nobody — server or user — can send a user a frame, and
        // a user's endpoint has no inbox to wait on.
        for sender in [&s1, &s2, &last] {
            let err = sender.send(PartyId::User(3), Step::Restoration, &0u64).unwrap_err();
            assert_eq!(err, TransportError::UnknownParty(PartyId::User(3)));
        }
        let err = last.recv::<u64>(PartyId::Server1, Step::Restoration).unwrap_err();
        assert_eq!(err, TransportError::Disconnected(PartyId::Server1));
        // Taking a user twice, or one past the end, is still a harness bug.
        for bad in [PartyId::User(999_999), PartyId::User(1_000_000), PartyId::Server1] {
            let taken = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.take_endpoint(bad);
            }));
            assert!(taken.is_err(), "{bad} must not be handed out");
        }
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
    }

    #[test]
    fn threaded_exchange() {
        let mut net = Network::new(0);
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                s1.send(PartyId::Server2, Step::CompareRank, &Ubig::from(5u64)).unwrap();
                let echo: Ubig = s1.recv(PartyId::Server2, Step::CompareRank).unwrap();
                assert_eq!(echo, Ubig::from(10u64));
            });
            let v: Ubig = s2.recv(PartyId::Server1, Step::CompareRank).unwrap();
            s2.send(PartyId::Server1, Step::CompareRank, &(&v + &v)).unwrap();
        });
    }

    #[test]
    fn party_display_and_link_kind() {
        assert_eq!(PartyId::User(3).to_string(), "user3");
        assert_eq!(PartyId::Server1.link_to(PartyId::Server2), LinkKind::ServerToServer);
        assert_eq!(PartyId::User(0).link_to(PartyId::Server1), LinkKind::UserToServer);
        assert_eq!(PartyId::Server2.link_to(PartyId::User(1)), LinkKind::ServerToUser);
    }

    // --- reliability-layer tests -----------------------------------------

    /// A short policy so fault tests fail fast instead of waiting 120 s.
    fn quick() -> TimeoutPolicy {
        TimeoutPolicy::new(Duration::from_millis(50))
    }

    #[test]
    fn recv_matches_on_step_not_just_sender() {
        // A sender whose step-2 message was lost must not have its step-6
        // message delivered in its place: the step-2 receive times out
        // and the step-6 message stays available for its own receive.
        let mut net = Network::builder(1).timeout(quick()).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        u.send(PartyId::Server1, Step::SecureSumNoisy, &99u64).unwrap();
        let err = s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::User(0)));
        let v: u64 = s1.recv(PartyId::User(0), Step::SecureSumNoisy).unwrap();
        assert_eq!(v, 99);
    }

    #[test]
    fn stashed_messages_replay_per_step_in_order() {
        // Interleaved steps from one sender: each stream is FIFO on its
        // own, regardless of receive order across streams.
        let mut net = Network::builder(1).timeout(quick()).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        u.send(PartyId::Server1, Step::SecureSumVotes, &1u64).unwrap();
        u.send(PartyId::Server1, Step::SecureSumNoisy, &10u64).unwrap();
        u.send(PartyId::Server1, Step::SecureSumVotes, &2u64).unwrap();
        u.send(PartyId::Server1, Step::SecureSumNoisy, &20u64).unwrap();
        assert_eq!(s1.recv::<u64>(PartyId::User(0), Step::SecureSumNoisy).unwrap(), 10);
        assert_eq!(s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap(), 1);
        assert_eq!(s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap(), 2);
        assert_eq!(s1.recv::<u64>(PartyId::User(0), Step::SecureSumNoisy).unwrap(), 20);
    }

    #[test]
    fn per_call_timeout_overrides_network_policy() {
        // Network default would wait 120 s; the per-call policy times out
        // in milliseconds.
        let mut net = Network::new(1);
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let start = Instant::now();
        let err = s1
            .recv_frame(
                PartyId::User(0),
                Step::SecureSumVotes,
                TimeoutPolicy::new(Duration::from_millis(20)),
            )
            .unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::User(0)));
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn retries_extend_the_deadline_and_are_metered() {
        let mut net = Network::builder(1)
            .timeout(TimeoutPolicy::with_retries(Duration::from_millis(40), 2, 2.0))
            .build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        // Send from another thread inside the second (retry) window.
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                u.send(PartyId::Server1, Step::SecureSumVotes, &9u64).unwrap();
            });
            let v: u64 = s1.recv(PartyId::User(0), Step::SecureSumVotes).unwrap();
            assert_eq!(v, 9);
        });
        let stats = net.meter().fault_stats();
        assert!(stats.retries >= 1, "{stats:?}");
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn injected_drop_times_out_receiver() {
        let plan = FaultPlan::new(1).drop_messages(1.0);
        let mut net = Network::builder(1).timeout(quick()).faults(plan).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        u.send(PartyId::Server1, Step::SecureSumVotes, &3u64).unwrap();
        let err = s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::User(0)));
        let stats = net.meter().fault_stats();
        assert_eq!(stats.drops_injected, 1);
        assert_eq!(stats.timeouts, 1);
    }

    #[test]
    fn injected_duplicates_are_suppressed() {
        let plan = FaultPlan::new(2).duplicate_messages(1.0);
        let mut net = Network::builder(1).timeout(quick()).faults(plan).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        for i in 0..4u64 {
            u.send(PartyId::Server1, Step::SecureSumVotes, &i).unwrap();
        }
        for i in 0..4u64 {
            let v: u64 = s1.recv(PartyId::User(0), Step::SecureSumVotes).unwrap();
            assert_eq!(v, i, "duplicates must not repeat or reorder values");
        }
        // Nothing further: all copies consumed.
        let err = s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::User(0)));
        let stats = net.meter().fault_stats();
        assert_eq!(stats.duplicates_injected, 4);
        assert_eq!(stats.duplicates_suppressed, 4);
    }

    #[test]
    fn injected_corruption_is_detected() {
        let plan = FaultPlan::new(3).corrupt_messages(1.0);
        let mut net = Network::builder(1).timeout(quick()).faults(plan).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        u.send(PartyId::Server1, Step::SecureSumVotes, &Ubig::from(123456u64)).unwrap();
        let err = s1.recv::<Ubig>(PartyId::User(0), Step::SecureSumVotes).unwrap_err();
        assert_eq!(err, TransportError::Corrupt(PartyId::User(0)));
        let stats = net.meter().fault_stats();
        assert_eq!(stats.corruptions_injected, 1);
        assert_eq!(stats.corruptions_detected, 1);
    }

    #[test]
    fn injected_delay_is_honored_within_deadline() {
        let plan = FaultPlan::new(4).delay_messages(1.0, Duration::from_millis(30));
        let mut net = Network::builder(1)
            .timeout(TimeoutPolicy::new(Duration::from_millis(500)))
            .faults(plan)
            .build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        let sent_at = Instant::now();
        u.send(PartyId::Server1, Step::SecureSumVotes, &77u64).unwrap();
        let v: u64 = s1.recv(PartyId::User(0), Step::SecureSumVotes).unwrap();
        assert_eq!(v, 77);
        assert!(sent_at.elapsed() > Duration::ZERO);
        let stats = net.meter().fault_stats();
        assert_eq!(stats.delays_injected, 1);
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn delay_beyond_every_window_times_out() {
        let plan = FaultPlan::new(5).delay_messages(1.0, Duration::from_secs(3600));
        let mut net = Network::builder(1).timeout(quick()).faults(plan).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        u.send(PartyId::Server1, Step::SecureSumVotes, &1u64).unwrap();
        let start = Instant::now();
        let err = s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::User(0)));
        // The hour-long delay must not be slept through.
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn crashed_party_sends_vanish() {
        let plan = FaultPlan::new(6).crash(PartyId::User(0), Step::SecureSumNoisy);
        let mut net = Network::builder(1).timeout(quick()).faults(plan).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        // Before the crash step: delivered.
        u.send(PartyId::Server1, Step::SecureSumVotes, &1u64).unwrap();
        let v: u64 = s1.recv(PartyId::User(0), Step::SecureSumVotes).unwrap();
        assert_eq!(v, 1);
        // At/after the crash step: the send "succeeds" but vanishes.
        u.send(PartyId::Server1, Step::SecureSumNoisy, &2u64).unwrap();
        let err = s1.recv::<u64>(PartyId::User(0), Step::SecureSumNoisy).unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::User(0)));
        let stats = net.meter().fault_stats();
        assert_eq!(stats.crashed_sends, 1);
    }

    #[test]
    fn recv_frame_exposes_per_link_sequence_numbers() {
        let mut net = Network::new(1);
        let u = net.take_endpoint(PartyId::User(0));
        let mut s1 = net.take_endpoint(PartyId::Server1);
        u.send(PartyId::Server1, Step::SecureSumVotes, &7u64).unwrap();
        u.send(PartyId::Server1, Step::SecureSumVotes, &8u64).unwrap();
        let policy = s1.timeout_policy();
        let (seq_a, a) = s1.recv_frame(PartyId::User(0), Step::SecureSumVotes, policy).unwrap();
        let (seq_b, b) = s1.recv_frame(PartyId::User(0), Step::SecureSumVotes, policy).unwrap();
        assert_eq!((u64::from_bytes(a).unwrap(), u64::from_bytes(b).unwrap()), (7, 8));
        assert_eq!((seq_a, seq_b), (1, 2), "per-link seq starts at 1 and increments");
    }

    #[test]
    fn revived_party_sends_deliver_again() {
        // Crash window covers only SecureSumNoisy: sends before and after
        // the window deliver, sends inside it vanish.
        let plan = FaultPlan::new(7)
            .crash(PartyId::User(0), Step::SecureSumNoisy)
            .revive_after(PartyId::User(0), 1);
        let mut net = Network::builder(1).timeout(quick()).faults(plan).build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let u = net.take_endpoint(PartyId::User(0));
        u.send(PartyId::Server1, Step::SecureSumVotes, &1u64).unwrap();
        assert_eq!(s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap(), 1);
        u.send(PartyId::Server1, Step::SecureSumNoisy, &2u64).unwrap();
        let err = s1.recv::<u64>(PartyId::User(0), Step::SecureSumNoisy).unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::User(0)));
        // Back from the dead at BlindPermute2.
        u.send(PartyId::Server1, Step::BlindPermute2, &3u64).unwrap();
        assert_eq!(s1.recv::<u64>(PartyId::User(0), Step::BlindPermute2).unwrap(), 3);
        assert_eq!(net.meter().fault_stats().crashed_sends, 1);
    }

    #[test]
    fn identical_plans_inject_identically() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).drop_messages(0.5);
            let mut net = Network::builder(1).timeout(quick()).faults(plan).build();
            let mut s1 = net.take_endpoint(PartyId::Server1);
            let u = net.take_endpoint(PartyId::User(0));
            (0..12u64)
                .map(|i| {
                    u.send(PartyId::Server1, Step::SecureSumVotes, &i).unwrap();
                    s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).is_ok()
                })
                .collect()
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b, "same seed must reproduce the same fault schedule");
        assert!(a.iter().any(|&ok| ok) && a.iter().any(|&ok| !ok), "p=0.5 should mix: {a:?}");
    }

    #[test]
    fn party_id_wire_roundtrip() {
        for p in [PartyId::Server1, PartyId::Server2, PartyId::User(0), PartyId::User(12345)] {
            let bytes = p.to_bytes();
            assert_eq!(PartyId::from_bytes(bytes).unwrap(), p);
        }
        assert!(PartyId::from_bytes(Bytes::from(vec![9u8])).is_err());
    }

    #[test]
    fn fast_local_policy_is_sub_second() {
        let policy = TimeoutPolicy::fast_local();
        assert!(policy.total_budget() < Duration::from_secs(1));
        assert!(policy.max_retries >= 1, "must grant at least one retry window");
    }

    #[test]
    fn slow_consumer_applies_backpressure_instead_of_growing() {
        // Capacity 2 with 40 sends: the producer must block on the full
        // queue (recorded on the meter) and every message still arrives.
        let mut net = Network::builder(1).capacity(2).timeout(quick()).build();
        let u = net.take_endpoint(PartyId::User(0));
        let mut s1 = net.take_endpoint(PartyId::Server1);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..40u64 {
                    u.send(PartyId::Server1, Step::SecureSumVotes, &i).unwrap();
                }
            });
            // Let the producer hit the bound before consuming anything.
            std::thread::sleep(Duration::from_millis(50));
            for i in 0..40u64 {
                let (_, v) = s1
                    .recv_frame(
                        PartyId::User(0),
                        Step::SecureSumVotes,
                        TimeoutPolicy::new(Duration::from_secs(2)),
                    )
                    .unwrap();
                assert_eq!(u64::from_bytes(v).unwrap(), i);
            }
        });
        let stats = net.meter().fault_stats();
        assert!(stats.backpressure_blocked >= 1, "{stats:?}");
    }
}
