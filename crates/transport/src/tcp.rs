//! Real socket transport: loopback TCP links with handshake, heartbeats,
//! reconnect-and-resume and acknowledged delivery.
//!
//! Built on `std::net` only (thread-per-connection, no async runtime),
//! so it runs in offline sandboxes. Each *server* binds one loopback
//! listener — two listeners and two acceptor threads per network, however
//! many users it has: a user only ever dials. A directed link `A → B` is
//! a TCP connection dialed lazily by `A` on its first send. On the wire
//! every frame is `[u32 LE length]` followed by a [`Wire`]-encoded
//! [`Frame`] body:
//!
//! * **Hello / HelloAck** — a versioned session handshake. `Hello`
//!   carries a magic tag, the protocol version, the network's session id
//!   and the claimed `(from, to)` identities; the receiver rejects
//!   mismatches by dropping the connection. `HelloAck` answers with the
//!   highest sequence number the receiver has already accepted on this
//!   link, which is where resume starts. The session id identifies a
//!   network instance, so a stray connection from an earlier round's
//!   network fails the handshake.
//! * **Data** — one [`Envelope`]: step, per-link sequence number, the
//!   sender-side frame checksum, any injected delivery delay (encoded as
//!   remaining nanoseconds) and the payload. The receiver answers each
//!   accepted `Data` frame with an **Ack**, which prunes the sender's
//!   retransmit buffer.
//! * **Heartbeat** — emitted by an idle link writer every
//!   [`TcpConfig::heartbeat`]; any inbound frame refreshes the sender's
//!   liveness record. Liveness is tracked per peer, not per connection:
//!   a reconnect keeps the record. A peer silent past
//!   [`TcpConfig::liveness`] is declared dead and the pending receive
//!   fails over to the existing dropout path
//!   ([`crate::TransportError::Timeout`]).
//!
//! **Reconnect-and-resume**: a link writer that loses its connection
//! (write failure, severed socket, torn frame) redials with exponential
//! backoff, re-runs the handshake and replays every frame newer than the
//! peer's acknowledged sequence number. The receive side dedups on
//! sequence numbers (exactly the logic the in-proc mesh already uses),
//! so a mid-frame connection kill is invisible above the transport:
//! same delivery, same order, same consensus fingerprint.
//!
//! Frames never outrun memory: link queues are bounded (backpressure,
//! see [`crate::link`]), a reader blocked on a slow endpoint stops
//! reading its socket (TCP flow control does the rest), and declared
//! frame lengths are capped at [`MAX_FRAME`] so a garbage prefix cannot
//! trigger a huge allocation.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::faults::FaultPlan;
use crate::link::{send_bounded, Envelope};
use crate::metrics::{FaultEvent, Meter, Step};
use crate::network::{PartyId, TransportError};
use crate::proxy::ChaosProxy;
use crate::wire::{Wire, WireError};

/// Leading tag of every `Hello`, so a stray connection is rejected on
/// its first bytes.
const MAGIC: u32 = 0x434E_5350; // "CNSP"

/// Handshake protocol version; mismatches drop the connection.
const VERSION: u32 = 1;

/// Upper bound on a declared frame length — matches the wire codec's
/// sanity bound, far above any legitimate protocol message.
const MAX_FRAME: u32 = 1 << 28;

/// Tuning knobs of the TCP backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// How often an idle link writer emits a heartbeat frame.
    pub heartbeat: Duration,
    /// How long a connected peer may stay silent before it is declared
    /// dead and pending receives fail over to the dropout path.
    pub liveness: Duration,
    /// Initial redial delay after a lost connection (doubles per failed
    /// attempt, capped at 250 ms).
    pub connect_backoff: Duration,
    /// How long a handshake waits for the peer's `Hello`/`HelloAck`.
    pub handshake_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> TcpConfig {
        TcpConfig {
            heartbeat: Duration::from_millis(25),
            liveness: Duration::from_secs(2),
            connect_backoff: Duration::from_millis(5),
            handshake_timeout: Duration::from_secs(1),
        }
    }
}

impl TcpConfig {
    /// Aggressive loopback tuning: failures surface in milliseconds.
    /// Pairs with [`crate::TimeoutPolicy::fast_local`] in tests and CI
    /// smokes.
    pub fn fast_local() -> TcpConfig {
        TcpConfig {
            heartbeat: Duration::from_millis(10),
            liveness: Duration::from_millis(400),
            connect_backoff: Duration::from_millis(2),
            handshake_timeout: Duration::from_millis(500),
        }
    }
}

/// One frame on a TCP link.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame {
    /// Session handshake: magic + version + session id + identities.
    Hello { version: u32, session: u64, from: PartyId, to: PartyId },
    /// Handshake answer: highest sequence number already accepted on
    /// this link — where a resuming sender restarts its replay.
    HelloAck { acked_seq: u64 },
    /// One envelope. `delay_nanos` is the remaining injected delivery
    /// delay at write time (0 = none).
    Data { step: Step, seq: u64, checksum: u64, delay_nanos: u64, payload: Bytes },
    /// Acknowledges the `Data` frame with this sequence number.
    Ack { seq: u64 },
    /// Keep-alive from an idle link writer.
    Heartbeat,
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_DATA: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;

impl Wire for Frame {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Frame::Hello { version, session, from, to } => {
                TAG_HELLO.encode(buf);
                MAGIC.encode(buf);
                version.encode(buf);
                session.encode(buf);
                from.encode(buf);
                to.encode(buf);
            }
            Frame::HelloAck { acked_seq } => {
                TAG_HELLO_ACK.encode(buf);
                acked_seq.encode(buf);
            }
            Frame::Data { step, seq, checksum, delay_nanos, payload } => {
                TAG_DATA.encode(buf);
                step.encode(buf);
                seq.encode(buf);
                checksum.encode(buf);
                delay_nanos.encode(buf);
                (payload.len() as u32).encode(buf);
                buf.put_slice(payload);
            }
            Frame::Ack { seq } => {
                TAG_ACK.encode(buf);
                seq.encode(buf);
            }
            Frame::Heartbeat => TAG_HEARTBEAT.encode(buf),
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            TAG_HELLO => {
                let magic = u32::decode(buf)?;
                if magic != MAGIC {
                    return Err(WireError::Malformed("hello magic mismatch"));
                }
                Ok(Frame::Hello {
                    version: u32::decode(buf)?,
                    session: u64::decode(buf)?,
                    from: PartyId::decode(buf)?,
                    to: PartyId::decode(buf)?,
                })
            }
            TAG_HELLO_ACK => Ok(Frame::HelloAck { acked_seq: u64::decode(buf)? }),
            TAG_DATA => {
                let step = Step::decode(buf)?;
                let seq = u64::decode(buf)?;
                let checksum = u64::decode(buf)?;
                let delay_nanos = u64::decode(buf)?;
                let len = u32::decode(buf)? as u64;
                if len > u64::from(MAX_FRAME) {
                    return Err(WireError::LengthOverflow(len));
                }
                if (buf.remaining() as u64) < len {
                    return Err(WireError::Truncated);
                }
                let payload = buf.slice(0..len as usize);
                buf.advance(len as usize);
                Ok(Frame::Data { step, seq, checksum, delay_nanos, payload })
            }
            TAG_ACK => Ok(Frame::Ack { seq: u64::decode(buf)? }),
            TAG_HEARTBEAT => Ok(Frame::Heartbeat),
            tag => Err(WireError::InvalidTag(tag)),
        }
    }
}

/// Writes one length-prefixed frame.
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let body = frame.to_bytes();
    debug_assert!(body.len() as u64 <= u64::from(MAX_FRAME));
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Reads one length-prefixed frame. A torn tail (EOF mid-frame) surfaces
/// as the underlying `UnexpectedEof`; a garbage prefix or undecodable
/// body as `InvalidData`.
pub(crate) fn read_frame(r: &mut impl Read) -> std::io::Result<Frame> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds bounds"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Frame::from_bytes(Bytes::from(body))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Per-inbox record of when each connected peer was last heard from
/// (any frame counts, heartbeats included). Consulted by the receive
/// loop to convert a silent peer into a timely dropout.
pub(crate) struct Liveness {
    deadline: Duration,
    poll: Duration,
    last: Mutex<HashMap<PartyId, Instant>>,
}

impl Liveness {
    fn new(cfg: &TcpConfig) -> Liveness {
        Liveness {
            deadline: cfg.liveness,
            poll: cfg.heartbeat.clamp(Duration::from_millis(1), Duration::from_millis(25)),
            last: Mutex::new(HashMap::new()),
        }
    }

    fn touch(&self, from: PartyId) {
        self.last.lock().insert(from, Instant::now());
    }

    /// True when `from` once connected and has now been silent past the
    /// deadline. A peer that never connected is governed by the receive
    /// policy alone.
    pub(crate) fn expired(&self, from: PartyId) -> bool {
        self.last.lock().get(&from).is_some_and(|at| at.elapsed() > self.deadline)
    }

    /// How often a blocking receive should wake to re-check liveness.
    pub(crate) fn poll_interval(&self) -> Duration {
        self.poll
    }
}

/// State shared with every fabric thread (acceptors, readers, writers):
/// the shutdown flag and the registry of open sockets to unblock on
/// shutdown.
struct FabricShared {
    shutdown: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
}

impl FabricShared {
    fn register(&self, stream: &TcpStream) {
        if let Ok(clone) = stream.try_clone() {
            self.conns.lock().push(clone);
        }
    }
}

/// The socket fabric of one network: the servers' listener addresses,
/// chaos proxies, what a new link is dialed with, and the shutdown
/// handle. Dropping the last owner (the [`crate::Network`] and every link
/// of every taken endpoint) severs all connections and winds the fabric's
/// threads down.
pub(crate) struct TcpFabric {
    shared: Arc<FabricShared>,
    /// Real listener address of each server (dialers may be pointed at a
    /// chaos proxy instead — see [`ChaosProxy`]).
    pub(crate) addrs: HashMap<PartyId, SocketAddr>,
    /// Links the fault plan targets dial a proxy in front of the listener.
    dial: HashMap<(PartyId, PartyId), SocketAddr>,
    _proxies: Vec<ChaosProxy>,
    session: u64,
    cfg: TcpConfig,
    capacity: usize,
    meter: Arc<Meter>,
}

impl TcpFabric {
    /// The sending half of the directed link `from → to`; its connection
    /// is dialed on the first send.
    ///
    /// # Panics
    ///
    /// Panics if `to` has no listener — only the servers do.
    pub(crate) fn link(self: &Arc<Self>, from: PartyId, to: PartyId) -> TcpLink {
        let ctx = LinkCtx {
            from,
            to,
            dial: self.dial.get(&(from, to)).copied().unwrap_or(self.addrs[&to]),
            session: self.session,
            cfg: self.cfg,
            meter: Arc::clone(&self.meter),
            shared: Arc::clone(&self.shared),
        };
        TcpLink { ctx, capacity: self.capacity, queue: Mutex::new(None), _fabric: Arc::clone(self) }
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for conn in self.shared.conns.lock().iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Everything a link writer needs to (re)establish its connection.
#[derive(Clone)]
struct LinkCtx {
    from: PartyId,
    to: PartyId,
    dial: SocketAddr,
    session: u64,
    cfg: TcpConfig,
    meter: Arc<Meter>,
    shared: Arc<FabricShared>,
}

/// The sending half of one directed TCP link: a bounded queue into a
/// lazily spawned writer thread that owns the socket.
pub(crate) struct TcpLink {
    ctx: LinkCtx,
    capacity: usize,
    queue: Mutex<Option<Sender<Envelope>>>,
    /// Keeps the fabric — the listeners' threads, the proxy this link may
    /// dial — alive for as long as any endpoint holds a link.
    _fabric: Arc<TcpFabric>,
}

impl TcpLink {
    /// Enqueues an envelope for the writer, spawning it on first use.
    pub(crate) fn send(
        &self,
        env: Envelope,
        to: PartyId,
        meter: &Meter,
    ) -> Result<(), TransportError> {
        let tx = {
            let mut queue = self.queue.lock();
            match &*queue {
                Some(tx) => tx.clone(),
                None => {
                    let (tx, rx) = bounded(self.capacity);
                    let ctx = self.ctx.clone();
                    std::thread::Builder::new()
                        .name(format!("tcp-writer-{}-{}", ctx.from, ctx.to))
                        .spawn(move || run_writer(ctx, rx))
                        .expect("spawn tcp writer thread");
                    *queue = Some(tx.clone());
                    tx
                }
            }
        };
        send_bounded(&tx, env, to, meter)
    }
}

/// Dials the peer, runs the versioned handshake and returns the stream
/// plus the peer's acknowledged sequence number.
fn connect_handshake(ctx: &LinkCtx) -> std::io::Result<(TcpStream, u64)> {
    let stream = TcpStream::connect(ctx.dial)?;
    let _ = stream.set_nodelay(true);
    write_frame(
        &mut (&stream),
        &Frame::Hello { version: VERSION, session: ctx.session, from: ctx.from, to: ctx.to },
    )?;
    stream.set_read_timeout(Some(ctx.cfg.handshake_timeout))?;
    let frame = read_frame(&mut (&stream))?;
    stream.set_read_timeout(None)?;
    match frame {
        Frame::HelloAck { acked_seq } => Ok((stream, acked_seq)),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "expected HelloAck in handshake",
        )),
    }
}

/// Encodes an envelope as a `Data` frame, converting its delivery-delay
/// instant into the nanoseconds still remaining.
fn data_frame(env: &Envelope) -> Frame {
    let delay_nanos = env
        .deliver_after
        .map(|at| at.saturating_duration_since(Instant::now()).as_nanos() as u64)
        .unwrap_or(0);
    Frame::Data {
        step: env.step,
        seq: env.seq,
        checksum: env.checksum,
        delay_nanos,
        payload: env.payload.clone(),
    }
}

/// The link writer: owns the socket, heartbeats when idle, retransmits
/// after reconnects, prunes its buffer on acks. Exits once its endpoint
/// is gone and everything it accepted has been acknowledged (or the
/// fabric shuts down).
fn run_writer(ctx: LinkCtx, rx: Receiver<Envelope>) {
    let acked = Arc::new(AtomicU64::new(0));
    let mut conn: Option<TcpStream> = None;
    // Accepted from the endpoint but not yet written on any connection.
    let mut outbox: VecDeque<Envelope> = VecDeque::new();
    // Written but not yet acknowledged — replayed after a reconnect.
    let mut unacked: VecDeque<Envelope> = VecDeque::new();
    let mut backoff = ctx.cfg.connect_backoff;
    let mut ever_connected = false;
    let mut queue_closed = false;

    let drop_conn = |conn: &mut Option<TcpStream>| {
        if let Some(stream) = conn.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    };

    loop {
        if ctx.shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let high = acked.load(Ordering::SeqCst);
        while unacked.front().is_some_and(|e| e.seq <= high) {
            unacked.pop_front();
        }
        if queue_closed && outbox.is_empty() && unacked.is_empty() {
            // Endpoint gone and every frame acknowledged: orderly close.
            break;
        }

        if conn.is_none() {
            match connect_handshake(&ctx) {
                Ok((stream, peer_acked)) => {
                    acked.fetch_max(peer_acked, Ordering::SeqCst);
                    let high = acked.load(Ordering::SeqCst);
                    while unacked.front().is_some_and(|e| e.seq <= high) {
                        unacked.pop_front();
                    }
                    // Resume: replay everything the peer has not acked.
                    let mut replay_ok = true;
                    for env in &unacked {
                        if write_frame(&mut (&stream), &data_frame(env)).is_err() {
                            replay_ok = false;
                            break;
                        }
                    }
                    if !replay_ok {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(250));
                        continue;
                    }
                    if ever_connected {
                        ctx.meter.record_fault(FaultEvent::Reconnected);
                    }
                    ever_connected = true;
                    backoff = ctx.cfg.connect_backoff;
                    ctx.shared.register(&stream);
                    let reader_stream = stream.try_clone().ok();
                    if let Some(reader_stream) = reader_stream {
                        let acked = Arc::clone(&acked);
                        std::thread::Builder::new()
                            .name(format!("tcp-acks-{}-{}", ctx.from, ctx.to))
                            .spawn(move || run_ack_reader(reader_stream, acked))
                            .expect("spawn tcp ack reader");
                    }
                    conn = Some(stream);
                }
                Err(_) => {
                    // Peer unreachable: keep accepting work (bounded) and
                    // retry with exponential backoff.
                    if !queue_closed {
                        match rx.recv_timeout(backoff) {
                            Ok(env) => outbox.push_back(env),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => queue_closed = true,
                        }
                    } else {
                        std::thread::sleep(backoff);
                    }
                    backoff = (backoff * 2).min(Duration::from_millis(250));
                    continue;
                }
            }
        }

        let stream = conn.as_ref().expect("connection established above");
        let mut write_failed = false;
        while let Some(env) = outbox.pop_front() {
            let frame = data_frame(&env);
            unacked.push_back(env);
            if write_frame(&mut &*stream, &frame).is_err() {
                write_failed = true;
                break;
            }
        }
        if write_failed {
            drop_conn(&mut conn);
            continue;
        }

        if queue_closed {
            // Draining: wait for acks, keep the connection validated.
            std::thread::sleep(ctx.cfg.heartbeat);
            if write_frame(&mut &*stream, &Frame::Heartbeat).is_err() {
                drop_conn(&mut conn);
            }
            continue;
        }
        match rx.recv_timeout(ctx.cfg.heartbeat) {
            Ok(env) => outbox.push_back(env),
            Err(RecvTimeoutError::Timeout) => {
                if write_frame(&mut &*stream, &Frame::Heartbeat).is_err() {
                    drop_conn(&mut conn);
                }
            }
            Err(RecvTimeoutError::Disconnected) => queue_closed = true,
        }
    }
    drop_conn(&mut conn);
}

/// Drains acknowledgement frames from the writer's connection into the
/// shared high-water mark; exits when the connection dies.
fn run_ack_reader(stream: TcpStream, acked: Arc<AtomicU64>) {
    loop {
        match read_frame(&mut (&stream)) {
            Ok(Frame::Ack { seq }) => {
                acked.fetch_max(seq, Ordering::SeqCst);
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
}

/// The receive side of one endpoint, shared by its acceptor and every
/// inbound connection's reader thread.
struct Inbox {
    id: PartyId,
    session: u64,
    tx: Sender<Envelope>,
    /// Highest sequence number accepted per sender — what `HelloAck`
    /// reports so resuming senders replay from the right place.
    delivered: Mutex<HashMap<PartyId, u64>>,
    liveness: Arc<Liveness>,
    meter: Arc<Meter>,
    shared: Arc<FabricShared>,
}

/// Accept loop of one party's listener.
fn run_acceptor(listener: TcpListener, inbox: Arc<Inbox>) {
    listener.set_nonblocking(true).expect("nonblocking listener");
    while !inbox.shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                inbox.shared.register(&stream);
                let inbox = Arc::clone(&inbox);
                std::thread::Builder::new()
                    .name(format!("tcp-reader-{}", inbox.id))
                    .spawn(move || run_reader(stream, inbox))
                    .expect("spawn tcp reader thread");
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Validates a `Hello` against this inbox; `None` rejects the connection.
fn validate_hello(frame: &Frame, inbox: &Inbox) -> Option<PartyId> {
    match frame {
        Frame::Hello { version, session, from, to }
            if *version == VERSION && *session == inbox.session && *to == inbox.id =>
        {
            Some(*from)
        }
        _ => None,
    }
}

/// One inbound connection: handshake, then decode `Data` frames into
/// envelopes, ack each, and keep the sender's liveness record fresh.
fn run_reader(stream: TcpStream, inbox: Arc<Inbox>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(Duration::from_secs(5))).is_err() {
        return;
    }
    let Ok(hello) = read_frame(&mut (&stream)) else { return };
    let Some(from) = validate_hello(&hello, &inbox) else {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return;
    };
    let acked_seq = inbox.delivered.lock().get(&from).copied().unwrap_or(0);
    if write_frame(&mut (&stream), &Frame::HelloAck { acked_seq }).is_err() {
        return;
    }
    if stream.set_read_timeout(None).is_err() {
        return;
    }
    inbox.liveness.touch(from);
    loop {
        match read_frame(&mut (&stream)) {
            Ok(Frame::Data { step, seq, checksum, delay_nanos, payload }) => {
                inbox.liveness.touch(from);
                let deliver_after =
                    (delay_nanos > 0).then(|| Instant::now() + Duration::from_nanos(delay_nanos));
                let env = Envelope { from, step, seq, checksum, deliver_after, payload };
                // Bounded enqueue: a slow endpoint blocks this reader,
                // which stops reading the socket — TCP flow control
                // propagates the backpressure to the sender.
                if inbox.tx.send(env).is_err() {
                    break; // endpoint gone
                }
                let mut delivered = inbox.delivered.lock();
                let entry = delivered.entry(from).or_insert(0);
                *entry = (*entry).max(seq);
                drop(delivered);
                if write_frame(&mut (&stream), &Frame::Ack { seq }).is_err() {
                    break;
                }
            }
            Ok(Frame::Heartbeat) => inbox.liveness.touch(from),
            Ok(_) => {} // stray handshake frames: ignore
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Garbage length prefix or undecodable body: the stream
                // is unframeable from here — drop the connection and let
                // the sender re-handshake and replay.
                inbox.meter.record_fault(FaultEvent::CorruptionDetected);
                break;
            }
            Err(_) => break, // EOF, reset or torn frame
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A server's inbox on the TCP backend: the queue its readers feed, and
/// when each connected peer was last heard from.
pub(crate) type TcpInbox = (Receiver<Envelope>, Arc<Liveness>);

/// Binds one loopback listener per server and puts a chaos proxy in
/// front of each link the fault plan targets. Links are made one at a
/// time by [`TcpFabric::link`], so nothing here depends on how many
/// users the network has.
///
/// # Panics
///
/// Panics if a loopback listener cannot be bound — the harness cannot
/// run without sockets.
pub(crate) fn build_star(
    servers: [PartyId; 2],
    session: u64,
    cfg: TcpConfig,
    capacity: usize,
    meter: &Arc<Meter>,
    faults: Option<&FaultPlan>,
) -> (Arc<TcpFabric>, [TcpInbox; 2]) {
    let shared =
        Arc::new(FabricShared { shutdown: AtomicBool::new(false), conns: Mutex::new(Vec::new()) });

    let mut addrs = HashMap::new();
    let inboxes = servers.map(|p| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        addrs.insert(p, listener.local_addr().expect("listener address"));
        let (tx, rx) = bounded(capacity);
        let live = Arc::new(Liveness::new(&cfg));
        let inbox = Arc::new(Inbox {
            id: p,
            session,
            tx,
            delivered: Mutex::new(HashMap::new()),
            liveness: Arc::clone(&live),
            meter: Arc::clone(meter),
            shared: Arc::clone(&shared),
        });
        std::thread::Builder::new()
            .name(format!("tcp-accept-{p}"))
            .spawn(move || run_acceptor(listener, inbox))
            .expect("spawn tcp acceptor thread");
        (rx, live)
    });

    // Chaos proxies: links the fault plan targets dial a proxy that
    // forwards to the real listener while injecting socket-level faults.
    let mut proxies = Vec::new();
    let mut dial = HashMap::new();
    for (&(from, to), &fault) in faults.into_iter().flat_map(FaultPlan::socket_faults) {
        if let Some(&target) = addrs.get(&to) {
            let proxy = ChaosProxy::spawn(target, fault).expect("spawn chaos proxy");
            dial.insert((from, to), proxy.addr());
            proxies.push(proxy);
        }
    }

    let fabric = Arc::new(TcpFabric {
        shared,
        addrs,
        dial,
        _proxies: proxies,
        session,
        cfg,
        capacity,
        meter: Arc::clone(meter),
    });
    (fabric, inboxes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::frame_checksum;
    use crate::network::{Network, TimeoutPolicy, TransportError};
    use proptest::prelude::*;

    fn sample_frames() -> Vec<Frame> {
        let payload = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        vec![
            Frame::Hello {
                version: VERSION,
                session: 7,
                from: PartyId::User(3),
                to: PartyId::Server1,
            },
            Frame::HelloAck { acked_seq: 42 },
            Frame::Data {
                step: Step::SecureSumVotes,
                seq: 9,
                checksum: frame_checksum(&payload, 9),
                delay_nanos: 1_000_000,
                payload,
            },
            Frame::Ack { seq: 11 },
            Frame::Heartbeat,
        ]
    }

    #[test]
    fn frames_roundtrip_through_length_prefixed_wire() {
        for frame in sample_frames() {
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let back = read_frame(&mut std::io::Cursor::new(&wire[..])).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn torn_tail_at_every_boundary_is_detected() {
        for frame in sample_frames() {
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            for cut in 0..wire.len() {
                let torn = read_frame(&mut std::io::Cursor::new(&wire[..cut]));
                assert!(torn.is_err(), "prefix of {cut}/{} bytes must not parse", wire.len());
            }
        }
    }

    #[test]
    fn hello_magic_mismatch_is_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &sample_frames()[0]).unwrap();
        wire[5] ^= 0xff; // byte 4 is the tag; 5..9 carry the magic
        let err = read_frame(&mut std::io::Cursor::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    proptest! {
        #[test]
        fn data_frames_roundtrip(
            seq in any::<u64>(),
            delay_nanos in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let payload = Bytes::from(payload);
            let frame = Frame::Data {
                step: Step::CompareNoisyRank,
                seq,
                checksum: frame_checksum(&payload, seq),
                delay_nanos,
                payload,
            };
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let back = read_frame(&mut std::io::Cursor::new(&wire[..])).unwrap();
            prop_assert_eq!(back, frame);
        }

        #[test]
        fn torn_tails_never_parse(
            cut_seed in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let frame = Frame::Data {
                step: Step::SecureSumNoisy,
                seq: 7,
                checksum: 13,
                delay_nanos: 0,
                payload: Bytes::from(payload),
            };
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let cut = cut_seed as usize % wire.len();
            prop_assert!(read_frame(&mut std::io::Cursor::new(&wire[..cut])).is_err());
        }

        #[test]
        fn garbage_length_prefixes_are_rejected_without_allocating(
            decl in (MAX_FRAME + 1)..u32::MAX,
            tail in proptest::collection::vec(any::<u8>(), 0..16),
        ) {
            let mut wire = decl.to_le_bytes().to_vec();
            wire.extend_from_slice(&tail);
            let err = read_frame(&mut std::io::Cursor::new(&wire[..])).unwrap_err();
            prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    // --- socket-backend integration (loopback) ---------------------------

    #[test]
    fn tcp_backend_full_duplex_exchange() {
        let mut net = Network::builder(0)
            .tcp(TcpConfig::fast_local())
            .timeout(TimeoutPolicy::with_retries(Duration::from_millis(300), 2, 2.0))
            .build();
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                s1.send(PartyId::Server2, Step::CompareRank, &21u64).unwrap();
                let echo: u64 = s1.recv(PartyId::Server2, Step::CompareRank).unwrap();
                assert_eq!(echo, 42);
            });
            let v: u64 = s2.recv(PartyId::Server1, Step::CompareRank).unwrap();
            s2.send(PartyId::Server1, Step::CompareRank, &(v * 2)).unwrap();
        });
    }

    #[test]
    fn handshake_rejects_wrong_session_and_version() {
        let mut net = Network::builder(0)
            .tcp(TcpConfig::fast_local())
            .session(42)
            .timeout(TimeoutPolicy::new(Duration::from_millis(150)))
            .build();
        let addr = net.listener_addrs().expect("tcp backend")[&PartyId::Server1];
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let payload = 123u64.to_bytes();
        let data = Frame::Data {
            step: Step::Setup,
            seq: 1,
            checksum: frame_checksum(&payload, 1),
            delay_nanos: 0,
            payload,
        };

        // Wrong session: the connection is dropped before any delivery.
        let bad_session = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut (&bad_session),
            &Frame::Hello {
                version: VERSION,
                session: 41,
                from: PartyId::Server2,
                to: PartyId::Server1,
            },
        )
        .unwrap();
        let _ = write_frame(&mut (&bad_session), &data);

        // Wrong version: likewise rejected.
        let bad_version = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut (&bad_version),
            &Frame::Hello {
                version: VERSION + 1,
                session: 42,
                from: PartyId::Server2,
                to: PartyId::Server1,
            },
        )
        .unwrap();
        let _ = write_frame(&mut (&bad_version), &data);

        let err = s1.recv::<u64>(PartyId::Server2, Step::Setup).unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::Server2));

        // A correct handshake on the same listener delivers.
        let good = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut (&good),
            &Frame::Hello {
                version: VERSION,
                session: 42,
                from: PartyId::Server2,
                to: PartyId::Server1,
            },
        )
        .unwrap();
        match read_frame(&mut (&good)).unwrap() {
            Frame::HelloAck { acked_seq } => assert_eq!(acked_seq, 0),
            other => panic!("expected HelloAck, got {other:?}"),
        }
        write_frame(&mut (&good), &data).unwrap();
        let v: u64 = s1.recv(PartyId::Server2, Step::Setup).unwrap();
        assert_eq!(v, 123);
    }

    #[test]
    fn liveness_converts_silent_peer_into_timely_dropout() {
        let cfg = TcpConfig {
            heartbeat: Duration::from_millis(10),
            liveness: Duration::from_millis(120),
            ..TcpConfig::fast_local()
        };
        let mut net = Network::builder(1)
            .tcp(cfg)
            .timeout(TimeoutPolicy::new(Duration::from_secs(30)))
            .build();
        let u = net.take_endpoint(PartyId::User(0));
        let mut s1 = net.take_endpoint(PartyId::Server1);
        u.send(PartyId::Server1, Step::SecureSumVotes, &1u64).unwrap();
        assert_eq!(s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap(), 1);

        // The user's endpoint dies; once its link drains, heartbeats stop
        // and the liveness deadline — not the 30 s policy — ends the wait.
        drop(u);
        let start = Instant::now();
        let err = s1.recv::<u64>(PartyId::User(0), Step::SecureSumVotes).unwrap_err();
        assert_eq!(err, TransportError::Timeout(PartyId::User(0)));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "liveness deadline must preempt the receive policy, took {:?}",
            start.elapsed()
        );
        assert!(net.meter().fault_stats().liveness_expired >= 1);
    }

    #[test]
    fn liveness_is_tracked_per_peer() {
        let cfg = TcpConfig { liveness: Duration::from_millis(40), ..TcpConfig::fast_local() };
        let live = Liveness::new(&cfg);
        // Two peers connected; only user 0 goes idle.
        live.touch(PartyId::User(0));
        live.touch(PartyId::Server2);
        std::thread::sleep(Duration::from_millis(60));
        live.touch(PartyId::Server2);
        assert!(live.expired(PartyId::User(0)), "an idle peer must expire");
        assert!(!live.expired(PartyId::Server2), "a fresh neighbor must stay live");
        // A peer that never connected is governed by the receive policy
        // alone.
        assert!(!live.expired(PartyId::User(1)));
    }

    #[test]
    fn severed_connection_reconnects_and_replays_in_order() {
        // Sever the user→S1 stream after 180 bytes — mid-frame, past the
        // handshake but inside the burst of ten messages.
        let plan = FaultPlan::new(0).sever_connection(PartyId::User(0), PartyId::Server1, 180);
        let mut net = Network::builder(1)
            .tcp(TcpConfig::fast_local())
            .faults(plan)
            .timeout(TimeoutPolicy::with_retries(Duration::from_millis(400), 2, 2.0))
            .build();
        let u = net.take_endpoint(PartyId::User(0));
        let mut s1 = net.take_endpoint(PartyId::Server1);
        for i in 0..10u64 {
            u.send(PartyId::Server1, Step::SecureSumVotes, &(i * 31)).unwrap();
        }
        for i in 0..10u64 {
            let v: u64 = s1.recv(PartyId::User(0), Step::SecureSumVotes).unwrap();
            assert_eq!(v, i * 31, "replay must preserve per-link FIFO order");
        }
        let stats = net.meter().fault_stats();
        assert!(stats.reconnects >= 1, "the sever must force a reconnect: {stats:?}");
    }

    #[test]
    fn a_star_has_two_listeners_and_user_uplinks_take_socket_faults() {
        // 64 users, two listeners: a user only dials. The chaos proxy on
        // user 63's uplink fragments every write and delivery still holds.
        let plan = FaultPlan::new(0).partial_writes(PartyId::User(63), PartyId::Server1);
        let mut net = Network::builder(64)
            .tcp(TcpConfig::fast_local())
            .faults(plan)
            .timeout(TimeoutPolicy::with_retries(Duration::from_millis(400), 2, 2.0))
            .build();
        let addrs = net.listener_addrs().expect("tcp backend");
        assert_eq!(addrs.len(), 2);
        assert!(addrs.contains_key(&PartyId::Server1) && addrs.contains_key(&PartyId::Server2));
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        let u = net.take_endpoint(PartyId::User(63));
        for i in 0..10u64 {
            u.send(PartyId::Server1, Step::SecureSumVotes, &(i * 17)).unwrap();
        }
        u.send(PartyId::Server2, Step::SecureSumVotes, &99u64).unwrap();
        for i in 0..10u64 {
            let v: u64 = s1.recv(PartyId::User(63), Step::SecureSumVotes).unwrap();
            assert_eq!(v, i * 17);
        }
        assert_eq!(s2.recv::<u64>(PartyId::User(63), Step::SecureSumVotes).unwrap(), 99);
    }
}
