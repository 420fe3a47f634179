//! The sans-IO shape every interactive sub-protocol in this crate has.
//!
//! Steps 3–9 of Alg. 5 are a strict alternation between S1 and S2, so a
//! server's half of a sub-protocol is written as a [`Machine`]: a value
//! that is *resumed* with the answer to its last request — nothing at
//! the start, the `(seq, payload)` of the frame it asked for, or the
//! [`TransportError`] that receive ended in — and runs to its next
//! request: frames to send, the one frame it needs next, or its output.
//! A machine holds no endpoint, thread, clock or meter; key material is
//! lent to it on every resume. Whoever drives it (the round loop in
//! `consensus-core` over real [`transport`] endpoints, or [`run_pair`]
//! in memory) owns the IO: it sends what the [`Outbox`] holds, counts
//! its events on the meter, and performs the receive.
//!
//! A lost frame is an *input*: resilient collection turns a timed-out
//! upload into a dropout, everything else fails the round with the typed
//! error.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use transport::{FaultEvent, PartyId, Step, TransportError, Wire};

use crate::error::SmcError;
use crate::session::{ServerContext, ServerRole};

/// How a requested receive ended: the frame's per-link sequence number
/// and payload, or the transport failure.
pub type Inbound = Result<(u64, Bytes), TransportError>;

/// A frame a machine wants sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbound {
    /// The destination.
    pub to: PartyId,
    /// The step tag.
    pub step: Step,
    /// The encoded frame that goes on the wire.
    pub payload: Bytes,
}

/// The one frame a machine needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recv {
    /// Who sends it.
    pub from: PartyId,
    /// Its step tag.
    pub step: Step,
    /// `None` waits under the link's own receive policy; `Some(n)` waits
    /// one window of `n` whole receive budgets — a peer that may itself
    /// be timing out up to `n − 1` receives first is slow, not dead.
    pub patience: Option<u32>,
}

/// Where a resumed machine stopped.
#[derive(Debug)]
pub enum Next<O> {
    /// It needs this frame; resume it with how the receive ended.
    Recv(Recv),
    /// It finished with this output.
    Done(O),
}

impl<O> Next<O> {
    /// Maps a finished machine's output and keeps a request as it is.
    pub fn map<U>(self, f: impl FnOnce(O) -> U) -> Next<U> {
        match self {
            Next::Recv(recv) => Next::Recv(recv),
            Next::Done(output) => Next::Done(f(output)),
        }
    }
}

/// Everything a resume hands its driver besides [`Next`]. It is passed
/// in rather than returned so that what was emitted before an error — a
/// rejection counter — still reaches the meter.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Frames to send, in order.
    pub frames: Vec<Outbound>,
    /// Reliability events to count.
    pub events: Vec<FaultEvent>,
}

impl Outbox {
    /// Queues `value` for `to`.
    pub fn send<T: Wire>(&mut self, to: PartyId, step: Step, value: &T) {
        self.frames.push(Outbound { to, step, payload: value.to_bytes() });
    }
}

/// One server's half of an interactive sub-protocol. See the
/// [module docs](self).
pub trait Machine {
    /// What the half computes.
    type Output;

    /// Runs to the next request. `answer` is `None` on the first call
    /// and afterwards how the receive requested by the previous call
    /// ended.
    ///
    /// # Errors
    ///
    /// The sub-protocol's typed failure; the machine is dead afterwards.
    ///
    /// # Panics
    ///
    /// Panics if resumed after it finished or failed, or without the
    /// answer it asked for — driver bugs.
    fn resume(
        &mut self,
        ctx: &ServerContext,
        answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<Self::Output>, SmcError>;
}

/// The other server.
pub fn peer_of(role: ServerRole) -> PartyId {
    match role {
        ServerRole::Server1 => PartyId::Server2,
        ServerRole::Server2 => PartyId::Server1,
    }
}

/// `role` as a network party.
pub fn party_of(role: ServerRole) -> PartyId {
    match role {
        ServerRole::Server1 => PartyId::Server1,
        ServerRole::Server2 => PartyId::Server2,
    }
}

/// A request for the peer server's next `step` frame.
pub(crate) fn from_peer<O>(ctx: &ServerContext, step: Step) -> Next<O> {
    Next::Recv(Recv { from: peer_of(ctx.role()), step, patience: None })
}

/// Decodes the frame a machine was resumed with.
pub(crate) fn decode<T: Wire>(answer: Option<Inbound>) -> Result<T, SmcError> {
    let (_, payload) = answer.expect("resumed without the requested frame")?;
    Ok(T::from_bytes(payload).map_err(TransportError::from)?)
}

pub(crate) fn expect_len(expected: usize, got: usize) -> Result<(), SmcError> {
    if got == expected {
        Ok(())
    } else {
        Err(SmcError::LengthMismatch { expected, got })
    }
}

/// One frame of a [`run_pair`] transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The sender.
    pub from: PartyId,
    /// The destination.
    pub to: PartyId,
    /// The step tag.
    pub step: Step,
    /// The encoded frame.
    pub payload: Bytes,
}

/// Frames waiting for one server, FIFO per `(sender, step)` stream as
/// on a real link.
#[derive(Debug, Default)]
struct Inbox {
    streams: HashMap<(PartyId, Step), VecDeque<(u64, Bytes)>>,
    next_seq: HashMap<PartyId, u64>,
}

impl Inbox {
    fn push(&mut self, from: PartyId, step: Step, payload: Bytes) {
        let seq = self.next_seq.entry(from).or_insert(0);
        *seq += 1;
        self.streams.entry((from, step)).or_default().push_back((*seq, payload));
    }

    fn pop(&mut self, recv: &Recv) -> Option<(u64, Bytes)> {
        self.streams.get_mut(&(recv.from, recv.step))?.pop_front()
    }
}

/// What [`run_pair`] hands back.
#[derive(Debug)]
pub struct PairRun<A, B> {
    /// S1's and S2's outputs.
    pub outputs: (A, B),
    /// Every server↔server frame, in the order it was emitted.
    pub transcript: Vec<Frame>,
    /// Every reliability event either machine emitted.
    pub events: Vec<FaultEvent>,
}

/// Runs S1's machine `a` against S2's machine `b` in memory — the whole
/// network of a unit test. `uploads` are the user frames waiting for the
/// servers; each link numbers its frames from 1 in the given order.
///
/// There is no clock: a frame that does not exist is a timeout. A user
/// frame that was never uploaded answers its request with
/// [`TransportError::Timeout`] at once, and so does a server frame once
/// neither machine can run.
///
/// # Errors
///
/// The first error either machine returns.
pub fn run_pair<A: Machine, B: Machine>(
    a: (&ServerContext, A),
    b: (&ServerContext, B),
    uploads: Vec<Frame>,
) -> Result<PairRun<A::Output, B::Output>, SmcError> {
    run_pair_lossy(a, b, uploads, |_, _| false)
}

/// [`run_pair`] over a lossy network: `lose(receiver, n)` decides
/// whether the receiver's `n`-th request (from 0) ends in a timeout
/// instead of being served.
///
/// # Errors
///
/// The first error either machine returns.
pub fn run_pair_lossy<A: Machine, B: Machine>(
    (ctx_a, mut a): (&ServerContext, A),
    (ctx_b, mut b): (&ServerContext, B),
    uploads: Vec<Frame>,
    mut lose: impl FnMut(ServerRole, usize) -> bool,
) -> Result<PairRun<A::Output, B::Output>, SmcError> {
    let mut inboxes = [Inbox::default(), Inbox::default()];
    let side_of = |party| match party {
        PartyId::Server1 => 0,
        PartyId::Server2 => 1,
        PartyId::User(_) => panic!("servers send only to each other"),
    };
    for frame in uploads {
        inboxes[side_of(frame.to)].push(frame.from, frame.step, frame.payload);
    }
    let (mut transcript, mut events) = (Vec::new(), Vec::new());
    let mut waiting: [Option<Recv>; 2] = [None, None];
    let mut requests = [0usize; 2];
    let (mut out_a, mut out_b) = (None, None);
    // Set once a whole pass made no progress: the next unserved
    // server-link request is answered with a timeout.
    let mut starve = false;
    loop {
        let mut progressed = false;
        for side in [0, 1] {
            let role = [ServerRole::Server1, ServerRole::Server2][side];
            if [out_a.is_some(), out_b.is_some()][side] {
                continue;
            }
            let answer = match waiting[side] {
                None => None,
                Some(recv) => {
                    let lost = lose(role, requests[side] - 1);
                    let frame = if lost { None } else { inboxes[side].pop(&recv) };
                    match frame {
                        Some(frame) => Some(Ok(frame)),
                        None if lost || starve || matches!(recv.from, PartyId::User(_)) => {
                            starve = false;
                            Some(Err(TransportError::Timeout(recv.from)))
                        }
                        None => continue,
                    }
                }
            };
            progressed = true;
            requests[side] += 1;
            let mut out = Outbox::default();
            let next = if side == 0 {
                a.resume(ctx_a, answer, &mut out).map(|next| next.map(|done| out_a = Some(done)))
            } else {
                b.resume(ctx_b, answer, &mut out).map(|next| next.map(|done| out_b = Some(done)))
            };
            events.append(&mut out.events);
            waiting[side] = match next? {
                Next::Recv(recv) => Some(recv),
                Next::Done(()) => None,
            };
            for Outbound { to, step, payload } in out.frames {
                inboxes[side_of(to)].push(party_of(role), step, payload.clone());
                transcript.push(Frame { from: party_of(role), to, step, payload });
            }
        }
        if out_a.is_some() && out_b.is_some() {
            let outputs = out_a.zip(out_b).expect("both finished");
            return Ok(PairRun { outputs, transcript, events });
        }
        starve = !progressed;
    }
}
