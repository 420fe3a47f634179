//! Message-passing runtime for the private consensus protocol.
//!
//! The paper's prototype wires users and the two aggregation servers
//! together with `torch.distributed` `send`/`recv`, serializing ciphertexts
//! into tensors by segmentation (§VI-A). This crate plays that role for the
//! Rust reproduction:
//!
//! * [`wire`] — a compact length-prefixed binary codec for every message
//!   type the protocol exchanges (big integers, ciphertexts, share
//!   vectors, comparison rounds);
//! * [`network`] — the paper's star (N users who only send, two servers
//!   who also receive) with blocking typed send/receive over one of two
//!   interchangeable backends ([`TransportBackend`]): bounded in-process
//!   channels, or real loopback TCP sockets. Building one costs the same
//!   at any N: two inboxes, and a user's send-only endpoint on demand;
//! * [`tcp`] — the TCP backend: length-prefixed framing, a versioned
//!   session handshake, heartbeats with a liveness deadline, and
//!   reconnect-and-resume from the last acknowledged sequence number;
//! * [`session`] — session-tagged frames and the typed errors that
//!   answer the ones a session will not take, so one link can carry many
//!   concurrent consensus rounds (see `core::reactor`);
//! * [`proxy`] — a socket-level chaos proxy (mid-frame severs, stalled
//!   reads, fragmented writes) driven by [`FaultPlan`] socket faults;
//! * [`metrics`] — per-protocol-step counters of bytes, messages and wall
//!   time, split by link direction. These counters regenerate Table I
//!   (computation) and Table II (communication) of the paper.
//!
//! Link queues on both backends are *bounded*: a slow consumer blocks its
//! senders (recorded as backpressure on the [`Meter`]) instead of growing
//! an unbounded buffer.
//!
//! # Examples
//!
//! ```
//! use transport::network::{Network, PartyId};
//! use transport::metrics::Step;
//!
//! let mut net = Network::new(1); // one user + two servers
//! let user = net.take_endpoint(PartyId::User(0));
//! let mut s1 = net.take_endpoint(PartyId::Server1);
//!
//! std::thread::scope(|scope| {
//!     scope.spawn(move || {
//!         user.send(PartyId::Server1, Step::SecureSumVotes, &42u64).unwrap();
//!     });
//!     let v: u64 = s1.recv(PartyId::User(0), Step::SecureSumVotes).unwrap();
//!     assert_eq!(v, 42);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod faults;
pub mod journal;
mod link;
pub mod metrics;
pub mod network;
pub mod proxy;
pub mod session;
pub mod tcp;
pub mod wire;

pub use checkpoint::{
    Checkpoint, CheckpointError, CheckpointStore, FileCheckpointStore, MemoryCheckpointStore,
};
pub use faults::{FaultDecision, FaultPlan, SocketFault};
pub use journal::{AppendJournal, JournalRecord};
pub use metrics::{FaultEvent, FaultStats, LinkKind, Meter, MeterReport, Step};
pub use network::{
    Endpoint, Network, NetworkBuilder, PartyId, TimeoutPolicy, TransportBackend, TransportError,
};
pub use proxy::ChaosProxy;
pub use session::{SessionError, SessionFrame};
pub use tcp::TcpConfig;
pub use wire::{Wire, WireError};
