//! Session-tagged frames for multi-round links.
//!
//! One transport link historically carried exactly one consensus round.
//! The multi-session reactor (`core::reactor`) multiplexes *many*
//! concurrent rounds over shared infrastructure, so frames crossing the
//! gateway boundary carry an explicit session id:
//!
//! * [`SessionFrame`] — one protocol message tagged with the session it
//!   belongs to, the claimed `(from, to)` identities, the protocol
//!   [`Step`] and its canonical index within the session's upload. The
//!   payload is an opaque already-wire-encoded protocol message. The
//!   [`Wire`] codec caps declared lengths, and torn tails surface as
//!   typed errors, never panics.
//! * [`SessionError`] — what the reactor answers a frame it will not
//!   take: a session it does not know, bytes that do not decode, or a
//!   header that is not the one the session expects at that index.
//!   Always typed, never a panic, and never a silent drop the caller
//!   can't observe. The reactor keeps no queue in front of a session: a
//!   frame goes straight into the slot its index names.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::metrics::Step;
use crate::network::PartyId;
use crate::wire::{Wire, WireError};

/// Leading tag byte of every encoded [`SessionFrame`].
const TAG_SESSION_FRAME: u8 = 0x5A;

/// Upper bound on a declared frame length — matches the TCP backend's
/// sanity bound, far above any legitimate protocol message.
const MAX_FRAME: u32 = 1 << 28;

/// One session-tagged protocol message.
///
/// The payload is opaque to this layer: the reactor decodes it against
/// the step's expected message type once the frame reaches its session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionFrame {
    /// The session (concurrent round) this frame belongs to.
    pub session: u64,
    /// Claimed sender.
    pub from: PartyId,
    /// Claimed receiver.
    pub to: PartyId,
    /// The protocol step the payload belongs to.
    pub step: Step,
    /// Canonical index of this upload within its session: user-major in
    /// roster order, six frames per user (S1-bound votes, threshold,
    /// noisy shares, then the S2-bound three). Not a per-link counter.
    pub seq: u64,
    /// The wire-encoded protocol message.
    pub payload: Bytes,
}

impl Wire for SessionFrame {
    fn encode(&self, buf: &mut BytesMut) {
        TAG_SESSION_FRAME.encode(buf);
        self.session.encode(buf);
        self.from.encode(buf);
        self.to.encode(buf);
        self.step.encode(buf);
        self.seq.encode(buf);
        (self.payload.len() as u32).encode(buf);
        buf.put_slice(&self.payload);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let tag = u8::decode(buf)?;
        if tag != TAG_SESSION_FRAME {
            return Err(WireError::InvalidTag(tag));
        }
        let session = u64::decode(buf)?;
        let from = PartyId::decode(buf)?;
        let to = PartyId::decode(buf)?;
        let step = Step::decode(buf)?;
        let seq = u64::decode(buf)?;
        let len = u32::decode(buf)? as u64;
        if len > u64::from(MAX_FRAME) {
            return Err(WireError::LengthOverflow(len));
        }
        if (buf.remaining() as u64) < len {
            return Err(WireError::Truncated);
        }
        let payload = buf.slice(0..len as usize);
        buf.advance(len as usize);
        Ok(SessionFrame { session, from, to, step, seq, payload })
    }
}

/// Errors surfaced by the session layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A frame named a session id that was never admitted (or already
    /// finished).
    UnknownSession(u64),
    /// A frame failed to decode.
    Codec(WireError),
    /// A frame's `seq` is past the session's upload, or its
    /// `(from, to, step)` is not what the session expects at that index —
    /// a forged sender, a user off the roster, a renumbered frame.
    UnexpectedFrame {
        /// The session the frame named.
        session: u64,
        /// The index it claimed.
        seq: u64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownSession(id) => write!(f, "unknown session id {id}"),
            SessionError::Codec(e) => write!(f, "session frame codec error: {e}"),
            SessionError::UnexpectedFrame { session, seq } => {
                write!(f, "session {session} expects a different frame at index {seq}")
            }
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for SessionError {
    fn from(e: WireError) -> Self {
        SessionError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frame(session: u64, seq: u64, payload: Vec<u8>) -> SessionFrame {
        SessionFrame {
            session,
            from: PartyId::User(3),
            to: PartyId::Server1,
            step: Step::SecureSumVotes,
            seq,
            payload: Bytes::from(payload),
        }
    }

    #[test]
    fn session_frames_roundtrip_through_the_wire_codec() {
        for f in [
            frame(0, 1, vec![]),
            frame(7, 42, vec![1, 2, 3]),
            SessionFrame {
                session: u64::MAX,
                from: PartyId::Server2,
                to: PartyId::User(12345),
                step: Step::Restoration,
                seq: u64::MAX,
                payload: Bytes::from(vec![0u8; 64]),
            },
        ] {
            assert_eq!(SessionFrame::from_bytes(f.to_bytes()).unwrap(), f);
        }
    }

    #[test]
    fn garbage_payload_length_is_rejected_without_allocating() {
        let mut wire = frame(1, 2, vec![]).to_bytes().to_vec();
        let at = wire.len() - 4;
        wire[at..].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = SessionFrame::from_bytes(Bytes::from(wire)).unwrap_err();
        assert_eq!(err, WireError::LengthOverflow(u64::from(MAX_FRAME) + 1));
    }

    #[test]
    fn session_errors_render() {
        assert!(SessionError::UnknownSession(4).to_string().contains("unknown session id 4"));
        let forged = SessionError::UnexpectedFrame { session: 4, seq: 31 };
        assert!(forged.to_string().contains("index 31"));
        let codec = SessionError::from(WireError::Truncated);
        assert!(codec.source().is_some());
    }

    proptest! {
        #[test]
        fn arbitrary_session_frames_roundtrip(
            session in any::<u64>(),
            seq in any::<u64>(),
            user in 0usize..100_000,
            step_ord in 0u8..9,
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let f = SessionFrame {
                session,
                from: PartyId::User(user),
                to: PartyId::Server2,
                step: Step::from_ordinal(step_ord).unwrap(),
                seq,
                payload: Bytes::from(payload),
            };
            prop_assert_eq!(SessionFrame::from_bytes(f.to_bytes()).unwrap(), f);
        }

        #[test]
        fn cut_at_every_byte_boundary_is_a_typed_error(
            session in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let body = frame(session, 11, payload).to_bytes();
            for cut in 0..body.len() {
                let got = SessionFrame::from_bytes(body.slice(0..cut));
                prop_assert!(
                    matches!(got, Err(WireError::Truncated | WireError::InvalidTag(_))),
                    "cut {} of {} gave {:?}", cut, body.len(), got
                );
            }
        }
    }
}
