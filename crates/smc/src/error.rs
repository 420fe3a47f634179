//! Unified error type for SMC protocol runs.

use std::error::Error;
use std::fmt;

use crate::domain::SharesOutOfRange;
use crate::pack::PackError;

/// Errors surfaced while executing a secure sub-protocol.
#[derive(Debug)]
pub enum SmcError {
    /// The transport layer failed (disconnect, timeout, codec).
    Transport(transport::TransportError),
    /// A Paillier operation failed.
    Paillier(paillier::PaillierError),
    /// A DGK operation failed.
    Dgk(dgk::DgkError),
    /// A value escaped the configured share domain.
    Domain(SharesOutOfRange),
    /// A slot layout or a packed plaintext was refused (see
    /// [`crate::pack`]).
    Packing(PackError),
    /// The two parties' vector lengths disagree.
    LengthMismatch {
        /// Expected element count.
        expected: usize,
        /// Received element count.
        got: usize,
    },
    /// An uploaded Paillier ciphertext failed server-side validation:
    /// zero, not reduced modulo `n²`, or sharing a factor with `n`. Such
    /// a value is either garbage or an active probe; it is rejected
    /// before any homomorphic work touches it.
    InvalidCiphertext {
        /// Who uploaded the bad ciphertext.
        from: transport::PartyId,
        /// Position of the offending element in the uploaded vector.
        index: usize,
    },
    /// The same (sender, step, sequence) tuple was submitted twice.
    /// The transport already de-duplicates redelivered envelopes; this
    /// application-level guard catches a peer that *re-numbers* a replay.
    DuplicateSubmission {
        /// The replaying sender.
        from: transport::PartyId,
        /// The protocol step of the replay.
        step: transport::Step,
        /// The per-link sequence number seen twice.
        seq: u64,
    },
    /// Too few users survived a collection step to continue the round —
    /// the typed clean abort of the dropout-resilient path. Both servers
    /// reach this verdict from the same reconciled survivor set, so the
    /// protocol never releases a partial result.
    QuorumLost {
        /// The step at which the round was abandoned.
        step: transport::Step,
        /// How many users' contributions actually arrived at both servers.
        survivors: usize,
        /// The configured quorum the round needed.
        required: usize,
    },
}

impl fmt::Display for SmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmcError::Transport(e) => write!(f, "transport failure: {e}"),
            SmcError::Paillier(e) => write!(f, "paillier failure: {e}"),
            SmcError::Dgk(e) => write!(f, "dgk failure: {e}"),
            SmcError::Domain(e) => write!(f, "domain violation: {e}"),
            SmcError::Packing(e) => write!(f, "slot packing: {e}"),
            SmcError::LengthMismatch { expected, got } => {
                write!(f, "vector length mismatch: expected {expected}, got {got}")
            }
            SmcError::InvalidCiphertext { from, index } => {
                write!(f, "invalid ciphertext from {from:?} at index {index}")
            }
            SmcError::DuplicateSubmission { from, step, seq } => {
                write!(f, "duplicate submission from {from:?} at {step} (seq {seq})")
            }
            SmcError::QuorumLost { step, survivors, required } => {
                write!(f, "quorum lost at {step}: {survivors} survivors < {required} required")
            }
        }
    }
}

impl Error for SmcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SmcError::Transport(e) => Some(e),
            SmcError::Paillier(e) => Some(e),
            SmcError::Dgk(e) => Some(e),
            SmcError::Domain(e) => Some(e),
            SmcError::Packing(e) => Some(e),
            SmcError::LengthMismatch { .. }
            | SmcError::InvalidCiphertext { .. }
            | SmcError::DuplicateSubmission { .. }
            | SmcError::QuorumLost { .. } => None,
        }
    }
}

impl From<transport::TransportError> for SmcError {
    fn from(e: transport::TransportError) -> Self {
        SmcError::Transport(e)
    }
}

impl From<paillier::PaillierError> for SmcError {
    fn from(e: paillier::PaillierError) -> Self {
        SmcError::Paillier(e)
    }
}

impl From<dgk::DgkError> for SmcError {
    fn from(e: dgk::DgkError) -> Self {
        SmcError::Dgk(e)
    }
}

impl From<SharesOutOfRange> for SmcError {
    fn from(e: SharesOutOfRange) -> Self {
        SmcError::Domain(e)
    }
}

impl From<PackError> for SmcError {
    fn from(e: PackError) -> Self {
        SmcError::Packing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SmcError::LengthMismatch { expected: 3, got: 5 };
        assert!(e.to_string().contains("3"));
        assert!(e.source().is_none());
        let t: SmcError = transport::TransportError::Timeout(transport::PartyId::Server1).into();
        assert!(t.source().is_some());
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SmcError>();
    }
}
