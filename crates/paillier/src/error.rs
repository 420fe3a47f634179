//! Error type for Paillier operations.

use std::error::Error;
use std::fmt;

/// Errors returned by Paillier encryption, decryption and encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum PaillierError {
    /// The plaintext is not in the message space `Z_n`.
    MessageOutOfRange,
    /// The ciphertext is not in `Z_{n^2}` or shares a factor with `n`.
    MalformedCiphertext,
    /// A signed value does not fit the signed message window `(-n/2, n/2)`.
    SignedOverflow,
    /// Keys from different keypairs were mixed in one operation.
    KeyMismatch,
    /// A public key failed the checks of [`crate::PublicKey::from_parts`].
    MalformedKey,
}

impl fmt::Display for PaillierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaillierError::MessageOutOfRange => write!(f, "plaintext not in Z_n"),
            PaillierError::MalformedCiphertext => write!(f, "ciphertext not a unit of Z_n^2"),
            PaillierError::SignedOverflow => {
                write!(f, "signed value outside the (-n/2, n/2) window")
            }
            PaillierError::KeyMismatch => write!(f, "operation mixed keys of different keypairs"),
            PaillierError::MalformedKey => {
                write!(f, "public key is not an odd n > 1 with a unit 1 < hs < n^2")
            }
        }
    }
}

impl Error for PaillierError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        assert!(PaillierError::MessageOutOfRange.to_string().contains("Z_n"));
        assert!(PaillierError::SignedOverflow.to_string().contains("(-n/2, n/2)"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<PaillierError>();
    }
}
