//! The Paillier ciphertext newtype.

use bigint::Ubig;

/// An element of `Z_{n²}` produced by Paillier encryption.
///
/// The newtype prevents ciphertexts from being confused with plaintext
/// big integers in protocol code. All homomorphic operations live on
/// [`crate::PublicKey`]; a ciphertext by itself is inert.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ciphertext(Ubig);

impl Ciphertext {
    /// Wraps a raw group element. Callers are responsible for it being a
    /// valid ciphertext under the intended key; decryption validates.
    pub fn from_raw(value: Ubig) -> Self {
        Ciphertext(value)
    }

    /// Borrow the raw group element.
    pub fn as_raw(&self) -> &Ubig {
        &self.0
    }

    /// Consumes `self`, returning the raw group element.
    pub fn into_raw(self) -> Ubig {
        self.0
    }

    /// Serialized size in bytes (little-endian, minimal) — used by the
    /// transport layer for communication accounting.
    pub fn byte_len(&self) -> usize {
        self.0.to_le_bytes().len()
    }
}

impl From<Ciphertext> for Ubig {
    fn from(c: Ciphertext) -> Ubig {
        c.into_raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        let v = Ubig::from(0xdeadu64);
        let c = Ciphertext::from_raw(v.clone());
        assert_eq!(c.as_raw(), &v);
        assert_eq!(Ubig::from(c), v);
    }

    #[test]
    fn byte_len_tracks_magnitude() {
        assert_eq!(Ciphertext::from_raw(Ubig::zero()).byte_len(), 0);
        assert_eq!(Ciphertext::from_raw(Ubig::from(0xffffu64)).byte_len(), 2);
    }
}
