//! The Paillier additively homomorphic cryptosystem, as used by the private
//! consensus protocol for blind vote aggregation.
//!
//! Paillier encryption operates on plaintexts in `Z_n` and exposes two
//! homomorphic identities (Eqn. 1–2 of the paper):
//!
//! * `E[m1] * E[m2] = E[m1 + m2]` — ciphertext product adds plaintexts;
//! * `E[m]^a = E[a * m]` — ciphertext power scales the plaintext.
//!
//! The paper's prototype uses a 64-bit modulus; key size is configurable via
//! [`Keypair::generate`]. On top of the raw scheme this crate layers
//! [`SignedCodec`] — two's-complement-style encoding of signed integers
//! into `Z_n`, needed because protocol shares are signed.
//!
//! # Examples
//!
//! ```
//! use paillier::Keypair;
//!
//! let mut rng = rand::thread_rng();
//! let keypair = Keypair::generate(&mut rng, 64);
//! let (pk, sk) = keypair.split();
//!
//! let c1 = pk.encrypt_u64(20, &mut rng);
//! let c2 = pk.encrypt_u64(22, &mut rng);
//! let sum = pk.add(&c1, &c2);
//! assert_eq!(sk.decrypt_u64(&sum), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ciphertext;
mod error;
mod keys;
mod signed;

pub use ciphertext::Ciphertext;
pub use error::PaillierError;
pub use keys::{Keypair, PrivateKey, PublicKey};
pub use signed::SignedCodec;

/// Default modulus size in bits, matching the paper's prototype ("The
/// Paillier crypto primitive has a key size of 64 bit", §VI-A).
///
/// This is a *reproduction* default — far below cryptographic strength.
/// Production deployments should use 2048-bit or larger moduli, which this
/// implementation supports.
pub const DEFAULT_KEY_BITS: u64 = 64;
