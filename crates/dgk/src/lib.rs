//! The DGK (Damgård–Geisler–Krøigaard) cryptosystem and the two-party
//! secure comparison protocol built on it.
//!
//! DGK is a homomorphic encryption scheme with a deliberately *small*
//! plaintext space `Z_u` (`u` a small prime), which makes its signature
//! operation — testing whether a ciphertext encrypts zero — cheap for the
//! private-key holder. That zero test is exactly what the bitwise secure
//! comparison protocol of Damgård, Geisler and Krøigaard ("Efficient and
//! Secure Comparison for On-Line Auctions", ACISP 2007, with the 2009
//! correction) needs: party A holds a private `ℓ`-bit integer `a`, party B
//! holds `b` and the DGK private key, and at the end both learn the single
//! bit `a > b` and nothing else.
//!
//! The private consensus protocol (paper §IV) invokes this comparison in
//! three places: the vote-ranking bracket (step 4), the noisy threshold
//! check (step 5), and the noisy re-ranking (step 8).
//!
//! # Examples
//!
//! ```
//! use dgk::{DgkKeypair, DgkParams, comparison};
//!
//! let mut rng = rand::thread_rng();
//! let params = DgkParams::insecure_test(); // small, fast parameters
//! let keys = DgkKeypair::generate(&mut rng, &params);
//!
//! // In-memory reference run of the comparison (the transport-layer
//! // version lives in the `smc` crate).
//! let gt = comparison::compare_gt_plain(57, 31, &keys, &mut rng).unwrap();
//! assert!(gt);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparison;
mod error;
mod keys;

pub use error::DgkError;
pub use keys::{DgkCiphertext, DgkKeypair, DgkParams, DgkPrivateKey, DgkPublicKey};
