//! Arbitrary-precision integer arithmetic, built from scratch as the
//! number-theoretic substrate for the Paillier and DGK cryptosystems used by
//! the private consensus protocol.
//!
//! The crate provides:
//!
//! * [`Ubig`] — an arbitrary-precision unsigned integer backed by 64-bit
//!   limbs, with schoolbook multiplication and Knuth Algorithm D division.
//! * [`Ibig`] — a signed wrapper (sign + magnitude) used by the extended
//!   Euclidean algorithm and by protocols that manipulate signed shares.
//! * [`modular`] — modular addition, subtraction, multiplication,
//!   exponentiation and inversion.
//! * [`prime`] — Miller–Rabin primality testing and random prime generation.
//! * [`random`] — uniform sampling of big integers below a bound or with a
//!   fixed bit length.
//!
//! # Examples
//!
//! ```
//! use bigint::{Ubig, modular};
//!
//! let p = Ubig::from(101u64);
//! let a = Ubig::from(7u64);
//! // 7^100 mod 101 == 1 by Fermat's little theorem.
//! assert_eq!(modular::modpow(&a, &Ubig::from(100u64), &p), Ubig::one());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod add_sub;
mod div;
mod error;
mod fmt;
mod ibig;
mod kernel;
mod mul;
mod shift;
mod ubig;

pub mod gcd;
pub mod modular;
pub mod montgomery;
pub mod prime;
pub mod random;

pub use error::ParseBigIntError;
pub use ibig::{Ibig, Sign};
pub use ubig::Ubig;

/// Number of bits in one limb of a [`Ubig`].
pub const LIMB_BITS: u32 = 64;

/// One limb of a [`Ubig`]: the machine word the representation is built on.
pub type Limb = u64;

/// Two limbs wide; used internally for carries and products.
pub(crate) type DoubleLimb = u128;
