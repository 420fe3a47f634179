//! Secure multiparty sub-protocols of the private consensus scheme.
//!
//! Everything in this crate is a *two-server* (S1/S2) or *users + two
//! servers* interactive protocol, written sans-IO: each server's half is
//! a [`machine::Machine`] that asks its driver for frames and never
//! touches a [`transport`] endpoint itself:
//!
//! * [`machine`] — that shape, and an in-memory runner for a pair of
//!   machines;
//! * [`round`] — one server's whole round as one machine over the
//!   sub-protocols below;
//! * [`permutation`] — uniformly random permutations and their algebra;
//! * [`domain`] — the signed share/mask/comparison bit-width bookkeeping
//!   that keeps every value inside the cryptosystems' plaintext windows;
//! * [`session`] — key material and per-party contexts (who holds which
//!   Paillier key, who evaluates DGK);
//! * [`secure_sum`] — step 2/6 of Alg. 5: users upload encrypted additive
//!   shares, servers aggregate homomorphically;
//! * [`shard`] — hierarchical sharded streaming aggregation: the
//!   deterministic shard plan, running partial-sum accumulators, and the
//!   sorted-merge survivor intersection that keep server memory bounded
//!   by shard geometry instead of |U|;
//! * [`pack`] — the slot layout that lets one Paillier plaintext carry a
//!   whole masked vector, so each decrypting leg of Alg. 2 and Alg. 3 is
//!   one decryption;
//! * [`blind_permute`] — Alg. 2, the Blind-and-Permute protocol;
//! * [`compare`] — the DGK comparison of §III-B run over channels between
//!   the servers: any number of matches per three-message round, the
//!   threshold check (step 5) being the one-match round;
//! * [`bracket`] — the secure argmax (step 4/8) in the permuted domain: a
//!   knock-out bracket of `K−1` comparisons in `⌈log₂K⌉` such rounds;
//! * [`restoration`] — Alg. 3, recovering the true label index of a
//!   permuted position;
//! * [`state`] — the serializable per-step round state machine behind
//!   crash recovery (checkpointed through [`transport::checkpoint`]);
//! * [`validate`] — adversarial validation of inbound uploads
//!   (ciphertext well-formedness, arity, replay freshness).
//!
//! Each protocol has a deterministic plaintext *reference model* used by
//! tests to pin the secure execution to its specification.
//!
//! The threat model is the paper's and only the paper's: two
//! honest-but-curious, non-colluding servers (DESIGN.md §11). Bytes from
//! the network are validated and fail typed; a server that *deviates* is
//! out of scope, and nothing here claims to catch one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blind_permute;
pub mod bracket;
pub mod compare;
mod costs;
pub mod domain;
mod error;
pub mod machine;
pub mod pack;
pub mod permutation;
pub mod restoration;
pub mod round;
pub mod secure_sum;
pub mod session;
pub mod shard;
pub mod state;
pub mod validate;

pub use domain::{ShareDomain, SharesOutOfRange};
pub use error::SmcError;
pub use machine::{run_pair, Machine};
pub use pack::PackError;
pub use parallel::Parallelism;
pub use permutation::Permutation;
pub use round::ServerRound;
pub use session::{ServerContext, ServerRole, SessionConfig, SessionKeys, UserContext};
pub use shard::{ShardAccumulator, ShardConfig, ShardPlan};
pub use state::RoundState;
pub use validate::UploadValidator;
