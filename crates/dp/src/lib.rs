//! Differential-privacy toolkit for the private consensus protocol.
//!
//! Four concerns live here:
//!
//! * [`gaussian`] — Gaussian sampling (Box–Muller; the offline crate set
//!   has no `rand_distr`) and the *distributed* noise generation of §IV-D:
//!   each user contributes `N(0, σ²/(2|U|))` shares to each server so the
//!   aggregate noise is `N(0, σ²)` and no party ever sees it whole.
//! * [`rdp`] — Rényi-DP accounting: the Gaussian mechanism (Theorem 1),
//!   composition (Theorem 2), the protocol's Sparse Vector Technique
//!   curve `(α, 9α/2σ₁²)` (Lemma 1) and Report Noisy Max curve
//!   `(α, α/σ₂²)` (Lemma 2), and the conversion to `(ε, δ)`-DP with the
//!   closed-form optimum of Theorem 5.
//! * [`mechanisms`] — plaintext reference implementations of the noisy
//!   threshold test and noisy argmax used by Alg. 4/5, shared by the
//!   clear-path consensus engine and the secure path's noise generation.
//! * [`ledger`] — the crash-safe [`DurableRdpLedger`]: an append-only,
//!   fsynced journal of exactly-once per-round RDP charges that lets a
//!   restarted campaign daemon resume at the exact epsilon spent and
//!   refuse rounds whose worst-case spend would exceed the budget.
//!
//! # Examples
//!
//! ```
//! use dp::rdp::consensus_epsilon;
//!
//! // Theorem 5: the privacy of one consensus query at σ1 = σ2 = 20.
//! let eps = consensus_epsilon(20.0, 20.0, 1e-6);
//! assert!(eps > 0.0 && eps < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gaussian;
pub mod ledger;
pub mod mechanisms;
pub mod rdp;

pub use gaussian::{DistributedNoise, Gaussian};
pub use ledger::{DurableRdpLedger, LedgerError};
pub use rdp::{consensus_epsilon, LinearRdp};
