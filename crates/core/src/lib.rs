//! **Private consensus for privacy-preserving decentralized learning** —
//! a Rust reproduction of the ICDCS 2020 paper.
//!
//! `|U|` users each train a teacher model on private data; an aggregator
//! labels public instances by the teachers' majority vote — but only when
//! a *noisy* vote count clears a threshold, and revealing nothing except
//! the winning label. The pieces:
//!
//! * [`config`] — protocol configuration: threshold fraction, noise
//!   scales `(σ₁, σ₂)`, vote kind (one-hot vs softmax), fixed-point
//!   scaling;
//! * [`algorithms`] — the paper's plaintext algorithms: Alg. 1
//!   (Aggregation of Teacher Ensembles), Alg. 4 (its differentially
//!   private version), and the *baseline* of §VI-C (noisy max without
//!   threshold);
//! * [`clear`] — the clear fast path of Alg. 5: identical decision
//!   function, distributed noise and fixed-point arithmetic, but without
//!   the cryptography — used by the large accuracy sweeps;
//! * [`secure`] — the full Alg. 5: users secret-share votes to two
//!   servers, which run secure sum, Blind-and-Permute, DGK comparisons,
//!   threshold check and Restoration over real channels;
//! * [`recovery`] — crash-recoverable rounds: durable per-step
//!   checkpoints, a resuming round supervisor, and exactly-once RDP
//!   accounting across resumptions;
//! * [`reactor`] — the multi-session consensus reactor: each round as a
//!   state machine fed session-tagged frames it checks one by one, a
//!   fair round-robin scheduler with admission control, deadline
//!   watchdogs and overload shedding, with per-session fault isolation;
//! * [`campaign`] — budget-gated labeling campaigns: the durable
//!   [`CampaignRunner`] daemon with its crash-safe RDP ledger, roster
//!   churn, and per-round cost telemetry;
//! * [`pipeline`] — end-to-end experiment drivers (teachers → consensus
//!   labeling → student) for the single-label and multi-label workloads.
//!
//! # Examples
//!
//! ```
//! use consensus_core::algorithms::private_aggregate;
//! use consensus_core::config::ConsensusConfig;
//!
//! let mut rng = rand::thread_rng();
//! let config = ConsensusConfig::new(0.6, 1e-9, 1e-9); // negligible noise
//! // 10 users, 3 classes, 8 votes for class 1.
//! let counts = [1.0, 8.0, 1.0];
//! let out = private_aggregate(&counts, 10, &config, &mut rng);
//! assert_eq!(out, Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod campaign;
pub mod clear;
pub mod config;
pub mod pipeline;
pub mod reactor;
pub mod recovery;
pub mod secure;

pub use campaign::{
    CampaignConfig, CampaignError, CampaignReport, CampaignRunner, CampaignStall, CampaignStop,
    RosterChange, RosterEvent, RoundCost,
};
pub use config::{ConsensusConfig, VoteKind};
pub use pipeline::{ExperimentOutcome, LabelingMode};
pub use reactor::{
    Reactor, ReactorConfig, RejectReason, SessionMachine, SessionRejected, SessionResult,
};
pub use recovery::{RdpLedger, RoundSupervisor};
pub use secure::{ConsensusFingerprint, RoundHealth, SecureEngine, SecureOutcome, SecureWitness};
