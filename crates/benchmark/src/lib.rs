//! The repo benchmark: four named workloads, user/server-split
//! end-to-end metrics, and a per-layer traced run.
//!
//! `crates/benchmark/run.sh` is the one command; this library is what
//! its binary is made of, split so `cargo test` can exercise the pieces:
//!
//! * [`catalogue`] — the workload and metric tables (the single source
//!   `BENCHMARK.json` is generated from) and their validation rules;
//! * [`stats`] — the floor estimator, percentiles, and the "highest
//!   percentile with ≥ 10 samples beyond it" rule;
//! * [`trace`] — the in-memory span recorder and self-time arithmetic;
//! * [`workloads`] — the two drivers (reactor waves, durable campaigns)
//!   and the output checks every operation goes through;
//! * [`probes`] — direct timings of each layer's public functions at the
//!   workload's key sizes;
//! * [`sys`] — `/proc` readers (peak RSS, CPU time, thread spawns);
//! * [`report`] — metric aggregation and the result line;
//! * [`runner`] — one pass of one workload, end to end.
//!
//! The harness drives the system only through entry points the root
//! `tests/*.rs` and `examples/*.rs` already use; see the README's
//! allowed-API rule before adding a call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod probes;
pub mod report;
pub mod runner;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
