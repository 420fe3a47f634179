//! Per-step communication and computation accounting.
//!
//! Every protocol message is tagged with the [`Step`] of Alg. 5 it belongs
//! to; the [`Meter`] aggregates bytes and message counts per step and link
//! direction (user→server vs server↔server), plus wall-clock time per
//! step. [`MeterReport`] renders the same rows as the paper's Table I
//! (computational costs) and Table II (communication costs).
//!
//! The meter is shared by every endpoint and, since the data-parallel
//! engine landed, by every worker thread inside a single endpoint's hot
//! loops. Counters are therefore plain relaxed atomics over fixed
//! `Step × LinkKind` arrays — recording never takes a lock and never
//! allocates, so metering adds no serialization point to parallel
//! sections.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The protocol step a message or timing belongs to, named and numbered as
/// in Alg. 5 of the paper (and Tables I/II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Step {
    /// Key distribution and session setup (not in the paper's tables).
    Setup,
    /// Step 2 — users send encrypted vote shares; servers aggregate.
    SecureSumVotes,
    /// Step 3 — first Blind-and-Permute over the aggregated shares.
    BlindPermute1,
    /// Step 4 — the DGK comparison bracket that finds `π(i*)`.
    CompareRank,
    /// Step 5 — DGK threshold check of the noisy maximum.
    ThresholdCheck,
    /// Step 6 — users send noisy shares for Report Noisy Max.
    SecureSumNoisy,
    /// Step 7 — second Blind-and-Permute.
    BlindPermute2,
    /// Step 8 — the DGK comparison bracket on noisy votes that finds `π′(ĩ*)`.
    CompareNoisyRank,
    /// Step 9 — Restoration of the winning index.
    Restoration,
}

impl Step {
    /// All steps in protocol order.
    pub const ALL: [Step; 9] = [
        Step::Setup,
        Step::SecureSumVotes,
        Step::BlindPermute1,
        Step::CompareRank,
        Step::ThresholdCheck,
        Step::SecureSumNoisy,
        Step::BlindPermute2,
        Step::CompareNoisyRank,
        Step::Restoration,
    ];

    /// Dense index into the meter's per-step counter arrays.
    const fn index(self) -> usize {
        match self {
            Step::Setup => 0,
            Step::SecureSumVotes => 1,
            Step::BlindPermute1 => 2,
            Step::CompareRank => 3,
            Step::ThresholdCheck => 4,
            Step::SecureSumNoisy => 5,
            Step::BlindPermute2 => 6,
            Step::CompareNoisyRank => 7,
            Step::Restoration => 8,
        }
    }

    /// Position of this step in [`Step::ALL`] — a dense, stable ordinal
    /// also used as the step's wire tag in checkpoint records.
    pub const fn ordinal(self) -> u8 {
        self.index() as u8
    }

    /// Inverse of [`Step::ordinal`]: `None` if `tag` is out of range.
    pub fn from_ordinal(tag: u8) -> Option<Step> {
        Step::ALL.get(tag as usize).copied()
    }

    /// The step number used in Alg. 5 / Tables I-II, or `None` for setup.
    pub fn paper_number(&self) -> Option<u8> {
        match self {
            Step::Setup => None,
            Step::SecureSumVotes => Some(2),
            Step::BlindPermute1 => Some(3),
            Step::CompareRank => Some(4),
            Step::ThresholdCheck => Some(5),
            Step::SecureSumNoisy => Some(6),
            Step::BlindPermute2 => Some(7),
            Step::CompareNoisyRank => Some(8),
            Step::Restoration => Some(9),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Step::Setup => "Setup",
            Step::SecureSumVotes => "Secure Sum",
            Step::BlindPermute1 => "Blind-and-Permute",
            Step::CompareRank => "Secure Comparison",
            Step::ThresholdCheck => "Threshold Checking",
            Step::SecureSumNoisy => "Secure Sum",
            Step::BlindPermute2 => "Blind-and-Permute",
            Step::CompareNoisyRank => "Secure Comparison",
            Step::Restoration => "Restoration",
        };
        match self.paper_number() {
            Some(n) => write!(f, "{name} ({n})"),
            None => write!(f, "{name}"),
        }
    }
}

/// Which kind of link carried a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkKind {
    /// A user sending to one of the servers.
    UserToServer,
    /// Server-to-server traffic.
    ServerToServer,
    /// A server replying to a user (rare in this protocol).
    ServerToUser,
}

impl LinkKind {
    /// All link kinds, in counter-array order.
    const ALL: [LinkKind; 3] =
        [LinkKind::UserToServer, LinkKind::ServerToServer, LinkKind::ServerToUser];

    /// Dense index into the meter's per-link counter arrays.
    const fn index(self) -> usize {
        match self {
            LinkKind::UserToServer => 0,
            LinkKind::ServerToServer => 1,
            LinkKind::ServerToUser => 2,
        }
    }
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkKind::UserToServer => write!(f, "user-to-server"),
            LinkKind::ServerToServer => write!(f, "server-to-server"),
            LinkKind::ServerToUser => write!(f, "server-to-user"),
        }
    }
}

/// Byte/message counters for one (step, link) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Number of messages sent.
    pub messages: u64,
    /// Total payload bytes.
    pub bytes: u64,
}

/// A reliability event observed by an endpoint.
///
/// Injected events come from an attached [`crate::faults::FaultPlan`];
/// detected/observed events come from the receive path regardless of
/// whether a plan is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultEvent {
    /// A receive exhausted every retry window.
    Timeout,
    /// A receive window expired and an extended (retry) window began.
    Retry,
    /// The plan discarded a sent message.
    DropInjected,
    /// The plan attached a delivery delay to a sent message.
    DelayInjected,
    /// The plan enqueued an extra copy of a sent message.
    DuplicateInjected,
    /// The receiver's dedup layer discarded a duplicate frame.
    DuplicateSuppressed,
    /// The plan flipped payload bits in a sent message.
    CorruptionInjected,
    /// A frame checksum mismatch was caught on receive.
    CorruptionDetected,
    /// A crashed party attempted a send (silently discarded).
    CrashedSend,
    /// A round state snapshot was written to a checkpoint store.
    CheckpointSaved,
    /// A round state snapshot was restored from a checkpoint store.
    CheckpointRestored,
    /// A supervised round was resumed from a checkpoint after a failure.
    RoundResumed,
    /// An inbound Paillier ciphertext failed well-formedness validation.
    RejectedCiphertext,
    /// An inbound share vector had the wrong arity for the session.
    RejectedArity,
    /// An inbound (sender, step, seq) submission was already processed.
    RejectedDuplicate,
    /// A send found its bounded link queue full and had to block until
    /// the consumer made room (backpressure, not loss).
    BackpressureBlocked,
    /// A connected peer went silent past the liveness deadline and was
    /// declared dead (the receive fails over to the dropout path).
    LivenessExpired,
    /// A severed socket link was re-established and resumed from the
    /// last acknowledged sequence number.
    Reconnected,
    /// A planned aggregation shard lost its *entire* membership: every
    /// member dropped before reconciliation, and the round degraded to
    /// the surviving shards with rescaled noise instead of aborting.
    ShardDropped,
    /// A reactor admitted a new concurrent consensus session.
    SessionAdmitted,
    /// A reactor refused a new session (capacity cap or privacy budget)
    /// with a typed `SessionRejected` instead of queueing it.
    SessionRejected,
    /// A reactor evicted a stalled session whose per-session deadline
    /// passed, failing it over to the dropout/`QuorumLost` path without
    /// touching its neighbors.
    SessionEvicted,
}

/// Totals of reliability events, one counter per [`FaultEvent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Receives that exhausted every retry window.
    pub timeouts: u64,
    /// Extended receive windows consumed.
    pub retries: u64,
    /// Messages discarded by the fault plan.
    pub drops_injected: u64,
    /// Messages delayed by the fault plan.
    pub delays_injected: u64,
    /// Extra copies enqueued by the fault plan.
    pub duplicates_injected: u64,
    /// Duplicate frames discarded by receivers.
    pub duplicates_suppressed: u64,
    /// Payloads corrupted by the fault plan.
    pub corruptions_injected: u64,
    /// Checksum mismatches caught by receivers.
    pub corruptions_detected: u64,
    /// Sends attempted by crashed parties.
    pub crashed_sends: u64,
    /// Round state snapshots written to a checkpoint store.
    pub checkpoints_saved: u64,
    /// Round state snapshots restored from a checkpoint store.
    pub checkpoints_restored: u64,
    /// Supervised rounds resumed from a checkpoint after a failure.
    pub rounds_resumed: u64,
    /// Inbound ciphertexts rejected by well-formedness validation.
    pub rejected_ciphertexts: u64,
    /// Inbound share vectors rejected for wrong arity.
    pub rejected_arity: u64,
    /// Inbound submissions rejected as (sender, step, seq) duplicates.
    pub rejected_duplicates: u64,
    /// Sends that blocked on a full bounded link queue.
    pub backpressure_blocked: u64,
    /// Peers declared dead after going silent past the liveness deadline.
    pub liveness_expired: u64,
    /// Socket links re-established after a connection loss.
    pub reconnects: u64,
    /// Aggregation shards whose entire membership dropped mid-round
    /// (the round completed on the surviving shards).
    pub shards_dropped: u64,
    /// Concurrent consensus sessions admitted by a reactor.
    pub sessions_admitted: u64,
    /// Sessions refused at admission (capacity cap or privacy budget).
    pub sessions_rejected: u64,
    /// Stalled sessions evicted by a per-session deadline watchdog.
    pub sessions_evicted: u64,
}

impl FaultEvent {
    /// Dense index into the meter's fault-counter array.
    const fn index(self) -> usize {
        match self {
            FaultEvent::Timeout => 0,
            FaultEvent::Retry => 1,
            FaultEvent::DropInjected => 2,
            FaultEvent::DelayInjected => 3,
            FaultEvent::DuplicateInjected => 4,
            FaultEvent::DuplicateSuppressed => 5,
            FaultEvent::CorruptionInjected => 6,
            FaultEvent::CorruptionDetected => 7,
            FaultEvent::CrashedSend => 8,
            FaultEvent::CheckpointSaved => 9,
            FaultEvent::CheckpointRestored => 10,
            FaultEvent::RoundResumed => 11,
            FaultEvent::RejectedCiphertext => 12,
            FaultEvent::RejectedArity => 13,
            FaultEvent::RejectedDuplicate => 14,
            FaultEvent::BackpressureBlocked => 15,
            FaultEvent::LivenessExpired => 16,
            FaultEvent::Reconnected => 17,
            FaultEvent::ShardDropped => 18,
            FaultEvent::SessionAdmitted => 19,
            FaultEvent::SessionRejected => 20,
            FaultEvent::SessionEvicted => 21,
        }
    }
}

/// Number of [`FaultEvent`] variants (fault-counter array length).
const FAULT_KINDS: usize = 22;

impl FaultStats {
    /// True if no event was ever recorded.
    pub fn is_empty(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Wall-clock totals for one step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeStats {
    /// Accumulated duration across all recorded spans.
    pub total: Duration,
    /// Number of recorded spans.
    pub spans: u64,
}

/// Message/byte counters for one (step, link) cell.
#[derive(Default)]
struct CommCell {
    messages: AtomicU64,
    bytes: AtomicU64,
}

/// Wall-clock counters for one step.
#[derive(Default)]
struct TimeCell {
    nanos: AtomicU64,
    spans: AtomicU64,
}

/// Thread-safe accumulator shared by all endpoints of a [`crate::Network`].
///
/// Internally a fixed `Step × LinkKind` grid of relaxed atomics: recording
/// a message, span or fault is a pair of `fetch_add`s with no lock and no
/// allocation, so worker threads inside the data-parallel hot loops never
/// serialize on the meter. Snapshots ([`Meter::report`]) are *per-counter*
/// consistent, not cross-counter atomic — fine for accounting, as every
/// caller quiesces the protocol before reading.
#[derive(Default)]
pub struct Meter {
    comm: [[CommCell; LinkKind::ALL.len()]; Step::ALL.len()],
    time: [TimeCell; Step::ALL.len()],
    faults: [AtomicU64; FAULT_KINDS],
}

impl Meter {
    /// Creates an empty meter.
    pub fn new() -> Arc<Meter> {
        Arc::new(Meter::default())
    }

    /// Records one message of `bytes` payload bytes.
    pub fn record_message(&self, step: Step, link: LinkKind, bytes: usize) {
        let cell = &self.comm[step.index()][link.index()];
        cell.messages.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records `elapsed` wall-clock time against `step`.
    pub fn record_time(&self, step: Step, elapsed: Duration) {
        let cell = &self.time[step.index()];
        cell.nanos
            .fetch_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX), Ordering::Relaxed);
        cell.spans.fetch_add(1, Ordering::Relaxed);
    }

    /// Times a closure and records its duration against `step`.
    pub fn time<T>(&self, step: Step, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_time(step, start.elapsed());
        out
    }

    /// Records one reliability event.
    pub fn record_fault(&self, event: FaultEvent) {
        self.faults[event.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the reliability counters alone.
    pub fn fault_stats(&self) -> FaultStats {
        let read = |event: FaultEvent| self.faults[event.index()].load(Ordering::Relaxed);
        FaultStats {
            timeouts: read(FaultEvent::Timeout),
            retries: read(FaultEvent::Retry),
            drops_injected: read(FaultEvent::DropInjected),
            delays_injected: read(FaultEvent::DelayInjected),
            duplicates_injected: read(FaultEvent::DuplicateInjected),
            duplicates_suppressed: read(FaultEvent::DuplicateSuppressed),
            corruptions_injected: read(FaultEvent::CorruptionInjected),
            corruptions_detected: read(FaultEvent::CorruptionDetected),
            crashed_sends: read(FaultEvent::CrashedSend),
            checkpoints_saved: read(FaultEvent::CheckpointSaved),
            checkpoints_restored: read(FaultEvent::CheckpointRestored),
            rounds_resumed: read(FaultEvent::RoundResumed),
            rejected_ciphertexts: read(FaultEvent::RejectedCiphertext),
            rejected_arity: read(FaultEvent::RejectedArity),
            rejected_duplicates: read(FaultEvent::RejectedDuplicate),
            backpressure_blocked: read(FaultEvent::BackpressureBlocked),
            liveness_expired: read(FaultEvent::LivenessExpired),
            reconnects: read(FaultEvent::Reconnected),
            shards_dropped: read(FaultEvent::ShardDropped),
            sessions_admitted: read(FaultEvent::SessionAdmitted),
            sessions_rejected: read(FaultEvent::SessionRejected),
            sessions_evicted: read(FaultEvent::SessionEvicted),
        }
    }

    /// Snapshot of all counters. Only touched rows appear in the report,
    /// mirroring the map-based meter this replaced.
    pub fn report(&self) -> MeterReport {
        let mut comm = BTreeMap::new();
        let mut time = BTreeMap::new();
        for step in Step::ALL {
            for link in LinkKind::ALL {
                let cell = &self.comm[step.index()][link.index()];
                let stats = LinkStats {
                    messages: cell.messages.load(Ordering::Relaxed),
                    bytes: cell.bytes.load(Ordering::Relaxed),
                };
                if stats.messages > 0 || stats.bytes > 0 {
                    comm.insert((step, link), stats);
                }
            }
            let cell = &self.time[step.index()];
            let spans = cell.spans.load(Ordering::Relaxed);
            if spans > 0 {
                let total = Duration::from_nanos(cell.nanos.load(Ordering::Relaxed));
                time.insert(step, TimeStats { total, spans });
            }
        }
        MeterReport { comm, time, faults: self.fault_stats() }
    }

    /// Clears all counters (e.g. between benchmark warmup and measurement).
    pub fn reset(&self) {
        for row in &self.comm {
            for cell in row {
                cell.messages.store(0, Ordering::Relaxed);
                cell.bytes.store(0, Ordering::Relaxed);
            }
        }
        for cell in &self.time {
            cell.nanos.store(0, Ordering::Relaxed);
            cell.spans.store(0, Ordering::Relaxed);
        }
        for counter in &self.faults {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for Meter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = self
            .comm
            .iter()
            .flatten()
            .filter(|cell| cell.messages.load(Ordering::Relaxed) > 0)
            .count();
        write!(f, "Meter({rows} rows)")
    }
}

/// An immutable snapshot of meter counters, with Table I/II style
/// renderers.
#[derive(Debug, Clone, Default)]
pub struct MeterReport {
    comm: BTreeMap<(Step, LinkKind), LinkStats>,
    time: BTreeMap<Step, TimeStats>,
    faults: FaultStats,
}

impl MeterReport {
    /// Communication stats for one (step, link) pair.
    pub fn link_stats(&self, step: Step, link: LinkKind) -> LinkStats {
        self.comm.get(&(step, link)).copied().unwrap_or_default()
    }

    /// Total bytes sent in a step across all links.
    pub fn step_bytes(&self, step: Step) -> u64 {
        self.comm.iter().filter(|((s, _), _)| *s == step).map(|(_, stats)| stats.bytes).sum()
    }

    /// Total bytes across all steps and links.
    pub fn total_bytes(&self) -> u64 {
        self.comm.values().map(|s| s.bytes).sum()
    }

    /// Wall time recorded for one step.
    pub fn step_time(&self, step: Step) -> Duration {
        self.time.get(&step).map(|t| t.total).unwrap_or_default()
    }

    /// Total wall time across all steps.
    pub fn total_time(&self) -> Duration {
        self.time.values().map(|t| t.total).sum()
    }

    /// Iterates over all (step, link, stats) communication rows.
    pub fn comm_rows(&self) -> impl Iterator<Item = (Step, LinkKind, LinkStats)> + '_ {
        self.comm.iter().map(|(&(s, l), &stats)| (s, l, stats))
    }

    /// Reliability counters accumulated during the run.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Renders the reliability counters, or a "no faults" line when the
    /// run was clean.
    pub fn render_fault_summary(&self) -> String {
        let f = self.faults;
        if f.is_empty() {
            return String::from("Reliability: no timeouts, retries or injected faults\n");
        }
        let mut out = String::from("Reliability events\n------------------\n");
        for (label, count) in [
            ("receive timeouts", f.timeouts),
            ("retry windows used", f.retries),
            ("messages dropped (injected)", f.drops_injected),
            ("messages delayed (injected)", f.delays_injected),
            ("duplicates injected", f.duplicates_injected),
            ("duplicates suppressed", f.duplicates_suppressed),
            ("corruptions injected", f.corruptions_injected),
            ("corruptions detected", f.corruptions_detected),
            ("sends by crashed parties", f.crashed_sends),
            ("checkpoints saved", f.checkpoints_saved),
            ("checkpoints restored", f.checkpoints_restored),
            ("rounds resumed", f.rounds_resumed),
            ("ciphertexts rejected", f.rejected_ciphertexts),
            ("bad-arity vectors rejected", f.rejected_arity),
            ("duplicate submissions rejected", f.rejected_duplicates),
            ("sends blocked on backpressure", f.backpressure_blocked),
            ("peers declared dead (liveness)", f.liveness_expired),
            ("connections re-established", f.reconnects),
            ("whole shards dropped", f.shards_dropped),
            ("sessions admitted", f.sessions_admitted),
            ("sessions rejected (shedding)", f.sessions_rejected),
            ("sessions evicted (stalled)", f.sessions_evicted),
        ] {
            if count > 0 {
                out.push_str(&format!("{label:<28} | {count}\n"));
            }
        }
        out
    }

    /// Renders the paper's Table I (per-step running time in seconds).
    pub fn render_table1(&self) -> String {
        let mut out = String::from("Step                     | Average Running Time (s)\n");
        out.push_str("-------------------------|-------------------------\n");
        for step in Step::ALL {
            if step.paper_number().is_none() {
                continue;
            }
            let t = self.step_time(step);
            if t.is_zero() && self.step_bytes(step) == 0 {
                continue;
            }
            out.push_str(&format!("{:<24} | {:.3}\n", step.to_string(), t.as_secs_f64()));
        }
        out.push_str(&format!("{:<24} | {:.3}\n", "Overall", self.total_time().as_secs_f64()));
        if !self.faults.is_empty() {
            out.push('\n');
            out.push_str(&self.render_fault_summary());
        }
        out
    }

    /// Renders the paper's Table II (per-step message size in KB per
    /// party/link).
    pub fn render_table2(&self) -> String {
        let mut out = String::from("Step                     | Message Size Per Party (KB)\n");
        out.push_str("-------------------------|----------------------------\n");
        for step in Step::ALL {
            if step.paper_number().is_none() {
                continue;
            }
            for link in [LinkKind::UserToServer, LinkKind::ServerToServer, LinkKind::ServerToUser] {
                let stats = self.link_stats(step, link);
                if stats.bytes == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{:<24} | {} ({link})\n",
                    step.to_string(),
                    stats.bytes / 1024,
                ));
            }
        }
        if !self.faults.is_empty() {
            out.push('\n');
            out.push_str(&self.render_fault_summary());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports_messages() {
        let meter = Meter::new();
        meter.record_message(Step::SecureSumVotes, LinkKind::UserToServer, 100);
        meter.record_message(Step::SecureSumVotes, LinkKind::UserToServer, 50);
        meter.record_message(Step::CompareRank, LinkKind::ServerToServer, 2048);
        let report = meter.report();
        let s = report.link_stats(Step::SecureSumVotes, LinkKind::UserToServer);
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(report.step_bytes(Step::CompareRank), 2048);
        assert_eq!(report.total_bytes(), 2198);
    }

    #[test]
    fn timing_accumulates() {
        let meter = Meter::new();
        meter.record_time(Step::BlindPermute1, Duration::from_millis(5));
        meter.record_time(Step::BlindPermute1, Duration::from_millis(7));
        let report = meter.report();
        assert_eq!(report.step_time(Step::BlindPermute1), Duration::from_millis(12));
        assert_eq!(report.total_time(), Duration::from_millis(12));
    }

    #[test]
    fn time_closure_returns_value() {
        let meter = Meter::new();
        let v = meter.time(Step::Restoration, || 41 + 1);
        assert_eq!(v, 42);
        assert!(meter.report().step_time(Step::Restoration) > Duration::ZERO);
    }

    #[test]
    fn reset_clears() {
        let meter = Meter::new();
        meter.record_message(Step::Setup, LinkKind::UserToServer, 10);
        meter.reset();
        assert_eq!(meter.report().total_bytes(), 0);
    }

    #[test]
    fn table_renderers_contain_step_names() {
        let meter = Meter::new();
        meter.record_time(Step::CompareRank, Duration::from_secs(1));
        meter.record_message(Step::CompareRank, LinkKind::ServerToServer, 4096);
        let report = meter.report();
        let t1 = report.render_table1();
        assert!(t1.contains("Secure Comparison (4)"), "{t1}");
        assert!(t1.contains("Overall"));
        let t2 = report.render_table2();
        assert!(t2.contains("server-to-server"), "{t2}");
        assert!(t2.contains("4 ("), "4 KB expected: {t2}");
    }

    #[test]
    fn fault_events_accumulate_and_render() {
        let meter = Meter::new();
        assert!(meter.fault_stats().is_empty());
        meter.record_fault(FaultEvent::Timeout);
        meter.record_fault(FaultEvent::Retry);
        meter.record_fault(FaultEvent::Retry);
        meter.record_fault(FaultEvent::DropInjected);
        meter.record_fault(FaultEvent::DuplicateSuppressed);
        meter.record_fault(FaultEvent::CorruptionDetected);
        meter.record_fault(FaultEvent::CrashedSend);
        let stats = meter.fault_stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.drops_injected, 1);
        assert_eq!(stats.duplicates_suppressed, 1);
        assert_eq!(stats.corruptions_detected, 1);
        assert_eq!(stats.crashed_sends, 1);
        let report = meter.report();
        let summary = report.render_fault_summary();
        assert!(summary.contains("receive timeouts"), "{summary}");
        assert!(summary.contains("retry windows used"), "{summary}");
        // Faulty runs surface the counters in both paper tables.
        assert!(report.render_table1().contains("Reliability events"));
        assert!(report.render_table2().contains("Reliability events"));
        meter.reset();
        assert!(meter.fault_stats().is_empty());
    }

    #[test]
    fn clean_runs_keep_tables_unchanged() {
        let meter = Meter::new();
        meter.record_time(Step::CompareRank, Duration::from_millis(1));
        let report = meter.report();
        assert!(!report.render_table1().contains("Reliability events"));
        assert!(report.render_fault_summary().contains("no timeouts"));
    }

    #[test]
    fn recovery_and_rejection_counters_accumulate() {
        let meter = Meter::new();
        meter.record_fault(FaultEvent::CheckpointSaved);
        meter.record_fault(FaultEvent::CheckpointSaved);
        meter.record_fault(FaultEvent::CheckpointRestored);
        meter.record_fault(FaultEvent::RoundResumed);
        meter.record_fault(FaultEvent::RejectedCiphertext);
        meter.record_fault(FaultEvent::RejectedArity);
        meter.record_fault(FaultEvent::RejectedDuplicate);
        let stats = meter.fault_stats();
        assert_eq!(stats.checkpoints_saved, 2);
        assert_eq!(stats.checkpoints_restored, 1);
        assert_eq!(stats.rounds_resumed, 1);
        assert_eq!(stats.rejected_ciphertexts, 1);
        assert_eq!(stats.rejected_arity, 1);
        assert_eq!(stats.rejected_duplicates, 1);
        let summary = meter.report().render_fault_summary();
        assert!(summary.contains("checkpoints saved"), "{summary}");
        assert!(summary.contains("rounds resumed"), "{summary}");
        assert!(summary.contains("duplicate submissions rejected"), "{summary}");
    }

    #[test]
    fn transport_robustness_counters_accumulate() {
        let meter = Meter::new();
        meter.record_fault(FaultEvent::BackpressureBlocked);
        meter.record_fault(FaultEvent::BackpressureBlocked);
        meter.record_fault(FaultEvent::LivenessExpired);
        meter.record_fault(FaultEvent::Reconnected);
        let stats = meter.fault_stats();
        assert_eq!(stats.backpressure_blocked, 2);
        assert_eq!(stats.liveness_expired, 1);
        assert_eq!(stats.reconnects, 1);
        let summary = meter.report().render_fault_summary();
        assert!(summary.contains("sends blocked on backpressure"), "{summary}");
        assert!(summary.contains("peers declared dead (liveness)"), "{summary}");
        assert!(summary.contains("connections re-established"), "{summary}");
    }

    #[test]
    fn session_counters_accumulate_and_render() {
        let meter = Meter::new();
        meter.record_fault(FaultEvent::SessionAdmitted);
        meter.record_fault(FaultEvent::SessionAdmitted);
        meter.record_fault(FaultEvent::SessionRejected);
        meter.record_fault(FaultEvent::SessionEvicted);
        let stats = meter.fault_stats();
        assert_eq!(stats.sessions_admitted, 2);
        assert_eq!(stats.sessions_rejected, 1);
        assert_eq!(stats.sessions_evicted, 1);
        let summary = meter.report().render_fault_summary();
        assert!(summary.contains("sessions admitted"), "{summary}");
        assert!(summary.contains("sessions rejected (shedding)"), "{summary}");
        assert!(summary.contains("sessions evicted (stalled)"), "{summary}");
    }

    #[test]
    fn step_ordinals_roundtrip() {
        for (i, &step) in Step::ALL.iter().enumerate() {
            assert_eq!(step.ordinal() as usize, i);
            assert_eq!(Step::from_ordinal(step.ordinal()), Some(step));
        }
        assert_eq!(Step::from_ordinal(9), None);
        assert_eq!(Step::from_ordinal(255), None);
    }

    #[test]
    fn paper_numbers_match_algorithm5() {
        assert_eq!(Step::SecureSumVotes.paper_number(), Some(2));
        assert_eq!(Step::Restoration.paper_number(), Some(9));
        assert_eq!(Step::Setup.paper_number(), None);
    }

    #[test]
    fn concurrent_recording() {
        let meter = Meter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&meter);
                s.spawn(move || {
                    for _ in 0..100 {
                        m.record_message(Step::SecureSumVotes, LinkKind::UserToServer, 1);
                    }
                });
            }
        });
        assert_eq!(meter.report().total_bytes(), 800);
    }

    #[test]
    fn concurrent_time_and_fault_recording() {
        let meter = Meter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&meter);
                s.spawn(move || {
                    for _ in 0..50 {
                        m.record_time(Step::CompareRank, Duration::from_nanos(10));
                        m.record_fault(FaultEvent::Retry);
                    }
                });
            }
        });
        let report = meter.report();
        assert_eq!(report.step_time(Step::CompareRank), Duration::from_nanos(2000));
        assert_eq!(report.fault_stats().retries, 200);
    }

    #[test]
    fn untouched_steps_stay_out_of_the_report() {
        let meter = Meter::new();
        meter.record_message(Step::Restoration, LinkKind::ServerToUser, 0);
        let report = meter.report();
        assert_eq!(report.comm_rows().count(), 1);
        let stats = report.link_stats(Step::Restoration, LinkKind::ServerToUser);
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 0);
    }
}
