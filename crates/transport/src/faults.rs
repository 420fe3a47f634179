//! Deterministic fault injection for the in-process network.
//!
//! A [`FaultPlan`] describes which messages a [`crate::Network`] should
//! drop, delay, duplicate or corrupt, and which parties crash at which
//! protocol step. Decisions are a pure function of the plan's seed and
//! the message coordinates `(from, to, step, seq)`, so a given plan
//! injects exactly the same faults on every run regardless of thread
//! scheduling — chaos tests and benches are reproducible.
//!
//! Faults are applied on the *send* side:
//!
//! * **Drop** — the envelope is silently discarded; the receiver sees
//!   nothing and eventually times out.
//! * **Delay** — the envelope carries a not-before instant; the receiver
//!   honors it before delivery (head-of-line, like a slow link), counting
//!   the wait against its receive deadline.
//! * **Duplicate** — the envelope is enqueued a second time with the same
//!   sequence number; the receiver's dedup layer suppresses the copy.
//! * **Corrupt** — payload bits are flipped *after* the frame checksum is
//!   computed, so the receiver reliably detects the damage and surfaces
//!   [`crate::TransportError::Corrupt`].
//! * **Crash** — from the given step onward the party's sends vanish
//!   silently (the crashed party does not know it is dead; its peers
//!   observe only missing messages).
//!
//! The TCP backend adds a *socket* fault layer below all of the above:
//! a [`SocketFault`] attached to a directed link routes that link
//! through a chaos proxy ([`crate::ChaosProxy`]) that severs the
//! connection mid-frame, stalls reads, or fragments writes. Socket
//! faults exercise the transport's reconnect-and-resume machinery and
//! are ignored by the in-proc backend (which has no sockets to break).

use std::collections::BTreeMap;
use std::time::Duration;

use crate::metrics::{LinkKind, Step};
use crate::network::PartyId;

/// What the injector decided for one (logical) message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// Discard the envelope instead of enqueueing it.
    pub drop: bool,
    /// Deliver no earlier than this far in the future.
    pub delay: Option<Duration>,
    /// Enqueue this many extra copies (same sequence number).
    pub duplicates: u32,
    /// Flip payload bits after checksumming.
    pub corrupt: bool,
}

impl FaultDecision {
    /// A decision that leaves the message untouched.
    pub fn clean() -> FaultDecision {
        FaultDecision::default()
    }

    /// True if any fault fires.
    pub fn is_faulty(&self) -> bool {
        self.drop || self.delay.is_some() || self.duplicates > 0 || self.corrupt
    }
}

/// Socket-level chaos injected on one directed TCP link (applied by a
/// [`crate::ChaosProxy`] sitting between the dialer and the listener).
/// All byte counts are measured on the dialer → listener stream,
/// handshake bytes included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SocketFault {
    /// Sever the connection (both directions, mid-frame) once this many
    /// bytes have been forwarded. Fires once; subsequent reconnections
    /// pass cleanly, so resume machinery is what gets tested.
    pub kill_after_bytes: Option<u64>,
    /// Stall forwarding for the given pause once this many bytes have
    /// been forwarded (fires once) — models a hung read.
    pub stall: Option<(u64, Duration)>,
    /// Fragment every forwarded write into tiny chunks, exercising
    /// short-read handling in the framing layer.
    pub partial_writes: bool,
    /// Byte tampering: XOR the byte at this forwarded-stream offset with
    /// `0xFF` (fires once — a man-in-the-middle altering a frame in
    /// flight). The link's frame checksum catches the damage;
    /// the connection established after the resulting teardown passes
    /// cleanly, like the other one-shot faults.
    pub tamper_byte_at: Option<u64>,
}

/// A deterministic, seedable schedule of transport faults.
///
/// Probabilities are evaluated against a seeded per-message hash, not a
/// shared RNG, so two networks built from the same plan observe identical
/// faults even under different thread interleavings.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    delay_prob: f64,
    max_delay: Duration,
    duplicate_prob: f64,
    corrupt_prob: f64,
    /// Party → first step at which the party is dead.
    crashes: BTreeMap<PartyId, Step>,
    /// Party → first step at which a crashed party is alive again. A
    /// party with a crash entry but no revive entry stays dead forever.
    revives: BTreeMap<PartyId, Step>,
    /// When set, probabilistic faults only hit this link direction.
    link_filter: Option<LinkKind>,
    /// When set, probabilistic faults only hit this step.
    step_filter: Option<Step>,
    /// Socket-level chaos per directed link, applied only by the TCP
    /// backend (via a chaos proxy on that link).
    socket_faults: BTreeMap<(PartyId, PartyId), SocketFault>,
}

impl FaultPlan {
    /// A plan with no faults, rooted at `seed` (the seed matters once
    /// probabilistic faults are enabled).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
            crashes: BTreeMap::new(),
            revives: BTreeMap::new(),
            link_filter: None,
            step_filter: None,
            socket_faults: BTreeMap::new(),
        }
    }

    /// Drops each eligible message with probability `prob`.
    #[must_use]
    pub fn drop_messages(mut self, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "drop probability out of range");
        self.drop_prob = prob;
        self
    }

    /// Delays each eligible message with probability `prob`, by up to
    /// `max_delay` (uniform, deterministic per message).
    #[must_use]
    pub fn delay_messages(mut self, prob: f64, max_delay: Duration) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "delay probability out of range");
        self.delay_prob = prob;
        self.max_delay = max_delay;
        self
    }

    /// Duplicates each eligible message with probability `prob`.
    #[must_use]
    pub fn duplicate_messages(mut self, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "duplicate probability out of range");
        self.duplicate_prob = prob;
        self
    }

    /// Corrupts each eligible message's payload with probability `prob`.
    #[must_use]
    pub fn corrupt_messages(mut self, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "corrupt probability out of range");
        self.corrupt_prob = prob;
        self
    }

    /// Crashes `party` at the beginning of `step`: every send it attempts
    /// at that step or later silently disappears.
    #[must_use]
    pub fn crash(mut self, party: PartyId, step: Step) -> FaultPlan {
        self.crashes.insert(party, step);
        self
    }

    /// Revives a previously [`Self::crash`]ed party `steps` protocol steps
    /// after its crash point: the crash becomes a blackout window rather
    /// than a permanent death, modeling crash-then-restart. With
    /// `steps == 0` the crash never manifests; if the window extends past
    /// [`Step::Restoration`] the party stays dead for the whole round.
    ///
    /// # Panics
    ///
    /// Panics if `party` has no scheduled crash.
    #[must_use]
    pub fn revive_after(mut self, party: PartyId, steps: usize) -> FaultPlan {
        let at = *self
            .crashes
            .get(&party)
            .unwrap_or_else(|| panic!("revive_after({party:?}) without a scheduled crash"));
        match Step::from_ordinal((at.ordinal() as usize).saturating_add(steps).min(255) as u8) {
            Some(back) => {
                self.revives.insert(party, back);
            }
            // Window runs past the last step: equivalent to crash-forever.
            None => {
                self.revives.remove(&party);
            }
        }
        self
    }

    /// Removes any crash (and revive) scheduled for `party`, as when a
    /// supervisor restarts a crashed server before retrying a round.
    #[must_use]
    pub fn without_crash(mut self, party: PartyId) -> FaultPlan {
        self.crashes.remove(&party);
        self.revives.remove(&party);
        self
    }

    /// Restricts probabilistic faults to one link direction (crashes are
    /// unaffected).
    #[must_use]
    pub fn only_link(mut self, link: LinkKind) -> FaultPlan {
        self.link_filter = Some(link);
        self
    }

    /// Restricts probabilistic faults to one protocol step (crashes are
    /// unaffected).
    #[must_use]
    pub fn only_step(mut self, step: Step) -> FaultPlan {
        self.step_filter = Some(step);
        self
    }

    /// Severs the TCP connection carrying `from → to` traffic once
    /// `after_bytes` have crossed it (mid-frame, both directions). The
    /// kill fires once; the link's writer is expected to reconnect and
    /// replay unacknowledged frames. Ignored by the in-proc backend.
    #[must_use]
    pub fn sever_connection(mut self, from: PartyId, to: PartyId, after_bytes: u64) -> FaultPlan {
        self.socket_faults.entry((from, to)).or_default().kill_after_bytes = Some(after_bytes);
        self
    }

    /// Stalls the `from → to` TCP stream for `pause` once `after_bytes`
    /// have crossed it (fires once). Ignored by the in-proc backend.
    #[must_use]
    pub fn stall_connection(
        mut self,
        from: PartyId,
        to: PartyId,
        after_bytes: u64,
        pause: Duration,
    ) -> FaultPlan {
        self.socket_faults.entry((from, to)).or_default().stall = Some((after_bytes, pause));
        self
    }

    /// Fragments every write on the `from → to` TCP stream into tiny
    /// chunks. Ignored by the in-proc backend.
    #[must_use]
    pub fn partial_writes(mut self, from: PartyId, to: PartyId) -> FaultPlan {
        self.socket_faults.entry((from, to)).or_default().partial_writes = true;
        self
    }

    /// XORs the byte at forwarded-stream offset `at_byte` on the
    /// `from → to` TCP stream with `0xFF` (fires once) — a wire-level
    /// man-in-the-middle. The frame checksum detects the damage and the
    /// link tears down and resumes. Ignored by the in-proc backend.
    #[must_use]
    pub fn tamper_connection(mut self, from: PartyId, to: PartyId, at_byte: u64) -> FaultPlan {
        self.socket_faults.entry((from, to)).or_default().tamper_byte_at = Some(at_byte);
        self
    }

    /// The socket fault attached to the directed link `from → to`, if any.
    pub fn socket_fault(&self, from: PartyId, to: PartyId) -> Option<SocketFault> {
        self.socket_faults.get(&(from, to)).copied()
    }

    /// All scheduled socket faults, keyed by directed link.
    pub fn socket_faults(&self) -> &BTreeMap<(PartyId, PartyId), SocketFault> {
        &self.socket_faults
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The step at which `party` crashes, if scheduled.
    pub fn crash_step(&self, party: PartyId) -> Option<Step> {
        self.crashes.get(&party).copied()
    }

    /// The step at which a crashed `party` comes back, if scheduled via
    /// [`Self::revive_after`].
    pub fn revive_step(&self, party: PartyId) -> Option<Step> {
        self.revives.get(&party).copied()
    }

    /// True if `party` is dead at `step` (its sends must vanish): at or
    /// past its crash step and, when a revival is scheduled, before the
    /// revival step.
    pub fn is_crashed(&self, party: PartyId, step: Step) -> bool {
        self.crashes.get(&party).is_some_and(|&at| {
            step >= at && self.revives.get(&party).is_none_or(|&back| step < back)
        })
    }

    /// The deterministic decision for message `seq` from `from` to `to`
    /// at `step`. Crash handling is separate — see [`Self::is_crashed`].
    pub fn decide(&self, from: PartyId, to: PartyId, step: Step, seq: u64) -> FaultDecision {
        if let Some(link) = self.link_filter {
            if from.link_to(to) != link {
                return FaultDecision::clean();
            }
        }
        if let Some(only) = self.step_filter {
            if step != only {
                return FaultDecision::clean();
            }
        }
        let base = self.message_hash(from, to, step, seq);
        let drop = unit(mix(base, 0x01)) < self.drop_prob;
        if drop {
            // A dropped message cannot also be delayed/duplicated.
            return FaultDecision { drop: true, ..FaultDecision::clean() };
        }
        let delay = if unit(mix(base, 0x02)) < self.delay_prob && !self.max_delay.is_zero() {
            let nanos = self.max_delay.as_nanos().max(1) as u64;
            Some(Duration::from_nanos(1 + mix(base, 0x03) % nanos))
        } else {
            None
        };
        let duplicates = u32::from(unit(mix(base, 0x04)) < self.duplicate_prob);
        let corrupt = unit(mix(base, 0x05)) < self.corrupt_prob;
        FaultDecision { drop: false, delay, duplicates, corrupt }
    }

    fn message_hash(&self, from: PartyId, to: PartyId, step: Step, seq: u64) -> u64 {
        let mut h = self.seed ^ 0x9e3779b97f4a7c15;
        for word in [party_tag(from), party_tag(to), step_tag(step), seq] {
            h = mix(h, word);
        }
        h
    }
}

fn party_tag(p: PartyId) -> u64 {
    match p {
        PartyId::Server1 => 1,
        PartyId::Server2 => 2,
        PartyId::User(u) => 3 + u as u64,
    }
}

fn step_tag(step: Step) -> u64 {
    Step::ALL.iter().position(|&s| s == step).unwrap_or(usize::MAX) as u64
}

/// SplitMix64-style avalanche combining `h` and `salt`.
fn mix(h: u64, salt: u64) -> u64 {
    let mut z = h ^ salt.wrapping_mul(0xff51afd7ed558ccd);
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Maps a hash to [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_never_faults() {
        let plan = FaultPlan::new(42);
        for seq in 0..100 {
            let d = plan.decide(PartyId::User(0), PartyId::Server1, Step::SecureSumVotes, seq);
            assert!(!d.is_faulty());
        }
        assert!(!plan.is_crashed(PartyId::User(0), Step::Restoration));
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(7).drop_messages(0.5).delay_messages(0.5, Duration::from_millis(3));
        let b = a.clone();
        for seq in 0..200 {
            let from = PartyId::User((seq % 5) as usize);
            let d1 = a.decide(from, PartyId::Server2, Step::SecureSumNoisy, seq);
            let d2 = b.decide(from, PartyId::Server2, Step::SecureSumNoisy, seq);
            assert_eq!(d1, d2);
        }
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let plan = FaultPlan::new(11).drop_messages(0.3);
        let drops = (0..2000)
            .filter(|&seq| {
                plan.decide(PartyId::User(1), PartyId::Server1, Step::SecureSumVotes, seq).drop
            })
            .count();
        assert!((400..=800).contains(&drops), "expected ~600 drops, got {drops}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).drop_messages(0.5);
        let b = FaultPlan::new(2).drop_messages(0.5);
        let disagreements = (0..256)
            .filter(|&seq| {
                let p = PartyId::User(0);
                a.decide(p, PartyId::Server1, Step::SecureSumVotes, seq).drop
                    != b.decide(p, PartyId::Server1, Step::SecureSumVotes, seq).drop
            })
            .count();
        assert!(disagreements > 50, "seeds should decorrelate, got {disagreements}");
    }

    #[test]
    fn crash_is_a_step_threshold() {
        let plan = FaultPlan::new(3).crash(PartyId::User(2), Step::SecureSumNoisy);
        assert!(!plan.is_crashed(PartyId::User(2), Step::SecureSumVotes));
        assert!(!plan.is_crashed(PartyId::User(2), Step::ThresholdCheck));
        assert!(plan.is_crashed(PartyId::User(2), Step::SecureSumNoisy));
        assert!(plan.is_crashed(PartyId::User(2), Step::Restoration));
        assert!(!plan.is_crashed(PartyId::User(1), Step::Restoration));
        assert_eq!(plan.crash_step(PartyId::User(2)), Some(Step::SecureSumNoisy));
    }

    #[test]
    fn revive_after_turns_crash_into_a_window() {
        let plan = FaultPlan::new(21)
            .crash(PartyId::Server1, Step::BlindPermute1)
            .revive_after(PartyId::Server1, 2);
        assert!(!plan.is_crashed(PartyId::Server1, Step::SecureSumVotes));
        assert!(plan.is_crashed(PartyId::Server1, Step::BlindPermute1));
        assert!(plan.is_crashed(PartyId::Server1, Step::CompareRank));
        assert!(!plan.is_crashed(PartyId::Server1, Step::ThresholdCheck));
        assert!(!plan.is_crashed(PartyId::Server1, Step::Restoration));
        assert_eq!(plan.revive_step(PartyId::Server1), Some(Step::ThresholdCheck));
    }

    #[test]
    fn revive_past_last_step_is_crash_forever() {
        let plan = FaultPlan::new(22)
            .crash(PartyId::User(0), Step::CompareNoisyRank)
            .revive_after(PartyId::User(0), 5);
        assert!(plan.is_crashed(PartyId::User(0), Step::Restoration));
        assert_eq!(plan.revive_step(PartyId::User(0)), None);
    }

    #[test]
    fn revive_after_zero_steps_never_crashes() {
        let plan = FaultPlan::new(23)
            .crash(PartyId::User(1), Step::SecureSumVotes)
            .revive_after(PartyId::User(1), 0);
        for step in Step::ALL {
            assert!(!plan.is_crashed(PartyId::User(1), step), "{step:?}");
        }
    }

    #[test]
    #[should_panic(expected = "without a scheduled crash")]
    fn revive_without_crash_panics() {
        let _ = FaultPlan::new(24).revive_after(PartyId::Server2, 1);
    }

    #[test]
    fn without_crash_clears_crash_and_revive() {
        let plan = FaultPlan::new(25)
            .crash(PartyId::Server2, Step::Setup)
            .revive_after(PartyId::Server2, 3)
            .crash(PartyId::User(4), Step::SecureSumNoisy)
            .without_crash(PartyId::Server2);
        for step in Step::ALL {
            assert!(!plan.is_crashed(PartyId::Server2, step), "{step:?}");
        }
        assert_eq!(plan.crash_step(PartyId::Server2), None);
        assert_eq!(plan.revive_step(PartyId::Server2), None);
        // Other parties' crashes survive the removal.
        assert!(plan.is_crashed(PartyId::User(4), Step::SecureSumNoisy));
    }

    #[test]
    fn filters_scope_probabilistic_faults() {
        let plan = FaultPlan::new(9)
            .drop_messages(1.0)
            .only_link(LinkKind::UserToServer)
            .only_step(Step::SecureSumVotes);
        let hit = plan.decide(PartyId::User(0), PartyId::Server1, Step::SecureSumVotes, 0);
        assert!(hit.drop);
        let wrong_link = plan.decide(PartyId::Server1, PartyId::Server2, Step::SecureSumVotes, 0);
        assert!(!wrong_link.is_faulty());
        let wrong_step = plan.decide(PartyId::User(0), PartyId::Server1, Step::SecureSumNoisy, 0);
        assert!(!wrong_step.is_faulty());
    }

    #[test]
    fn drop_excludes_other_faults() {
        let plan =
            FaultPlan::new(5).drop_messages(1.0).duplicate_messages(1.0).corrupt_messages(1.0);
        let d = plan.decide(PartyId::User(0), PartyId::Server1, Step::SecureSumVotes, 1);
        assert!(d.drop && d.duplicates == 0 && !d.corrupt);
    }

    #[test]
    fn socket_faults_accumulate_per_link() {
        let plan = FaultPlan::new(30)
            .sever_connection(PartyId::Server1, PartyId::Server2, 1024)
            .partial_writes(PartyId::Server1, PartyId::Server2)
            .stall_connection(PartyId::User(0), PartyId::Server1, 64, Duration::from_millis(5));
        let s12 = plan.socket_fault(PartyId::Server1, PartyId::Server2).unwrap();
        assert_eq!(s12.kill_after_bytes, Some(1024));
        assert!(s12.partial_writes);
        assert_eq!(s12.stall, None);
        let u0 = plan.socket_fault(PartyId::User(0), PartyId::Server1).unwrap();
        assert_eq!(u0.stall, Some((64, Duration::from_millis(5))));
        assert_eq!(u0.kill_after_bytes, None);
        assert_eq!(plan.socket_fault(PartyId::Server2, PartyId::Server1), None);
        assert_eq!(plan.socket_faults().len(), 2);
    }

    #[test]
    fn tamper_connection_sets_socket_fault_byte() {
        let plan = FaultPlan::new(33)
            .tamper_connection(PartyId::Server1, PartyId::Server2, 512)
            .partial_writes(PartyId::Server1, PartyId::Server2);
        let s12 = plan.socket_fault(PartyId::Server1, PartyId::Server2).unwrap();
        assert_eq!(s12.tamper_byte_at, Some(512));
        assert!(s12.partial_writes);
        assert_eq!(plan.socket_fault(PartyId::Server2, PartyId::Server1), None);
    }

    #[test]
    fn delay_bounded_by_max() {
        let plan = FaultPlan::new(13).delay_messages(1.0, Duration::from_millis(5));
        for seq in 0..100 {
            let d = plan.decide(PartyId::User(0), PartyId::Server1, Step::SecureSumVotes, seq);
            let delay = d.delay.expect("delay must fire at p=1");
            assert!(delay <= Duration::from_millis(5));
            assert!(delay > Duration::ZERO);
        }
    }
}
