//! Crash recovery: durable round checkpoints, resumption, and
//! exactly-once privacy accounting.
//!
//! [`RoundSupervisor`] is the engine's round loop plus a hook and a retry
//! policy: the hook snapshots each server's [`smc::RoundState`] into a
//! [`CheckpointStore`] as it completes each step, and the supervisor
//! turns those snapshots into availability: when a round attempt dies
//! (a server crash surfaces as a typed transport failure), the
//! supervisor restores the **latest consistent S1/S2 snapshot pair** —
//! the pair at `min(latest S1 step, latest S2 step)`, which both sides
//! are guaranteed to hold because snapshots are written in step order —
//! rebuilds the network, replays the round's prepared user uploads, and
//! resumes both servers at step *k* instead of aborting the round.
//!
//! What makes the recovered outcome *bit-identical* to an uninterrupted
//! run of the same round:
//!
//! * everything random is drawn once, before the first attempt
//!   ([`SecureEngine`]'s prepared round: shares, noise, payload
//!   encryptions, server seeds), and each pipeline step derives its RNG
//!   from the seed and the step ordinal rather than a rolling stream;
//! * replayed uploads are the *same ciphertexts*, injected in the same
//!   per-link order, so deterministic fault decisions keyed on
//!   (from, to, step, seq) reproduce identically — a user crash that
//!   shrank the surviving set in attempt 1 shrinks it the same way in
//!   attempt 2, re-entering the survivor-reconciliation path;
//! * server crash entries are stripped from the fault plan on retry
//!   attempts — modeling the crashed process being restarted — while
//!   user crashes persist.
//!
//! Privacy accounting is handled by [`RdpLedger`]: the realized RDP cost
//! of a round is charged exactly once per *logical* round, no matter how
//! many attempts its execution took, because the charge happens at
//! finalization keyed by the round id — never per attempt.

use std::sync::{Arc, Mutex};

use dp::rdp::LinearRdp;
use rand::Rng;
use smc::machine::party_of;
use smc::{RoundState, ServerRound, SmcError};
use transport::{CheckpointStore, FaultEvent, Meter, PartyId, Step, Wire};

use crate::secure::{RoundHook, Seats, SecureEngine, SecureOutcome, FROM_START};

/// Exactly-once RDP accounting across recovered rounds.
///
/// The ledger is keyed by round id: the first [`RdpLedger::charge`] for
/// a round records its cost, later calls for the same round are ignored.
/// A crashed-and-resumed round therefore charges its privacy budget
/// once — the invariant the chaos suite asserts per crash step.
#[derive(Debug, Default)]
pub struct RdpLedger {
    charges: Mutex<Vec<(u64, LinearRdp)>>,
}

impl RdpLedger {
    /// An empty ledger.
    pub fn new() -> RdpLedger {
        RdpLedger::default()
    }

    /// Records `cost` for `round` unless the round was already charged.
    /// Returns whether this call actually charged.
    pub fn charge(&self, round: u64, cost: LinearRdp) -> bool {
        let mut charges = self.charges.lock().expect("ledger lock");
        if charges.iter().any(|&(r, _)| r == round) {
            return false;
        }
        charges.push((round, cost));
        true
    }

    /// How many rounds have been charged.
    pub fn charges(&self) -> usize {
        self.charges.lock().expect("ledger lock").len()
    }

    /// The composed RDP cost over all charged rounds (`None` when no
    /// round has been charged yet).
    pub fn total(&self) -> Option<LinearRdp> {
        let charges = self.charges.lock().expect("ledger lock");
        let mut iter = charges.iter().map(|&(_, c)| c);
        let first = iter.next()?;
        Some(iter.fold(first, |acc, c| acc.compose(&c)))
    }
}

/// Drives logical rounds over a [`SecureEngine`] with durable
/// checkpoints and crash resumption.
///
/// Each [`RoundSupervisor::run_round`] call is one logical round with a
/// monotonically increasing round id. The round's user phase runs once;
/// each *attempt* rebuilds the network, replays the prepared uploads and
/// drives both servers from their restored states, checkpointing every
/// completed step. On success the round's checkpoints are cleared and
/// (when a ledger is attached) its realized RDP cost is charged exactly
/// once.
///
/// # Panics
///
/// A failing checkpoint *save* panics (a recovery subsystem whose
/// journal is broken must not limp along pretending to be durable).
/// Failing or corrupt *loads* degrade gracefully: the attempt restarts
/// from the beginning of the round instead of a snapshot.
pub struct RoundSupervisor<'e> {
    engine: &'e SecureEngine,
    store: Arc<dyn CheckpointStore>,
    ledger: Option<Arc<RdpLedger>>,
    max_attempts: usize,
    next_round: u64,
}

impl<'e> RoundSupervisor<'e> {
    /// Supervises `engine` with snapshots written to `store`. Defaults
    /// to 4 attempts per round and no privacy ledger.
    pub fn new(engine: &'e SecureEngine, store: Arc<dyn CheckpointStore>) -> RoundSupervisor<'e> {
        RoundSupervisor { engine, store, ledger: None, max_attempts: 4, next_round: 0 }
    }

    /// Attaches an exactly-once RDP ledger charged at round finalization.
    #[must_use]
    pub fn with_ledger(mut self, ledger: Arc<RdpLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Caps how many attempts (1 initial + retries) a round may take.
    ///
    /// # Panics
    ///
    /// Panics when `attempts` is zero.
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: usize) -> Self {
        assert!(attempts > 0, "a round needs at least one attempt");
        self.max_attempts = attempts;
        self
    }

    /// Starts round numbering at `round` instead of 0.
    ///
    /// A restarted campaign daemon replays its instance queue from the
    /// beginning, so logical round ids must be a pure function of queue
    /// position — this pin makes them independent of how many supervisor
    /// values have existed. Durable ledgers keyed by round id then
    /// deduplicate charges across process lifetimes.
    #[must_use]
    pub fn with_start_round(mut self, round: u64) -> Self {
        self.next_round = round;
        self
    }

    /// The id the next [`RoundSupervisor::run_round`] call will use.
    pub fn next_round_id(&self) -> u64 {
        self.next_round
    }

    /// Runs one supervised round over the full user set.
    ///
    /// # Errors
    ///
    /// See [`RoundSupervisor::run_round`].
    pub fn run_instance<R: Rng + ?Sized>(
        &mut self,
        votes: &[Vec<f64>],
        meter: Arc<Meter>,
        rng: &mut R,
    ) -> Result<SecureOutcome, SmcError> {
        let roster: Vec<usize> = (0..self.engine.session_config().num_users).collect();
        self.run_round(votes, &roster, meter, rng)
    }

    /// Runs one supervised round over an explicit roster, resuming from
    /// checkpoints across up to `max_attempts` attempts.
    ///
    /// # Errors
    ///
    /// Propagates the *last* attempt's failure when every attempt died —
    /// including typed aborts like [`SmcError::QuorumLost`], which no
    /// amount of resumption can fix.
    ///
    /// # Panics
    ///
    /// Panics if the vote matrix shape disagrees with the roster, if the
    /// servers disagree on a recovered outcome, or if a checkpoint save
    /// fails.
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        votes: &[Vec<f64>],
        roster: &[usize],
        meter: Arc<Meter>,
        rng: &mut R,
    ) -> Result<SecureOutcome, SmcError> {
        let round = self.next_round;
        self.next_round += 1;

        // Everything random for this logical round is drawn HERE, once.
        let prepared = self.engine.prepare_round(votes, roster, rng)?;
        let fault_stats_before = meter.fault_stats();
        let mut resumptions: u64 = 0;
        let mut resumed_from: Vec<Step> = Vec::new();
        let mut last_err: Option<SmcError> = None;

        for attempt in 0..self.max_attempts {
            // Attempt 1 runs under the engine's own fault plan. Retries
            // model the crashed server process being *restarted*: its
            // crash entry is stripped (re-executing the crashed step must
            // not re-enter the crash window), while user crashes persist
            // so dropouts reproduce identically.
            let plan = self.engine.fault_plan().cloned().map(|p| {
                if attempt == 0 {
                    p
                } else {
                    p.without_crash(PartyId::Server1).without_crash(PartyId::Server2)
                }
            });
            let seats = if attempt == 0 {
                FROM_START
            } else {
                let seats = self.restore_pair(round, &meter);
                resumptions += 1;
                resumed_from.push(seats[0].next_step().unwrap_or(Step::Restoration));
                meter.record_fault(FaultEvent::RoundResumed);
                seats
            };

            let servers =
                self.engine.launch(&prepared, prepared.upload_frames(), &meter, plan, seats)?;
            let mut snapshots = Snapshots { store: self.store.as_ref(), round, meter: &meter };
            match servers.run(&mut snapshots) {
                Ok((done1, done2)) => {
                    let outcome = self.engine.finalize_round(
                        &prepared,
                        done1,
                        done2,
                        &meter,
                        fault_stats_before,
                        resumptions,
                        resumed_from,
                    );
                    if let Some(ledger) = &self.ledger {
                        ledger.charge(round, outcome.health.charged_rdp());
                    }
                    // A completed round's snapshots are dead weight; a
                    // failing cleanup is not worth failing the round for.
                    let _ = self.store.clear_round(round);
                    return Ok(outcome);
                }
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// The latest consistent snapshot pair for `round`: both servers'
    /// states at `min(latest S1 step, latest S2 step)`. Snapshots are
    /// written in step order, so the slower side's latest step is held by
    /// both. Missing or undecodable snapshots degrade to a from-scratch
    /// restart — never a panic, never a half-restored pair.
    fn restore_pair(&self, round: u64, meter: &Meter) -> Seats {
        let latest = |party| self.store.load_latest(round, party).ok().flatten();
        let (Some(c1), Some(c2)) = (latest(PartyId::Server1), latest(PartyId::Server2)) else {
            return FROM_START;
        };
        let step = c1.step.min(c2.step);
        let at = |party, ckpt: transport::Checkpoint| {
            let payload = if ckpt.step == step {
                Some(ckpt.payload)
            } else {
                self.store.load_at(round, party, step).ok().flatten().map(|c| c.payload)
            };
            payload.and_then(|p| RoundState::from_bytes(p.into()).ok())
        };
        match (at(PartyId::Server1, c1), at(PartyId::Server2, c2)) {
            (Some(state1), Some(state2)) => {
                meter.record_fault(FaultEvent::CheckpointRestored);
                meter.record_fault(FaultEvent::CheckpointRestored);
                [state1, state2]
            }
            _ => FROM_START,
        }
    }
}

/// The supervisor's hook into the round loop: snapshots each server as
/// it completes a step.
struct Snapshots<'a> {
    store: &'a dyn CheckpointStore,
    round: u64,
    meter: &'a Meter,
}

impl RoundHook for Snapshots<'_> {
    fn completed(&mut self, server: &ServerRound) {
        let (party, step) = (party_of(server.role()), server.state().completed_step());
        self.store
            .save(self.round, party, step, &server.state().to_bytes())
            .expect("checkpoint store failed while saving a snapshot");
        self.meter.record_fault(FaultEvent::CheckpointSaved);
    }
}

impl std::fmt::Debug for RoundSupervisor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundSupervisor")
            .field("engine", self.engine)
            .field("max_attempts", &self.max_attempts)
            .field("next_round", &self.next_round)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_charges_each_round_once() {
        let ledger = RdpLedger::new();
        let cost = LinearRdp::sparse_vector(1e-6);
        assert!(ledger.charge(0, cost));
        assert!(!ledger.charge(0, cost), "second charge for round 0 must be ignored");
        assert!(ledger.charge(1, cost));
        assert_eq!(ledger.charges(), 2);
        let total = ledger.total().expect("two charges composed");
        assert_eq!(total, cost.compose(&cost));
    }

    #[test]
    fn empty_ledger_has_no_total() {
        assert!(RdpLedger::new().total().is_none());
        assert_eq!(RdpLedger::new().charges(), 0);
    }
}
