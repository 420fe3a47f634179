//! Crash-safe Rényi-DP charge ledger for long-running campaigns.
//!
//! A labeling campaign's primary durable invariant is its privacy
//! budget: no matter how often the daemon crashes and restarts, the
//! total `(ε, δ)` spend must be accounted exactly once per answered
//! round and must never exceed the configured target. A running total
//! kept in memory dies with the process; [`DurableRdpLedger`] is the
//! persistent one.
//!
//! Every charge is one fsynced record in an append-only journal,
//! framed and crash-recovered by [`transport::journal`] — the same
//! torn-tail discipline the checkpoint store uses, so a record is
//! either fully on disk or silently truncated on replay. Records are
//! keyed by **round id**: charging a round that is already journaled is
//! a no-op, which makes a deterministic re-execution of an interrupted
//! campaign idempotent — the restarted daemon replays the journal,
//! resumes at the exact epsilon spent, and [`DurableRdpLedger::admits`]
//! refuses any round whose worst-case spend would cross the budget.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use transport::journal::AppendJournal;

use crate::rdp::LinearRdp;

/// Journal file name inside the ledger directory.
const LEDGER_FILE: &str = "ledger.rdp";
/// Record kind byte for one per-round RDP charge.
const CHARGE: u8 = 0x01;

/// Errors surfaced by the durable ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// An underlying I/O operation failed.
    Io(String),
    /// The journal held a fully-checksummed but semantically impossible
    /// record (a torn tail is tolerated silently; this is not that).
    CorruptJournal(&'static str),
    /// The configured epsilon budget is not a positive finite number.
    InvalidBudget(f64),
    /// The configured delta is outside `(0, 1)`.
    InvalidDelta(f64),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Io(e) => write!(f, "ledger I/O error: {e}"),
            LedgerError::CorruptJournal(what) => write!(f, "corrupt ledger journal: {what}"),
            LedgerError::InvalidBudget(b) => {
                write!(f, "epsilon budget must be positive and finite, got {b}")
            }
            LedgerError::InvalidDelta(d) => write!(f, "delta must lie in (0, 1), got {d}"),
        }
    }
}

impl Error for LedgerError {}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io(e.to_string())
    }
}

struct LedgerInner {
    journal: AppendJournal,
    /// Round id → the linear RDP curve charged for that round.
    charges: BTreeMap<u64, LinearRdp>,
}

/// A crash-safe, exactly-once, budget-enforcing RDP ledger.
///
/// See the [module docs](self) for the durability model. All methods
/// take `&self`; the ledger is safe to share behind an `Arc` between a
/// campaign runner and its telemetry.
pub struct DurableRdpLedger {
    inner: Mutex<LedgerInner>,
    path: PathBuf,
    budget_epsilon: f64,
    delta: f64,
}

impl fmt::Debug for DurableRdpLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DurableRdpLedger({}, ε ≤ {}, δ = {})",
            self.path.display(),
            self.budget_epsilon,
            self.delta
        )
    }
}

impl DurableRdpLedger {
    /// Opens (or creates) the charge journal at `dir/ledger.rdp`,
    /// creating `dir` first, and replays every persisted charge so the
    /// ledger resumes at the exact epsilon the previous process had
    /// spent. A torn trailing record from a crash mid-append is
    /// truncated away.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::InvalidBudget`] / [`LedgerError::InvalidDelta`]
    ///   for out-of-range parameters (these were panics in earlier
    ///   in-memory ledgers);
    /// * [`LedgerError::Io`] if the journal cannot be created or read;
    /// * [`LedgerError::CorruptJournal`] if a fully-checksummed record
    ///   carries an unknown kind or a non-finite/negative charge.
    pub fn open(
        dir: impl AsRef<Path>,
        budget_epsilon: f64,
        delta: f64,
    ) -> Result<DurableRdpLedger, LedgerError> {
        if !(budget_epsilon.is_finite() && budget_epsilon > 0.0) {
            return Err(LedgerError::InvalidBudget(budget_epsilon));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(LedgerError::InvalidDelta(delta));
        }
        let (journal, records) = AppendJournal::open(dir, LEDGER_FILE)?;
        let mut charges = BTreeMap::new();
        for rec in records {
            if rec.step != CHARGE {
                return Err(LedgerError::CorruptJournal("unknown ledger record kind"));
            }
            let bytes: [u8; 8] = rec
                .payload
                .as_slice()
                .try_into()
                .map_err(|_| LedgerError::CorruptJournal("charge payload is not 8 bytes"))?;
            let coeff = f64::from_bits(u64::from_le_bytes(bytes));
            if !(coeff.is_finite() && coeff >= 0.0) {
                return Err(LedgerError::CorruptJournal("charge coefficient out of range"));
            }
            // First record for a round wins; a duplicate could only come
            // from a journal written outside the charge() path.
            charges.entry(rec.round).or_insert_with(|| LinearRdp::from_coeff(coeff));
        }
        let path = journal.path().to_path_buf();
        Ok(DurableRdpLedger {
            inner: Mutex::new(LedgerInner { journal, charges }),
            path,
            budget_epsilon,
            delta,
        })
    }

    /// Records `cost` against `round`, exactly once: returns `Ok(true)`
    /// and fsyncs one journal record if the round was not yet charged,
    /// `Ok(false)` (no write) if it was. When `charge` returns, the
    /// record survives `kill -9`.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::Io`] if the append cannot be persisted;
    /// the in-memory state is then unchanged and the call may be
    /// retried.
    pub fn charge(&self, round: u64, cost: LinearRdp) -> Result<bool, LedgerError> {
        let mut inner = self.inner.lock().expect("ledger lock");
        if inner.charges.contains_key(&round) {
            return Ok(false);
        }
        let payload = cost.coeff().to_bits().to_le_bytes();
        inner.journal.append(round, 0, CHARGE, &payload)?;
        inner.charges.insert(round, cost);
        Ok(true)
    }

    /// True if `round` already has a persisted charge.
    pub fn charged(&self, round: u64) -> bool {
        self.inner.lock().expect("ledger lock").charges.contains_key(&round)
    }

    /// Number of rounds charged so far.
    pub fn charges(&self) -> usize {
        self.inner.lock().expect("ledger lock").charges.len()
    }

    /// The charged round ids in ascending order.
    pub fn charged_rounds(&self) -> Vec<u64> {
        self.inner.lock().expect("ledger lock").charges.keys().copied().collect()
    }

    /// The composed RDP curve of every charge (zero if none).
    pub fn total(&self) -> LinearRdp {
        self.inner
            .lock()
            .expect("ledger lock")
            .charges
            .values()
            .fold(LinearRdp::zero(), |acc, c| acc.compose(c))
    }

    /// Epsilon spent so far at the ledger's delta (Theorem 5 conversion).
    pub fn epsilon_spent(&self) -> f64 {
        self.total().to_epsilon(self.delta)
    }

    /// Epsilon still available under the budget (never negative).
    pub fn remaining_epsilon(&self) -> f64 {
        (self.budget_epsilon - self.epsilon_spent()).max(0.0)
    }

    /// Admission control: true if composing `worst_case` on top of the
    /// current total still fits the epsilon budget. A campaign must call
    /// this with the round's *worst-case* spend (smallest realizable
    /// noise) before running the round, so the budget can never be
    /// exceeded even if every optional degradation fires.
    pub fn admits(&self, worst_case: LinearRdp) -> bool {
        self.total().compose(&worst_case).to_epsilon(self.delta) <= self.budget_epsilon
    }

    /// The configured epsilon budget.
    pub fn budget_epsilon(&self) -> f64 {
        self.budget_epsilon
    }

    /// The configured delta.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("ledger-test-{}-{tag}-{n}", std::process::id()));
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn typed_errors_for_bad_parameters() {
        let tmp = TempDir::new("params");
        assert_eq!(
            DurableRdpLedger::open(&tmp.0, 0.0, 1e-6).unwrap_err(),
            LedgerError::InvalidBudget(0.0)
        );
        assert_eq!(
            DurableRdpLedger::open(&tmp.0, -1.0, 1e-6).unwrap_err(),
            LedgerError::InvalidBudget(-1.0)
        );
        assert!(matches!(
            DurableRdpLedger::open(&tmp.0, f64::INFINITY, 1e-6).unwrap_err(),
            LedgerError::InvalidBudget(_)
        ));
        assert_eq!(
            DurableRdpLedger::open(&tmp.0, 1.0, 0.0).unwrap_err(),
            LedgerError::InvalidDelta(0.0)
        );
        assert_eq!(
            DurableRdpLedger::open(&tmp.0, 1.0, 1.0).unwrap_err(),
            LedgerError::InvalidDelta(1.0)
        );
    }

    #[test]
    fn charges_are_exactly_once_and_survive_reopen() {
        let tmp = TempDir::new("reopen");
        let spent = {
            let ledger = DurableRdpLedger::open(&tmp.0, 100.0, 1e-6).unwrap();
            assert!(ledger.charge(0, LinearRdp::from_coeff(0.02)).unwrap());
            assert!(ledger.charge(1, LinearRdp::from_coeff(0.03)).unwrap());
            // Exactly-once: the duplicate is refused without a write.
            assert!(!ledger.charge(1, LinearRdp::from_coeff(0.5)).unwrap());
            assert_eq!(ledger.charges(), 2);
            ledger.epsilon_spent()
        };
        let ledger = DurableRdpLedger::open(&tmp.0, 100.0, 1e-6).unwrap();
        assert_eq!(ledger.charges(), 2);
        assert_eq!(ledger.charged_rounds(), vec![0, 1]);
        assert_eq!(ledger.epsilon_spent(), spent, "replay resumes at the exact epsilon");
        assert!(ledger.charged(1) && !ledger.charged(2));
        // The duplicate's coefficient must not have leaked into round 1.
        assert!((ledger.total().coeff() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn admission_refuses_over_budget_rounds() {
        let tmp = TempDir::new("admit");
        // Budget sized for roughly two of these charges at δ = 1e-6.
        let per_round = LinearRdp::from_coeff(0.02);
        let budget = per_round.repeat(2).to_epsilon(1e-6) + 1e-9;
        let ledger = DurableRdpLedger::open(&tmp.0, budget, 1e-6).unwrap();
        assert!(ledger.admits(per_round));
        ledger.charge(0, per_round).unwrap();
        assert!(ledger.admits(per_round));
        ledger.charge(1, per_round).unwrap();
        assert!(!ledger.admits(per_round), "third round must be refused");
        assert!(ledger.epsilon_spent() <= budget, "budget never exceeded");
        // Refusal is stateless: nothing was journaled for the refused round.
        assert_eq!(ledger.charges(), 2);
    }

    #[test]
    fn torn_final_record_is_discarded_on_replay() {
        let tmp = TempDir::new("torn");
        {
            let ledger = DurableRdpLedger::open(&tmp.0, 10.0, 1e-6).unwrap();
            ledger.charge(0, LinearRdp::from_coeff(0.01)).unwrap();
            ledger.charge(1, LinearRdp::from_coeff(0.01)).unwrap();
        }
        let path = tmp.0.join(LEDGER_FILE);
        let full = fs::read(&path).unwrap();
        let record_len = full.len() / 2;
        // Crash mid-append: half of a third charge record at the tail.
        let extra =
            transport::journal::encode_record(2, 0, CHARGE, &0.01f64.to_bits().to_le_bytes());
        let mut torn = full.clone();
        torn.extend_from_slice(&extra[..record_len / 2]);
        fs::write(&path, &torn).unwrap();

        let ledger = DurableRdpLedger::open(&tmp.0, 10.0, 1e-6).unwrap();
        assert_eq!(ledger.charged_rounds(), vec![0, 1], "torn charge must vanish");
        // The journal stays appendable on the valid prefix.
        assert!(ledger.charge(2, LinearRdp::from_coeff(0.01)).unwrap());
    }

    #[test]
    fn corrupt_coefficient_is_a_typed_error() {
        let tmp = TempDir::new("nan");
        {
            let (mut journal, _) = AppendJournal::open(&tmp.0, LEDGER_FILE).unwrap();
            journal.append(0, 0, CHARGE, &f64::NAN.to_bits().to_le_bytes()).unwrap();
        }
        assert_eq!(
            DurableRdpLedger::open(&tmp.0, 1.0, 1e-6).unwrap_err(),
            LedgerError::CorruptJournal("charge coefficient out of range")
        );
    }

    #[test]
    fn unknown_record_kind_is_a_typed_error() {
        let tmp = TempDir::new("kind");
        {
            let (mut journal, _) = AppendJournal::open(&tmp.0, LEDGER_FILE).unwrap();
            journal.append(0, 0, 0x7E, b"????????").unwrap();
        }
        assert_eq!(
            DurableRdpLedger::open(&tmp.0, 1.0, 1e-6).unwrap_err(),
            LedgerError::CorruptJournal("unknown ledger record kind")
        );
    }

    proptest! {
        /// Replay after truncation at *any* byte offset yields a prefix
        /// of the original charge sequence, and the epsilon trajectory
        /// over that prefix is monotone and bounded by the full spend.
        #[test]
        fn truncated_replay_is_a_monotone_prefix(
            coeffs in proptest::collection::vec(0.0f64..0.1, 1..12),
            cut_frac in 0.0f64..1.0,
        ) {
            let tmp = TempDir::new("prop");
            let delta = 1e-6;
            {
                let ledger = DurableRdpLedger::open(&tmp.0, 1e9, delta).unwrap();
                for (round, &c) in coeffs.iter().enumerate() {
                    ledger.charge(round as u64, LinearRdp::from_coeff(c)).unwrap();
                }
            }
            let path = tmp.0.join(LEDGER_FILE);
            let full = fs::read(&path).unwrap();
            let cut = (full.len() as f64 * cut_frac) as usize;
            fs::write(&path, &full[..cut]).unwrap();

            let ledger = DurableRdpLedger::open(&tmp.0, 1e9, delta).unwrap();
            let recovered = ledger.charged_rounds();
            // A prefix: rounds 0..k with no gaps and no reordering.
            prop_assert_eq!(
                recovered.clone(),
                (0..recovered.len() as u64).collect::<Vec<_>>()
            );
            // Monotone epsilon: each surviving charge only adds spend.
            let mut acc = LinearRdp::zero();
            let mut last_eps = 0.0;
            for round in &recovered {
                acc = acc.compose(&LinearRdp::from_coeff(coeffs[*round as usize]));
                let eps = acc.to_epsilon(delta);
                prop_assert!(eps >= last_eps);
                last_eps = eps;
            }
            prop_assert_eq!(ledger.epsilon_spent(), last_eps);
            let full_spend = coeffs
                .iter()
                .fold(LinearRdp::zero(), |a, &c| a.compose(&LinearRdp::from_coeff(c)))
                .to_epsilon(delta);
            prop_assert!(ledger.epsilon_spent() <= full_spend + 1e-12);
        }
    }
}
