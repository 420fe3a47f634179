//! Adversarial input validation for the servers' receive paths.
//!
//! Every party is honest-but-curious in the paper's model, and the two
//! servers are held to exactly that (DESIGN.md §11). *User* encodings are
//! still never trusted — a flipped bit, a replayed upload or a
//! deliberately malformed ciphertext must be rejected with a typed
//! error before any homomorphic work touches it, never absorbed, never
//! a panic. [`UploadValidator`] centralizes the three checks every
//! encrypted upload must pass:
//!
//! 1. **freshness** — the (sender, step, sequence) tuple has not been
//!    seen before (the transport de-duplicates redelivered envelopes;
//!    this catches a peer that re-numbers a replay);
//! 2. **arity** — the vector has exactly one entry per class;
//! 3. **well-formedness** — each ciphertext is a unit of `Z_{n²}`:
//!    non-zero, fully reduced, and coprime with `n`. This mirrors the
//!    check `PrivateKey::decrypt` performs, but runs it on the *public*
//!    side so a hostile value is refused at the door of the server that
//!    cannot decrypt it. Coprimality costs one gcd per *vector*: a
//!    product is a unit of `Z_n` iff every factor is, so `gcd(∏ c_k mod
//!    n, n) = 1` accepts exactly the vectors whose entries all pass.
//!
//! Every rejection emits the matching [`transport::FaultEvent`], which
//! the round's driver counts on its meter, so chaos runs and operators
//! can see exactly what was refused and why.

use std::collections::HashMap;

use bigint::gcd::gcd;
use bigint::modular::modmul;
use bigint::Ubig;
use paillier::{Ciphertext, PublicKey};
use transport::{FaultEvent, PartyId, Step};

use crate::error::SmcError;

/// Stateful validator for one server's inbound uploads within a round.
///
/// Keep one instance per collection phase (its replay window is the set
/// of tuples it has seen); it is cheap — the gcd is the only non-trivial
/// work, and it runs once per uploaded vector.
///
/// The replay window is keyed per sender so the streaming aggregation
/// paths can [`UploadValidator::retire`] a user the moment its upload is
/// folded: a million-user round then holds freshness state only for the
/// handful of users currently in flight, not O(|U|) tuples for the whole
/// collection. Retiring is safe because the server *pulls* per-sender
/// streams — once a user's expected messages are drained and folded,
/// nothing is ever received from that user under that step again, so a
/// late replay is simply never read.
#[derive(Debug)]
pub struct UploadValidator {
    num_classes: usize,
    /// Per-sender freshness window: the (step, seq) tuples seen from each
    /// sender that has not been retired yet. A sender contributes at most
    /// a few entries (one per expected vector), so the inner scan is a
    /// short linear probe.
    seen: HashMap<PartyId, Vec<(Step, u64)>>,
}

impl UploadValidator {
    /// A validator expecting `num_classes` entries per uploaded vector.
    pub fn new(num_classes: usize) -> UploadValidator {
        UploadValidator { num_classes, seen: HashMap::new() }
    }

    /// Drops all freshness state held for `from` — called by the
    /// streaming aggregation paths once the sender's upload has been
    /// folded into a running partial sum (or the sender has been marked
    /// dropped), so validator memory tracks the in-flight window instead
    /// of growing O(|U|) over the round.
    pub fn retire(&mut self, from: PartyId) {
        self.seen.remove(&from);
    }

    /// Validates one received upload. On failure, pushes the matching
    /// rejection onto `events` and returns the typed error; the caller
    /// decides whether that is fatal (strict collection) or a dropout
    /// (resilient collection).
    ///
    /// # Errors
    ///
    /// [`SmcError::DuplicateSubmission`], [`SmcError::LengthMismatch`]
    /// or [`SmcError::InvalidCiphertext`], checked in that order.
    pub fn check(
        &mut self,
        events: &mut Vec<FaultEvent>,
        from: PartyId,
        step: Step,
        seq: u64,
        shares: &[Ciphertext],
        key: &PublicKey,
    ) -> Result<(), SmcError> {
        let window = self.seen.entry(from).or_default();
        if window.contains(&(step, seq)) {
            events.push(FaultEvent::RejectedDuplicate);
            return Err(SmcError::DuplicateSubmission { from, step, seq });
        }
        window.push((step, seq));
        if shares.len() != self.num_classes {
            events.push(FaultEvent::RejectedArity);
            return Err(SmcError::LengthMismatch { expected: self.num_classes, got: shares.len() });
        }
        let n = key.modulus();
        let n2 = key.modulus_squared();
        // The entries before the first one out of range, cleared by one
        // gcd over their product; the per-entry gcds run only to name the
        // index of a vector that is rejected anyway.
        let in_range =
            shares.iter().take_while(|c| !c.as_raw().is_zero() && c.as_raw() < n2).count();
        let prefix = &shares[..in_range];
        let product = prefix.iter().fold(Ubig::one(), |acc, c| modmul(&acc, &(c.as_raw() % n), n));
        let index = if gcd(&product, n).is_one() {
            in_range
        } else {
            prefix
                .iter()
                .position(|c| !gcd(c.as_raw(), n).is_one())
                .expect("a product sharing a factor with n has a factor that does")
        };
        if index < shares.len() {
            events.push(FaultEvent::RejectedCiphertext);
            return Err(SmcError::InvalidCiphertext { from, index });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionConfig, SessionKeys};
    use bigint::prime::gen_prime;
    use bigint::random::{gen_below, gen_coprime};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (PublicKey, Vec<Ciphertext>) {
        let mut rng = StdRng::seed_from_u64(77);
        let keys = SessionKeys::generate(SessionConfig::test(1, 2), &mut rng);
        let key = keys.server1().peer_public().clone();
        let good: Vec<Ciphertext> =
            (0..2).map(|v| key.encrypt(&Ubig::from(v as u64 + 1), &mut rng).unwrap()).collect();
        (key, good)
    }

    #[test]
    fn well_formed_upload_passes() {
        let (key, good) = setup();
        let key = &key;
        let mut events = Vec::new();
        let mut v = UploadValidator::new(2);
        v.check(&mut events, PartyId::User(0), Step::SecureSumVotes, 1, &good, key).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn replayed_sequence_number_is_rejected() {
        let (key, good) = setup();
        let key = &key;
        let mut events = Vec::new();
        let mut v = UploadValidator::new(2);
        v.check(&mut events, PartyId::User(0), Step::SecureSumVotes, 1, &good, key).unwrap();
        let err = v
            .check(&mut events, PartyId::User(0), Step::SecureSumVotes, 1, &good, key)
            .unwrap_err();
        assert!(matches!(
            err,
            SmcError::DuplicateSubmission {
                from: PartyId::User(0),
                step: Step::SecureSumVotes,
                seq: 1
            }
        ));
        assert_eq!(events, [FaultEvent::RejectedDuplicate]);
        // Same seq from a different sender or step is fine.
        v.check(&mut events, PartyId::User(1), Step::SecureSumVotes, 1, &good, key).unwrap();
        v.check(&mut events, PartyId::User(0), Step::SecureSumNoisy, 1, &good, key).unwrap();
    }

    #[test]
    fn retired_senders_free_their_state() {
        let (key, good) = setup();
        let key = &key;
        let mut events = Vec::new();
        let mut v = UploadValidator::new(2);
        for u in 0..8 {
            v.check(&mut events, PartyId::User(u), Step::SecureSumVotes, 1, &good, key).unwrap();
            v.check(&mut events, PartyId::User(u), Step::SecureSumVotes, 2, &good, key).unwrap();
        }
        assert_eq!(v.seen.len(), 8);
        // Streaming fold retires each user once its upload is absorbed:
        // the validator's window must shrink, not grow O(|U|).
        for u in 0..8 {
            v.retire(PartyId::User(u));
        }
        assert_eq!(v.seen.len(), 0);
        // Retiring is idempotent and does not disturb later senders.
        v.retire(PartyId::User(3));
        v.check(&mut events, PartyId::User(9), Step::SecureSumVotes, 1, &good, key).unwrap();
        assert_eq!(v.seen.len(), 1);
    }

    #[test]
    fn wrong_arity_is_rejected_and_counted() {
        let (key, good) = setup();
        let key = &key;
        let mut events = Vec::new();
        let mut v = UploadValidator::new(3);
        let err = v
            .check(&mut events, PartyId::User(0), Step::SecureSumVotes, 1, &good, key)
            .unwrap_err();
        assert!(matches!(err, SmcError::LengthMismatch { expected: 3, got: 2 }));
        assert_eq!(events, [FaultEvent::RejectedArity]);
    }

    #[test]
    fn hostile_ciphertexts_are_rejected_and_counted() {
        let (key, good) = setup();
        let key = &key;
        let mut events = Vec::new();
        let zero = Ciphertext::from_raw(Ubig::from(0u64));
        let unreduced = Ciphertext::from_raw(key.modulus_squared().clone());
        // A multiple of n shares a factor with n, so it is not a unit.
        let non_unit = Ciphertext::from_raw(key.modulus().clone());
        for (seq, bad) in [zero, unreduced, non_unit].into_iter().enumerate() {
            let mut shares = good.clone();
            shares[1] = bad;
            let mut v = UploadValidator::new(2);
            let err = v
                .check(
                    &mut events,
                    PartyId::User(0),
                    Step::SecureSumVotes,
                    seq as u64,
                    &shares,
                    key,
                )
                .unwrap_err();
            assert!(
                matches!(err, SmcError::InvalidCiphertext { from: PartyId::User(0), index: 1 }),
                "seq {seq}: {err:?}"
            );
        }
        assert_eq!(events, [FaultEvent::RejectedCiphertext; 3]);
    }

    /// A key over `n = p·q` with both primes in hand, so a test can build
    /// non-units of every kind.
    fn factored_key() -> (PublicKey, Ubig, Ubig) {
        let mut rng = StdRng::seed_from_u64(78);
        let p = gen_prime(&mut rng, 24);
        let q = std::iter::repeat_with(|| gen_prime(&mut rng, 24)).find(|q| *q != p).unwrap();
        let n = &p * &q;
        let hs = &n + &Ubig::one();
        (PublicKey::from_parts(n, hs).unwrap(), p, q)
    }

    proptest! {
        /// Up to two hostile entries — ≡ 0 mod n, a multiple of p or of q,
        /// zero, unreduced — anywhere in a vector of units: the verdict and
        /// the index named are the per-entry loop's.
        #[test]
        fn one_gcd_per_vector_gives_the_per_entry_verdict_and_index(
            len in 1usize..7,
            hostile in proptest::collection::vec((0usize..7, 0usize..5, 1u64..1000), 0..3),
            seed in any::<u64>(),
        ) {
            let (key, p, q) = factored_key();
            let (n, n2) = (key.modulus(), key.modulus_squared());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut raws: Vec<Ubig> = (0..len)
                .map(|_| &gen_coprime(&mut rng, n) + &(n * &gen_below(&mut rng, n)))
                .collect();
            for (at, kind, m) in hostile {
                let m = Ubig::from(m);
                raws[at % len] = match kind {
                    0 => n * &m,
                    1 => &p * &m,
                    2 => &q * &m,
                    3 => Ubig::zero(),
                    _ => n2 + &m,
                };
            }
            let per_entry =
                raws.iter().position(|c| c.is_zero() || c >= n2 || !gcd(c, n).is_one());

            let shares: Vec<Ciphertext> = raws.into_iter().map(Ciphertext::from_raw).collect();
            let mut events = Vec::new();
            let got = UploadValidator::new(len).check(
                &mut events,
                PartyId::User(0),
                Step::SecureSumVotes,
                1,
                &shares,
                &key,
            );
            match per_entry {
                None => prop_assert!(got.is_ok() && events.is_empty(), "{got:?}"),
                Some(index) => {
                    let named = matches!(
                        got,
                        Err(SmcError::InvalidCiphertext { from: PartyId::User(0), index: i })
                            if i == index
                    );
                    prop_assert!(named, "expected index {index}, got {got:?}");
                    prop_assert_eq!(&events, &[FaultEvent::RejectedCiphertext]);
                }
            }
        }
    }
}
