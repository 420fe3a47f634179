//! Slot packing: many masked values in one Paillier plaintext.
//!
//! A CRT decryption is the dearest Paillier operation, and every bounce
//! of Alg. 2 and Alg. 3 ends in the receiver decrypting a vector of
//! masked values that are each a few dozen bits wide, under a key whose
//! plaintext holds hundreds or thousands. A [`Packer`] lays such a
//! vector out as fixed-width *slots* of one plaintext,
//!
//! ```text
//! P = Σ (x_i + 2^(s−1)) · 2^(s·i),      s = slot_bits,
//! ```
//!
//! so the receiver decrypts `⌈N / slots⌉` ciphertexts instead of `N` and
//! splits them in the clear. The `2^(s−1)` offset makes every slot
//! non-negative (the [`paillier::SignedCodec`] trick, per slot), so `P`
//! is an ordinary integer below `2^(s·N) ≤ 2^(|n|−1) < n` and no carry
//! or borrow ever crosses a slot boundary while `|x_i| < 2^(s−1)`.
//!
//! The sender holds ciphertexts, not values, so it packs homomorphically:
//! [`Packer::fold`] computes `E[Σ x_i · 2^(s·i)]` by Horner's rule — one
//! `s`-bit shift (`s` squarings mod `n²`) and one multiplication per
//! entry — and the offsets, together with whatever mask the leg adds,
//! arrive in a single `add_plain` of the clear-text pack
//! ([`Packer::fold_masked`]). The sender permutes *before* it folds, so
//! the receiver learns exactly the sequence it would have decrypted
//! entry by entry.
//!
//! `slot_bits` is derived from the session's public parameters alone
//! ([`slot_bits`]) and `slots` from the receiving key, so both ends of a
//! leg agree on the layout without a byte of negotiation, and there is
//! one wire shape: at `slots = 1` the same code ships one ciphertext per
//! value.

use bigint::Ubig;
use paillier::{Ciphertext, PrivateKey, PublicKey};

use crate::domain::SharesOutOfRange;
use crate::error::SmcError;
use crate::machine::expect_len;
use crate::session::SessionConfig;

/// Why a slot layout or a packed plaintext was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// One slot of the session's layout is wider than the key's
    /// plaintext (or than the `i128` the protocol computes in): the
    /// session's user count and share domain do not fit its Paillier
    /// modulus.
    SlotTooWide {
        /// The slot width the session's parameters derive.
        slot_bits: u32,
        /// How many bits one slot may have under this key.
        limit: u64,
    },
    /// A decrypted packed plaintext has bits above its last slot — a
    /// forged frame, or values that escaped the slot budget.
    Overflow {
        /// Bit length of the plaintext.
        bits: u64,
        /// Bits its slots span.
        limit: u64,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::SlotTooWide { slot_bits, limit } => {
                write!(f, "a {slot_bits}-bit slot does not fit the {limit} bits available")
            }
            PackError::Overflow { bits, limit } => {
                write!(f, "packed plaintext of {bits} bits overruns its {limit} bits of slots")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// Widest slot the `i128` slot arithmetic supports.
const MAX_SLOT_BITS: u32 = 127;

/// The slot width of a session: the narrowest `s` such that every value
/// Alg. 2 or Alg. 3 moves satisfies `|x| < 2^(s−1)`.
///
/// A value in transit is an aggregated share plus at most three masks
/// (`b + r1 + r2 + r3` on Alg. 2's second chain). The aggregate is
/// bounded two ways, and the slot holds the larger:
///
/// * `|U| · 2^(share_bits+1)` — `|U|` users' shares, each at most
///   `2^share_bits` for the uniform `a`-share plus as much again for the
///   value it hides. This bound does not depend on `compare_bits`, so a
///   session with too many users for its comparison domain still moves
///   its aggregate intact and fails at step 4 with the typed
///   [`SharesOutOfRange`] it always did;
/// * `2^(compare_bits−1)` — whatever steps 4, 5 and 8 accept.
///
/// `None` when the bound itself overflows 128 bits.
pub fn slot_bits(config: &SessionConfig) -> Option<u32> {
    let domain = config.domain;
    let pow2 = |bits: u32| 1u128.checked_shl(bits);
    let aggregate =
        (config.num_users as u128).checked_mul(pow2(domain.share_bits.checked_add(1)?)?)?;
    let accepted = pow2(domain.compare_bits.checked_sub(1)?)?;
    let bound = aggregate.max(accepted).checked_add(pow2(domain.mask_bits)?.checked_mul(3)?)?;
    // bound < 2^bits, and one more bit for the sign.
    Some(u128::BITS - bound.leading_zeros() + 1)
}

/// The slot layout of one session under one receiving key. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct Packer<'k> {
    key: &'k PublicKey,
    slot_bits: u32,
    /// Slots per plaintext, at least 1.
    slots: usize,
}

impl<'k> Packer<'k> {
    /// The layout of `config`'s session for plaintexts under `key`:
    /// `slots = ⌊(|n| − 1) / slot_bits⌋`, so a full plaintext stays below
    /// `2^(|n|−1) < n`.
    ///
    /// # Errors
    ///
    /// [`PackError::SlotTooWide`] when not even one slot fits.
    pub fn new(config: &SessionConfig, key: &'k PublicKey) -> Result<Packer<'k>, SmcError> {
        let plaintext_bits = key.modulus().bits() - 1;
        let limit = plaintext_bits.min(u64::from(MAX_SLOT_BITS));
        let slot_bits = slot_bits(config).unwrap_or(u32::MAX);
        if u64::from(slot_bits) > limit {
            return Err(PackError::SlotTooWide { slot_bits, limit }.into());
        }
        Ok(Packer { key, slot_bits, slots: (plaintext_bits / u64::from(slot_bits)) as usize })
    }

    /// Bits per slot.
    pub fn slot_bits(&self) -> u32 {
        self.slot_bits
    }

    /// Slots per plaintext.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// How many ciphertexts a frame of `count` values is.
    pub fn frame_len(&self, count: usize) -> usize {
        count.div_ceil(self.slots)
    }

    /// The per-slot offset `2^(s−1)`.
    fn offset(&self) -> i128 {
        1i128 << (self.slot_bits - 1)
    }

    /// Packs `values` in the clear: one plaintext per `slots` values,
    /// value `i` of a chunk in slot `i`, each with its offset.
    ///
    /// # Errors
    ///
    /// [`SharesOutOfRange`] for a value outside `[−2^(s−1), 2^(s−1))`.
    pub fn pack(&self, values: &[i128]) -> Result<Vec<Ubig>, SmcError> {
        let offset = self.offset();
        values
            .chunks(self.slots)
            .map(|chunk| {
                chunk.iter().rev().try_fold(Ubig::zero(), |acc, &value| {
                    if value < -offset || value >= offset {
                        return Err(SharesOutOfRange { value, bound: offset }.into());
                    }
                    Ok(&(acc << self.slot_bits) + &Ubig::from((value + offset) as u128))
                })
            })
            .collect()
    }

    /// Splits the plaintexts of a frame of `count` values back into the
    /// values — the inverse of [`Packer::pack`].
    ///
    /// # Errors
    ///
    /// [`SmcError::LengthMismatch`] unless there are exactly
    /// [`Packer::frame_len`] plaintexts, [`PackError::Overflow`] for one
    /// with bits above its last slot.
    pub fn unpack(&self, plains: &[Ubig], count: usize) -> Result<Vec<i128>, SmcError> {
        expect_len(self.frame_len(count), plains.len())?;
        let (offset, width) = (self.offset(), u64::from(self.slot_bits));
        let mut values = Vec::with_capacity(count);
        for plain in plains {
            let in_chunk = (count - values.len()).min(self.slots);
            let limit = width * in_chunk as u64;
            if plain.bits() > limit {
                return Err(PackError::Overflow { bits: plain.bits(), limit }.into());
            }
            let mut rest = plain.clone();
            for _ in 0..in_chunk {
                let slot = rest.low_bits(width).to_u128().expect("a slot is at most 127 bits");
                values.push(slot as i128 - offset);
                rest = rest >> self.slot_bits;
            }
        }
        Ok(values)
    }

    /// Packs ciphertexts under the key homomorphically:
    /// `E[Σ x_i · 2^(s·i)]` per chunk of `slots` entries, by Horner's
    /// rule from the top slot down. No offset is added — see
    /// [`Packer::fold_masked`].
    pub fn fold(&self, entries: &[Ciphertext]) -> Vec<Ciphertext> {
        let shift = Ubig::one() << self.slot_bits;
        entries
            .chunks(self.slots)
            .map(|chunk| {
                let (top, lower) = chunk.split_last().expect("chunks are never empty");
                lower.iter().rev().fold(top.clone(), |acc, entry| {
                    self.key.add(&self.key.mul_plain(&acc, &shift), entry)
                })
            })
            .collect()
    }

    /// The packed frame `E[x_i + masks_i]`: [`Packer::fold`] of the
    /// entries plus, in one `add_plain` per ciphertext, the clear-text
    /// pack of the masks — which carries the slot offsets with it.
    ///
    /// # Errors
    ///
    /// [`SmcError::LengthMismatch`] unless there is one mask per entry;
    /// [`Packer::pack`]'s for a mask outside the slot.
    pub fn fold_masked(
        &self,
        entries: &[Ciphertext],
        masks: &[i128],
    ) -> Result<Vec<Ciphertext>, SmcError> {
        expect_len(entries.len(), masks.len())?;
        let (folded, plains) = (self.fold(entries), self.pack(masks)?);
        Ok(folded.iter().zip(&plains).map(|(c, plain)| self.key.add_plain(c, plain)).collect())
    }

    /// Decrypts a packed frame of `count` values under the key's private
    /// half.
    ///
    /// # Errors
    ///
    /// [`Packer::unpack`]'s, and a malformed ciphertext's.
    pub fn open(
        &self,
        sk: &PrivateKey,
        frame: &[Ciphertext],
        count: usize,
    ) -> Result<Vec<i128>, SmcError> {
        expect_len(self.frame_len(count), frame.len())?;
        let plains = frame.iter().map(|c| sk.decrypt_crt(c)).collect::<Result<Vec<_>, _>>()?;
        self.unpack(&plains, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paillier::{Keypair, SignedCodec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;

    /// One keypair per width, generated once.
    fn keypair(bits: u64) -> &'static Keypair {
        static KEYS: [OnceLock<Keypair>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        let at = [64, 512, 1024].iter().position(|&b| b == bits).expect("a cached width");
        KEYS[at].get_or_init(|| Keypair::generate(&mut StdRng::seed_from_u64(bits), bits))
    }

    /// `(slot_bits, slots)`: the paper domain under a 64-bit key, the test
    /// domain under one, and 42-bit slots under 1024 and 2048 bits. The
    /// clear-text half never touches the key, so any key stands in.
    const GEOMETRIES: [(u32, usize); 4] = [(41, 1), (27, 2), (42, 24), (42, 48)];

    fn geometry((slot_bits, slots): (u32, usize)) -> Packer<'static> {
        Packer { key: keypair(64).public_key(), slot_bits, slots }
    }

    proptest! {
        #[test]
        fn pack_then_unpack_is_identity(
            seed in any::<u64>(),
            count in 1usize..120,
            which in 0usize..4,
        ) {
            let packer = geometry(GEOMETRIES[which]);
            let (min, max) = (-packer.offset(), packer.offset() - 1);
            let mut rng = StdRng::seed_from_u64(seed);
            let values: Vec<i128> = (0..count)
                .map(|_| match rng.gen_range(0..6) {
                    0 => min,
                    1 => max,
                    2 => 0,
                    3 => -1,
                    _ => rng.gen_range(min..=max),
                })
                .collect();
            let plains = packer.pack(&values).unwrap();
            prop_assert_eq!(plains.len(), count.div_ceil(packer.slots()));
            prop_assert_eq!(packer.unpack(&plains, count).unwrap(), values);
        }
    }

    #[test]
    fn an_extreme_value_in_any_slot_leaves_its_neighbours_alone() {
        for packer in GEOMETRIES.map(geometry) {
            let (min, max) = (-packer.offset(), packer.offset() - 1);
            // Two full plaintexts and a short one.
            let count = 2 * packer.slots() + 1;
            for at in 0..count {
                for (edge, fill) in [(min, max), (max, min), (0, min), (-1, max), (max, max)] {
                    let mut values = vec![fill; count];
                    values[at] = edge;
                    let plains = packer.pack(&values).unwrap();
                    assert_eq!(plains.len(), 3);
                    assert_eq!(packer.unpack(&plains, count).unwrap(), values, "slot {at}");
                }
            }
        }
    }

    #[test]
    fn slot_bits_bounds_every_value_in_transit() {
        use crate::domain::ShareDomain;
        let sessions = [
            (SessionConfig::paper(2, 3), 41),
            (SessionConfig::paper(3, 10), 41),
            (SessionConfig::paper(1366, 2), 43),
            (SessionConfig::test(1, 1), 27),
            (SessionConfig::test(5, 3), 27),
            // `secure::tests::a_local_failure_reports_at_once`: past the
            // comparison domain, still inside its slots.
            (SessionConfig::test(640, 2), 30),
        ];
        for (config, expected) in sessions {
            let ShareDomain { share_bits, mask_bits, compare_bits } = config.domain;
            let bits = slot_bits(&config).unwrap();
            assert_eq!(bits, expected, "{config:?}");
            // The worst aggregate of in-range shares (a uniform a-share
            // plus the value it hides, per user), or the widest value the
            // comparison steps accept …
            let shares = config.num_users as i128 * (2i128 << share_bits);
            let accepted = 1i128 << (compare_bits - 1);
            // … under all three masks of Alg. 2's b-chain.
            let worst = shares.max(accepted) + 3 * ((1i128 << mask_bits) - 1);
            let packer = geometry((bits, 2));
            for value in [worst, -worst] {
                assert_eq!(
                    packer.unpack(&packer.pack(&[value; 2]).unwrap(), 2).unwrap(),
                    [value; 2]
                );
            }
            // One bit fewer would not hold it.
            assert!(geometry((bits - 1, 2)).pack(&[worst]).is_err());
        }
    }

    #[test]
    fn slots_follow_from_the_session_and_the_key() {
        let slots = |config: &SessionConfig, bits| {
            Packer::new(config, keypair(bits).public_key()).unwrap().slots()
        };
        assert_eq!(slots(&SessionConfig::test(5, 3), 64), 2);
        assert_eq!(slots(&SessionConfig::paper(3, 10), 64), 1);
        assert_eq!(slots(&SessionConfig::paper(3, 10), 512), 12);
        assert_eq!(slots(&SessionConfig::paper(3, 10), 1024), 24);
    }

    #[test]
    fn homomorphic_fold_equals_the_clear_text_pack() {
        let sessions = [
            (64, SessionConfig::test(3, 5)),
            (64, SessionConfig::paper(3, 5)),
            (512, SessionConfig::paper(3, 30)),
            (1024, SessionConfig::paper(3, 30)),
        ];
        for (bits, config) in sessions {
            let (pk, sk) = (keypair(bits).public_key(), keypair(bits).private_key());
            let packer = Packer::new(&config, pk).unwrap();
            let codec = SignedCodec::new(pk);
            let mut rng = StdRng::seed_from_u64(bits);
            let count = config.num_classes;
            let bound = 1i128 << (config.domain.compare_bits - 1);
            let mut values: Vec<i128> = (0..count).map(|_| rng.gen_range(-bound..bound)).collect();
            (values[0], values[count - 1]) = (-bound, bound - 1);
            let masks: Vec<i128> =
                (0..count).map(|_| config.domain.random_mask(&mut rng)).collect();
            let entries: Vec<Ciphertext> = values
                .iter()
                .map(|&v| pk.encrypt(&codec.encode_i128(v).unwrap(), &mut rng).unwrap())
                .collect();

            let frame = packer.fold_masked(&entries, &masks).unwrap();
            assert_eq!(frame.len(), count.div_ceil(packer.slots()), "{bits}-bit key");
            let sums: Vec<i128> = values.iter().zip(&masks).map(|(v, m)| v + m).collect();
            let plains: Vec<Ubig> = frame.iter().map(|c| sk.decrypt_crt(c).unwrap()).collect();
            assert_eq!(plains, packer.pack(&sums).unwrap(), "{bits}-bit key");
            assert_eq!(packer.open(sk, &frame, count).unwrap(), sums);

            // A clear-text pack encrypted once, with per-entry
            // ciphertexts folded on top: Alg. 2's last leg.
            let negs: Vec<Ciphertext> = masks
                .iter()
                .map(|&m| pk.encrypt(&codec.encode_i128(-m).unwrap(), &mut rng).unwrap())
                .collect();
            let stripped: Vec<Ciphertext> = packer
                .pack(&sums)
                .unwrap()
                .iter()
                .zip(packer.fold(&negs))
                .map(|(plain, neg)| pk.add(&pk.encrypt(plain, &mut rng).unwrap(), &neg))
                .collect();
            assert_eq!(packer.open(sk, &stripped, count).unwrap(), values);
        }
    }

    #[test]
    fn hostile_inputs_are_typed_errors() {
        let packer = geometry((27, 2));
        let plains = packer.pack(&[5, -5, 7]).unwrap();
        // The wrong number of plaintexts for the count, either way.
        for count in [2, 5] {
            assert!(matches!(
                packer.unpack(&plains, count),
                Err(SmcError::LengthMismatch { expected, got: 2 }) if expected != 2
            ));
        }
        // A bit above the last slot: of a full plaintext, and of the
        // short one that ends the frame.
        for (at, limit) in [(0, 54), (1, 27)] {
            let mut forged = plains.clone();
            forged[at] = &forged[at] + &(Ubig::one() << limit as u32);
            assert!(matches!(
                packer.unpack(&forged, 3),
                Err(SmcError::Packing(PackError::Overflow { bits, limit: l })) if l == limit && bits == limit + 1
            ));
        }
        // A value one past either end of the slot.
        for value in [1i128 << 26, -(1i128 << 26) - 1] {
            assert!(matches!(
                packer.pack(&[0, value]),
                Err(SmcError::Domain(SharesOutOfRange { value: v, .. })) if v == value
            ));
        }
        // A session whose slot outgrows the key's plaintext, or i128.
        let pk = keypair(64).public_key();
        let crowded = SessionConfig::test(1 << 44, 2);
        assert!(matches!(
            Packer::new(&crowded, pk),
            Err(SmcError::Packing(PackError::SlotTooWide { slot_bits: 65, .. }))
        ));
        let mut absurd = SessionConfig::test(2, 2);
        absurd.domain.share_bits = 200;
        assert!(matches!(
            Packer::new(&absurd, keypair(1024).public_key()),
            Err(SmcError::Packing(PackError::SlotTooWide { limit: 127, .. }))
        ));
    }
}
