//! The serializable round state machine behind crash recovery.
//!
//! The secure pipeline of Alg. 5 is a fixed nine-step sequence; each
//! server's position in it, plus the working data it owns at that
//! position, is reified here as a [`RoundState`] — one variant per
//! [`Step`], tagged on the wire by the step's ordinal. After completing a
//! step a server snapshots its state through [`transport::Wire`] into a
//! [`transport::checkpoint::CheckpointStore`]; after a crash, a
//! supervisor restores the latest consistent S1/S2 snapshot pair and
//! re-enters the pipeline at the following step.
//!
//! A state carries exactly what the *next* steps still need — aggregated
//! ciphertext sums, masked permuted sequences, the server's own
//! Blind-and-Permute permutation, the reconciled survivor sets, the
//! winning slot. It deliberately carries nothing else: no private keys,
//! no decrypted peer data, no in-flight DGK randomness (comparisons are
//! atomic within a step and re-run from the step boundary on recovery).
//! See DESIGN.md §"Recovery model".

use bytes::{Buf, BufMut, Bytes, BytesMut};
use paillier::Ciphertext;
use transport::{Step, Wire, WireError};

use crate::permutation::Permutation;

impl Wire for Permutation {
    fn encode(&self, buf: &mut BytesMut) {
        let indices: Vec<u64> = self.as_indices().iter().map(|&i| i as u64).collect();
        indices.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let indices: Vec<u64> = Vec::decode(buf)?;
        let indices: Vec<usize> = indices
            .into_iter()
            .map(usize::try_from)
            .collect::<Result<_, _>>()
            .map_err(|_| WireError::Malformed("permutation index exceeds usize"))?;
        Permutation::from_indices(indices)
            .ok_or(WireError::Malformed("permutation indices are not a bijection"))
    }
}

/// A server's position in the nine-step pipeline, carrying the working
/// data it owns at that point. Each variant is the state *after* the
/// correspondingly named step completed; [`RoundState::Start`] is the
/// state after [`Step::Setup`] (keys distributed, nothing collected).
///
/// Both servers share this one type: the pipeline is symmetric enough
/// that at every boundary the two sides hold the same *shape* of data
/// (their own shares, sequences and permutations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundState {
    /// After [`Step::Setup`]: session established, nothing collected.
    Start,
    /// After [`Step::SecureSumVotes`]: aggregated encrypted vote and
    /// threshold-share sums over the reconciled survivor set.
    Summed {
        /// Per-class encrypted vote-share sums (under the peer's key).
        votes: Vec<Ciphertext>,
        /// Per-class encrypted threshold-comparison share sums.
        thresh: Vec<Ciphertext>,
        /// Users whose uploads reached both servers, ascending.
        survivors: Vec<usize>,
    },
    /// After [`Step::BlindPermute1`]: masked share sequences in the
    /// jointly permuted domain, plus this server's own permutation.
    Permuted {
        /// Masked vote-share sequence `π(a + r)` (this server's half).
        votes_seq: Vec<i128>,
        /// Masked threshold-share sequence in the same permuted order.
        thresh_seq: Vec<i128>,
        /// This server's Blind-and-Permute permutation (π1 or π2).
        permutation: Permutation,
        /// Carried through from [`RoundState::Summed`].
        survivors: Vec<usize>,
    },
    /// After [`Step::CompareRank`]: the winning permuted slot `π(i*)`.
    Ranked {
        /// The permuted slot both servers agreed ranks highest.
        slot: usize,
        /// Threshold-share sequence, still needed for the gate check.
        thresh_seq: Vec<i128>,
        /// Carried through for the noisy phase collection roster.
        survivors: Vec<usize>,
    },
    /// After [`Step::ThresholdCheck`] *passed*. (A failed gate goes
    /// straight to [`RoundState::Done`] with `label: None`.)
    Gated {
        /// Carried through: the roster for the noisy collection.
        survivors: Vec<usize>,
    },
    /// After [`Step::SecureSumNoisy`]: aggregated encrypted noisy-share
    /// sums over the (possibly further shrunken) noisy survivor set.
    SummedNoisy {
        /// Per-class encrypted noisy-share sums.
        noisy: Vec<Ciphertext>,
        /// The step-2 survivor set (the collection roster used).
        survivors: Vec<usize>,
        /// The reconciled noisy cohort; `None` in the strict (non-
        /// resilient) mode where it is the full roster by construction.
        noisy_survivors: Option<Vec<usize>>,
    },
    /// After [`Step::BlindPermute2`]: the noisy sequence in the second
    /// joint permutation, plus this server's second permutation.
    PermutedNoisy {
        /// Masked noisy-share sequence in the permuted domain.
        noisy_seq: Vec<i128>,
        /// This server's second Blind-and-Permute permutation.
        permutation: Permutation,
        /// Carried through.
        survivors: Vec<usize>,
        /// Carried through.
        noisy_survivors: Option<Vec<usize>>,
    },
    /// After [`Step::CompareNoisyRank`]: the noisy winner's permuted slot.
    RankedNoisy {
        /// The permuted slot of the noisy maximum `π′(ĩ*)`.
        noisy_slot: usize,
        /// The second permutation, needed by restoration.
        permutation: Permutation,
        /// Carried through.
        survivors: Vec<usize>,
        /// Carried through.
        noisy_survivors: Option<Vec<usize>>,
    },
    /// After [`Step::Restoration`] — terminal, the round's result.
    Done {
        /// The released label, or `None` if the threshold gate rejected.
        label: Option<usize>,
        /// The final survivor set.
        survivors: Vec<usize>,
        /// The final noisy cohort (`None` in strict mode or on rejection).
        noisy_survivors: Option<Vec<usize>>,
    },
}

impl RoundState {
    /// The step this state is a snapshot *after* (also its wire tag).
    pub fn completed_step(&self) -> Step {
        match self {
            RoundState::Start => Step::Setup,
            RoundState::Summed { .. } => Step::SecureSumVotes,
            RoundState::Permuted { .. } => Step::BlindPermute1,
            RoundState::Ranked { .. } => Step::CompareRank,
            RoundState::Gated { .. } => Step::ThresholdCheck,
            RoundState::SummedNoisy { .. } => Step::SecureSumNoisy,
            RoundState::PermutedNoisy { .. } => Step::BlindPermute2,
            RoundState::RankedNoisy { .. } => Step::CompareNoisyRank,
            RoundState::Done { .. } => Step::Restoration,
        }
    }

    /// The next step to execute from this state, or `None` if terminal.
    pub fn next_step(&self) -> Option<Step> {
        if self.is_terminal() {
            return None;
        }
        Step::from_ordinal(self.completed_step().ordinal() + 1)
    }

    /// True for [`RoundState::Done`] (including a rejected round).
    pub fn is_terminal(&self) -> bool {
        matches!(self, RoundState::Done { .. })
    }

    /// The survivor set this state carries ([`RoundState::Start`] has
    /// none yet).
    pub fn survivors(&self) -> Option<&[usize]> {
        match self {
            RoundState::Start => None,
            RoundState::Summed { survivors, .. }
            | RoundState::Permuted { survivors, .. }
            | RoundState::Ranked { survivors, .. }
            | RoundState::Gated { survivors }
            | RoundState::SummedNoisy { survivors, .. }
            | RoundState::PermutedNoisy { survivors, .. }
            | RoundState::RankedNoisy { survivors, .. }
            | RoundState::Done { survivors, .. } => Some(survivors),
        }
    }
}

impl Wire for RoundState {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.completed_step().ordinal());
        match self {
            RoundState::Start => {}
            RoundState::Summed { votes, thresh, survivors } => {
                votes.encode(buf);
                thresh.encode(buf);
                survivors.encode(buf);
            }
            RoundState::Permuted { votes_seq, thresh_seq, permutation, survivors } => {
                votes_seq.encode(buf);
                thresh_seq.encode(buf);
                permutation.encode(buf);
                survivors.encode(buf);
            }
            RoundState::Ranked { slot, thresh_seq, survivors } => {
                slot.encode(buf);
                thresh_seq.encode(buf);
                survivors.encode(buf);
            }
            RoundState::Gated { survivors } => {
                survivors.encode(buf);
            }
            RoundState::SummedNoisy { noisy, survivors, noisy_survivors } => {
                noisy.encode(buf);
                survivors.encode(buf);
                noisy_survivors.encode(buf);
            }
            RoundState::PermutedNoisy { noisy_seq, permutation, survivors, noisy_survivors } => {
                noisy_seq.encode(buf);
                permutation.encode(buf);
                survivors.encode(buf);
                noisy_survivors.encode(buf);
            }
            RoundState::RankedNoisy { noisy_slot, permutation, survivors, noisy_survivors } => {
                noisy_slot.encode(buf);
                permutation.encode(buf);
                survivors.encode(buf);
                noisy_survivors.encode(buf);
            }
            RoundState::Done { label, survivors, noisy_survivors } => {
                label.encode(buf);
                survivors.encode(buf);
                noisy_survivors.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        let tag = buf.get_u8();
        let step = Step::from_ordinal(tag).ok_or(WireError::InvalidTag(tag))?;
        Ok(match step {
            Step::Setup => RoundState::Start,
            Step::SecureSumVotes => RoundState::Summed {
                votes: Vec::decode(buf)?,
                thresh: Vec::decode(buf)?,
                survivors: Vec::decode(buf)?,
            },
            Step::BlindPermute1 => RoundState::Permuted {
                votes_seq: Vec::decode(buf)?,
                thresh_seq: Vec::decode(buf)?,
                permutation: Permutation::decode(buf)?,
                survivors: Vec::decode(buf)?,
            },
            Step::CompareRank => RoundState::Ranked {
                slot: usize::decode(buf)?,
                thresh_seq: Vec::decode(buf)?,
                survivors: Vec::decode(buf)?,
            },
            Step::ThresholdCheck => RoundState::Gated { survivors: Vec::decode(buf)? },
            Step::SecureSumNoisy => RoundState::SummedNoisy {
                noisy: Vec::decode(buf)?,
                survivors: Vec::decode(buf)?,
                noisy_survivors: Option::decode(buf)?,
            },
            Step::BlindPermute2 => RoundState::PermutedNoisy {
                noisy_seq: Vec::decode(buf)?,
                permutation: Permutation::decode(buf)?,
                survivors: Vec::decode(buf)?,
                noisy_survivors: Option::decode(buf)?,
            },
            Step::CompareNoisyRank => RoundState::RankedNoisy {
                noisy_slot: usize::decode(buf)?,
                permutation: Permutation::decode(buf)?,
                survivors: Vec::decode(buf)?,
                noisy_survivors: Option::decode(buf)?,
            },
            Step::Restoration => RoundState::Done {
                label: Option::decode(buf)?,
                survivors: Vec::decode(buf)?,
                noisy_survivors: Option::decode(buf)?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigint::Ubig;

    fn ct(v: u64) -> Ciphertext {
        Ciphertext::from_raw(Ubig::from(v))
    }

    /// One representative value per variant, used by round-trip tests
    /// here and by the chaos matrix to label checkpoints.
    pub(crate) fn sample_states() -> Vec<RoundState> {
        let pi = Permutation::from_indices(vec![2, 0, 1]).unwrap();
        vec![
            RoundState::Start,
            RoundState::Summed {
                votes: vec![ct(11), ct(12)],
                thresh: vec![ct(13), ct(14)],
                survivors: vec![0, 2, 3],
            },
            RoundState::Permuted {
                votes_seq: vec![5, -6, 7],
                thresh_seq: vec![-1, 2, -3],
                permutation: pi.clone(),
                survivors: vec![0, 1],
            },
            RoundState::Ranked { slot: 2, thresh_seq: vec![9, -9, 0], survivors: vec![1, 2] },
            RoundState::Gated { survivors: vec![0, 1, 2, 3, 4] },
            RoundState::SummedNoisy {
                noisy: vec![ct(21)],
                survivors: vec![0, 1],
                noisy_survivors: Some(vec![1]),
            },
            RoundState::PermutedNoisy {
                noisy_seq: vec![i128::MIN, i128::MAX],
                permutation: pi.clone(),
                survivors: vec![0],
                noisy_survivors: None,
            },
            RoundState::RankedNoisy {
                noisy_slot: 0,
                permutation: pi,
                survivors: vec![3],
                noisy_survivors: Some(vec![]),
            },
            RoundState::Done { label: Some(1), survivors: vec![0, 4], noisy_survivors: None },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for state in sample_states() {
            let bytes = state.to_bytes();
            let back = RoundState::from_bytes(bytes).unwrap();
            assert_eq!(back, state);
        }
    }

    #[test]
    fn wire_tag_is_the_completed_step_ordinal() {
        for state in sample_states() {
            let bytes = state.to_bytes();
            assert_eq!(bytes[0], state.completed_step().ordinal());
        }
    }

    #[test]
    fn step_progression_covers_the_pipeline() {
        let states = sample_states();
        for (i, state) in states.iter().enumerate() {
            assert_eq!(state.completed_step(), Step::ALL[i]);
            if state.is_terminal() {
                assert_eq!(state.next_step(), None);
            } else {
                assert_eq!(state.next_step(), Some(Step::ALL[i + 1]));
            }
        }
        assert!(states.last().unwrap().is_terminal());
    }

    #[test]
    fn survivors_accessor() {
        assert_eq!(RoundState::Start.survivors(), None);
        let gated = RoundState::Gated { survivors: vec![1, 2] };
        assert_eq!(gated.survivors(), Some(&[1usize, 2][..]));
    }

    #[test]
    fn truncated_decode_is_typed() {
        for state in sample_states() {
            let bytes = state.to_bytes();
            for cut in 0..bytes.len() {
                let err = RoundState::from_bytes(bytes.slice(0..cut)).unwrap_err();
                assert!(
                    matches!(err, WireError::Truncated | WireError::InvalidTag(_)),
                    "cut {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn invalid_permutation_rejected_as_malformed() {
        // Hand-encode a Permuted state whose permutation repeats index 0.
        let mut buf = BytesMut::new();
        buf.put_u8(Step::BlindPermute1.ordinal());
        Vec::<i128>::new().encode(&mut buf);
        Vec::<i128>::new().encode(&mut buf);
        vec![0u64, 0u64].encode(&mut buf);
        Vec::<usize>::new().encode(&mut buf);
        let err = RoundState::from_bytes(buf.freeze()).unwrap_err();
        assert_eq!(err, WireError::Malformed("permutation indices are not a bijection"));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(42);
        assert_eq!(RoundState::from_bytes(buf.freeze()), Err(WireError::InvalidTag(42)));
    }

    #[test]
    fn a_checkpoint_is_the_state_and_nothing_after_it() {
        // The parent commit's image trailed every state with one byte (an
        // absent option); no such file was deployed, so it has no decoder.
        for state in sample_states() {
            let mut image = BytesMut::new();
            state.encode(&mut image);
            image.put_u8(0);
            assert_eq!(RoundState::from_bytes(image.freeze()), Err(WireError::Truncated));
        }
    }

    #[test]
    fn permutation_roundtrips_standalone() {
        let pi = Permutation::from_indices(vec![3, 1, 0, 2]).unwrap();
        let back = Permutation::from_bytes(pi.to_bytes()).unwrap();
        assert_eq!(back, pi);
    }
}
