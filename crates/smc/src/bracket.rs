//! Secure ranking in the permuted domain — steps 4 and 8 of Alg. 5.
//!
//! After Blind-and-Permute, S1 holds `ã = π(a + r)` and S2 holds
//! `b̃ = π(b + r)`. By Eqn. 7, `c_i ≥ c_j ⟺ (ã_i − ã_j) ≥ (b̃_j − b̃_i)`
//! (the common scalar bias cancels), so the servers can compare hidden
//! vote totals with DGK comparisons alone. Alg. 5 only needs the permuted
//! *argmax*, so instead of Eqn. 7's all-pairs ranking (`K(K−1)/2`
//! comparisons) the servers play a knock-out bracket over the permuted
//! slots: each bracket round pairs the surviving slots in ascending order
//! (an odd slot out gets a bye), decides all of its matches in one
//! three-message [`crate::compare`] round, and keeps each match's winner.
//! That is `K−1` comparisons in `⌈log₂K⌉` rounds — `3·⌈log₂K⌉` messages.
//!
//! `≥` keeps the *lower* slot. By induction every survivor is the
//! lowest-index maximum of the contiguous slot range it has beaten, so
//! the bracket elects the lowest-index maximum overall — the slot the
//! all-pairs win tally elects, ties included. The permutation being
//! uniform, that is an unbiased tie-break over the original labels.
//!
//! Both servers derive the same schedule and the same winner from the
//! same outcome bits. They learn `K−1` bits over permuted slots, each a
//! function of the total order the all-pairs ranking revealed in full.

use rand::Rng;
use transport::{Endpoint, Step};

use crate::compare::{server1_compare_batch, server2_compare_batch};
use crate::error::SmcError;
use crate::session::ServerContext;

/// Plays the bracket over slots `0..k`. `round` decides one bracket
/// round's matches `(lo, hi)`, `lo < hi`, returning per match whether
/// `lo` is kept (`c_lo ≥ c_hi`).
fn bracket(
    k: usize,
    mut round: impl FnMut(&[(usize, usize)]) -> Result<Vec<bool>, SmcError>,
) -> Result<usize, SmcError> {
    assert!(k >= 1, "argmax needs at least one element");
    let mut alive: Vec<usize> = (0..k).collect();
    while alive.len() > 1 {
        let matches: Vec<(usize, usize)> = alive.chunks_exact(2).map(|m| (m[0], m[1])).collect();
        let bye = alive.chunks_exact(2).remainder().first().copied();
        let keep_lo = round(&matches)?;
        alive = matches
            .iter()
            .zip(keep_lo)
            .map(|(&(lo, hi), geq)| if geq { lo } else { hi })
            .chain(bye)
            .collect();
    }
    Ok(alive[0])
}

/// S1's side of the argmax over its permuted sequence. Returns the
/// winning *permuted* slot.
///
/// # Errors
///
/// Fails on comparison or transport errors.
///
/// # Panics
///
/// Panics if `sequence` is empty.
pub fn server1_argmax<R: Rng + ?Sized>(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    sequence: &[i128],
    step: Step,
    rng: &mut R,
) -> Result<usize, SmcError> {
    bracket(sequence.len(), |matches| {
        let xs: Vec<i128> = matches.iter().map(|&(lo, hi)| sequence[lo] - sequence[hi]).collect();
        server1_compare_batch(endpoint, ctx, &xs, step, rng)
    })
}

/// S2's side of the argmax. Returns the winning permuted slot (always
/// equal to S1's).
///
/// # Errors
///
/// Fails on comparison or transport errors.
///
/// # Panics
///
/// Panics if `sequence` is empty.
pub fn server2_argmax<R: Rng + ?Sized>(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    sequence: &[i128],
    step: Step,
    rng: &mut R,
) -> Result<usize, SmcError> {
    bracket(sequence.len(), |matches| {
        let ys: Vec<i128> = matches.iter().map(|&(lo, hi)| sequence[hi] - sequence[lo]).collect();
        server2_compare_batch(endpoint, ctx, &ys, step, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bracket on clear totals, recording each round's matches.
    fn clear_bracket(totals: &[i64]) -> (usize, Vec<Vec<(usize, usize)>>) {
        let mut rounds = Vec::new();
        let winner = bracket(totals.len(), |matches| {
            rounds.push(matches.to_vec());
            Ok(matches.iter().map(|&(lo, hi)| totals[lo] >= totals[hi]).collect())
        })
        .unwrap();
        (winner, rounds)
    }

    /// The slot the all-pairs win tally elects (Eqn. 7's ranking): most
    /// wins, lowest slot among equals.
    fn all_pairs_winner(totals: &[i64]) -> usize {
        let k = totals.len();
        let mut wins = vec![0usize; k];
        for i in 0..k {
            for j in (i + 1)..k {
                wins[if totals[i] >= totals[j] { i } else { j }] += 1;
            }
        }
        let best = *wins.iter().max().unwrap();
        wins.iter().position(|&w| w == best).unwrap()
    }

    #[test]
    fn schedule_pairs_adjacent_survivors_and_byes_the_odd_one() {
        let (winner, rounds) = clear_bracket(&[3, 9, 4, 4, 1]);
        assert_eq!(winner, 1);
        assert_eq!(
            rounds,
            vec![vec![(0, 1), (2, 3)], vec![(1, 2)], vec![(1, 4)]],
            "slot 4 sits out until the final"
        );
        assert_eq!(clear_bracket(&[7]), (0, Vec::new()), "a singleton needs no comparison");
    }

    #[test]
    fn k_minus_one_matches_in_ceil_log2_rounds() {
        for k in 1..=33usize {
            let totals: Vec<i64> = (0..k as i64).map(|i| (i * 7) % 5).collect();
            let (_, rounds) = clear_bracket(&totals);
            assert_eq!(rounds.iter().map(Vec::len).sum::<usize>(), k - 1, "K = {k}");
            assert_eq!(rounds.len() as u32, k.next_power_of_two().trailing_zeros(), "K = {k}");
        }
    }

    #[test]
    fn elects_the_all_pairs_winner_ties_included() {
        // Every sequence over {0, 1, 2} up to K = 7: exhaustive over tie
        // patterns, including all-equal and maxima on both sides of a bye.
        for k in 1..=7u32 {
            for code in 0..3usize.pow(k) {
                let totals: Vec<i64> = (0..k).map(|i| (code / 3usize.pow(i) % 3) as i64).collect();
                let expect = all_pairs_winner(&totals);
                assert_eq!(totals[expect], *totals.iter().max().unwrap());
                assert_eq!(clear_bracket(&totals).0, expect, "{totals:?}");
            }
        }
    }

    #[test]
    fn a_failed_round_stops_the_bracket() {
        let mut calls = 0;
        let err = bracket(8, |_| {
            calls += 1;
            Err(SmcError::LengthMismatch { expected: 4, got: 0 })
        })
        .unwrap_err();
        assert!(matches!(err, SmcError::LengthMismatch { .. }));
        assert_eq!(calls, 1);
    }
}
