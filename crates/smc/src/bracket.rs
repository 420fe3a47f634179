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

use rand::rngs::StdRng;
use transport::Step;

use crate::compare::CompareRound;
use crate::error::SmcError;
use crate::machine::{Inbound, Machine, Next, Outbox};
use crate::session::{ServerContext, ServerRole};

/// The knock-out schedule over slots `0..k`: who is still in, and how a
/// round's outcomes thin them out.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bracket {
    alive: Vec<usize>,
}

impl Bracket {
    fn new(k: usize) -> Bracket {
        assert!(k >= 1, "argmax needs at least one element");
        Bracket { alive: (0..k).collect() }
    }

    /// The winner, once a single slot is left.
    fn winner(&self) -> Option<usize> {
        (self.alive.len() == 1).then(|| self.alive[0])
    }

    /// This round's matches `(lo, hi)`, `lo < hi`; an odd slot out sits
    /// the round out.
    fn matches(&self) -> Vec<(usize, usize)> {
        self.alive.chunks_exact(2).map(|m| (m[0], m[1])).collect()
    }

    /// Keeps each match's winner — `lo` where `keep_lo` (`c_lo ≥ c_hi`) —
    /// and the bye.
    fn advance(&mut self, keep_lo: &[bool]) {
        let bye = self.alive.chunks_exact(2).remainder().first().copied();
        self.alive = self
            .matches()
            .iter()
            .zip(keep_lo)
            .map(|(&(lo, hi), &geq)| if geq { lo } else { hi })
            .chain(bye)
            .collect();
    }
}

/// One server's side of the argmax over its permuted sequence; finishes
/// with the winning *permuted* slot (the same on both servers).
///
/// # Errors
///
/// Resuming fails on comparison or transport errors.
#[derive(Debug)]
pub struct Argmax {
    sequence: Vec<i128>,
    bracket: Bracket,
    round: CompareRound,
    /// Whether `round` is mid-flight (else the next one has to be dealt).
    playing: bool,
}

impl Argmax {
    /// The argmax of `sequence` under `step`, every round drawing from
    /// `rng` in turn.
    ///
    /// # Panics
    ///
    /// Panics if `sequence` is empty.
    pub fn new(sequence: Vec<i128>, step: Step, rng: StdRng) -> Argmax {
        let bracket = Bracket::new(sequence.len());
        Argmax {
            sequence,
            bracket,
            round: CompareRound::new(Vec::new(), step, rng),
            playing: false,
        }
    }
}

impl Machine for Argmax {
    type Output = usize;

    fn resume(
        &mut self,
        ctx: &ServerContext,
        mut answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<usize>, SmcError> {
        loop {
            if !self.playing {
                if let Some(winner) = self.bracket.winner() {
                    return Ok(Next::Done(winner));
                }
                // Eqn. 7: S1 compares ã_lo − ã_hi against S2's b̃_hi − b̃_lo.
                let seq = &self.sequence;
                let values = self.bracket.matches().into_iter().map(|(lo, hi)| match ctx.role() {
                    ServerRole::Server1 => seq[lo] - seq[hi],
                    ServerRole::Server2 => seq[hi] - seq[lo],
                });
                self.round.restart(values.collect());
                self.playing = true;
            }
            match self.round.resume(ctx, answer.take(), out)? {
                Next::Recv(recv) => return Ok(Next::Recv(recv)),
                Next::Done(keep_lo) => {
                    self.bracket.advance(&keep_lo);
                    self.playing = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bracket on clear totals, recording each round's matches.
    fn clear_bracket(totals: &[i64]) -> (usize, Vec<Vec<(usize, usize)>>) {
        let mut bracket = Bracket::new(totals.len());
        let mut rounds = Vec::new();
        loop {
            if let Some(winner) = bracket.winner() {
                return (winner, rounds);
            }
            let matches = bracket.matches();
            let keep_lo: Vec<bool> =
                matches.iter().map(|&(lo, hi)| totals[lo] >= totals[hi]).collect();
            bracket.advance(&keep_lo);
            rounds.push(matches);
        }
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
        use crate::session::{SessionConfig, SessionKeys};
        use dgk::comparison::EvaluatorBits;
        use rand::SeedableRng;
        use transport::Wire;

        let mut rng = StdRng::seed_from_u64(5);
        let s2_ctx = SessionKeys::generate(SessionConfig::test(1, 8), &mut rng).server2();
        let mut argmax = Argmax::new(vec![0; 8], Step::CompareRank, rng);
        let mut out = Outbox::default();
        assert!(matches!(argmax.resume(&s2_ctx, None, &mut out), Ok(Next::Recv(_))));
        // Round 1 of the first bracket round arrives without its four
        // matches: the bracket ends there, with nothing sent.
        let empty = Vec::<EvaluatorBits>::new().to_bytes();
        let err = argmax.resume(&s2_ctx, Some(Ok((1, empty))), &mut out).unwrap_err();
        assert!(matches!(err, SmcError::LengthMismatch { expected: 4, got: 0 }));
        assert!(out.frames.is_empty());
    }
}
