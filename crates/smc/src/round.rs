//! One server's whole round: steps 2–9 of Alg. 5 as a single machine.
//!
//! [`ServerRound`] walks the serializable [`RoundState`] one pipeline
//! step at a time: it deals the step's sub-protocol its inputs and a
//! seeded RNG, relays its requests, and on its output moves to the next
//! state. Both servers run this same pipeline — the role only decides
//! which half of each sub-protocol the lent [`ServerContext`] plays.
//! A driver that resumes it step by step ([`ServerRound::resume_step`])
//! can snapshot [`ServerRound::state`] between steps and later re-enter
//! the pipeline at exactly that boundary.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use transport::Step;

use crate::blind_permute::{BlindPermute, BlindPermuteOutput};
use crate::bracket::Argmax;
use crate::compare::CompareRound;
use crate::error::SmcError;
use crate::machine::{Inbound, Machine, Next, Outbox};
use crate::restoration::Restoration;
use crate::secure_sum::{Collect, SurvivorAggregate};
use crate::session::{ServerContext, ServerRole};
use crate::shard::ShardPlan;
use crate::state::RoundState;

/// The RNG one protocol step draws from: a generator keyed with the
/// server's 256-bit root seed produces 32-byte blocks, and the step's own
/// generator is keyed with the block at the step's ordinal.
///
/// Each step draws from its own derived stream instead of one rolling
/// RNG: resuming the pipeline at step *k* then reproduces the exact
/// randomness the uninterrupted run would have used there, which is what
/// makes recovered rounds bit-identical. Crash recovery never needs to
/// checkpoint RNG *states* — only the root seeds, drawn once per round.
/// A step's seed is generator output, not an invertible function of the
/// root, and carries the generator's whole key width.
fn step_rng(root_seed: &[u8; 32], step: Step) -> StdRng {
    let mut blocks = StdRng::from_seed(*root_seed);
    let mut seed = [0u8; 32];
    for _ in 0..=step.ordinal() {
        blocks.fill_bytes(&mut seed);
    }
    StdRng::from_seed(seed)
}

/// The sub-protocol of the step in progress.
#[derive(Debug)]
enum StepMachine {
    Collect(Collect),
    BlindPermute(BlindPermute),
    Argmax(Argmax),
    Threshold(CompareRound),
    Restore(Restoration),
}

/// What a step's sub-protocol computed.
enum StepOutput {
    Sums(SurvivorAggregate),
    Sequences(BlindPermuteOutput),
    /// A ranking's permuted slot, or restoration's true label.
    Index(usize),
    Outcomes(Vec<bool>),
}

impl StepMachine {
    fn resume(
        &mut self,
        ctx: &ServerContext,
        answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<StepOutput>, SmcError> {
        Ok(match self {
            StepMachine::Collect(m) => m.resume(ctx, answer, out)?.map(StepOutput::Sums),
            StepMachine::BlindPermute(m) => m.resume(ctx, answer, out)?.map(StepOutput::Sequences),
            StepMachine::Argmax(m) => m.resume(ctx, answer, out)?.map(StepOutput::Index),
            StepMachine::Threshold(m) => m.resume(ctx, answer, out)?.map(StepOutput::Outcomes),
            StepMachine::Restore(m) => m.resume(ctx, answer, out)?.map(StepOutput::Index),
        })
    }
}

/// One server's round. As a [`Machine`] it runs to the terminal state;
/// [`ServerRound::resume_step`] stops at every step boundary on the way.
#[derive(Debug)]
pub struct ServerRound {
    role: ServerRole,
    roster: Vec<usize>,
    root_seed: [u8; 32],
    shard_seed: u64,
    quorum: Option<usize>,
    state: RoundState,
    step: Option<StepMachine>,
}

impl ServerRound {
    /// `role`'s side of a round over `roster`, at [`RoundState::Start`].
    ///
    /// `root_seed` is this server's private seed, which its peer must
    /// never see or be able to derive; `shard_seed` is round-shared, so
    /// both servers derive the identical shard plan and their streaming
    /// folds and per-shard exchanges line up. `quorum` selects the
    /// collection mode (see [`Collect`]).
    pub fn new(
        role: ServerRole,
        roster: Vec<usize>,
        root_seed: [u8; 32],
        shard_seed: u64,
        quorum: Option<usize>,
    ) -> ServerRound {
        ServerRound {
            role,
            roster,
            root_seed,
            shard_seed,
            quorum,
            state: RoundState::Start,
            step: None,
        }
    }

    /// Re-enters the pipeline after `state`'s step instead of at the
    /// start.
    #[must_use]
    pub fn from_state(mut self, state: RoundState) -> ServerRound {
        self.state = state;
        self
    }

    /// Which server this is.
    pub fn role(&self) -> ServerRole {
        self.role
    }

    /// The state after the last completed step — what a durable
    /// checkpoint of that step holds.
    pub fn state(&self) -> &RoundState {
        &self.state
    }

    /// Deals the next step's sub-protocol from the current state.
    fn deal(&mut self, ctx: &ServerContext) -> StepMachine {
        let step = self.state.next_step().expect("cannot advance a terminal round state");
        let rng = step_rng(&self.root_seed, step);
        let k = ctx.config().num_classes;
        let collect = |users: &[usize], vectors_per_user| {
            let plan = ShardPlan::derive(self.shard_seed, users, ctx.config().shards);
            StepMachine::Collect(Collect::new(ctx, step, plan, k, vectors_per_user, self.quorum))
        };
        match &self.state {
            // Step 2: aggregate the vote shares and threshold shares.
            RoundState::Start => collect(&self.roster, 2),
            // Step 6: aggregate the noisy vote shares over the survivors.
            RoundState::Gated { survivors } => collect(survivors, 1),
            // Step 3: Blind-and-Permute over both vectors, one shared π;
            // step 7: over the noisy votes, fresh π′.
            RoundState::Summed { votes, thresh, .. } => StepMachine::BlindPermute(
                BlindPermute::new(vec![votes.clone(), thresh.clone()], step, rng),
            ),
            RoundState::SummedNoisy { noisy, .. } => {
                StepMachine::BlindPermute(BlindPermute::new(vec![noisy.clone()], step, rng))
            }
            // Steps 4 and 8: ranking → permuted winner slot.
            RoundState::Permuted { votes_seq: seq, .. }
            | RoundState::PermutedNoisy { noisy_seq: seq, .. } => {
                StepMachine::Argmax(Argmax::new(seq.clone(), step, rng))
            }
            // Step 5: noisy threshold check at that slot — a one-match
            // comparison round.
            RoundState::Ranked { slot, thresh_seq, .. } => {
                StepMachine::Threshold(CompareRound::new(vec![thresh_seq[*slot]], step, rng))
            }
            // Step 9: restore the true label.
            RoundState::RankedNoisy { noisy_slot, permutation, .. } => {
                StepMachine::Restore(Restoration::new(permutation.clone(), *noisy_slot, step, rng))
            }
            RoundState::Done { .. } => unreachable!("terminal state has no next step"),
        }
    }

    /// The state after the step that computed `output`.
    fn advance(&mut self, output: StepOutput) {
        use RoundState as S;
        fn one<T>(mut v: Vec<T>) -> T {
            v.pop().expect("one vector per kind")
        }
        self.state = match (std::mem::replace(&mut self.state, S::Start), output) {
            (S::Start, StepOutput::Sums(mut agg)) => {
                let thresh = one(agg.sums.split_off(1));
                S::Summed { votes: one(agg.sums), thresh, survivors: agg.survivors }
            }
            (S::Summed { survivors, .. }, StepOutput::Sequences(mut bp)) => {
                let thresh_seq = one(bp.sequences.split_off(1));
                let votes_seq = one(bp.sequences);
                S::Permuted { votes_seq, thresh_seq, permutation: bp.own_permutation, survivors }
            }
            (S::Permuted { thresh_seq, survivors, .. }, StepOutput::Index(slot)) => {
                S::Ranked { slot, thresh_seq, survivors }
            }
            (S::Ranked { survivors, .. }, StepOutput::Outcomes(passed)) => {
                if passed[0] {
                    S::Gated { survivors }
                } else {
                    S::Done { label: None, survivors, noisy_survivors: None }
                }
            }
            (S::Gated { survivors }, StepOutput::Sums(agg)) => S::SummedNoisy {
                noisy: one(agg.sums),
                survivors,
                noisy_survivors: Some(agg.survivors),
            },
            (S::SummedNoisy { survivors, noisy_survivors, .. }, StepOutput::Sequences(bp)) => {
                S::PermutedNoisy {
                    noisy_seq: one(bp.sequences),
                    permutation: bp.own_permutation,
                    survivors,
                    noisy_survivors,
                }
            }
            (
                S::PermutedNoisy { permutation, survivors, noisy_survivors, .. },
                StepOutput::Index(noisy_slot),
            ) => S::RankedNoisy { noisy_slot, permutation, survivors, noisy_survivors },
            (S::RankedNoisy { survivors, noisy_survivors, .. }, StepOutput::Index(label)) => {
                S::Done { label: Some(label), survivors, noisy_survivors }
            }
            _ => unreachable!("a step's machine computes that step's output"),
        };
    }
}

impl ServerRound {
    /// [`Machine::resume`] for the step in progress: `Done(())` means
    /// [`ServerRound::state`] advanced by one step, and resuming with
    /// `None` starts the next one.
    ///
    /// # Errors
    ///
    /// The step's sub-protocol's.
    ///
    /// # Panics
    ///
    /// Panics if resumed in a terminal state, or with a context of the
    /// other role.
    pub fn resume_step(
        &mut self,
        ctx: &ServerContext,
        answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<()>, SmcError> {
        assert_eq!(ctx.role(), self.role, "a round is resumed with its own server's keys");
        if self.step.is_none() {
            self.step = Some(self.deal(ctx));
        }
        let machine = self.step.as_mut().expect("dealt above");
        match machine.resume(ctx, answer, out)? {
            Next::Recv(recv) => Ok(Next::Recv(recv)),
            Next::Done(output) => {
                self.step = None;
                self.advance(output);
                Ok(Next::Done(()))
            }
        }
    }
}

impl Machine for ServerRound {
    type Output = RoundState;

    fn resume(
        &mut self,
        ctx: &ServerContext,
        mut answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<RoundState>, SmcError> {
        loop {
            match self.resume_step(ctx, answer.take(), out)? {
                Next::Recv(recv) => return Ok(Next::Recv(recv)),
                Next::Done(()) if self.state.is_terminal() => {
                    return Ok(Next::Done(self.state.clone()));
                }
                Next::Done(()) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(mut rng: StdRng) -> [u64; 4] {
        std::array::from_fn(|_| rng.next_u64())
    }

    #[test]
    fn step_streams_use_the_whole_root_and_do_not_depend_on_history() {
        let root: [u8; 32] = std::array::from_fn(|i| i as u8 * 7 + 1);
        let mut other = root;
        other[31] ^= 1;
        let forward: Vec<[u64; 4]> = Step::ALL.iter().map(|&s| head(step_rng(&root, s))).collect();
        for (i, &step) in Step::ALL.iter().enumerate() {
            // The last byte of the root reaches every step's stream.
            assert_ne!(forward[i], head(step_rng(&other, step)), "{step}");
            // No two steps share a stream.
            for earlier in &forward[..i] {
                assert_ne!(&forward[i], earlier, "{step}");
            }
        }
        // A resumed round derives step k without having derived 0..k, and
        // gets what the uninterrupted round did.
        for (i, &step) in Step::ALL.iter().enumerate().rev() {
            assert_eq!(head(step_rng(&root, step)), forward[i], "{step}");
        }
    }
}
