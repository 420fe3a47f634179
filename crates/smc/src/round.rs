//! One server's whole round: steps 2–9 of Alg. 5 as a single machine.
//!
//! [`ServerRound`] walks the serializable [`RoundState`] one pipeline
//! step at a time: it deals the step's sub-protocol its inputs and a
//! seeded RNG, relays its requests, and on its output moves to the next
//! state. Both servers run this same pipeline — the role only decides
//! which half of each sub-protocol the lent [`ServerContext`] plays.
//! A driver that resumes it step by step ([`ServerRound::resume_step`])
//! can snapshot [`ServerRound::checkpoint`] between steps and later
//! re-enter the pipeline at exactly that boundary.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transport::{ByzantineAction, Step};

use crate::audit::{AuditContext, Audited};
use crate::blind_permute::{BlindPermute, BlindPermuteOutput};
use crate::bracket::Argmax;
use crate::compare::CompareRound;
use crate::error::SmcError;
use crate::machine::{Inbound, Machine, Next, Outbox};
use crate::restoration::Restoration;
use crate::secure_sum::{Collect, SurvivorAggregate};
use crate::session::{ServerContext, ServerRole};
use crate::shard::ShardPlan;
use crate::state::{CheckpointImage, RoundState};

/// Derives the RNG seed for one protocol step from a server's root seed
/// (SplitMix64 of the seed and the step ordinal).
///
/// Each step draws from its own derived stream instead of one rolling
/// RNG: resuming the pipeline at step *k* then reproduces the exact
/// randomness the uninterrupted run would have used there, which is what
/// makes recovered rounds bit-identical. Crash recovery never needs to
/// checkpoint RNG *states* — only the root seeds, drawn once per round.
/// The audit layer commits to this seed before the step runs, so a
/// challenged server's draws can be replayed verbatim by its peer.
fn step_seed(root_seed: u64, step: Step) -> u64 {
    let mut z = root_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(step.ordinal()) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sub-protocol of the step in progress.
#[derive(Debug)]
enum StepMachine {
    Collect(Collect),
    BlindPermute(Audited<BlindPermute>),
    Argmax(Argmax),
    Threshold(CompareRound),
    Restore(Audited<Restoration>),
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
    root_seed: u64,
    shard_seed: u64,
    quorum: Option<usize>,
    deviations: Vec<(Step, ByzantineAction)>,
    state: RoundState,
    audit: AuditContext,
    step: Option<StepMachine>,
}

impl ServerRound {
    /// `role`'s side of a round over `roster`, at [`RoundState::Start`].
    ///
    /// `root_seed` is this server's private seed; `shard_seed` is
    /// round-shared, so both servers derive the identical shard plan and
    /// their streaming folds and per-shard exchanges line up. `quorum`
    /// selects the collection mode (see [`Collect`]).
    pub fn new(
        role: ServerRole,
        roster: Vec<usize>,
        root_seed: u64,
        shard_seed: u64,
        quorum: Option<usize>,
        audit: AuditContext,
    ) -> ServerRound {
        ServerRound {
            role,
            roster,
            root_seed,
            shard_seed,
            quorum,
            deviations: Vec::new(),
            state: RoundState::Start,
            audit,
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

    /// Schedules covert deviations: at most one per audited step.
    #[must_use]
    pub fn with_deviations(mut self, deviations: Vec<(Step, ByzantineAction)>) -> ServerRound {
        self.deviations = deviations;
        self
    }

    /// Which server this is.
    pub fn role(&self) -> ServerRole {
        self.role
    }

    /// The state after the last completed step.
    pub fn state(&self) -> &RoundState {
        &self.state
    }

    /// What a durable checkpoint of the last completed step holds.
    pub fn checkpoint(&self) -> CheckpointImage {
        CheckpointImage {
            state: self.state.clone(),
            audit: self.audit.enabled().then(|| self.audit.checkpoint()),
        }
    }

    /// Deals the next step's sub-protocol from the current state.
    fn deal(&mut self, ctx: &ServerContext) -> StepMachine {
        let step = self.state.next_step().expect("cannot advance a terminal round state");
        let seed = step_seed(self.root_seed, step);
        let rng = StdRng::seed_from_u64(seed);
        let k = ctx.config().num_classes;
        let byzantine =
            self.deviations.iter().find(|(at, _)| *at == step).map(|&(_, action)| action);
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
            RoundState::Summed { votes, thresh, .. } => {
                let inner =
                    BlindPermute::new(vec![votes.clone(), thresh.clone()], step, rng, byzantine);
                StepMachine::BlindPermute(self.audit.wrap(inner, step, seed, k, 2))
            }
            RoundState::SummedNoisy { noisy, .. } => {
                let inner = BlindPermute::new(vec![noisy.clone()], step, rng, byzantine);
                StepMachine::BlindPermute(self.audit.wrap(inner, step, seed, k, 1))
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
                let inner =
                    Restoration::new(permutation.clone(), *noisy_slot, step, rng, byzantine);
                StepMachine::Restore(self.audit.wrap(inner, step, seed, k, 0))
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
                match self.step.take() {
                    Some(StepMachine::BlindPermute(audited)) => self.audit.complete(&audited),
                    Some(StepMachine::Restore(audited)) => self.audit.complete(&audited),
                    _ => {}
                }
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
