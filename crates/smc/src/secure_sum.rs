//! Secure sum — steps 2 and 6 of Alg. 5.
//!
//! Each user splits a signed vote vector into additive shares and sends
//! each server its share **encrypted under the other server's Paillier
//! key**, so the aggregating server can homomorphically combine
//! ciphertexts it cannot read. The server-side aggregation is the
//! ciphertext product of Eqn. 1.
//!
//! The server side ([`Collect`]) is not a flat buffer-then-fold over all
//! `|U|` uploads: uploads stream into per-shard running partial sums
//! ([`crate::shard`]) and are dropped as they are folded, so live server
//! memory is bounded by the shard geometry and `K` — never by `|U|`. The
//! unsharded collection is the 1-shard plan ([`ShardPlan::flat`]) of the
//! same machine and produces bit-identical aggregates (Paillier addition
//! is a canonical modular multiplication, so fold grouping cannot change
//! the product).
//!
//! Every `r^n mod n²` here runs under the public key's cached Montgomery
//! context (see [`paillier::PublicKey::precompute`]); the per-user
//! encryption cost is the exponentiation itself, with no per-call
//! context setup.

use paillier::{Ciphertext, PublicKey, SignedCodec};
use parallel::Parallelism;
use rand::Rng;
use transport::{FaultEvent, PartyId, Step, TransportError, Wire};

use crate::error::SmcError;
use crate::machine::{decode, peer_of, Inbound, Machine, Next, Outbox, Recv};
use crate::session::ServerContext;
use crate::shard::{intersect_sorted, ShardAccumulator, ShardPlan, STREAM_CHUNK};
use crate::validate::UploadValidator;

/// User side: encrypts the signed share vector `values` under
/// `recipient_key` — the *other* server's key: `pk2` for the S1-bound
/// share, `pk1` for the S2-bound one. The per-entry encryptions fan out
/// according to `par`, each on its own seed-derived RNG stream, so the
/// upload is bit-identical for every thread count. The crash-recovery
/// supervisor prepares a user's upload once and replays the *same*
/// ciphertexts across round attempts, keeping recovered rounds
/// bit-identical to uninterrupted ones.
///
/// # Errors
///
/// Fails on signed-window overflow or encryption failure.
pub fn encrypt_share_vector<R: Rng + ?Sized>(
    values: &[i128],
    recipient_key: &PublicKey,
    par: &Parallelism,
    rng: &mut R,
) -> Result<Vec<Ciphertext>, SmcError> {
    let codec = SignedCodec::new(recipient_key);
    let par = par.with_item_cost_ns(crate::costs::paillier_encrypt_cost_ns(recipient_key));
    par.try_map_seeded(values, rng, |_, &v, item_rng| {
        let encoded = codec.encode_i128(v)?;
        recipient_key.encrypt(&encoded, item_rng).map_err(SmcError::from)
    })
}

/// Result of a collection step: the homomorphic sums restricted to the
/// users counted, plus that set.
#[derive(Debug, Clone)]
pub struct SurvivorAggregate {
    /// One aggregated ciphertext vector per uploaded vector kind, each
    /// summing only the survivors' contributions.
    pub sums: Vec<Vec<Ciphertext>>,
    /// User ids whose *complete* upload reached **both** servers, in
    /// ascending order — the round's surviving set `U'` (under strict
    /// collection, everyone).
    pub survivors: Vec<usize>,
}

/// One user's complete upload: `vectors_per_user` validated vectors.
type Upload = (usize, Vec<Vec<Ciphertext>>);

/// One server's collection step: receives `vectors_per_user` encrypted
/// vectors under `step` from every user of the plan and aggregates them
/// homomorphically under the key the users encrypted with — this
/// server's *peer's* key.
///
/// It walks the plan's shards in index order and drains each member's
/// stream in turn, which is safe under any arrival order: the endpoint
/// matches each receive by `(sender, step)`, so an early arrival from a
/// later user is stashed, not misread. Each chunk's per-label ciphertext
/// products of Eqn. 1 fan out across labels; because Paillier addition
/// is a canonical modular multiplication the result is bit-identical for
/// every shard count, chunk size and thread count.
///
/// **Strict** (`quorum: None`): every upload must arrive and validate
/// (see [`UploadValidator`]) — anything else fails the step. An upload is
/// folded into its shard's running partial sum as soon as a chunk of
/// [`STREAM_CHUNK`] is complete and then dropped: live memory is
/// O(`STREAM_CHUNK` · K).
///
/// **Resilient** (`quorum: Some(min_users)`): any per-user receive or
/// validation failure (timeout, detected corruption, codec damage, wrong
/// arity, replayed sequence number) marks that user as dropped for the
/// whole step and discards its partial upload — a half-arrived
/// contribution must never skew the sum. Additive two-server shares only
/// recombine over the *intersection* of both servers' survivor sets, so
/// each shard's uploads are held until the two servers have exchanged
/// that shard's survivor lists over the server↔server link and
/// intersected them (sorted merge, both lists ascending by
/// construction); the surviving uploads are then stream-folded and the
/// buffer is freed before the next shard starts. Peak memory is
/// O(max_shard · K), not O(|U| · K).
///
/// Both servers derive the identical plan from the round-shared shard
/// seed and walk its shards in index order, so the per-shard exchanges
/// pair up without any extra framing: shard `i`'s list is the `i`-th
/// server↔server message under `step` (empty shards are skipped on both
/// sides identically). Quorum stays a *global* property: the union of
/// per-shard intersections equals the global intersection, and
/// `min_users` is checked once after all shards reconcile — sharding
/// cannot change a round's `QuorumLost` outcome.
///
/// # Errors
///
/// Resuming a strict collection fails with the first transport or
/// validation error. A resilient one absorbs user-link failures as
/// dropouts, fails with [`SmcError::QuorumLost`] when fewer than
/// `min_users` users survive reconciliation, and propagates transport
/// failures of the reconciliation exchange itself — the server↔server
/// link is the protocol's backbone.
#[derive(Debug)]
pub struct Collect {
    step: Step,
    plan: ShardPlan,
    num_classes: usize,
    vectors_per_user: usize,
    quorum: Option<usize>,
    validator: UploadValidator,
    /// The plan position of the user being drained.
    shard: usize,
    member: usize,
    /// That user's vectors so far.
    partial: Vec<Vec<Ciphertext>>,
    /// Complete uploads not folded yet: the open chunk (strict) or the
    /// whole shard (resilient) — the one live buffer.
    buffered: Vec<Upload>,
    /// The current shard's running sums, and all closed shards'.
    acc: ShardAccumulator,
    combined: ShardAccumulator,
    /// Whether the peer's survivor list for the current shard is awaited.
    reconciling: bool,
}

impl Collect {
    /// A collection of `vectors_per_user` vectors of `num_classes`
    /// entries from every user of `plan`.
    pub fn new(
        ctx: &ServerContext,
        step: Step,
        plan: ShardPlan,
        num_classes: usize,
        vectors_per_user: usize,
        quorum: Option<usize>,
    ) -> Collect {
        let empty = ShardAccumulator::new(ctx.peer_public(), vectors_per_user, num_classes);
        Collect {
            step,
            plan,
            num_classes,
            vectors_per_user,
            quorum,
            validator: UploadValidator::new(num_classes),
            shard: 0,
            member: 0,
            partial: Vec::with_capacity(vectors_per_user),
            buffered: Vec::new(),
            acc: empty.clone(),
            combined: empty,
            reconciling: false,
        }
    }

    /// Stream-folds `uploads` into the current shard's sums, a chunk at
    /// a time.
    fn fold(&mut self, ctx: &ServerContext, mut uploads: Vec<Upload>) {
        while !uploads.is_empty() {
            let rest = uploads.split_off(uploads.len().min(STREAM_CHUNK));
            let chunk = std::mem::replace(&mut uploads, rest);
            self.acc.fold_chunk(ctx.peer_public(), ctx.parallelism(), chunk);
        }
    }

    /// Tree-combines the current shard into the closed ones and moves on.
    fn close_shard(&mut self, ctx: &ServerContext) {
        let key = ctx.peer_public();
        let fresh = ShardAccumulator::new(key, self.vectors_per_user, self.num_classes);
        self.combined.merge(key, std::mem::replace(&mut self.acc, fresh));
        self.shard += 1;
        self.member = 0;
    }

    /// Takes in the frame asked of the user at the plan position, and
    /// moves on to the next user once this one's stream is drained.
    fn take_in(
        &mut self,
        ctx: &ServerContext,
        answer: Inbound,
        out: &mut Outbox,
    ) -> Result<(), SmcError> {
        let user = self.plan.shards()[self.shard][self.member];
        let from = PartyId::User(user);
        let vector = answer.map_err(SmcError::from).and_then(|(seq, payload)| {
            let vector = Vec::<Ciphertext>::from_bytes(payload).map_err(TransportError::from)?;
            let key = ctx.peer_public();
            self.validator.check(&mut out.events, from, self.step, seq, &vector, key)?;
            Ok(vector)
        });
        match vector {
            Ok(vector) => {
                self.partial.push(vector);
                if self.partial.len() < self.vectors_per_user {
                    return Ok(());
                }
                self.buffered.push((user, std::mem::take(&mut self.partial)));
                if self.quorum.is_none() && self.buffered.len() == STREAM_CHUNK {
                    let chunk = std::mem::take(&mut self.buffered);
                    self.fold(ctx, chunk);
                }
            }
            Err(fatal) if self.quorum.is_none() => return Err(fatal),
            // Lost, late, damaged or invalid (the validator has emitted
            // the rejection): the user is out for this step. Its
            // remaining messages (if any) stay stashed under their own
            // step tags and are never misread as another user's data.
            Err(_) => self.partial.clear(),
        }
        // Folded, buffered or dropped, this user's stream is fully
        // drained — nothing is received from it under this step again, so
        // its freshness window goes with it, keeping validator state
        // bounded by the in-flight user, not |U|.
        self.validator.retire(from);
        self.member += 1;
        Ok(())
    }

    /// Reconciles the current shard with the `peer`'s survivor list: both
    /// servers must fold the same set or the additive shares stop lining
    /// up. Everything else — including contributions the peer never saw —
    /// is dropped here.
    fn reconcile(&mut self, ctx: &ServerContext, peer: &[u64], out: &mut Outbox) {
        let local: Vec<usize> = self.buffered.iter().map(|(u, _)| *u).collect();
        let peer: Vec<usize> = peer.iter().map(|&u| u as usize).collect();
        let survivors = intersect_sorted(&local, &peer);
        // A planned shard whose entire membership dropped is a degraded
        // round, not an abort: the shard simply contributes nothing, the
        // global quorum check still governs releasability, and the engine
        // charges RDP at the σ the surviving shares realize. The event
        // lets soak harnesses assert the degradation actually happened.
        if survivors.is_empty() {
            out.events.push(FaultEvent::ShardDropped);
        }
        let mut uploads = std::mem::take(&mut self.buffered);
        uploads.retain(|(u, _)| survivors.binary_search(u).is_ok());
        self.fold(ctx, uploads);
    }
}

impl Machine for Collect {
    type Output = SurvivorAggregate;

    fn resume(
        &mut self,
        ctx: &ServerContext,
        answer: Option<Inbound>,
        out: &mut Outbox,
    ) -> Result<Next<SurvivorAggregate>, SmcError> {
        let step = self.step;
        if self.reconciling {
            let peer: Vec<u64> = decode(answer)?;
            self.reconcile(ctx, &peer, out);
            self.reconciling = false;
            self.close_shard(ctx);
        } else if let Some(answer) = answer {
            self.take_in(ctx, answer, out)?;
        }
        while let Some(shard) = self.plan.shards().get(self.shard) {
            if let Some(&user) = shard.get(self.member) {
                return Ok(Next::Recv(Recv { from: PartyId::User(user), step, patience: None }));
            }
            if self.quorum.is_some() && !shard.is_empty() {
                let local: Vec<u64> = self.buffered.iter().map(|(u, _)| *u as u64).collect();
                let peer = peer_of(ctx.role());
                out.send(peer, step, &local);
                self.reconciling = true;
                // The peer may still be stalled timing out its own
                // missing uploads (possibly across earlier shards it has
                // not finished draining): give its list one full receive
                // budget per expected message in the whole round plus one
                // per exchange, so a slow peer is not mistaken for a dead
                // one (the wait stays finite either way).
                let stalls = self.plan.num_users() * self.vectors_per_user + self.plan.num_shards();
                return Ok(Next::Recv(Recv { from: peer, step, patience: Some(stalls as u32) }));
            }
            let chunk = std::mem::take(&mut self.buffered);
            self.fold(ctx, chunk);
            self.close_shard(ctx);
        }
        let mut survivors = self.combined.members().to_vec();
        survivors.sort_unstable();
        if let Some(required) = self.quorum.filter(|&q| survivors.len() < q) {
            return Err(SmcError::QuorumLost { step, survivors: survivors.len(), required });
        }
        let sums = std::mem::take(&mut self.combined).into_sums();
        Ok(Next::Done(SurvivorAggregate { sums, survivors }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{run_pair, Frame, PairRun};
    use crate::session::{SessionConfig, SessionKeys};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const STEP: Step = Step::SecureSumVotes;

    /// `user`'s upload of `values` to `to`, encrypted under `key`.
    fn upload(
        user: usize,
        to: PartyId,
        values: &[i128],
        key: &PublicKey,
        rng: &mut StdRng,
    ) -> Frame {
        let vector = encrypt_share_vector(values, key, &Parallelism::sequential(), rng).unwrap();
        Frame { from: PartyId::User(user), to, step: STEP, payload: vector.to_bytes() }
    }

    /// Both servers collect one vector per user of `users` from `uploads`.
    fn collect(
        keys: &SessionKeys,
        users: &[usize],
        quorum: [Option<usize>; 2],
        uploads: Vec<Frame>,
    ) -> Result<PairRun<SurvivorAggregate, SurvivorAggregate>, SmcError> {
        let (s1_ctx, s2_ctx) = (keys.server1(), keys.server2());
        let k = keys.config().num_classes;
        let machine = |ctx, quorum| Collect::new(ctx, STEP, ShardPlan::flat(users), k, 1, quorum);
        let (s1, s2) = (machine(&s1_ctx, quorum[0]), machine(&s2_ctx, quorum[1]));
        run_pair((&s1_ctx, s1), (&s2_ctx, s2), uploads)
    }

    /// Test privilege: decrypts both servers' sums with the owners' keys
    /// and recombines the shares.
    fn recombine(keys: &SessionKeys, s1: &SurvivorAggregate, s2: &SurvivorAggregate) -> Vec<i128> {
        let (s1_ctx, s2_ctx) = (keys.server1(), keys.server2());
        let open = |owner: &ServerContext, c: &Ciphertext| {
            owner.own_codec().decode_i128(&owner.own_private().decrypt(c).unwrap()).unwrap()
        };
        s1.sums[0]
            .iter()
            .zip(&s2.sums[0])
            .map(|(a, b)| open(&s2_ctx, a) + open(&s1_ctx, b))
            .collect()
    }

    /// Full secure-sum round: three users split signed vectors, both
    /// servers aggregate; decrypting with the *peer's* private key (test
    /// privilege) recovers the share sums, and the share sums add up to
    /// the true totals.
    #[test]
    fn end_to_end_sum_reconstructs() {
        let mut rng = StdRng::seed_from_u64(10);
        let keys = SessionKeys::generate(SessionConfig::test(3, 4), &mut rng)
            .with_parallelism(Parallelism::new(2));
        let user_ctx = keys.user();
        let domain = user_ctx.domain();

        let votes: [Vec<i128>; 3] = [vec![1, 0, 0, 0], vec![0, 0, 1, 0], vec![1, -2, 300, 0]];
        let expected: Vec<i128> = (0..4).map(|k| votes.iter().map(|v| v[k]).sum()).collect();

        let mut uploads = Vec::new();
        for (u, vote) in votes.iter().enumerate() {
            let (a, b) = domain.split_vec(vote, &mut rng);
            uploads.push(upload(u, PartyId::Server1, &a, user_ctx.pk2(), &mut rng));
            uploads.push(upload(u, PartyId::Server2, &b, user_ctx.pk1(), &mut rng));
        }
        let run = collect(&keys, &[0, 1, 2], [None, None], uploads).unwrap();
        assert!(run.transcript.is_empty(), "strict collection exchanges nothing");
        let (s1, s2) = run.outputs;
        assert_eq!(s1.survivors, vec![0, 1, 2]);
        assert_eq!(recombine(&keys, &s1, &s2), expected);
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let keys = SessionKeys::generate(SessionConfig::test(1, 3), &mut rng);
        let user_ctx = keys.user();
        // Send only 2 entries when 3 classes are expected.
        let short = upload(0, PartyId::Server1, &[1, 2], user_ctx.pk2(), &mut rng);
        let err = collect(&keys, &[0], [None, None], vec![short]).unwrap_err();
        assert!(matches!(err, SmcError::LengthMismatch { expected: 3, got: 2 }));
    }

    #[test]
    fn surviving_aggregation_reconciles_dropouts() {
        // User 1 uploads to S1 only: S2 times out on it, reconciliation
        // must exclude it on BOTH servers so the shares stay aligned.
        let mut rng = StdRng::seed_from_u64(13);
        let keys = SessionKeys::generate(SessionConfig::test(3, 2), &mut rng);
        let user_ctx = keys.user();
        let domain = user_ctx.domain();

        let votes: [Vec<i128>; 3] = [vec![1, 0], vec![0, 1], vec![5, 7]];
        let mut expected = vec![0i128; 2];
        let mut uploads = Vec::new();
        for (u, vote) in votes.iter().enumerate() {
            let (a, b) = domain.split_vec(vote, &mut rng);
            uploads.push(upload(u, PartyId::Server1, &a, user_ctx.pk2(), &mut rng));
            if u != 1 {
                uploads.push(upload(u, PartyId::Server2, &b, user_ctx.pk1(), &mut rng));
                for k in 0..2 {
                    expected[k] += vote[k];
                }
            }
        }

        let (r1, r2) = collect(&keys, &[0, 1, 2], [Some(1), Some(1)], uploads).unwrap().outputs;
        assert_eq!(r1.survivors, vec![0, 2]);
        assert_eq!(r2.survivors, vec![0, 2]);
        assert_eq!(recombine(&keys, &r1, &r2), expected);
    }

    #[test]
    fn hostile_ciphertext_becomes_a_dropout_in_resilient_mode() {
        // User 1 uploads a zero ciphertext to both servers: resilient
        // collection must drop it (and count the rejection), not panic
        // or fold garbage into the sum.
        let mut rng = StdRng::seed_from_u64(15);
        let keys = SessionKeys::generate(SessionConfig::test(2, 2), &mut rng);
        let user_ctx = keys.user();
        let domain = user_ctx.domain();

        let (a, b) = domain.split_vec(&[1, 0], &mut rng);
        let zeros = vec![paillier::Ciphertext::from_raw(bigint::Ubig::from(0u64)); 2].to_bytes();
        let evil = |to| Frame { from: PartyId::User(1), to, step: STEP, payload: zeros.clone() };
        let uploads = vec![
            upload(0, PartyId::Server1, &a, user_ctx.pk2(), &mut rng),
            upload(0, PartyId::Server2, &b, user_ctx.pk1(), &mut rng),
            evil(PartyId::Server1),
            evil(PartyId::Server2),
        ];

        let run = collect(&keys, &[0, 1], [Some(1), Some(1)], uploads).unwrap();
        assert_eq!(run.outputs.0.survivors, vec![0]);
        assert_eq!(run.outputs.1.survivors, vec![0]);
        assert_eq!(run.events, [FaultEvent::RejectedCiphertext; 2]);
    }

    #[test]
    fn losing_quorum_aborts_with_typed_error() {
        let mut rng = StdRng::seed_from_u64(14);
        let keys = SessionKeys::generate(SessionConfig::test(2, 2), &mut rng);
        let user_ctx = keys.user();
        let domain = user_ctx.domain();
        // Only user 0 uploads; the quorum requires both users. A run ends
        // at its first error, so each server's verdict is read from a run
        // in which only that server enforces the quorum.
        let (a, b) = domain.split_vec(&[1, 0], &mut rng);
        for quorum in [[Some(2), Some(1)], [Some(1), Some(2)]] {
            let uploads = vec![
                upload(0, PartyId::Server1, &a, user_ctx.pk2(), &mut rng),
                upload(0, PartyId::Server2, &b, user_ctx.pk1(), &mut rng),
            ];
            match collect(&keys, &[0, 1], quorum, uploads) {
                Err(SmcError::QuorumLost { step, survivors, required }) => {
                    assert_eq!(step, Step::SecureSumVotes);
                    assert_eq!(survivors, 1);
                    assert_eq!(required, 2);
                }
                other => panic!("expected QuorumLost, got {other:?}"),
            }
        }
    }
}
