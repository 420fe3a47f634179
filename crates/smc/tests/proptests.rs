//! Property-based tests for the SMC building blocks: permutation algebra,
//! share-domain arithmetic, the comparison encoding, the ranking bracket,
//! and thread-count invariance of the data-parallel protocol loops.

use dgk::comparison::{BlindedWitnesses, EvaluatorBits};
use dgk::DgkParams;
use paillier::{Ciphertext, PublicKey};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::blind_permute::{BlindPermute, BlindPermuteOutput};
use smc::bracket::Argmax;
use smc::machine::{Next, Outbox};
use smc::secure_sum::{encrypt_share_vector, Collect};
use smc::shard::intersect_sorted;
use smc::{
    run_pair, Machine, Parallelism, Permutation, SessionConfig, SessionKeys, ShardConfig,
    ShardPlan, ShareDomain,
};
use transport::{PartyId, Step, Wire};

proptest! {
    #[test]
    fn permutation_inverse_roundtrips(seed in any::<u64>(), k in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Permutation::random(k, &mut rng);
        let xs: Vec<usize> = (0..k).collect();
        prop_assert_eq!(p.inverse().apply(&p.apply(&xs)), xs.clone());
        prop_assert_eq!(p.apply(&p.inverse().apply(&xs)), xs);
    }

    #[test]
    fn permutation_composition_associates(seed in any::<u64>(), k in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Permutation::random(k, &mut rng);
        let b = Permutation::random(k, &mut rng);
        let c = Permutation::random(k, &mut rng);
        prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    #[test]
    fn permutation_apply_index_tracks_elements(seed in any::<u64>(), k in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Permutation::random(k, &mut rng);
        let xs: Vec<usize> = (100..100 + k).collect();
        let ys = p.apply(&xs);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(ys[p.apply_index(i)], x);
        }
    }

    #[test]
    fn double_permutation_is_uniformly_composable(seed in any::<u64>(), k in 2usize..8, label in 0usize..8) {
        // The protocol's core permutation identity: the winner slot under
        // π = π1∘π2 is found by composing, never by applying twice.
        prop_assume!(label < k);
        let mut rng = StdRng::seed_from_u64(seed);
        let p1 = Permutation::random(k, &mut rng);
        let p2 = Permutation::random(k, &mut rng);
        let composed = p1.compose(&p2);
        let xs: Vec<usize> = (0..k).collect();
        prop_assert_eq!(composed.apply(&xs), p1.apply(&p2.apply(&xs)));
        let slot = composed.apply_index(label);
        prop_assert_eq!(composed.apply(&xs)[slot], label);
    }

    #[test]
    fn permutation_composed_with_inverse_is_identity(seed in any::<u64>(), k in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Permutation::random(k, &mut rng);
        let identity: Vec<usize> = (0..k).collect();
        let xs: Vec<usize> = (7..7 + k).collect();
        prop_assert_eq!(p.compose(&p.inverse()).apply(&xs), xs.clone());
        prop_assert_eq!(p.inverse().compose(&p).apply(&xs), xs);
        for (i, &x) in identity.iter().enumerate() {
            prop_assert_eq!(p.compose(&p.inverse()).apply_index(i), x);
        }
    }

    #[test]
    fn shares_always_reconstruct(value in -(1i128 << 40)..(1i128 << 40), seed in any::<u64>()) {
        let domain = ShareDomain::paper();
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = domain.split(value, &mut rng);
        prop_assert_eq!(a + b, value);
        prop_assert!(a.abs() <= 1 << domain.share_bits);
    }

    #[test]
    fn compare_encoding_is_monotone(x in -(1i128 << 24)..(1i128 << 24), y in -(1i128 << 24)..(1i128 << 24)) {
        let domain = ShareDomain::test();
        let ex = domain.encode_compare(x).unwrap();
        let ey = domain.encode_compare(y).unwrap();
        prop_assert_eq!(x >= y, ex >= ey);
        prop_assert_eq!(domain.decode_compare(ex), x);
    }

    #[test]
    fn eqn7_transform_preserves_comparisons(
        a_i in -(1i128 << 20)..(1i128 << 20),
        a_j in -(1i128 << 20)..(1i128 << 20),
        b_i in -(1i128 << 20)..(1i128 << 20),
        b_j in -(1i128 << 20)..(1i128 << 20),
        bias in 0i128..(1i128 << 20),
    ) {
        // Eqn. 7 with a common scalar bias r on every masked entry:
        // c_i ≥ c_j ⟺ (ã_i − ã_j) ≥ (b̃_j − b̃_i).
        let c_i = a_i + b_i;
        let c_j = a_j + b_j;
        let lhs = (a_i + bias) - (a_j + bias);
        let rhs = (b_j + bias) - (b_i + bias);
        prop_assert_eq!(c_i >= c_j, lhs >= rhs);
    }

    #[test]
    fn eqn6_transform_preserves_threshold(
        a in -(1i128 << 20)..(1i128 << 20),
        b in -(1i128 << 20)..(1i128 << 20),
        t in 0i128..(1i128 << 20),
        noise in -(1i128 << 16)..(1i128 << 16),
        bias in 0i128..(1i128 << 20),
    ) {
        // Eqn. 6: c + z ≥ T ⟺ (a − T/2 + z_a + r) ≥ (T/2 − b − z_b + r)
        // with z = z_a + z_b and exact integer threshold halves.
        let t_half_a = t / 2;
        let t_half_b = t - t_half_a;
        let z_a = noise / 2;
        let z_b = noise - z_a;
        let lhs = a - t_half_a + z_a + bias;
        let rhs = t_half_b - b - z_b + bias;
        prop_assert_eq!(a + b + noise >= t, lhs >= rhs);
    }
}

/// One shared session for the aggregation invariance property; uploads
/// are S1-bound, so they are encrypted under [`agg_key`].
fn agg_keys() -> &'static SessionKeys {
    use std::sync::OnceLock;
    static KEYS: OnceLock<SessionKeys> = OnceLock::new();
    KEYS.get_or_init(|| {
        SessionKeys::generate(SessionConfig::test(1, 1), &mut StdRng::seed_from_u64(417))
    })
}

fn agg_key() -> &'static PublicKey {
    use std::sync::OnceLock;
    static KEY: OnceLock<PublicKey> = OnceLock::new();
    KEY.get_or_init(|| agg_keys().user().pk2().clone())
}

/// Feeds S1's strict collection machine one upload per user of `plan`
/// and returns the aggregate, folded at the given parallelism.
fn aggregate_uploads_sharded(
    uploads: &[Vec<Ciphertext>],
    plan: &ShardPlan,
    par: &Parallelism,
) -> Vec<Ciphertext> {
    let ctx = agg_keys().clone().with_parallelism(*par).server1();
    let num_classes = uploads[0].len();
    let mut machine = Collect::new(&ctx, Step::SecureSumVotes, plan.clone(), num_classes, 1, None);
    let mut answer = None;
    loop {
        match machine.resume(&ctx, answer.take(), &mut Outbox::default()).unwrap() {
            Next::Recv(recv) => {
                let PartyId::User(u) = recv.from else {
                    panic!("strict collection asks users only")
                };
                answer = Some(Ok((1, uploads[u].to_bytes())));
            }
            Next::Done(mut aggregate) => return aggregate.sums.pop().unwrap(),
        }
    }
}

/// [`aggregate_uploads_sharded`] over the flat single-shard plan.
fn aggregate_uploads(uploads: &[Vec<Ciphertext>], par: &Parallelism) -> Vec<Ciphertext> {
    let roster: Vec<usize> = (0..uploads.len()).collect();
    aggregate_uploads_sharded(uploads, &ShardPlan::flat(&roster), par)
}

/// Runs a batched blind-and-permute in memory with the given per-server
/// parallelism, deterministically in every RNG stream.
fn run_blind_permute(
    seed: u64,
    a_vec: &[i128],
    b_vec: &[i128],
    par: Parallelism,
) -> (BlindPermuteOutput, BlindPermuteOutput) {
    let k = a_vec.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = SessionKeys::generate(SessionConfig::test(1, k), &mut rng).with_parallelism(par);
    let (s1_ctx, s2_ctx, user_ctx) = (keys.server1(), keys.server2(), keys.user());

    let user_par = user_ctx.parallelism();
    let enc_a = encrypt_share_vector(a_vec, user_ctx.pk2(), user_par, &mut rng).unwrap();
    let enc_b = encrypt_share_vector(b_vec, user_ctx.pk1(), user_par, &mut rng).unwrap();

    let half =
        |enc, seed| BlindPermute::new(vec![enc], Step::BlindPermute1, StdRng::seed_from_u64(seed));
    let s1 = half(enc_a, seed.wrapping_add(1));
    let s2 = half(enc_b, seed.wrapping_add(2));
    run_pair((&s1_ctx, s1), (&s2_ctx, s2), Vec::new()).unwrap().outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn secure_sum_aggregation_is_thread_count_invariant(
        votes in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 1..6), 1..5),
        threads in 2usize..9,
        seed in any::<u64>(),
    ) {
        // |U| = 1 and K = 1 degenerates are in range, as are class counts
        // below the min-batch split threshold.
        let num_classes = votes[0].len();
        let pk = agg_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let uploads: Vec<Vec<Ciphertext>> = votes
            .iter()
            .map(|row| {
                (0..num_classes)
                    .map(|k| pk.encrypt_u64(row[k % row.len()] as u64, &mut rng))
                    .collect()
            })
            .collect();
        let seq = aggregate_uploads(&uploads, &Parallelism::sequential());
        let par = aggregate_uploads(&uploads, &Parallelism::new(threads));
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn sharded_aggregation_is_bit_identical_to_flat(
        votes in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 1..6), 1..40),
        num_shards in 1usize..9,
        threads in 1usize..5,
        shard_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // The tentpole invariant: hashing the roster into any number of
        // shards, streaming each shard's uploads through chunked running
        // folds and tree-combining the partials must reproduce the flat
        // fold bit for bit — Paillier addition is a canonical modular
        // multiplication, so grouping cannot change the product.
        let num_classes = votes[0].len();
        let pk = agg_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let uploads: Vec<Vec<Ciphertext>> = votes
            .iter()
            .map(|row| {
                (0..num_classes)
                    .map(|k| pk.encrypt_u64(row[k % row.len()] as u64, &mut rng))
                    .collect()
            })
            .collect();
        let roster: Vec<usize> = (0..uploads.len()).collect();
        let plan = ShardPlan::derive(shard_seed, &roster, ShardConfig::new(num_shards));
        let flat = aggregate_uploads(&uploads, &Parallelism::sequential());
        let sharded = aggregate_uploads_sharded(&uploads, &plan, &Parallelism::new(threads));
        prop_assert_eq!(flat, sharded);
    }

    #[test]
    fn shard_plan_partitions_exactly(
        roster_len in 1usize..200,
        num_shards in 1usize..40,
        shard_seed in any::<u64>(),
    ) {
        let roster: Vec<usize> = (0..roster_len).collect();
        let plan = ShardPlan::derive(shard_seed, &roster, ShardConfig::new(num_shards));
        prop_assert_eq!(plan.num_shards(), num_shards.min(roster_len));
        let mut all: Vec<usize> = plan.shards().iter().flatten().copied().collect();
        for shard in plan.shards() {
            prop_assert!(shard.windows(2).all(|w| w[0] < w[1]));
        }
        all.sort_unstable();
        prop_assert_eq!(all, roster);
    }

    #[test]
    fn intersect_sorted_matches_set_semantics(
        a_raw in proptest::collection::vec(0usize..500, 0..60),
        b_raw in proptest::collection::vec(0usize..500, 0..60),
    ) {
        let ascending = |mut v: Vec<usize>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        let a = ascending(a_raw);
        let b = ascending(b_raw);
        let expect: Vec<usize> = a.iter().copied().filter(|u| b.contains(u)).collect();
        prop_assert_eq!(intersect_sorted(&a, &b), expect);
    }

    #[test]
    fn blind_permute_is_thread_count_invariant(
        a_vec in proptest::collection::vec(-1000i128..1000, 1..6),
        b_vec_raw in proptest::collection::vec(-1000i128..1000, 1..6),
        threads in 2usize..9,
        seed in any::<u64>(),
    ) {
        // K = 1 exercises the no-split degenerate; larger K the real
        // mask/rerandomize fan-out on both servers.
        let b_vec: Vec<i128> =
            (0..a_vec.len()).map(|i| b_vec_raw[i % b_vec_raw.len()]).collect();
        let (s1_seq, s2_seq) =
            run_blind_permute(seed, &a_vec, &b_vec, Parallelism::sequential());
        let (s1_par, s2_par) =
            run_blind_permute(seed, &a_vec, &b_vec, Parallelism::new(threads));
        prop_assert_eq!(s1_seq.sequences, s1_par.sequences);
        prop_assert_eq!(s2_seq.sequences, s2_par.sequences);
        prop_assert_eq!(s1_seq.own_permutation, s1_par.own_permutation);
        prop_assert_eq!(s2_seq.own_permutation, s2_par.own_permutation);
    }
}

/// Session keys for the bracket property. The DGK modulus is 512 bits so
/// one comparison leg costs more than [`parallel::SPLIT_MIN_WORK_NS`] and
/// a three-thread run really splits its multi-match rounds.
fn bracket_keys() -> &'static SessionKeys {
    use std::sync::OnceLock;
    static KEYS: OnceLock<SessionKeys> = OnceLock::new();
    KEYS.get_or_init(|| {
        let config = SessionConfig {
            dgk: DgkParams { modulus_bits: 512, subgroup_bits: 64, compare_bits: 26 },
            ..SessionConfig::test(1, 2)
        };
        SessionKeys::generate(config, &mut StdRng::seed_from_u64(977))
    })
}

/// Every frame of one ranking, in wire order: per bracket round S1's bit
/// encryptions, S2's witness sets and S1's outcome bits.
type RankTranscript = Vec<(Vec<EvaluatorBits>, Vec<BlindedWitnesses>, Vec<bool>)>;

/// Runs both servers' [`Argmax`] in memory and reads every frame back off
/// the transcript. Returns both winners, the transcript, and the S1↔S2
/// message count.
fn run_bracket(
    xs: &[i128],
    ys: &[i128],
    seed: u64,
    par: Parallelism,
) -> (usize, usize, RankTranscript, u64) {
    let keys = bracket_keys().clone().with_parallelism(par);
    let (s1_ctx, s2_ctx) = (keys.server1(), keys.server2());
    let step = Step::CompareRank;
    let s1 = Argmax::new(xs.to_vec(), step, StdRng::seed_from_u64(seed));
    let s2 = Argmax::new(ys.to_vec(), step, StdRng::seed_from_u64(seed ^ 0x5EED));
    let run = run_pair((&s1_ctx, s1), (&s2_ctx, s2), Vec::new()).unwrap();

    let messages = run.transcript.len() as u64;
    let transcript: RankTranscript = run
        .transcript
        .chunks_exact(3)
        .map(|round| {
            let senders: Vec<PartyId> = round.iter().map(|f| f.from).collect();
            assert_eq!(senders, [PartyId::Server1, PartyId::Server2, PartyId::Server1]);
            (
                Vec::from_bytes(round[0].payload.clone()).unwrap(),
                Vec::from_bytes(round[1].payload.clone()).unwrap(),
                Vec::from_bytes(round[2].payload.clone()).unwrap(),
            )
        })
        .collect();
    (run.outputs.0, run.outputs.1, transcript, messages)
}

/// One permuted slot: S1's share and the hidden total. S1 shares span
/// `[−(2^24 − 1), 2^24 − 2]` with both ends drawn half the time and totals only
/// `{0, 1, 2}`, so the sequences are tie-heavy, mostly negative on one
/// side, and S2's differences `ys[hi] − ys[lo]` reach `±(2^25 − 1)` — the
/// last values `encode_compare` accepts.
fn slot_strategy() -> impl Strategy<Value = (i128, i128)> {
    let h = 1i128 << 24;
    let share = prop_oneof![Just(-(h - 1)), Just(h - 2), -3i128..=3, -(h - 1)..=(h - 2)];
    (share, 0i128..=2)
}

/// Ranks `slots` and checks the winner against the clear oracle, the
/// bracket's shape, and that threads leave every frame alone.
fn assert_bracket_elects_the_lowest_index_maximum(slots: &[(i128, i128)], seed: u64) {
    let k = slots.len();
    let xs: Vec<i128> = slots.iter().map(|&(x, _)| x).collect();
    let ys: Vec<i128> = slots.iter().map(|&(x, total)| total - x).collect();
    let best = slots.iter().map(|&(_, total)| total).max().unwrap();
    let expect = slots.iter().position(|&(_, total)| total == best).unwrap();

    let (w1, w2, transcript, messages) = run_bracket(&xs, &ys, seed, Parallelism::sequential());
    assert_eq!((w1, w2), (expect, expect));

    // K−1 comparisons in ⌈log₂K⌉ three-message rounds (none for K = 1).
    let rounds = k.next_power_of_two().trailing_zeros() as usize;
    assert_eq!(messages, 3 * rounds as u64);
    assert_eq!(transcript.len(), rounds);
    let witness_sets: usize = transcript.iter().map(|(_, w, _)| w.len()).sum();
    assert_eq!(witness_sets, k - 1);

    // Same seeds, three worker threads: byte-identical frames.
    let threaded = run_bracket(&xs, &ys, seed, Parallelism::new(3).with_min_batch(1));
    assert_eq!(threaded, (w1, w2, transcript, messages));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bracket_elects_the_lowest_index_maximum(
        slots in proptest::collection::vec(slot_strategy(), 1..18),
        seed in any::<u64>(),
    ) {
        assert_bracket_elects_the_lowest_index_maximum(&slots, seed);
    }
}

/// K = 100, the shape no benchmark workload has: 99 comparisons in
/// 3·⌈log₂ 100⌉ = 21 messages, fourteen slots tied for the maximum.
#[test]
fn bracket_at_a_hundred_slots() {
    let slots: Vec<(i128, i128)> =
        (0..100).map(|i| ((i * 7919) % 1000 - 500, (i * 104_729) % 7)).collect();
    assert_eq!(slots.iter().filter(|&&(_, total)| total == 6).count(), 14);
    assert_bracket_elects_the_lowest_index_maximum(&slots, 100);
}
