//! Hierarchical sharded streaming aggregation — the tree layer that
//! turns the flat O(|U|·K) secure-sum fold into constant-memory streams.
//!
//! Paillier addition is a modular multiplication of canonical residues:
//! it is associative, commutative, and its identity is the literal
//! ciphertext `1` ([`paillier::PublicKey::zero_ciphertext`]). Partial
//! sums therefore compose across any tree shape into **bit-identical**
//! aggregates — the property everything in this module leans on. Users
//! are deterministically partitioned into shards ([`ShardPlan`], derived
//! from a round-shared seed), each shard folds its members' encrypted
//! share vectors into a running partial sum *as uploads arrive*
//! ([`ShardAccumulator`]), and only the shard aggregates — O(shards · K)
//! ciphertexts — flow up to the final combine. Server-side live memory
//! is bounded by the shard geometry and `K`, never by `|U|`.
//!
//! Memory model per mode:
//!
//! * **strict** (no dropouts possible): a validated upload is folded into
//!   its shard's partial sum and dropped immediately — O(K) live
//!   ciphertexts per shard, O(chunk · K) transiently while a chunk of
//!   arrivals fans its fold across classes.
//! * **resilient** (dropout-tolerant): additive two-server shares only
//!   recombine over the *intersection* of both servers' survivor sets,
//!   which is known only after the shard's survivor exchange. Each
//!   shard's uploads are therefore held until its per-shard
//!   reconciliation, then stream-folded and freed — the live window is
//!   one shard, O(max_shard · K), instead of the whole round's
//!   O(|U| · K).
//!
//! The flat path is exactly the 1-shard instance of this layer, so every
//! configuration releases the same [`ConsensusFingerprint`]
//! (`consensus_core::secure`) — pinned by proptests and the
//! `tests/shard.rs` matrix.

use paillier::{Ciphertext, PublicKey};
use parallel::Parallelism;

/// How a round's roster is partitioned into aggregation shards.
///
/// The default (`num_shards == 1`) is the flat path: one shard holding
/// everyone, no tree. Counts above the roster size are clamped at plan
/// derivation — a shard is never empty *by construction* of the clamp,
/// but hashed assignment may still leave some shards without members,
/// which every consumer tolerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards the roster is hashed into (≥ 1).
    pub num_shards: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::flat()
    }
}

impl ShardConfig {
    /// The flat path: a single shard holding the whole roster.
    pub fn flat() -> Self {
        ShardConfig { num_shards: 1 }
    }

    /// `num_shards` shards (clamped to ≥ 1).
    pub fn new(num_shards: usize) -> Self {
        ShardConfig { num_shards: num_shards.max(1) }
    }
}

/// SplitMix64 — the same finalizer the step-seed derivation uses, here
/// hashing (seed, user) into a shard index.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic partition of one round's roster into shards.
///
/// Both servers derive the plan independently from the *shared* round
/// seed (not their private per-server seeds), so their per-shard
/// survivor exchanges line up without coordination. Membership is
/// `splitmix64(seed ⊕ user) mod shards`; within a shard, users keep the
/// roster's ascending order, and the shard list itself is iterated in
/// index order — every consumer walks the same deterministic sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Derives the plan for `roster` under `config`, keyed by the
    /// round-shared `seed`. The shard count is clamped to the roster
    /// size, so the plan never has more shards than users.
    pub fn derive(seed: u64, roster: &[usize], config: ShardConfig) -> ShardPlan {
        let num_shards = config.num_shards.max(1).min(roster.len().max(1));
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        for &u in roster {
            let slot = (splitmix64(seed ^ u as u64) % num_shards as u64) as usize;
            shards[slot].push(u);
        }
        ShardPlan { shards }
    }

    /// The flat single-shard plan over `roster` — what the unsharded
    /// entry points use.
    pub fn flat(roster: &[usize]) -> ShardPlan {
        ShardPlan { shards: vec![roster.to_vec()] }
    }

    /// Number of shards (≥ 1; some may be empty under hashed assignment).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The member lists, one per shard, each ascending.
    pub fn shards(&self) -> &[Vec<usize>] {
        &self.shards
    }

    /// Total roster size across all shards.
    pub fn num_users(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Size of the largest shard — the resilient path's live-buffer bound.
    pub fn max_shard_len(&self) -> usize {
        self.shards.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Rescales a calibrated noise σ to the survivor count a round actually
/// realized — the degraded-mode noise recalibration shared by the
/// engine's honest RDP charge and the campaign's worst-case admission
/// check.
///
/// Each user contributes a noise share of variance `σ²/(2·intended)`
/// calibrated for the intended roster; when only `realized` shares land
/// (dropouts up to and including an *entire shard* vanishing), each
/// server's aggregate noise is `N(0, σ²·realized / (2·intended))`, so
/// the effective σ of the released statistic is
/// `σ·√(realized/intended)`. Charging RDP at this realized σ is the
/// honest accounting for a degraded round — rather than aborting it, or
/// claiming the full-roster σ that was never achieved.
///
/// Returns `0.0` when either count is zero (no noise was realized; the
/// caller must treat the round as unreleasable).
pub fn recalibrate_sigma(sigma: f64, intended: usize, realized: usize) -> f64 {
    if intended == 0 || realized == 0 {
        return 0.0;
    }
    sigma * (realized.min(intended) as f64 / intended as f64).sqrt()
}

/// Intersection of two ascending `usize` lists by sorted merge — O(n+m)
/// where the old `Vec::contains` scan was O(n·m). Survivor lists are
/// ascending by construction (roster order), which the debug assertion
/// pins.
pub fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "left list must be ascending");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "right list must be ascending");
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// How many buffered uploads a streaming fold accumulates before fanning
/// the per-class products out through [`Parallelism`]. Bounds the
/// transient memory of the strict streaming path at `CHUNK · K`
/// ciphertexts while keeping each fan-out large enough to be worth
/// splitting on multi-core machines.
pub const STREAM_CHUNK: usize = 32;

/// One shard's running partial sums: `vectors_per_user × num_classes`
/// live ciphertexts plus the ascending list of folded members — the
/// constant-memory core of streaming aggregation.
///
/// Uploads are folded in with [`ShardAccumulator::fold`] (single upload,
/// drop-after-fold) or [`ShardAccumulator::fold_chunk`] (a bounded chunk
/// fanned across class slots via [`Parallelism`]). Because Paillier
/// addition is a canonical modular multiplication, the running products
/// are bit-identical to the buffered fold they replace, for every chunk
/// size and thread count.
#[derive(Debug, Clone, Default)]
pub struct ShardAccumulator {
    sums: Vec<Vec<Ciphertext>>,
    members: Vec<usize>,
}

impl ShardAccumulator {
    /// An empty accumulator holding `vectors_per_user` running sums of
    /// `num_classes` identity ciphertexts each.
    pub fn new(key: &PublicKey, vectors_per_user: usize, num_classes: usize) -> ShardAccumulator {
        ShardAccumulator {
            sums: vec![vec![key.zero_ciphertext(); num_classes]; vectors_per_user],
            members: Vec::new(),
        }
    }

    /// Folds one user's upload (`vectors_per_user` vectors of
    /// `num_classes` ciphertexts) into the running sums. The upload is
    /// consumed — nothing is retained beyond the O(K) slots.
    pub fn fold(&mut self, key: &PublicKey, user: usize, vecs: Vec<Vec<Ciphertext>>) {
        debug_assert_eq!(vecs.len(), self.sums.len(), "vectors per user");
        for (sum, vec) in self.sums.iter_mut().zip(&vecs) {
            debug_assert_eq!(vec.len(), sum.len(), "class arity");
            for (slot, share) in sum.iter_mut().zip(vec) {
                *slot = key.add(slot, share);
            }
        }
        self.members.push(user);
    }

    /// Folds a chunk of uploads, fanning the independent per-class
    /// products across `par` (hinted with the chunk's Paillier-add cost
    /// so small chunks stay sequential). The chunk is consumed.
    pub fn fold_chunk(
        &mut self,
        key: &PublicKey,
        par: &Parallelism,
        chunk: Vec<(usize, Vec<Vec<Ciphertext>>)>,
    ) {
        if chunk.is_empty() {
            return;
        }
        let num_classes = self.sums.first().map_or(0, Vec::len);
        let fold_par =
            par.with_item_cost_ns(chunk.len() as u64 * crate::costs::paillier_add_cost_ns(key));
        for v in 0..self.sums.len() {
            let base = std::mem::take(&mut self.sums[v]);
            self.sums[v] = fold_par.map_n(num_classes, |k| {
                let mut slot = base[k].clone();
                for (_, vecs) in &chunk {
                    slot = key.add(&slot, &vecs[v][k]);
                }
                slot
            });
        }
        self.members.extend(chunk.iter().map(|(u, _)| *u));
    }

    /// Users folded so far, in fold order (ascending within a shard).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Merges another accumulator's partial sums and members into this
    /// one — the tree-combine step. Consumes `other`.
    pub fn merge(&mut self, key: &PublicKey, other: ShardAccumulator) {
        debug_assert_eq!(other.sums.len(), self.sums.len(), "vectors per user");
        for (sum, partial) in self.sums.iter_mut().zip(&other.sums) {
            for (slot, share) in sum.iter_mut().zip(partial) {
                *slot = key.add(slot, share);
            }
        }
        self.members.extend(other.members);
    }

    /// The final aggregated sums; consumes the accumulator.
    pub fn into_sums(self) -> Vec<Vec<Ciphertext>> {
        self.sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_key(rng: &mut StdRng) -> (paillier::Keypair, PublicKey) {
        let kp = paillier::Keypair::generate(rng, 64);
        let pk = kp.public_key().clone();
        (kp, pk)
    }

    #[test]
    fn plan_partitions_whole_roster_in_order() {
        let roster: Vec<usize> = (0..100).collect();
        for shards in [1, 2, 7, 64, 1000] {
            let plan = ShardPlan::derive(42, &roster, ShardConfig::new(shards));
            assert_eq!(plan.num_shards(), shards.min(roster.len()));
            assert_eq!(plan.num_users(), roster.len());
            let mut all: Vec<usize> = plan.shards().iter().flatten().copied().collect();
            for shard in plan.shards() {
                assert!(shard.windows(2).all(|w| w[0] < w[1]), "ascending within shard");
            }
            all.sort_unstable();
            assert_eq!(all, roster, "every user in exactly one shard");
        }
    }

    #[test]
    fn plan_is_seed_deterministic() {
        let roster: Vec<usize> = (0..40).collect();
        let a = ShardPlan::derive(7, &roster, ShardConfig::new(5));
        let b = ShardPlan::derive(7, &roster, ShardConfig::new(5));
        let c = ShardPlan::derive(8, &roster, ShardConfig::new(5));
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed reshuffles (overwhelmingly likely at 40 users)");
    }

    #[test]
    fn recalibrated_sigma_tracks_survivor_fraction() {
        assert_eq!(recalibrate_sigma(20.0, 100, 100), 20.0);
        let half = recalibrate_sigma(20.0, 100, 50);
        assert!((half - 20.0 * 0.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(recalibrate_sigma(20.0, 0, 5), 0.0);
        assert_eq!(recalibrate_sigma(20.0, 5, 0), 0.0);
        // A miscounted survivor set can never inflate σ past calibration.
        assert_eq!(recalibrate_sigma(20.0, 5, 9), 20.0);
    }

    #[test]
    fn intersect_sorted_matches_naive() {
        let a = vec![0, 2, 3, 5, 9, 11];
        let b = vec![1, 2, 5, 9, 10, 12];
        assert_eq!(intersect_sorted(&a, &b), vec![2, 5, 9]);
        assert_eq!(intersect_sorted(&a, &[]), Vec::<usize>::new());
        assert_eq!(intersect_sorted(&a, &a), a);
    }

    #[test]
    fn sharded_fold_is_bit_identical_to_flat() {
        let mut rng = StdRng::seed_from_u64(5);
        let (_kp, pk) = test_key(&mut rng);
        let users: Vec<usize> = (0..13).collect();
        let uploads: Vec<Vec<Vec<Ciphertext>>> = users
            .iter()
            .map(|_| {
                (0..2)
                    .map(|_| {
                        (0..3).map(|_| pk.encrypt_u64(rng.gen::<u64>() % 100, &mut rng)).collect()
                    })
                    .collect()
            })
            .collect();

        // Flat fold, one user at a time.
        let mut flat = ShardAccumulator::new(&pk, 2, 3);
        for (&u, vecs) in users.iter().zip(&uploads) {
            flat.fold(&pk, u, vecs.clone());
        }

        // Sharded fold with chunked parallel fan-out, then tree combine.
        let plan = ShardPlan::derive(99, &users, ShardConfig::new(4));
        let par = Parallelism::new(3).with_min_batch(1);
        let mut combined = ShardAccumulator::new(&pk, 2, 3);
        for shard in plan.shards() {
            let mut acc = ShardAccumulator::new(&pk, 2, 3);
            let chunk: Vec<_> = shard.iter().map(|&u| (u, uploads[u].clone())).collect();
            acc.fold_chunk(&pk, &par, chunk);
            combined.merge(&pk, acc);
        }

        let mut members = combined.members().to_vec();
        members.sort_unstable();
        assert_eq!(members, users);
        let flat_sums = flat.into_sums();
        let sharded_sums = combined.into_sums();
        for (a, b) in flat_sums.iter().zip(&sharded_sums) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.as_raw(), y.as_raw(), "fold grouping must not change the product");
            }
        }
    }
}
