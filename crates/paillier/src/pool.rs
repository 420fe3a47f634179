//! Precomputed randomizer pool — the paper's parallel-encryption fix.
//!
//! §VI-A: "almost all encryptions require random number generation which
//! relies on a common generator, but the generator is not sufficiently
//! fast … we made a tweak by generating a table of random numbers
//! beforehand". Paillier encryption spends nearly all its time computing
//! `r^n mod n²`; this pool precomputes those powers once (optionally in
//! parallel via a [`Parallelism`] config) so the hot path is a single
//! modular multiplication, and encryption can fan out across threads
//! without contending on an RNG.
//!
//! Unlike the paper's prototype (which indexed the table "with the
//! current time", risking reuse), the pool hands out each randomizer
//! **exactly once** — reusing `r^n` across two ciphertexts would let an
//! observer link them and cancel the blinding. When the pool runs dry, a
//! default pool degrades gracefully: the missing randomizers are
//! generated on the fly (each from its own seed-derived RNG stream, so
//! nothing is ever reused) and counted in
//! [`RandomizerPool::fallback_generated`] so an operator can size the
//! next pool correctly. A pool built with [`RandomizerPool::with_strict`]
//! keeps the old behavior and returns
//! [`PaillierError::PoolExhausted`] instead.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use bigint::modular::modmul;
use bigint::{random, Ubig};
use parallel::Parallelism;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ciphertext::Ciphertext;
use crate::error::PaillierError;
use crate::keys::PublicKey;

/// Odd multiplier used to spread overflow indices into distinct fallback
/// RNG streams (SplitMix64's increment constant).
const FALLBACK_STREAM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Number of fixed blind bases a batched refill multi-exponentiates over.
const BLIND_BASES: usize = 4;

/// Floor on the per-base exponent width in a batched refill, so tiny test
/// moduli still draw meaningful entropy.
const MIN_BLIND_EXP_BITS: u64 = 16;

/// Fixed bases for batched randomizer generation: `bases[j] = rⱼ^n mod n²`
/// for secret uniform `rⱼ`, built once per pool and amortized over every
/// later [`RandomizerPool::refill_batched`] call.
///
/// A batched randomizer is `∏ⱼ bases[j]^{eⱼ} = (∏ⱼ rⱼ^{eⱼ})^n` for short
/// random exponents `eⱼ` — a legitimate n-th power, computed with **one**
/// shared squaring chain of `exp_bits` squarings via `modpow_multi`
/// instead of a full `n.bits()`-deep exponentiation per randomizer.
#[derive(Debug)]
struct BlindBases {
    bases: Vec<Ubig>,
    /// Bits drawn per short exponent (`⌈n.bits()/BLIND_BASES⌉`, floored
    /// at [`MIN_BLIND_EXP_BITS`]).
    exp_bits: u64,
}

/// Rough wall-clock model (ns) for one full-width `r^n mod n²`
/// exponentiation, used as a [`Parallelism::with_item_cost_ns`] hint so
/// small refills stay sequential instead of paying spawn/join overhead.
fn full_exp_cost_ns(pk: &PublicKey) -> u64 {
    bigint::montgomery::modpow_cost_ns(pk.modulus_squared().bits(), pk.modulus().bits())
}

/// A single-use pool of precomputed Paillier randomizers `r^n mod n²`.
///
/// # Examples
///
/// ```
/// use paillier::{Keypair, RandomizerPool};
/// use bigint::Ubig;
///
/// let mut rng = rand::thread_rng();
/// let kp = Keypair::generate(&mut rng, 64);
/// let pool = RandomizerPool::generate(kp.public_key().clone(), 16, &mut rng);
/// let c = pool.encrypt(&Ubig::from(7u64))?;
/// assert_eq!(kp.private_key().decrypt_u64(&c), 7);
/// # Ok::<(), paillier::PaillierError>(())
/// ```
#[derive(Debug)]
pub struct RandomizerPool {
    pk: PublicKey,
    randomizers: Vec<Ubig>,
    next: AtomicUsize,
    strict: bool,
    /// Root seed for on-the-fly randomizers once the table is exhausted;
    /// drawn from the caller's RNG at generation time so fallback output
    /// is as deterministic (per claimed index) as the pool itself.
    fallback_seed: u64,
    fallback_count: AtomicU64,
    /// Fixed bases for [`RandomizerPool::refill_batched`], built lazily on
    /// the first batched call.
    blind_bases: Option<BlindBases>,
}

impl RandomizerPool {
    /// Precomputes `size` randomizers sequentially. The key's cached
    /// `n²` Montgomery context is warmed first, so each `r^n` pays only
    /// the exponentiation — not a per-item context rebuild.
    pub fn generate<R: Rng + ?Sized>(pk: PublicKey, size: usize, rng: &mut R) -> Self {
        Self::generate_with(pk, size, &Parallelism::sequential(), rng)
    }

    /// Precomputes `size` randomizers, fanning the exponentiations out
    /// according to `par`. Each randomizer is derived from its own
    /// seed-drawn RNG stream (see [`Parallelism::map_n_seeded`]), so the
    /// pool contents are bit-identical for every thread count — workers
    /// never contend on a shared generator, the paper's bottleneck.
    pub fn generate_with<R: Rng + ?Sized>(
        pk: PublicKey,
        size: usize,
        par: &Parallelism,
        rng: &mut R,
    ) -> Self {
        // Warm the shared n² context once; every worker then reuses it
        // through the key reference instead of rebuilding per item.
        pk.precompute();
        let fallback_seed: u64 = rng.gen();
        let par = par.with_item_cost_ns(full_exp_cost_ns(&pk));
        let randomizers =
            par.map_n_seeded(size, rng, |_, item_rng| Self::one_randomizer(&pk, item_rng));
        RandomizerPool {
            pk,
            randomizers,
            next: AtomicUsize::new(0),
            strict: false,
            fallback_seed,
            fallback_count: AtomicU64::new(0),
            blind_bases: None,
        }
    }

    /// Makes exhaustion a hard [`PaillierError::PoolExhausted`] error
    /// instead of generating missing randomizers on the fly. Use this
    /// when the pool size is part of a performance budget that silent
    /// fallback would mask.
    pub fn with_strict(mut self) -> Self {
        self.strict = true;
        self
    }

    fn one_randomizer<R: Rng + ?Sized>(pk: &PublicKey, rng: &mut R) -> Ubig {
        let r = random::gen_coprime(rng, pk.modulus());
        pk.pow_mod_n2(&r, pk.modulus())
    }

    /// The public key the pool was built for.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// Randomizers not yet consumed.
    pub fn remaining(&self) -> usize {
        self.randomizers.len().saturating_sub(self.next.load(Ordering::Relaxed))
    }

    /// Total randomizers the pool was generated (and refilled) with,
    /// consumed or not.
    pub fn capacity(&self) -> usize {
        self.randomizers.len()
    }

    /// How many randomizers were generated on the fly because the pool
    /// ran dry. Non-zero means the pool was undersized for its workload.
    pub fn fallback_generated(&self) -> u64 {
        self.fallback_count.load(Ordering::Relaxed)
    }

    /// Tops the pool back up with `additional` fresh randomizers, so a
    /// long batch campaign can keep one pool alive instead of falling
    /// back (or, in strict mode, dying on
    /// [`PaillierError::PoolExhausted`]) mid-round. Requires exclusive
    /// access (`&mut self`); already-claimed randomizers are unaffected.
    ///
    /// ```
    /// use paillier::{Keypair, RandomizerPool};
    /// use bigint::Ubig;
    ///
    /// let mut rng = rand::thread_rng();
    /// let kp = Keypair::generate(&mut rng, 64);
    /// let mut pool =
    ///     RandomizerPool::generate(kp.public_key().clone(), 1, &mut rng).with_strict();
    /// pool.encrypt(&Ubig::one())?;
    /// assert_eq!(pool.remaining(), 0);
    /// pool.refill(4, &mut rng);
    /// assert_eq!(pool.remaining(), 4);
    /// # Ok::<(), paillier::PaillierError>(())
    /// ```
    pub fn refill<R: Rng + ?Sized>(&mut self, additional: usize, rng: &mut R) {
        self.refill_with(additional, &Parallelism::sequential(), rng);
    }

    /// [`RandomizerPool::refill`] with the exponentiations fanned out
    /// according to `par`, same determinism contract as
    /// [`RandomizerPool::generate_with`].
    pub fn refill_with<R: Rng + ?Sized>(
        &mut self,
        additional: usize,
        par: &Parallelism,
        rng: &mut R,
    ) {
        let pk = &self.pk;
        let par = par.with_item_cost_ns(full_exp_cost_ns(pk));
        self.randomizers.extend(
            par.map_n_seeded(additional, rng, |_, item_rng| Self::one_randomizer(pk, item_rng)),
        );
    }

    /// [`RandomizerPool::refill`] through the batched multi-exponentiation
    /// kernel: instead of one full `n.bits()`-deep exponentiation per
    /// randomizer, each new entry is `∏ⱼ Rⱼ^{eⱼ} mod n²` over
    /// [`BLIND_BASES`] fixed bases `Rⱼ = rⱼ^n` (built once per pool, on
    /// the first batched call) with short per-base exponents sharing one
    /// squaring chain — ~`n.bits()/BLIND_BASES` squarings per randomizer
    /// in steady state.
    ///
    /// Every entry is still a legitimate n-th power
    /// (`∏ Rⱼ^{eⱼ} = (∏ rⱼ^{eⱼ})^n`), consumed exactly once. The
    /// trade-off is entropy: a batched randomizer carries
    /// `BLIND_BASES · exp_bits ≥ n.bits()` bits of seed entropy but ranges
    /// over the subgroup generated by the `rⱼ` rather than all of
    /// `Z_n^*` — appropriate for the covert/semi-honest setting the
    /// protocol targets (DESIGN.md, "Exponentiation strategy").
    ///
    /// Determinism contract matches [`RandomizerPool::refill_with`]:
    /// per-item seeded RNG streams, bit-identical at any thread count.
    pub fn refill_batched<R: Rng + ?Sized>(
        &mut self,
        additional: usize,
        par: &Parallelism,
        rng: &mut R,
    ) {
        self.pk.precompute();
        if self.blind_bases.is_none() {
            let n = self.pk.modulus();
            let exp_bits = n.bits().div_ceil(BLIND_BASES as u64).max(MIN_BLIND_EXP_BITS);
            let bases = (0..BLIND_BASES)
                .map(|_| {
                    let r = random::gen_coprime(rng, n);
                    self.pk.pow_mod_n2(&r, n)
                })
                .collect();
            self.blind_bases = Some(BlindBases { bases, exp_bits });
        }
        let pk = &self.pk;
        let blind = self.blind_bases.as_ref().expect("built above");
        let ctx = pk.ctx_n2();
        // Steady-state cost is one shared chain of exp_bits squarings.
        let cost = full_exp_cost_ns(pk) * blind.exp_bits / pk.modulus().bits().max(1);
        let par = par.with_item_cost_ns(cost.max(1));
        let fresh = par.map_n_seeded(additional, rng, |_, item_rng| {
            let exps: Vec<Ubig> =
                (0..BLIND_BASES).map(|_| random::gen_bits(item_rng, blind.exp_bits)).collect();
            match ctx {
                Some(ctx) => {
                    let pairs: Vec<(&Ubig, &Ubig)> = blind.bases.iter().zip(&exps).collect();
                    ctx.modpow_multi(&pairs)
                }
                // Degenerate (even) modulus: fold per-base exponentiations.
                None => blind
                    .bases
                    .iter()
                    .zip(&exps)
                    .fold(&Ubig::one() % pk.modulus_squared(), |acc, (base, e)| {
                        modmul(&acc, &pk.pow_mod_n2(base, e), pk.modulus_squared())
                    }),
            }
        });
        self.randomizers.extend(fresh);
    }

    /// Encrypts `m` using the next unused randomizer. Thread-safe: each
    /// randomizer (pooled or fallback) is claimed by exactly one caller.
    ///
    /// # Errors
    ///
    /// Returns [`PaillierError::MessageOutOfRange`] if `m >= n`, or — on
    /// a [`RandomizerPool::with_strict`] pool only —
    /// [`PaillierError::PoolExhausted`] once all randomizers are used.
    /// A default pool generates the missing randomizer on the fly and
    /// bumps [`RandomizerPool::fallback_generated`] instead.
    pub fn encrypt(&self, m: &Ubig) -> Result<Ciphertext, PaillierError> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        self.encrypt_at(idx, m)
    }

    /// Encrypts `m` with the randomizer for the already-claimed index
    /// `idx` — the pooled entry if `idx` is in range, otherwise a
    /// fallback randomizer derived deterministically from the pool's
    /// fallback seed and `idx`.
    fn encrypt_at(&self, idx: usize, m: &Ubig) -> Result<Ciphertext, PaillierError> {
        if m >= self.pk.modulus() {
            return Err(PaillierError::MessageOutOfRange);
        }
        let r_n = self.randomizer_at(idx)?;
        let n2 = self.pk.modulus_squared();
        let g_m = &(Ubig::one() + modmul(m, self.pk.modulus(), n2)) % n2;
        Ok(Ciphertext::from_raw(modmul(&g_m, &r_n, n2)))
    }

    /// The randomizer for the already-claimed index `idx`: the pooled
    /// entry if in range, otherwise (on a non-strict pool) a fallback
    /// derived deterministically from the pool's fallback seed and `idx`.
    fn randomizer_at(&self, idx: usize) -> Result<Cow<'_, Ubig>, PaillierError> {
        match self.randomizers.get(idx) {
            Some(r_n) => Ok(Cow::Borrowed(r_n)),
            None if self.strict => {
                Err(PaillierError::PoolExhausted { size: self.randomizers.len(), index: idx })
            }
            None => {
                let seed = self.fallback_seed ^ (idx as u64).wrapping_mul(FALLBACK_STREAM_MUL);
                let mut item_rng = StdRng::seed_from_u64(seed);
                let r_n = Self::one_randomizer(&self.pk, &mut item_rng);
                self.fallback_count.fetch_add(1, Ordering::Relaxed);
                Ok(Cow::Owned(r_n))
            }
        }
    }

    /// Rerandomizes `c` with the next unused pooled blind: one modular
    /// multiplication on the hot path instead of the full `r^n`
    /// exponentiation [`PublicKey::rerandomize`] pays. Same claim
    /// semantics as [`RandomizerPool::encrypt`]: each blind is used
    /// exactly once, exhaustion falls back (or errors on a strict pool).
    ///
    /// # Errors
    ///
    /// Returns [`PaillierError::MalformedCiphertext`] if `c` is not in
    /// `Z_{n²}` or is zero; [`PaillierError::PoolExhausted`] on an
    /// exhausted strict pool.
    pub fn rerandomize(&self, c: &Ciphertext) -> Result<Ciphertext, PaillierError> {
        let n2 = self.pk.modulus_squared();
        if c.as_raw() >= n2 || c.as_raw().is_zero() {
            return Err(PaillierError::MalformedCiphertext);
        }
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let r_n = self.randomizer_at(idx)?;
        Ok(Ciphertext::from_raw(modmul(c.as_raw(), &r_n, n2)))
    }

    /// Encrypts a batch, fanning out according to `par` and preserving
    /// input order — the paper's "split instances into batches and run
    /// encryptions in parallel".
    ///
    /// The whole block of randomizer indices is claimed up front with one
    /// atomic add, so value `i` always pairs with randomizer
    /// `start + i`: the output is bit-identical regardless of thread
    /// count or scheduling.
    ///
    /// # Errors
    ///
    /// On a [`RandomizerPool::with_strict`] pool, fails with
    /// [`PaillierError::PoolExhausted`] if the pool has fewer than
    /// `values.len()` randomizers left; a default pool generates the
    /// overflow on the fly. Fails with
    /// [`PaillierError::MessageOutOfRange`] if any value is `>= n`
    /// (lowest offending index wins).
    pub fn encrypt_batch(
        &self,
        values: &[Ubig],
        par: &Parallelism,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        if self.strict && self.remaining() < values.len() {
            return Err(PaillierError::PoolExhausted {
                size: self.randomizers.len(),
                index: self.next.load(Ordering::Relaxed) + values.len() - 1,
            });
        }
        let start = self.next.fetch_add(values.len(), Ordering::Relaxed);
        par.try_map(values, |i, v| self.encrypt_at(start + i, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn keypair() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(&mut StdRng::seed_from_u64(500), 64))
    }

    #[test]
    fn pooled_encryption_decrypts() {
        let mut rng = StdRng::seed_from_u64(1);
        let pool = RandomizerPool::generate(keypair().public_key().clone(), 8, &mut rng);
        for m in [0u64, 1, 42, 65535] {
            let c = pool.encrypt(&Ubig::from(m)).unwrap();
            assert_eq!(keypair().private_key().decrypt_u64(&c), m);
        }
        assert_eq!(pool.remaining(), 4);
    }

    #[test]
    fn pool_exhaustion_is_an_error() {
        let mut rng = StdRng::seed_from_u64(2);
        let pool =
            RandomizerPool::generate(keypair().public_key().clone(), 2, &mut rng).with_strict();
        pool.encrypt(&Ubig::one()).unwrap();
        pool.encrypt(&Ubig::one()).unwrap();
        // The error reports the capacity and the index that overran it.
        assert_eq!(
            pool.encrypt(&Ubig::one()),
            Err(PaillierError::PoolExhausted { size: 2, index: 2 })
        );
        assert_eq!(pool.fallback_generated(), 0);
    }

    #[test]
    fn exhausted_default_pool_falls_back() {
        let mut rng = StdRng::seed_from_u64(2);
        let pool = RandomizerPool::generate(keypair().public_key().clone(), 2, &mut rng);
        let mut cts = Vec::new();
        for _ in 0..4 {
            cts.push(pool.encrypt(&Ubig::from(5u64)).unwrap());
        }
        assert_eq!(pool.fallback_generated(), 2);
        for ct in &cts {
            assert_eq!(keypair().private_key().decrypt_u64(ct), 5);
        }
        // Fallback randomizers are fresh: no ciphertext repeats.
        let unique: std::collections::HashSet<_> = cts.iter().map(|c| c.as_raw().clone()).collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn refill_revives_an_exhausted_pool() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut pool =
            RandomizerPool::generate(keypair().public_key().clone(), 1, &mut rng).with_strict();
        pool.encrypt(&Ubig::one()).unwrap();
        assert!(matches!(
            pool.encrypt(&Ubig::one()),
            Err(PaillierError::PoolExhausted { size: 1, .. })
        ));
        pool.refill(3, &mut rng);
        assert_eq!(pool.capacity(), 4);
        // Index 0 was consumed and index 1 burned by the failed claim.
        assert_eq!(pool.remaining(), 2);
        let c = pool.encrypt(&Ubig::from(6u64)).unwrap();
        assert_eq!(keypair().private_key().decrypt_u64(&c), 6);
    }

    #[test]
    fn randomizers_are_single_use() {
        // Two encryptions of the same message must differ (fresh r each).
        let mut rng = StdRng::seed_from_u64(3);
        let pool = RandomizerPool::generate(keypair().public_key().clone(), 2, &mut rng);
        let c1 = pool.encrypt(&Ubig::from(5u64)).unwrap();
        let c2 = pool.encrypt(&Ubig::from(5u64)).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn parallel_generation_is_deterministic() {
        // Same seed, different thread counts → identical pool contents.
        let pools: Vec<RandomizerPool> = [1usize, 3]
            .into_iter()
            .map(|threads| {
                let mut rng = StdRng::seed_from_u64(4);
                RandomizerPool::generate_with(
                    keypair().public_key().clone(),
                    10,
                    &Parallelism::new(threads).with_min_batch(1),
                    &mut rng,
                )
            })
            .collect();
        assert_eq!(pools[0].randomizers, pools[1].randomizers);
        assert_eq!(pools[1].remaining(), 10);
        let c = pools[1].encrypt(&Ubig::from(9u64)).unwrap();
        assert_eq!(keypair().private_key().decrypt_u64(&c), 9);
    }

    #[test]
    fn batch_encryption_preserves_order() {
        let mut rng = StdRng::seed_from_u64(5);
        let pool = RandomizerPool::generate(keypair().public_key().clone(), 20, &mut rng);
        let values: Vec<Ubig> = (0..17u64).map(Ubig::from).collect();
        let cts = pool.encrypt_batch(&values, &Parallelism::new(4)).unwrap();
        for (i, ct) in cts.iter().enumerate() {
            assert_eq!(keypair().private_key().decrypt_u64(ct), i as u64);
        }
    }

    #[test]
    fn batch_encryption_is_thread_count_invariant() {
        let values: Vec<Ubig> = (0..9u64).map(Ubig::from).collect();
        let batches: Vec<Vec<Ciphertext>> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let mut rng = StdRng::seed_from_u64(11);
                // Undersized on purpose: the last 3 go through fallback.
                let pool = RandomizerPool::generate(keypair().public_key().clone(), 6, &mut rng);
                let out = pool
                    .encrypt_batch(&values, &Parallelism::new(threads).with_min_batch(1))
                    .unwrap();
                assert_eq!(pool.fallback_generated(), 3);
                out
            })
            .collect();
        assert_eq!(batches[0], batches[1]);
    }

    #[test]
    fn batch_larger_than_strict_pool_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let pool =
            RandomizerPool::generate(keypair().public_key().clone(), 3, &mut rng).with_strict();
        let values: Vec<Ubig> = (0..5u64).map(Ubig::from).collect();
        assert_eq!(
            pool.encrypt_batch(&values, &Parallelism::new(2)),
            Err(PaillierError::PoolExhausted { size: 3, index: 4 })
        );
    }

    #[test]
    fn batched_refill_decrypts_and_is_thread_count_invariant() {
        // Same seed, different thread counts → identical batched entries,
        // and every batched randomizer yields a decryptable ciphertext.
        let pools: Vec<RandomizerPool> = [1usize, 3]
            .into_iter()
            .map(|threads| {
                let mut rng = StdRng::seed_from_u64(21);
                let mut pool =
                    RandomizerPool::generate(keypair().public_key().clone(), 0, &mut rng);
                pool.refill_batched(12, &Parallelism::new(threads).with_min_batch(1), &mut rng);
                pool
            })
            .collect();
        assert_eq!(pools[0].randomizers, pools[1].randomizers);
        assert_eq!(pools[0].capacity(), 12);
        for m in [0u64, 7, 65535] {
            let c = pools[0].encrypt(&Ubig::from(m)).unwrap();
            assert_eq!(keypair().private_key().decrypt_u64(&c), m);
        }
    }

    #[test]
    fn batched_refill_matches_entropy_and_stays_single_use() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut pool = RandomizerPool::generate(keypair().public_key().clone(), 0, &mut rng);
        pool.refill_batched(8, &Parallelism::sequential(), &mut rng);
        // A second batched refill reuses the bases (no re-derivation from
        // the RNG beyond the short exponents) and keeps extending.
        pool.refill_batched(8, &Parallelism::sequential(), &mut rng);
        assert_eq!(pool.capacity(), 16);
        let unique: std::collections::HashSet<_> = pool.randomizers.iter().cloned().collect();
        assert_eq!(unique.len(), 16, "batched randomizers must be pairwise distinct");
    }

    #[test]
    fn pooled_rerandomize_preserves_plaintext() {
        let mut rng = StdRng::seed_from_u64(23);
        let pool = RandomizerPool::generate(keypair().public_key().clone(), 4, &mut rng);
        let c = keypair().public_key().encrypt_u64(77, &mut rng);
        let c2 = pool.rerandomize(&c).unwrap();
        assert_ne!(c, c2, "rerandomization must change the ciphertext");
        assert_eq!(keypair().private_key().decrypt_u64(&c2), 77);
        assert_eq!(pool.remaining(), 3, "one blind claimed");
        // Malformed inputs rejected without consuming a blind... the claim
        // happens after validation.
        let bad = Ciphertext::from_raw(Ubig::zero());
        assert_eq!(pool.rerandomize(&bad), Err(PaillierError::MalformedCiphertext));
        assert_eq!(pool.remaining(), 3);
    }

    #[test]
    fn pooled_rerandomize_respects_strict_exhaustion() {
        let mut rng = StdRng::seed_from_u64(24);
        let pool =
            RandomizerPool::generate(keypair().public_key().clone(), 1, &mut rng).with_strict();
        let c = keypair().public_key().encrypt_u64(5, &mut rng);
        pool.rerandomize(&c).unwrap();
        assert!(matches!(
            pool.rerandomize(&c),
            Err(PaillierError::PoolExhausted { size: 1, index: 1 })
        ));
    }

    #[test]
    fn concurrent_claims_never_collide() {
        let mut rng = StdRng::seed_from_u64(7);
        let pool = RandomizerPool::generate(keypair().public_key().clone(), 64, &mut rng);
        let cts: Vec<Ciphertext> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..8).map(|_| pool.encrypt(&Ubig::from(1u64)).unwrap()).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        // All 64 ciphertexts must be pairwise distinct randomizers.
        let unique: std::collections::HashSet<_> = cts.iter().map(|c| c.as_raw().clone()).collect();
        assert_eq!(unique.len(), 64);
        assert_eq!(pool.remaining(), 0);
    }
}
