//! Data-parallel execution layer for the collection-shaped protocol loops.
//!
//! Every per-item hot loop in the workspace (per-user aggregation, per-label
//! rerandomization, per-bit DGK witnesses, per-match compare fan-out) funnels
//! through [`Parallelism`], a small engine-owned splitter built on
//! `std::thread::scope`. Two invariants shape the design:
//!
//! 1. **Bit-identical to sequential.** Randomized loops never share an RNG
//!    across a split. [`Parallelism::map_seeded`] draws one 256-bit seed
//!    per item from the caller's RNG *sequentially up front*, then hands
//!    each item its own `StdRng` keyed with its seed. The sequential path
//!    (`threads == 1`, or a batch below [`Parallelism::min_batch`]) uses the
//!    exact same derivation, so outputs do not depend on the thread count.
//! 2. **Deterministic errors.** [`Parallelism::try_map`] evaluates every
//!    item but always reports the error with the lowest index, matching what
//!    a sequential early-exit loop would have returned.
//!
//! No work-stealing and no persistent pool: batches are split into one
//! contiguous chunk per worker and joined in index order. The protocol's
//! batches are uniform-cost (fixed-width modular exponentiations), so static
//! chunking loses nothing to stealing and keeps the fan-out auditable.
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One full-width `StdRng` seed per item, drawn from `rng` in index order.
/// These streams feed every Paillier randomizer of an upload and every
/// DGK bit encryption, so a seed carries the generator's whole key width.
fn item_seeds<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<[u8; 32]> {
    (0..n)
        .map(|_| {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            seed
        })
        .collect()
}

/// Default minimum batch size before a loop is split across workers.
///
/// Below this, thread spawn/join overhead dominates the per-item modular
/// arithmetic and the batch runs on the calling thread.
pub const DEFAULT_MIN_BATCH: usize = 4;

/// Minimum amount of work (in estimated nanoseconds) a worker's chunk
/// must carry before spawning it pays off.
///
/// Spawning and joining one scoped thread costs on the order of tens of
/// microseconds; a chunk needs several times that in real work for the
/// split to win. Callers that know their per-item cost pass it via
/// [`Parallelism::with_item_cost_ns`] and [`Parallelism::workers_for`]
/// then derives the effective worker count from this floor — the
/// auto-tuned replacement for hand-picking `min_batch` per call site.
pub const SPLIT_MIN_WORK_NS: u64 = 100_000;

/// Degree of data parallelism for the crypto hot loops.
///
/// `threads == 1` is the sequential fallback: no threads are spawned and
/// every loop runs in deterministic index order on the calling thread.
/// Because randomized loops derive per-item RNG streams from pre-drawn
/// seeds (see [`Parallelism::map_seeded`]), results are bit-identical for
/// every `threads` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
    min_batch: usize,
    /// Estimated per-item cost in nanoseconds, when the call site knows
    /// it; `None` preserves the plain `threads.min(n)` split.
    item_cost_ns: Option<u64>,
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::sequential()
    }
}

impl Parallelism {
    /// Sequential execution: all loops run on the calling thread.
    pub fn sequential() -> Self {
        Self { threads: 1, min_batch: DEFAULT_MIN_BATCH, item_cost_ns: None }
    }

    /// Use up to `threads` worker threads per batch (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1), min_batch: DEFAULT_MIN_BATCH, item_cost_ns: None }
    }

    /// Set the minimum batch size before a loop is split (clamped to ≥ 1).
    pub fn with_min_batch(mut self, min_batch: usize) -> Self {
        self.min_batch = min_batch.max(1);
        self
    }

    /// Declare the estimated per-item cost of the upcoming loop, in
    /// nanoseconds. [`Parallelism::workers_for`] then spawns only as many
    /// workers as [`SPLIT_MIN_WORK_NS`]-sized chunks of work exist, so
    /// cheap loops (a modular multiplication per item) stop paying thread
    /// spawn/join overhead for no speedup. `0` clears the hint.
    ///
    /// `Parallelism` is `Copy`: call sites apply the hint on a by-value
    /// copy right before the loop without touching the shared config.
    pub fn with_item_cost_ns(mut self, ns: u64) -> Self {
        self.item_cost_ns = if ns == 0 { None } else { Some(ns) };
        self
    }

    /// Configured worker-thread ceiling.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Minimum batch size before a loop is split across workers.
    pub fn min_batch(&self) -> usize {
        self.min_batch
    }

    /// Number of workers a batch of `n` items will actually use.
    ///
    /// With an [`Parallelism::with_item_cost_ns`] hint, the count is
    /// additionally capped so every worker's chunk carries at least
    /// [`SPLIT_MIN_WORK_NS`] of estimated work. The hint only changes how
    /// a batch is chunked — outputs are split-invariant by construction,
    /// so results stay bit-identical with or without it.
    pub fn workers_for(&self, n: usize) -> usize {
        if self.threads <= 1 || n < self.min_batch {
            return 1;
        }
        let mut workers = self.threads.min(n);
        if let Some(cost) = self.item_cost_ns {
            let total = n as u128 * cost as u128;
            let by_cost = (total / SPLIT_MIN_WORK_NS as u128).min(usize::MAX as u128) as usize;
            workers = workers.min(by_cost.max(1));
        }
        workers
    }

    /// Apply `f` to every item, returning outputs in index order.
    ///
    /// `f` receives the item's global index alongside the item.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let workers = self.workers_for(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let chunk = items.len().div_ceil(workers);
        let mut out = Vec::with_capacity(items.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .enumerate()
                .map(|(c, part)| {
                    let f = &f;
                    scope.spawn(move || {
                        let base = c * chunk;
                        part.iter()
                            .enumerate()
                            .map(|(i, item)| f(base + i, item))
                            .collect::<Vec<U>>()
                    })
                })
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("parallel worker panicked"));
            }
        });
        out
    }

    /// Fallible [`Parallelism::map`].
    ///
    /// All items are evaluated, but the returned error is always the one
    /// with the lowest index — the same error a sequential early-exit loop
    /// would have produced.
    pub fn try_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<U, E> + Sync,
    {
        let workers = self.workers_for(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let chunk = items.len().div_ceil(workers);
        let mut out = Vec::with_capacity(items.len());
        std::thread::scope(|scope| -> Result<(), E> {
            let handles: Vec<_> = items
                .chunks(chunk)
                .enumerate()
                .map(|(c, part)| {
                    let f = &f;
                    scope.spawn(move || {
                        let base = c * chunk;
                        let mut done = Vec::with_capacity(part.len());
                        for (i, item) in part.iter().enumerate() {
                            match f(base + i, item) {
                                Ok(v) => done.push(v),
                                Err(e) => return Err(e),
                            }
                        }
                        Ok(done)
                    })
                })
                .collect();
            // Chunks are contiguous and ascending, so the first chunk (in
            // order) that failed holds the lowest-index error.
            for handle in handles {
                match handle.join().expect("parallel worker panicked") {
                    Ok(part) => out.extend(part),
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Randomized map: one independent `StdRng` stream per item.
    ///
    /// Draws `items.len()` 32-byte seeds from `rng` sequentially, then
    /// applies `f` with a fresh `StdRng` keyed with the item's own seed. The
    /// caller's RNG advances by exactly `items.len()` seeds regardless of
    /// the thread count, and per-item streams never interleave — this is
    /// what makes parallel output bit-identical to sequential.
    pub fn map_seeded<T, U, F, R>(&self, items: &[T], rng: &mut R, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T, &mut StdRng) -> U + Sync,
        R: Rng + ?Sized,
    {
        let seeds = item_seeds(items.len(), rng);
        self.map(items, |i, item| {
            let mut item_rng = StdRng::from_seed(seeds[i]);
            f(i, item, &mut item_rng)
        })
    }

    /// Fallible [`Parallelism::map_seeded`] with lowest-index-error
    /// semantics.
    pub fn try_map_seeded<T, U, E, F, R>(&self, items: &[T], rng: &mut R, f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(usize, &T, &mut StdRng) -> Result<U, E> + Sync,
        R: Rng + ?Sized,
    {
        let seeds = item_seeds(items.len(), rng);
        self.try_map(items, |i, item| {
            let mut item_rng = StdRng::from_seed(seeds[i]);
            f(i, item, &mut item_rng)
        })
    }

    /// Index-only [`Parallelism::map`]: apply `f` to `0..n`.
    pub fn map_n<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let indices: Vec<usize> = (0..n).collect();
        self.map(&indices, |_, &i| f(i))
    }

    /// Index-only [`Parallelism::map_seeded`]: apply `f` to `0..n` with one
    /// independent RNG stream per index.
    pub fn map_n_seeded<U, F, R>(&self, n: usize, rng: &mut R, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, &mut StdRng) -> U + Sync,
        R: Rng + ?Sized,
    {
        let indices: Vec<usize> = (0..n).collect();
        self.map_seeded(&indices, rng, |_, &i, item_rng| f(i, item_rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn default_is_sequential() {
        let par = Parallelism::default();
        assert_eq!(par.threads(), 1);
        assert_eq!(par.workers_for(1000), 1);
    }

    #[test]
    fn worker_count_respects_min_batch_and_len() {
        let par = Parallelism::new(4).with_min_batch(8);
        assert_eq!(par.workers_for(7), 1, "below min_batch stays sequential");
        assert_eq!(par.workers_for(8), 4);
        assert_eq!(par.workers_for(3), 1);
        let wide = Parallelism::new(16).with_min_batch(1);
        assert_eq!(wide.workers_for(5), 5, "never more workers than items");
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Parallelism::new(0).threads(), 1);
    }

    #[test]
    fn item_cost_hint_caps_workers_by_chunk_work() {
        let par = Parallelism::new(8).with_min_batch(1);
        // 32 items at 1µs each = 32µs total: below one SPLIT_MIN_WORK_NS
        // chunk, so the loop stays sequential.
        assert_eq!(par.with_item_cost_ns(1_000).workers_for(32), 1);
        // 32 items at 10µs each = 320µs: three full chunks of work.
        assert_eq!(par.with_item_cost_ns(10_000).workers_for(32), 3);
        // Expensive items saturate the configured thread ceiling.
        assert_eq!(par.with_item_cost_ns(1_000_000).workers_for(32), 8);
        // No hint (or a cleared hint) preserves the plain split.
        assert_eq!(par.workers_for(32), 8);
        assert_eq!(par.with_item_cost_ns(1_000).with_item_cost_ns(0).workers_for(32), 8);
    }

    #[test]
    fn item_cost_hint_keeps_outputs_identical() {
        let items: Vec<u64> = (0..57).collect();
        let mut with_hint_rng = StdRng::seed_from_u64(7);
        let mut plain_rng = StdRng::seed_from_u64(7);
        let hinted = Parallelism::new(4).with_min_batch(1).with_item_cost_ns(50_000);
        let plain = Parallelism::new(4).with_min_batch(1);
        let a: Vec<u64> = hinted
            .map_seeded(&items, &mut with_hint_rng, |_, &x, item_rng| x ^ item_rng.gen::<u64>());
        let b: Vec<u64> =
            plain.map_seeded(&items, &mut plain_rng, |_, &x, item_rng| x ^ item_rng.gen::<u64>());
        assert_eq!(a, b);
    }

    #[test]
    fn map_preserves_index_order() {
        let items: Vec<u64> = (0..103).collect();
        let seq: Vec<u64> = Parallelism::sequential().map(&items, |i, &x| x * 3 + i as u64);
        let par: Vec<u64> =
            Parallelism::new(4).with_min_batch(1).map(&items, |i, &x| x * 3 + i as u64);
        assert_eq!(seq, par);
        assert_eq!(seq[10], 10 * 3 + 10);
    }

    #[test]
    fn map_handles_empty_and_tiny_batches() {
        let par = Parallelism::new(8);
        let empty: Vec<u32> = par.map(&[] as &[u32], |_, &x| x);
        assert!(empty.is_empty());
        let one = par.map(&[7u32], |i, &x| x + i as u32);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let par = Parallelism::new(threads).with_min_batch(1);
            let got: Result<Vec<usize>, usize> =
                par.try_map(&items, |i, &x| if x % 7 == 3 { Err(i) } else { Ok(x) });
            assert_eq!(got, Err(3), "threads={threads}");
        }
    }

    #[test]
    fn try_map_succeeds_in_order() {
        let items: Vec<usize> = (0..33).collect();
        let par = Parallelism::new(4).with_min_batch(1);
        let got: Result<Vec<usize>, ()> = par.try_map(&items, |_, &x| Ok(x * x));
        assert_eq!(got.unwrap(), items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn map_seeded_is_thread_count_invariant() {
        let items: Vec<u64> = (0..41).collect();
        let mut outputs = Vec::new();
        for threads in [1, 2, 3, 8] {
            let par = Parallelism::new(threads).with_min_batch(1);
            let mut rng = StdRng::seed_from_u64(0xD15EA5E);
            let out: Vec<u64> =
                par.map_seeded(&items, &mut rng, |_, &x, item_rng| x ^ item_rng.gen::<u64>());
            // The caller RNG must advance identically too.
            let tail: u64 = rng.gen();
            outputs.push((out, tail));
        }
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn map_n_seeded_matches_manual_derivation() {
        let par = Parallelism::new(4).with_min_batch(1);
        let mut rng = StdRng::seed_from_u64(99);
        let out = par.map_n_seeded(5, &mut rng, |i, item_rng| (i as u64) + item_rng.gen::<u64>());

        let mut manual_rng = StdRng::seed_from_u64(99);
        let manual: Vec<u64> = (0..5)
            .map(|i| {
                let mut seed = [0u8; 32];
                manual_rng.fill_bytes(&mut seed);
                i + StdRng::from_seed(seed).gen::<u64>()
            })
            .collect();
        assert_eq!(out, manual);
    }
}
