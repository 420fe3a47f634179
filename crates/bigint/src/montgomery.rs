//! Montgomery-form modular arithmetic and the exponentiation caches the
//! crypto stack is built on.
//!
//! Modular exponentiation dominates every cryptographic operation in this
//! workspace (Paillier `r^n mod n²`, DGK `g^m h^r mod n`, bitwise
//! comparison blinding). The plain [`crate::modular::modpow`] pays a full
//! division per multiply; Montgomery's REDC replaces those divisions with
//! word-level multiplications, which is the standard production-grade
//! approach. Every product, squaring and reduction here is one of the
//! three allocation-free limb kernels in `crate::kernel`. On top of the
//! raw context this module layers the caches that make modulus- and
//! base-reuse first-class (DESIGN.md, "Exponentiation strategy"):
//!
//! * [`MontgomeryContext`] — per-modulus precomputation with a 4-bit
//!   windowed [`MontgomeryContext::modpow`], a Shamir/Straus
//!   simultaneous double exponentiation [`MontgomeryContext::modpow2`],
//!   and its k-ary generalization [`MontgomeryContext::modpow_multi`]
//!   (one shared squaring chain across a whole batch of bases), all
//!   running on reusable limb scratch buffers (no per-step allocation);
//!   batch callers hold a [`PowScratch`] and use
//!   [`MontgomeryContext::modpow_with_scratch`] to amortize even the
//!   per-call buffer setup;
//! * [`FixedBaseComb`] — Lim–Lee comb exponentiation for bases that
//!   never change (the Paillier randomizer base `hs`, DGK `g`, `h`):
//!   blocks of rows on one squaring chain, a fourteenth of the ladder's
//!   kernel operations at deployable widths;
//! * [`CachedContext`] / [`CachedComb`] — lazily initialized,
//!   clone-cheap cells that key types embed so every
//!   operation on the same key reuses one context/comb.
//!
//! Only odd moduli are supported (always true for RSA-like `n`, `n²` and
//! the DGK modulus).

use std::sync::{Arc, OnceLock};

use crate::add_sub::add_assign_limbs;
pub use crate::kernel::{modpow_cost_ns, mont_cost_ns};
use crate::kernel::{mul_into, redc_into, sqr_into};
use crate::{Limb, Ubig, LIMB_BITS};

/// Exponent-window width in bits. 2^4 = 16 table entries balances table
/// build cost against saved multiplications at the 64–2048-bit exponents
/// the cryptosystems use.
const WINDOW_BITS: u32 = 4;

/// Exponent bit-count below which the plain binary ladder beats building
/// the 16-entry window table (the table costs ~14 Montgomery squarings
/// and multiplications up front).
const WINDOW_THRESHOLD: u64 = 64;

/// Precomputed context for arithmetic modulo a fixed odd `n`.
///
/// # Examples
///
/// ```
/// use bigint::{montgomery::MontgomeryContext, Ubig};
///
/// let n = Ubig::from(101u64);
/// let ctx = MontgomeryContext::new(&n).expect("odd modulus");
/// let result = ctx.modpow(&Ubig::from(7u64), &Ubig::from(100u64));
/// assert_eq!(result, Ubig::one()); // Fermat
/// ```
#[derive(Debug, Clone)]
pub struct MontgomeryContext {
    n: Ubig,
    /// Limb count `k`; the Montgomery radix is `R = 2^(64k)`.
    k: usize,
    /// `−n⁻¹ mod 2^64`.
    n_prime: Limb,
    /// `R² mod n`, for converting into Montgomery form.
    r_squared: Ubig,
    /// `R mod n` — the Montgomery representation of 1.
    one_mont: Ubig,
}

/// `n⁻¹ mod 2^64` for odd `n`, by Newton–Hensel lifting.
fn inv_mod_word(n0: Limb) -> Limb {
    debug_assert!(n0 & 1 == 1, "modulus must be odd");
    let mut inv: Limb = n0; // correct mod 2^3 already for odd n0
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
    }
    debug_assert_eq!(n0.wrapping_mul(inv), 1);
    inv
}

/// Reads the `w`-th `WINDOW_BITS`-wide digit of `exp` (digit 0 is least
/// significant).
fn window_digit(exp: &Ubig, w: usize) -> usize {
    window_digit_w(exp, w, WINDOW_BITS)
}

/// Reads the `w`-th `width`-bit digit of `exp` (digit 0 is least
/// significant). `width` must be in `1..LIMB_BITS`.
fn window_digit_w(exp: &Ubig, w: usize, width: u32) -> usize {
    debug_assert!((1..LIMB_BITS).contains(&width));
    let limbs = exp.as_limbs();
    let start = w as u64 * width as u64;
    let limb = (start / LIMB_BITS as u64) as usize;
    let off = (start % LIMB_BITS as u64) as u32;
    let Some(&lo) = limbs.get(limb) else { return 0 };
    let mut d = lo >> off;
    if off + width > LIMB_BITS {
        if let Some(&hi) = limbs.get(limb + 1) {
            d |= hi << (LIMB_BITS - off);
        }
    }
    (d & ((1 << width) - 1)) as usize
}

/// Significant bits of a little-endian limb slice (high zero limbs
/// allowed).
fn limbs_bits(limbs: &[Limb]) -> u64 {
    match limbs.iter().rposition(|&l| l != 0) {
        None => 0,
        Some(top) => (top as u64 + 1) * LIMB_BITS as u64 - limbs[top].leading_zeros() as u64,
    }
}

/// Bit `i` of a little-endian limb slice; bits past the end read as 0.
fn limbs_bit(limbs: &[Limb], i: u64) -> bool {
    let limb = (i / LIMB_BITS as u64) as usize;
    limbs.get(limb).is_some_and(|l| (l >> (i % LIMB_BITS as u64)) & 1 == 1)
}

impl MontgomeryContext {
    /// Builds a context for odd `n > 1`; returns `None` for even or
    /// trivial moduli. The modulus is only cloned once the checks pass,
    /// so the fallback dispatch in [`crate::modular::modpow`] costs no
    /// allocation for unsupported moduli.
    pub fn new(n: &Ubig) -> Option<Self> {
        if n.is_even() || n <= &Ubig::one() {
            return None;
        }
        let n = n.clone();
        let k = n.as_limbs().len();
        let n_prime = inv_mod_word(n.as_limbs()[0]).wrapping_neg();
        // R mod n and R² mod n via shifting (cheap, done once).
        let r = Ubig::one() << (k as u32 * LIMB_BITS);
        let one_mont = &r % &n;
        let r_squared = &(&one_mont * &one_mont) % &n;
        Some(MontgomeryContext { n, k, n_prime, r_squared, one_mont })
    }

    /// The modulus.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Scratch-buffer length the limb-level routines need: `2k`.
    fn scratch_len(&self) -> usize {
        2 * self.k
    }

    /// Montgomery product `a·b·R⁻¹ mod n` of two values of at most `k`
    /// limbs into `out` (`k` limbs), using `scratch` (`2k` limbs). `out`
    /// must not alias the inputs.
    fn mont_mul_limbs(&self, a: &[Limb], b: &[Limb], out: &mut [Limb], scratch: &mut [Limb]) {
        mul_into(a, b, scratch);
        redc_into(scratch, self.n.as_limbs(), self.n_prime, out);
    }

    /// Montgomery squaring `a²·R⁻¹ mod n`; same contract as
    /// [`MontgomeryContext::mont_mul_limbs`] at about ¾ of its cost.
    fn mont_sqr_limbs(&self, a: &[Limb], out: &mut [Limb], scratch: &mut [Limb]) {
        sqr_into(a, scratch);
        redc_into(scratch, self.n.as_limbs(), self.n_prime, out);
    }

    /// Converts a reduced `x < n` into the fixed-width `k`-limb
    /// Montgomery representation, reusing `out`'s allocation.
    fn to_mont_limbs_into(&self, x: &Ubig, scratch: &mut [Limb], out: &mut Vec<Limb>) {
        debug_assert!(x < &self.n);
        out.clear();
        out.resize(self.k, 0);
        self.mont_mul_limbs(x.as_limbs(), self.r_squared.as_limbs(), out, scratch);
    }

    /// [`MontgomeryContext::to_mont_limbs_into`] into a fresh vector.
    fn to_mont_limbs(&self, x: &Ubig, scratch: &mut [Limb]) -> Vec<Limb> {
        let mut out = Vec::new();
        self.to_mont_limbs_into(x, scratch, &mut out);
        out
    }

    /// Converts a Montgomery value of at most `k` limbs back to a
    /// normalized [`Ubig`].
    #[allow(clippy::wrong_self_convention)] // converts the argument, not self
    fn from_mont_limbs(&self, a: &[Limb], scratch: &mut [Limb]) -> Ubig {
        let mut out = vec![0; self.k];
        self.redc_limbs(a, &mut out, scratch);
        Ubig::from_limbs(out)
    }

    /// Takes a Montgomery value of at most `k` limbs out of Montgomery
    /// form into `out` (`k` limbs), using `scratch` (`2k` limbs).
    fn redc_limbs(&self, a: &[Limb], out: &mut [Limb], scratch: &mut [Limb]) {
        scratch[..a.len()].copy_from_slice(a);
        scratch[a.len()..].fill(0);
        redc_into(scratch, self.n.as_limbs(), self.n_prime, out);
    }

    /// `one_mont` padded to the fixed `k`-limb width.
    fn one_mont_limbs(&self) -> Vec<Limb> {
        let mut out = vec![0; self.k];
        out[..self.one_mont.as_limbs().len()].copy_from_slice(self.one_mont.as_limbs());
        out
    }

    /// Converts `x < n` into Montgomery form `x·R mod n`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `x >= n`.
    pub fn to_mont(&self, x: &Ubig) -> Ubig {
        debug_assert!(x < &self.n, "operand must be reduced");
        self.mul_mont(x, &self.r_squared)
    }

    /// Converts out of Montgomery form.
    #[allow(clippy::wrong_self_convention)] // converts the argument, not self
    pub fn from_mont(&self, x_mont: &Ubig) -> Ubig {
        self.from_mont_limbs(x_mont.as_limbs(), &mut vec![0; self.scratch_len()])
    }

    /// Multiplies two Montgomery-form values (each `< n`).
    pub fn mul_mont(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let mut out = vec![0; self.k];
        let scratch = &mut vec![0; self.scratch_len()];
        self.mont_mul_limbs(a.as_limbs(), b.as_limbs(), &mut out, scratch);
        Ubig::from_limbs(out)
    }

    /// `base^exp mod n` with all multiplications in Montgomery form on
    /// reusable scratch buffers; exponents of [`WINDOW_THRESHOLD`] bits
    /// or more additionally use 4-bit fixed windows (¼ the multiplies of
    /// the binary ladder).
    ///
    /// Matches [`crate::modular::modpow`] exactly (property-tested).
    pub fn modpow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let mut ws = PowScratch::new();
        self.modpow_with_scratch(base, exp, &mut ws)
    }

    /// [`MontgomeryContext::modpow`] with all working buffers drawn from a
    /// caller-owned [`PowScratch`], so batch loops (zero-test fan-outs) pay
    /// zero heap allocation per exponentiation after the first. Bit-exact
    /// with `modpow` — it *is* the implementation `modpow` delegates to.
    pub fn modpow_with_scratch(&self, base: &Ubig, exp: &Ubig, ws: &mut PowScratch) -> Ubig {
        if exp.is_zero() {
            return Ubig::one();
        }
        self.pow_into_acc(&(base % &self.n), exp, ws);
        self.from_mont_limbs(&ws.acc, &mut ws.scratch)
    }

    /// Leaves `base^exp` in Montgomery form in `ws.acc` (`base < n`,
    /// `exp > 0`); `ws.tmp` and `ws.scratch` are sized for further limb
    /// operations on the result.
    fn pow_into_acc(&self, base: &Ubig, exp: &Ubig, ws: &mut PowScratch) {
        let k = self.k;
        ws.scratch.clear();
        ws.scratch.resize(self.scratch_len(), 0);
        self.to_mont_limbs_into(base, &mut ws.scratch, &mut ws.base);
        let nbits = exp.bits();
        ws.acc.clear();
        ws.acc.resize(k, 0);
        ws.acc[..self.one_mont.as_limbs().len()].copy_from_slice(self.one_mont.as_limbs());
        ws.tmp.clear();
        ws.tmp.resize(k, 0);
        if nbits < WINDOW_THRESHOLD {
            // Plain left-to-right binary ladder.
            for i in (0..nbits).rev() {
                self.mont_sqr_limbs(&ws.acc, &mut ws.tmp, &mut ws.scratch);
                std::mem::swap(&mut ws.acc, &mut ws.tmp);
                if exp.bit(i) {
                    self.mont_mul_limbs(&ws.acc, &ws.base, &mut ws.tmp, &mut ws.scratch);
                    std::mem::swap(&mut ws.acc, &mut ws.tmp);
                }
            }
        } else {
            // Fixed 4-bit windows: pows[d-1] = base^d in Montgomery form.
            let count = (1usize << WINDOW_BITS) - 1;
            if ws.pows.len() < count {
                ws.pows.resize_with(count, Vec::new);
            }
            ws.pows[0].clear();
            ws.pows[0].extend_from_slice(&ws.base);
            for d in 2..=count {
                let (head, tail) = ws.pows.split_at_mut(d - 1);
                tail[0].clear();
                tail[0].resize(k, 0);
                self.mont_mul_limbs(&head[d - 2], &ws.base, &mut tail[0], &mut ws.scratch);
            }
            let nwin = nbits.div_ceil(WINDOW_BITS as u64) as usize;
            for w in (0..nwin).rev() {
                if w + 1 != nwin {
                    for _ in 0..WINDOW_BITS {
                        self.mont_sqr_limbs(&ws.acc, &mut ws.tmp, &mut ws.scratch);
                        std::mem::swap(&mut ws.acc, &mut ws.tmp);
                    }
                }
                let digit = window_digit(exp, w);
                if digit != 0 {
                    self.mont_mul_limbs(&ws.acc, &ws.pows[digit - 1], &mut ws.tmp, &mut ws.scratch);
                    std::mem::swap(&mut ws.acc, &mut ws.tmp);
                }
            }
        }
    }

    /// Miller–Rabin strong-probable-prime test of the modulus `n > 2` to
    /// base `a < n`, where `n − 1 = d·2^s` with `d` odd. The `a^d` walk
    /// and the squaring ladder both stay in Montgomery form on `ws`, so a
    /// primality test builds one context per candidate, not one per
    /// round.
    pub(crate) fn is_strong_probable_prime(
        &self,
        a: &Ubig,
        d: &Ubig,
        s: u64,
        ws: &mut PowScratch,
    ) -> bool {
        let one = self.one_mont_limbs();
        let minus_one = {
            let mut limbs = (&self.n - &self.one_mont).as_limbs().to_vec();
            limbs.resize(self.k, 0);
            limbs
        };
        self.pow_into_acc(a, d, ws);
        if ws.acc == one || ws.acc == minus_one {
            return true;
        }
        for _ in 1..s {
            self.mont_sqr_limbs(&ws.acc, &mut ws.tmp, &mut ws.scratch);
            std::mem::swap(&mut ws.acc, &mut ws.tmp);
            if ws.acc == minus_one {
                return true;
            }
            if ws.acc == one {
                return false;
            }
        }
        false
    }

    /// Simultaneous double exponentiation `g^a · h^b mod n` by the
    /// Shamir/Straus trick: one shared squaring chain over
    /// `max(bits(a), bits(b))` with a single extra multiplication per
    /// set bit pair — roughly half the work of two independent walks.
    ///
    /// Bit-exact with
    /// `modmul(&modpow(g, a, n), &modpow(h, b, n), n)` (property-tested).
    ///
    /// ```
    /// use bigint::{montgomery::MontgomeryContext, modular, Ubig};
    ///
    /// let n = Ubig::from(1_000_003u64);
    /// let ctx = MontgomeryContext::new(&n).expect("odd modulus");
    /// let (g, h) = (Ubig::from(5u64), Ubig::from(7u64));
    /// let (a, b) = (Ubig::from(123u64), Ubig::from(456u64));
    /// let expect = modular::modmul(
    ///     &modular::modpow(&g, &a, &n),
    ///     &modular::modpow(&h, &b, &n),
    ///     &n,
    /// );
    /// assert_eq!(ctx.modpow2(&g, &a, &h, &b), expect);
    /// ```
    pub fn modpow2(&self, g: &Ubig, a: &Ubig, h: &Ubig, b: &Ubig) -> Ubig {
        let nbits = a.bits().max(b.bits());
        if nbits == 0 {
            return Ubig::one();
        }
        let k = self.k;
        let mut scratch = vec![0; self.scratch_len()];
        let g_m = self.to_mont_limbs(&(g % &self.n), &mut scratch);
        let h_m = self.to_mont_limbs(&(h % &self.n), &mut scratch);
        let mut gh_m = vec![0; k];
        self.mont_mul_limbs(&g_m, &h_m, &mut gh_m, &mut scratch);
        let mut acc = self.one_mont_limbs();
        let mut tmp = vec![0; k];
        for i in (0..nbits).rev() {
            self.mont_sqr_limbs(&acc, &mut tmp, &mut scratch);
            std::mem::swap(&mut acc, &mut tmp);
            let factor = match (a.bit(i), b.bit(i)) {
                (true, true) => Some(&gh_m),
                (true, false) => Some(&g_m),
                (false, true) => Some(&h_m),
                (false, false) => None,
            };
            if let Some(f) = factor {
                self.mont_mul_limbs(&acc, f, &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        self.from_mont_limbs(&acc, &mut scratch)
    }

    /// Simultaneous k-ary multi-exponentiation
    /// `∏ baseᵢ^expᵢ mod n` — the interleaved windowed Straus
    /// generalization of [`MontgomeryContext::modpow2`]: all bases share
    /// **one** squaring chain over the widest exponent, each contributing
    /// one table multiplication per non-zero window digit. For k bases of
    /// `b`-bit exponents that is `b` squarings total instead of `k·b`,
    /// which is where the batched kernels (witness blinding) get their
    /// speedup.
    ///
    /// The window width adapts to the exponent size: 1 bit (plain
    /// interleaving) below [`WINDOW_THRESHOLD`], else [`WINDOW_BITS`]
    /// with a per-base odd-power table.
    ///
    /// Bit-exact with folding `modpow` results via `modmul`
    /// (property-tested); an empty slice yields `1 mod n`.
    ///
    /// ```
    /// use bigint::{montgomery::MontgomeryContext, modular, Ubig};
    ///
    /// let n = Ubig::from(1_000_003u64);
    /// let ctx = MontgomeryContext::new(&n).expect("odd modulus");
    /// let pairs = [
    ///     (Ubig::from(3u64), Ubig::from(100u64)),
    ///     (Ubig::from(5u64), Ubig::from(200u64)),
    ///     (Ubig::from(7u64), Ubig::from(300u64)),
    /// ];
    /// let refs: Vec<(&Ubig, &Ubig)> = pairs.iter().map(|(b, e)| (b, e)).collect();
    /// let mut expect = Ubig::one();
    /// for (b, e) in &pairs {
    ///     expect = modular::modmul(&expect, &modular::modpow(b, e, &n), &n);
    /// }
    /// assert_eq!(ctx.modpow_multi(&refs), expect);
    /// ```
    pub fn modpow_multi(&self, pairs: &[(&Ubig, &Ubig)]) -> Ubig {
        let nbits = pairs.iter().map(|(_, e)| e.bits()).max().unwrap_or(0);
        if nbits == 0 {
            return Ubig::one();
        }
        let k = self.k;
        let mut scratch = vec![0; self.scratch_len()];
        let w: u32 = if nbits < WINDOW_THRESHOLD { 1 } else { WINDOW_BITS };
        // Per-base window tables: tables[i][d-1] = baseᵢ^d in Montgomery
        // form, d in 1..2^w.
        let mut tables: Vec<Vec<Vec<Limb>>> = Vec::with_capacity(pairs.len());
        for (base, _) in pairs {
            let base_m = self.to_mont_limbs(&(*base % &self.n), &mut scratch);
            let mut entries: Vec<Vec<Limb>> = Vec::with_capacity((1usize << w) - 1);
            entries.push(base_m);
            for d in 2..1usize << w {
                let mut next = vec![0; k];
                self.mont_mul_limbs(&entries[d - 2], &entries[0], &mut next, &mut scratch);
                entries.push(next);
            }
            tables.push(entries);
        }
        let mut acc = self.one_mont_limbs();
        let mut tmp = vec![0; k];
        let nwin = nbits.div_ceil(w as u64) as usize;
        for win in (0..nwin).rev() {
            if win + 1 != nwin {
                for _ in 0..w {
                    self.mont_sqr_limbs(&acc, &mut tmp, &mut scratch);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            for (i, (_, exp)) in pairs.iter().enumerate() {
                let digit = window_digit_w(exp, win, w);
                if digit != 0 {
                    self.mont_mul_limbs(&acc, &tables[i][digit - 1], &mut tmp, &mut scratch);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
        }
        self.from_mont_limbs(&acc, &mut scratch)
    }
}

/// Reusable working buffers for [`MontgomeryContext::modpow_with_scratch`]
/// and [`MontgomeryContext::modpow_multi`].
///
/// One `PowScratch` amortizes every intermediate allocation (REDC
/// scratch, accumulator, window tables) across a batch of
/// exponentiations — the per-call `Vec` churn is a measurable fraction of
/// the runtime at the 1–2 limb moduli the prototypes bench at. Buffers
/// are resized on use, so one scratch can serve contexts of different
/// widths.
///
/// # Examples
///
/// ```
/// use bigint::{montgomery::{MontgomeryContext, PowScratch}, Ubig};
///
/// let n = Ubig::from(1_000_003u64);
/// let ctx = MontgomeryContext::new(&n).expect("odd modulus");
/// let mut ws = PowScratch::new();
/// for e in 1u64..5 {
///     let got = ctx.modpow_with_scratch(&Ubig::from(7u64), &Ubig::from(e), &mut ws);
///     assert_eq!(got, ctx.modpow(&Ubig::from(7u64), &Ubig::from(e)));
/// }
/// ```
#[derive(Debug, Default)]
pub struct PowScratch {
    /// `2k`-limb product/REDC buffer.
    scratch: Vec<Limb>,
    /// Running accumulator in Montgomery form.
    acc: Vec<Limb>,
    /// Swap partner for `acc` (Montgomery products cannot alias out).
    tmp: Vec<Limb>,
    /// The reduced base in Montgomery form.
    base: Vec<Limb>,
    /// Window table: `pows[d-1] = base^d` in Montgomery form.
    pows: Vec<Vec<Limb>>,
}

impl PowScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Most comb rows ever built: `2^8 − 1 = 255` table entries per block.
const MAX_COMB_ROWS: u64 = 8;

/// Most comb blocks ever tried — a bound on the search, not on the
/// answer: under a fixed budget twice the blocks cost a row, which halves
/// the squarings but adds `bits / (rows·(rows − 1))` products, and that
/// pays only below `(rows − 1)·S / 2M ≈ 3` blocks. No width picks more
/// than 4.
const MAX_COMB_BLOCKS: u64 = 8;

/// Relative weights of a Montgomery squaring and a Montgomery product in
/// the comb walk, `S : M = 4 : 5`. Measured on the limb kernel
/// (DESIGN.md §6, "Limb kernel"): 0.84 at 16 limbs, 0.76 at 32, 0.77 at
/// 64.
const COMB_SQUARING_WEIGHT: u64 = 4;
const COMB_PRODUCT_WEIGHT: u64 = 5;

/// Entries the comb for a `bits`-bit exponent may hold across all its
/// blocks: twice the `2^rows − 1` of a one-block comb with
/// `⌊log₂ bits⌋` rows (at least 1, at most [`MAX_COMB_ROWS`]).
fn comb_table_budget(bits: u64) -> u64 {
    2 * ((1 << u64::from(bits.ilog2()).clamp(1, MAX_COMB_ROWS)) - 1)
}

/// Modelled cost of one full-width walk over a `blocks`-block comb of
/// `cols` columns: `cols − 1` squarings and a product per block per
/// column.
fn comb_walk_weight(blocks: u64, cols: u64) -> u64 {
    (cols - 1) * COMB_SQUARING_WEIGHT + blocks * cols * COMB_PRODUCT_WEIGHT
}

/// `(rows, blocks, cols)` of the comb for exponents of up to
/// `max_exp_bits` bits — a pure function of the width: the cheapest walk
/// ([`comb_walk_weight`]) whose `blocks·(2^rows − 1)` entries fit
/// [`comb_table_budget`], with enough columns to cover the width. Ties go
/// to the smaller table, then to fewer blocks.
fn comb_geometry(max_exp_bits: u64) -> (u64, u64, u64) {
    let bits = max_exp_bits.max(1);
    let budget = comb_table_budget(bits);
    (1..=MAX_COMB_ROWS)
        .flat_map(|rows| {
            let entries = (1u64 << rows) - 1;
            (1..=(budget / entries).min(MAX_COMB_BLOCKS)).map(move |blocks| {
                let cols = bits.div_ceil(rows * blocks);
                ((comb_walk_weight(blocks, cols), blocks * entries, blocks), (rows, blocks, cols))
            })
        })
        .min()
        .expect("one row, one block always fits the budget")
        .1
}

/// [`mont_cost_ns`] of one [`FixedBaseComb::pow`] with a full-width
/// `exp_bits`-bit exponent: `cols − 1` squarings and `blocks·cols`
/// products.
pub fn comb_cost_ns(modulus_bits: u64, exp_bits: u64) -> u64 {
    let (_, blocks, cols) = comb_geometry(exp_bits);
    mont_cost_ns(modulus_bits, cols - 1, blocks * cols)
}

/// Lim–Lee fixed-base comb for a base that never changes (the Paillier
/// randomizer base `hs`, the DGK generators `g` and `h`).
///
/// An exponent of at most `rows·blocks·cols` bits is cut into
/// `rows·blocks` strips of `cols` bits; strip `s = i·blocks + j` is row
/// `i` of block `j`. Block `j`'s table stores, for every non-empty set `m`
/// of rows, `∏_{i ∈ m} base^(2^((i·blocks + j)·cols))` in Montgomery form,
/// so one table product consumes a whole *column* of a block and all
/// blocks share one squaring chain: [`FixedBaseComb::pow`] costs
/// `cols − 1` squarings and at most `blocks·cols` products, against `bits`
/// squarings plus `bits/4` products for the windowed ladder — 184 kernel
/// operations (7 rows, 4 blocks, 37 columns) instead of ~2560 for a
/// 1024-bit exponent. One block is the plain `rows × cols` comb.
///
/// The geometry follows the exponent width alone (`comb_geometry`): the
/// cheapest walk whose tables hold at most twice the `2^rows − 1` entries
/// of a one-block comb with `⌊log₂ bits⌋ ≤ 8` rows, so a 32-bit exponent
/// gets 60 entries, not 510. The build keeps one squaring chain of
/// `≈ bits` squarings, tapping a single-row entry every `cols`; the
/// tables are one flat limb vector.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use bigint::{montgomery::{FixedBaseComb, MontgomeryContext}, modular, Ubig};
///
/// let n = Ubig::from(1_000_003u64);
/// let ctx = Arc::new(MontgomeryContext::new(&n).expect("odd modulus"));
/// let g = Ubig::from(42u64);
/// let comb = FixedBaseComb::new(Arc::clone(&ctx), &g, 64);
/// let e = Ubig::from(123_456_789u64);
/// assert_eq!(comb.pow(&e), modular::modpow(&g, &e, &n));
/// ```
#[derive(Debug, Clone)]
pub struct FixedBaseComb {
    ctx: Arc<MontgomeryContext>,
    /// The (reduced) base, kept for the wide-exponent fallback.
    base: Ubig,
    rows: u64,
    blocks: u64,
    cols: u64,
    /// Entry `m ∈ 1..2^rows` of block `j` at limbs
    /// `(j·(2^rows − 1) + m − 1)·k ..` for `k` limbs.
    table: Vec<Limb>,
}

impl FixedBaseComb {
    /// Precomputes the comb for exponents up to `max_exp_bits` bits
    /// (wider exponents transparently fall back to
    /// [`MontgomeryContext::modpow`]).
    pub fn new(ctx: Arc<MontgomeryContext>, base: &Ubig, max_exp_bits: u64) -> Self {
        Self::build(ctx, base, comb_geometry(max_exp_bits))
    }

    /// The comb with a forced `rows × blocks` layout covering
    /// `max_exp_bits`, whatever [`comb_geometry`] would pick.
    #[cfg(test)]
    fn with_layout(
        ctx: Arc<MontgomeryContext>,
        base: &Ubig,
        (rows, blocks): (u64, u64),
        max_exp_bits: u64,
    ) -> Self {
        Self::build(ctx, base, (rows, blocks, max_exp_bits.max(1).div_ceil(rows * blocks)))
    }

    fn build(
        ctx: Arc<MontgomeryContext>,
        base: &Ubig,
        (rows, blocks, cols): (u64, u64, u64),
    ) -> Self {
        let k = ctx.k;
        let mut scratch = vec![0; ctx.scratch_len()];
        let base = base % &ctx.n;
        let entries = (1usize << rows) - 1;
        let mut table = vec![0; blocks as usize * entries * k];
        // Single-row entries: strip s holds base^(2^(s·cols)), each `cols`
        // squarings past the previous one on the one chain.
        let mut cur = ctx.to_mont_limbs(&base, &mut scratch);
        let mut tmp = vec![0; k];
        for s in 0..rows * blocks {
            let (i, j) = (s / blocks, (s % blocks) as usize);
            let at = (j * entries + (1usize << i) - 1) * k;
            table[at..at + k].copy_from_slice(&cur);
            if s + 1 < rows * blocks {
                for _ in 0..cols {
                    ctx.mont_sqr_limbs(&cur, &mut tmp, &mut scratch);
                    std::mem::swap(&mut cur, &mut tmp);
                }
            }
        }
        // Within a block, every other entry is the entry without its
        // lowest row times that row's entry; both sit at lower indices.
        for block in table.chunks_exact_mut(entries * k) {
            for m in 1usize..=entries {
                let low = m & m.wrapping_neg();
                if low != m {
                    let (done, rest) = block.split_at_mut((m - 1) * k);
                    let entry = |e: usize| &done[(e - 1) * k..e * k];
                    ctx.mont_mul_limbs(entry(m ^ low), entry(low), &mut rest[..k], &mut scratch);
                }
            }
        }
        FixedBaseComb { ctx, base, rows, blocks, cols, table }
    }

    /// The (reduced) base the comb was built for.
    pub fn base(&self) -> &Ubig {
        &self.base
    }

    /// Largest exponent width the comb covers without falling back.
    pub fn max_exp_bits(&self) -> u64 {
        self.rows * self.blocks * self.cols
    }

    /// `base^exp mod n` in `k`-limb Montgomery form, or `None` when the
    /// exponent exceeds the comb width.
    fn pow_mont(&self, exp: &Ubig, scratch: &mut [Limb]) -> Option<Vec<Limb>> {
        if exp.bits() > self.max_exp_bits() {
            return None;
        }
        let k = self.ctx.k;
        let (mut acc, mut tmp) = (vec![0; k], vec![0; k]);
        self.pow_mont_into(exp.as_limbs(), &mut acc, &mut tmp, scratch);
        Some(acc)
    }

    /// The comb walk itself, allocation-free: leaves `base^exp` in
    /// Montgomery form in `acc`. `exp` is little-endian limbs of at most
    /// [`FixedBaseComb::max_exp_bits`] significant bits (high zero limbs
    /// allowed); `acc` and `tmp` are `k` limbs, `scratch` is `2k`.
    fn pow_mont_into(
        &self,
        exp: &[Limb],
        acc: &mut [Limb],
        tmp: &mut [Limb],
        scratch: &mut [Limb],
    ) {
        let k = self.ctx.k;
        let bits = limbs_bits(exp);
        debug_assert!(bits <= self.max_exp_bits());
        let entries = (1usize << self.rows) - 1;
        // The table entry a column selects in block j: its bits, one per
        // row.
        let entry = |j: u64, col: u64| {
            let m = (0..self.rows).fold(0usize, |m, i| {
                m | usize::from(limbs_bit(exp, (i * self.blocks + j) * self.cols + col)) << i
            });
            (m != 0).then(|| &self.table[(j as usize * entries + m - 1) * k..][..k])
        };
        // A product cannot land on its own input, so the running value
        // alternates between the two buffers. Columns above the
        // exponent's top bit are empty in every strip; the first
        // non-empty entry seeds the accumulator.
        let (mut cur, mut other, mut in_acc, mut seeded) = (acc, tmp, true, false);
        for col in (0..self.cols.min(bits)).rev() {
            if seeded {
                self.ctx.mont_sqr_limbs(cur, other, scratch);
                (cur, other, in_acc) = (other, cur, !in_acc);
            }
            for e in (0..self.blocks).filter_map(|j| entry(j, col)) {
                if seeded {
                    self.ctx.mont_mul_limbs(cur, e, other, scratch);
                    (cur, other, in_acc) = (other, cur, !in_acc);
                } else {
                    cur.copy_from_slice(e);
                    seeded = true;
                }
            }
        }
        if !seeded {
            let one = self.ctx.one_mont.as_limbs();
            cur[..one.len()].copy_from_slice(one);
            cur[one.len()..].fill(0);
        } else if !in_acc {
            other.copy_from_slice(cur);
        }
    }

    /// `base^exp mod n`. Wide exponents (beyond the comb width) fall back
    /// to the context's windowed square-and-multiply; results are
    /// bit-exact either way.
    pub fn pow(&self, exp: &Ubig) -> Ubig {
        let mut scratch = vec![0; self.ctx.scratch_len()];
        match self.pow_mont(exp, &mut scratch) {
            Some(acc) => self.ctx.from_mont_limbs(&acc, &mut scratch),
            None => self.ctx.modpow(&self.base, exp),
        }
    }

    /// `base^exp · factor mod n` for a plain (not Montgomery-form)
    /// `factor`: the Montgomery product of the walk's `base^exp · R` with
    /// `factor` *is* the canonical `base^exp · factor mod n`, so the last
    /// product doubles as the conversion out of Montgomery form — no
    /// double-width product, no division. Bit-exact with
    /// `modmul(&self.pow(exp), factor, n)`.
    pub fn pow_times(&self, exp: &Ubig, factor: &Ubig) -> Ubig {
        let n = &self.ctx.n;
        let reduced;
        let factor = if factor < n {
            factor
        } else {
            reduced = factor % n;
            &reduced
        };
        let mut scratch = vec![0; self.ctx.scratch_len()];
        match self.pow_mont(exp, &mut scratch) {
            Some(acc) => {
                let mut out = vec![0; self.ctx.k];
                self.ctx.mont_mul_limbs(&acc, factor.as_limbs(), &mut out, &mut scratch);
                Ubig::from_limbs(out)
            }
            None => crate::modular::modmul(&self.ctx.modpow(&self.base, exp), factor, n),
        }
    }

    /// `self.base^exp · other.base^other_exp mod n` with both factors
    /// kept in Montgomery form and one reduction at the end — the
    /// fixed-base double exponentiation DGK encryption (`g^m · h^r`)
    /// runs on.
    ///
    /// Both combs must be bound to the same modulus.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the combs use different moduli.
    pub fn pow_mul(&self, exp: &Ubig, other: &FixedBaseComb, other_exp: &Ubig) -> Ubig {
        debug_assert_eq!(self.ctx.n, other.ctx.n, "combs bound to different moduli");
        let mut scratch = vec![0; self.ctx.scratch_len()];
        match (self.pow_mont(exp, &mut scratch), other.pow_mont(other_exp, &mut scratch)) {
            (Some(a), Some(b)) => {
                let mut out = vec![0; self.ctx.k];
                self.ctx.mont_mul_limbs(&a, &b, &mut out, &mut scratch);
                self.ctx.from_mont_limbs(&out, &mut scratch)
            }
            // Wide exponent: fall back to the context double-exp.
            _ => self.ctx.modpow2(&self.base, exp, &other.base, other_exp),
        }
    }
}

/// A residue modulo `n = p·q` held as its two halves, each in the
/// Montgomery form of its prime — the shape [`CrtComb::pow_mul`]
/// multiplies in without leaving limb arithmetic. Built by
/// [`CrtComb::residue`].
#[derive(Clone)]
pub struct CrtResidue {
    p: Vec<Limb>,
    q: Vec<Limb>,
}

/// An exponent reduced modulo a base's order, without a heap allocation
/// when the order is one limb.
enum ReducedExp {
    Limb([Limb; 1]),
    Wide(Ubig),
}

impl ReducedExp {
    fn new(exp: &Ubig, order: &Ubig) -> Self {
        match order.as_limbs() {
            [d] => ReducedExp::Limb([exp.rem_limb(*d)]),
            _ => ReducedExp::Wide(exp % order),
        }
    }

    fn as_limbs(&self) -> &[Limb] {
        match self {
            ReducedExp::Limb(l) => l,
            ReducedExp::Wide(u) => u.as_limbs(),
        }
    }
}

/// Fixed-base exponentiation modulo `n = p·q` for the party that knows
/// the factors and the order of the base in each prime field.
///
/// A stranger computes `base^e mod n` with one comb over `Z_n` and the
/// full exponent. The holder of `p`, `q` can do the same group element
/// in halves: `base^(e mod ord_p) mod p` and `base^(e mod ord_q) mod q`,
/// each a comb at half the limb count — a quarter of the limb products
/// per kernel operation — and, when the orders are shorter than `e`
/// (DGK's `h` has order `v_p` mod `p` against a `2|v_p| + 16`-bit blinding
/// exponent), proportionally fewer operations. The halves are recombined
/// by Garner's formula ([`crate::modular::garner`]) in Montgomery limbs:
/// the whole evaluation runs on one scratch buffer and allocates only
/// that and its result, so it is no slower than the stranger's route at
/// one-limb primes either. The result is the canonical residue in
/// `[0, n)`, so it is bit-identical to the one-comb route's.
///
/// ```
/// use std::sync::Arc;
/// use bigint::{gcd::modinv, modular, montgomery::{CrtComb, MontgomeryContext}, Ubig};
///
/// // 3 has order 5 mod 11 (3^5 = 243 = 22·11 + 1) and order 3 mod 13.
/// let (p, q) = (Ubig::from(11u64), Ubig::from(13u64));
/// let base = Ubig::from(3u64);
/// let comb = CrtComb::new(
///     Arc::new(MontgomeryContext::new(&p).unwrap()),
///     Arc::new(MontgomeryContext::new(&q).unwrap()),
///     &modinv(&p, &q).unwrap(),
///     &base,
///     (&Ubig::from(5u64), &Ubig::from(3u64)),
/// );
/// let e = Ubig::from(1_000_003u64);
/// assert_eq!(comb.pow(&e), modular::modpow(&base, &e, &(&p * &q)));
/// ```
#[derive(Clone)]
pub struct CrtComb {
    comb_p: FixedBaseComb,
    comb_q: FixedBaseComb,
    /// The order of the base modulo `p` / modulo `q` (or a multiple).
    order_p: Ubig,
    order_q: Ubig,
    /// `p⁻¹ mod q` at `k_q` limbs, plain and in Montgomery form: a
    /// Montgomery product with the first takes `x·R` to plain `x·p⁻¹`,
    /// with the second it takes plain `x` to plain `x·p⁻¹`.
    p_inv_q: Vec<Limb>,
    p_inv_q_mont: Vec<Limb>,
}

impl std::fmt::Debug for CrtComb {
    /// Opaque: every field is, or gives away, a factor of the modulus.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CrtComb(<redacted>)")
    }
}

impl std::fmt::Debug for CrtResidue {
    /// Opaque: the halves are taken modulo the secret factors.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CrtResidue(<redacted>)")
    }
}

impl CrtComb {
    /// Precomputes the two half-width combs for `base` under the
    /// contexts of `p` and `q`. `orders` are (multiples of) the order of
    /// `base` modulo `p` and modulo `q` — each comb covers exponents below
    /// its order — and `p_inv_q` is `p⁻¹ mod q`.
    ///
    /// # Panics
    ///
    /// Panics if `p` has more limbs than `q` (the recombination multiplies
    /// a residue mod `p` under `q`'s context; equal-width primes, the RSA
    /// shape, always qualify).
    pub fn new(
        ctx_p: Arc<MontgomeryContext>,
        ctx_q: Arc<MontgomeryContext>,
        p_inv_q: &Ubig,
        base: &Ubig,
        (order_p, order_q): (&Ubig, &Ubig),
    ) -> Self {
        assert!(ctx_p.k <= ctx_q.k, "CrtComb needs p no wider than q");
        let reduced = p_inv_q % &ctx_q.n;
        let p_inv_q_mont = ctx_q.to_mont_limbs(&reduced, &mut vec![0; ctx_q.scratch_len()]);
        let mut p_inv_q = reduced.limbs;
        p_inv_q.resize(ctx_q.k, 0);
        CrtComb {
            comb_p: FixedBaseComb::new(ctx_p, base, order_p.bits()),
            comb_q: FixedBaseComb::new(ctx_q, base, order_q.bits()),
            order_p: order_p.clone(),
            order_q: order_q.clone(),
            p_inv_q,
            p_inv_q_mont,
        }
    }

    /// `x mod p` and `x mod q` in Montgomery form, for
    /// [`CrtComb::pow_mul`].
    pub fn residue(&self, x: &Ubig) -> CrtResidue {
        let (ctx_p, ctx_q) = (&self.comb_p.ctx, &self.comb_q.ctx);
        let mut scratch = vec![0; ctx_q.scratch_len()];
        CrtResidue {
            p: ctx_p.to_mont_limbs(&(x % &ctx_p.n), &mut scratch[..ctx_p.scratch_len()]),
            q: ctx_q.to_mont_limbs(&(x % &ctx_q.n), &mut scratch),
        }
    }

    /// `base^exp mod p·q`; `exp` may be any width.
    pub fn pow(&self, exp: &Ubig) -> Ubig {
        self.pow_times(exp, None)
    }

    /// `base^exp · factor mod p·q`.
    pub fn pow_mul(&self, exp: &Ubig, factor: &CrtResidue) -> Ubig {
        self.pow_times(exp, Some(factor))
    }

    fn pow_times(&self, exp: &Ubig, factor: Option<&CrtResidue>) -> Ubig {
        let (ctx_p, ctx_q) = (&*self.comb_p.ctx, &*self.comb_q.ctx);
        let (kp, kq) = (ctx_p.k, ctx_q.k);
        // The one buffer: a 2·k_q-limb product scratch and four k_q-limb
        // values; the `Z_p` steps use the leading k_p limbs of each.
        let mut buf = vec![0; 6 * kq];
        let (scratch, rest) = buf.split_at_mut(2 * kq);
        let (mut x_p, rest) = rest.split_at_mut(kq);
        let (mut x_q, rest) = rest.split_at_mut(kq);
        let (mut t_p, mut t_q) = rest.split_at_mut(kq);

        let e_p = ReducedExp::new(exp, &self.order_p);
        self.comb_p.pow_mont_into(
            e_p.as_limbs(),
            &mut x_p[..kp],
            &mut t_p[..kp],
            &mut scratch[..2 * kp],
        );
        let e_q = ReducedExp::new(exp, &self.order_q);
        self.comb_q.pow_mont_into(e_q.as_limbs(), x_q, t_q, scratch);
        if let Some(f) = factor {
            ctx_p.mont_mul_limbs(&x_p[..kp], &f.p, &mut t_p[..kp], &mut scratch[..2 * kp]);
            std::mem::swap(&mut x_p, &mut t_p);
            ctx_q.mont_mul_limbs(x_q, &f.q, t_q, scratch);
            std::mem::swap(&mut x_q, &mut t_q);
        }

        // Garner, with both halves still in Montgomery form:
        // t = (x_q − x_p)·p⁻¹ mod q as the difference of two products
        // (so x_p, which may exceed q, is never reduced on its own), then
        // x = x_p + p·t.
        ctx_p.redc_limbs(&x_p[..kp], &mut t_p[..kp], &mut scratch[..2 * kp]);
        let x_p = &t_p[..kp];
        ctx_q.mont_mul_limbs(x_q, &self.p_inv_q, t_q, scratch);
        ctx_q.mont_mul_limbs(x_p, &self.p_inv_q_mont, x_q, scratch);
        sub_mod_limbs(t_q, x_q, ctx_q.n.as_limbs());
        let mut out = vec![0; kp + kq];
        mul_into(ctx_p.n.as_limbs(), t_q, &mut out);
        // x_p + p·t < p·q: the sum never outgrows the product's limbs.
        add_assign_limbs(&mut out, x_p);
        Ubig::from_limbs(out)
    }
}

/// `a ← (a − b) mod n` over equal-length limb slices with `a, b < n`.
fn sub_mod_limbs(a: &mut [Limb], b: &[Limb], n: &[Limb]) {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(borrow as Limb);
        *x = d;
        borrow = b1 | b2;
    }
    if borrow {
        let mut carry = false;
        for (x, &y) in a.iter_mut().zip(n) {
            let (s, c1) = x.overflowing_add(y);
            let (s, c2) = s.overflowing_add(carry as Limb);
            *x = s;
            carry = c1 | c2;
        }
    }
}

/// A lazily built, shareable [`MontgomeryContext`] cell.
///
/// Key types embed one cell per modulus they exponentiate under, so the
/// context is built **once per key** instead of once per `modpow` call.
/// The cell is:
///
/// * cheap to clone once resolved (the context lives behind an [`Arc`]);
/// * identity-free: cells always compare equal, so derived
///   `PartialEq`/`Eq` on key types keeps its meaning.
///
/// # Examples
///
/// ```
/// use bigint::{montgomery::CachedContext, modular, Ubig};
///
/// let m = Ubig::from(1_000_003u64);
/// let cell = CachedContext::new();
/// let base = Ubig::from(7u64);
/// let exp = Ubig::from(999_999u64);
/// // First call builds the context; later calls reuse it.
/// assert_eq!(cell.modpow(&base, &exp, &m), modular::modpow(&base, &exp, &m));
/// assert!(cell.context(&m).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CachedContext {
    cell: OnceLock<Option<Arc<MontgomeryContext>>>,
}

impl CachedContext {
    /// An empty cell; the context is built on first use.
    pub const fn new() -> Self {
        CachedContext { cell: OnceLock::new() }
    }

    /// The context for modulus `m`, built on first call; `None` when `m`
    /// is even or trivial (no Montgomery form exists).
    ///
    /// Every call must pass the same modulus — the cell belongs to
    /// exactly one (checked in debug builds).
    pub fn context(&self, m: &Ubig) -> Option<&Arc<MontgomeryContext>> {
        let ctx = self.cell.get_or_init(|| MontgomeryContext::new(m).map(Arc::new)).as_ref();
        debug_assert!(
            ctx.is_none_or(|c| c.modulus() == m),
            "CachedContext reused with a different modulus"
        );
        ctx
    }

    /// `base^exp mod m` through the cached context, falling back to the
    /// uncached [`crate::modular::modpow`] dispatch for moduli without a
    /// Montgomery form. Bit-exact with the fallback in all cases.
    pub fn modpow(&self, base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
        match self.context(m) {
            Some(ctx) => ctx.modpow(base, exp),
            None => crate::modular::modpow(base, exp, m),
        }
    }
}

impl PartialEq for CachedContext {
    /// Caches are derived data: all cells compare equal.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for CachedContext {}

/// A lazily built, shareable [`FixedBaseComb`] cell; the fixed-base
/// companion of [`CachedContext`] with the same clone/equality
/// behaviour.
#[derive(Debug, Clone, Default)]
pub struct CachedComb {
    cell: OnceLock<Arc<FixedBaseComb>>,
}

impl CachedComb {
    /// An empty cell; the comb is built on first use.
    pub const fn new() -> Self {
        CachedComb { cell: OnceLock::new() }
    }

    /// The comb for `base` under `ctx`, built on first call to cover
    /// `max_exp_bits`-bit exponents.
    ///
    /// Every call must pass the same base and context — the cell belongs
    /// to exactly one (checked in debug builds).
    pub fn comb(
        &self,
        ctx: &Arc<MontgomeryContext>,
        base: &Ubig,
        max_exp_bits: u64,
    ) -> &Arc<FixedBaseComb> {
        let comb = self
            .cell
            .get_or_init(|| Arc::new(FixedBaseComb::new(Arc::clone(ctx), base, max_exp_bits)));
        debug_assert_eq!(comb.base(), &(base % ctx.modulus()), "CachedComb base changed");
        comb
    }
}

impl PartialEq for CachedComb {
    /// Caches are derived data: all cells compare equal.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for CachedComb {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::{modmul, modpow_basic};
    use crate::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_even_or_trivial_moduli() {
        assert!(MontgomeryContext::new(&Ubig::from(10u64)).is_none());
        assert!(MontgomeryContext::new(&Ubig::one()).is_none());
        assert!(MontgomeryContext::new(&Ubig::zero()).is_none());
        assert!(MontgomeryContext::new(&Ubig::from(9u64)).is_some());
    }

    #[test]
    fn word_inverse_is_exact() {
        for n0 in [1u64, 3, 5, 0xffff_ffff_ffff_fff1, 0x1234_5678_9abc_def1] {
            let inv = inv_mod_word(n0);
            assert_eq!(n0.wrapping_mul(inv), 1, "inverse of {n0:#x}");
        }
    }

    #[test]
    fn roundtrip_to_from_mont() {
        let n = Ubig::from(1_000_003u64);
        let ctx = MontgomeryContext::new(&n).unwrap();
        for x in [0u64, 1, 2, 999_999, 500_000] {
            let x = Ubig::from(x);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), x);
        }
    }

    #[test]
    fn mul_matches_plain_modmul() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut n = random::gen_exact_bits(&mut rng, 192);
        n.set_bit(0, true);
        let ctx = MontgomeryContext::new(&n).unwrap();
        for _ in 0..50 {
            let a = random::gen_below(&mut rng, &n);
            let b = random::gen_below(&mut rng, &n);
            let expect = crate::modular::modmul(&a, &b, &n);
            let got = ctx.from_mont(&ctx.mul_mont(&ctx.to_mont(&a), &ctx.to_mont(&b)));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn modpow_matches_plain_across_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        for bits in [64u64, 128, 256, 521] {
            let mut n = random::gen_exact_bits(&mut rng, bits);
            n.set_bit(0, true);
            let ctx = MontgomeryContext::new(&n).unwrap();
            for _ in 0..5 {
                let base = random::gen_below(&mut rng, &n);
                let exp = random::gen_bits(&mut rng, bits);
                assert_eq!(ctx.modpow(&base, &exp), modpow_basic(&base, &exp, &n), "bits {bits}");
            }
        }
    }

    #[test]
    fn modpow_short_exponents_use_ladder_path() {
        // Exponents below the window threshold take the binary-ladder
        // branch; check it against the reference across widths.
        let mut rng = StdRng::seed_from_u64(7);
        let mut n = random::gen_exact_bits(&mut rng, 128);
        n.set_bit(0, true);
        let ctx = MontgomeryContext::new(&n).unwrap();
        for ebits in [1u64, 5, 31, 63] {
            let base = random::gen_below(&mut rng, &n);
            let exp = random::gen_exact_bits(&mut rng, ebits);
            assert_eq!(ctx.modpow(&base, &exp), modpow_basic(&base, &exp, &n), "ebits {ebits}");
        }
    }

    #[test]
    fn modpow_edge_exponents() {
        let n = Ubig::from(101u64);
        let ctx = MontgomeryContext::new(&n).unwrap();
        assert_eq!(ctx.modpow(&Ubig::from(7u64), &Ubig::zero()), Ubig::one());
        assert_eq!(ctx.modpow(&Ubig::from(7u64), &Ubig::one()), Ubig::from(7u64));
        assert_eq!(ctx.modpow(&Ubig::zero(), &Ubig::from(5u64)), Ubig::zero());
        // Unreduced base is reduced first.
        assert_eq!(ctx.modpow(&Ubig::from(108u64), &Ubig::two()), Ubig::from(49u64));
    }

    #[test]
    fn fermat_little_theorem() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = crate::prime::gen_prime(&mut rng, 96);
        let ctx = MontgomeryContext::new(&p).unwrap();
        let exp = &p - &Ubig::one();
        for _ in 0..5 {
            let a = random::gen_range(&mut rng, &Ubig::two(), &p);
            assert_eq!(ctx.modpow(&a, &exp), Ubig::one());
        }
    }

    #[test]
    fn modpow2_matches_two_walks() {
        let mut rng = StdRng::seed_from_u64(4);
        for bits in [64u64, 128, 256] {
            let mut n = random::gen_exact_bits(&mut rng, bits);
            n.set_bit(0, true);
            let ctx = MontgomeryContext::new(&n).unwrap();
            for _ in 0..5 {
                let g = random::gen_below(&mut rng, &n);
                let h = random::gen_below(&mut rng, &n);
                let a = random::gen_bits(&mut rng, bits);
                let b = random::gen_bits(&mut rng, bits / 2);
                let expect = modmul(&modpow_basic(&g, &a, &n), &modpow_basic(&h, &b, &n), &n);
                assert_eq!(ctx.modpow2(&g, &a, &h, &b), expect, "bits {bits}");
            }
        }
    }

    #[test]
    fn modpow2_zero_exponents() {
        let n = Ubig::from(1009u64);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let g = Ubig::from(3u64);
        let h = Ubig::from(5u64);
        assert_eq!(ctx.modpow2(&g, &Ubig::zero(), &h, &Ubig::zero()), Ubig::one());
        assert_eq!(
            ctx.modpow2(&g, &Ubig::from(10u64), &h, &Ubig::zero()),
            modpow_basic(&g, &Ubig::from(10u64), &n)
        );
        assert_eq!(
            ctx.modpow2(&g, &Ubig::zero(), &h, &Ubig::from(10u64)),
            modpow_basic(&h, &Ubig::from(10u64), &n)
        );
    }

    #[test]
    fn comb_matches_modpow() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [64u64, 128, 256] {
            let mut n = random::gen_exact_bits(&mut rng, bits);
            n.set_bit(0, true);
            let ctx = Arc::new(MontgomeryContext::new(&n).unwrap());
            let g = random::gen_below(&mut rng, &n);
            let comb = FixedBaseComb::new(Arc::clone(&ctx), &g, bits);
            for ebits in [0u64, 1, 4, 17, bits / 2, bits] {
                let exp = random::gen_bits(&mut rng, ebits);
                assert_eq!(comb.pow(&exp), modpow_basic(&g, &exp, &n), "bits {bits}/{ebits}");
            }
        }
    }

    #[test]
    fn comb_geometry_follows_exponent_width() {
        for bits in 0u64..=2100 {
            let (rows, blocks, cols) = comb_geometry(bits);
            assert!(rows * blocks * cols >= bits, "bits {bits}: covers the width");
            assert!((1..=MAX_COMB_ROWS).contains(&rows) && blocks >= 1 && cols >= 1);
            let one_block_rows = u64::from(bits.max(1).ilog2()).clamp(1, MAX_COMB_ROWS);
            assert!(
                blocks * ((1 << rows) - 1) <= 2 * ((1 << one_block_rows) - 1),
                "bits {bits}: {rows} rows x {blocks} blocks outgrow the budget"
            );
            assert!(
                comb_walk_weight(blocks, cols)
                    <= comb_walk_weight(1, bits.max(1).div_ceil(one_block_rows)),
                "bits {bits}: dearer than the one-block comb"
            );
        }
        // The deployed widths: DGK key-holder halves (160, 256), DGK `h`
        // (336, 528) and the Paillier randomizer (512, 1024) at
        // `paper1024` and `deploy2048`.
        for (bits, geometry) in [
            (160u64, (6u64, 4u64, 7u64)),
            (256, (8, 2, 16)),
            (336, (7, 4, 12)),
            (512, (8, 2, 32)),
            (528, (7, 4, 19)),
            (1024, (7, 4, 37)),
        ] {
            assert_eq!(comb_geometry(bits), geometry, "bits {bits}");
        }
        let ctx = Arc::new(MontgomeryContext::new(&Ubig::from(1_000_003u64)).unwrap());
        let comb = FixedBaseComb::new(Arc::clone(&ctx), &Ubig::from(42u64), 528);
        assert_eq!((comb.rows, comb.blocks, comb.cols), (7, 4, 19));
        assert_eq!(comb.table.len(), 4 * 127, "one-limb entries");
        assert_eq!(comb.max_exp_bits(), 532);
    }

    /// An odd `limbs`-limb modulus with its top bit set.
    fn odd_modulus(rng: &mut StdRng, limbs: u64) -> Ubig {
        let mut n = random::gen_exact_bits(rng, limbs * LIMB_BITS as u64);
        n.set_bit(0, true);
        n
    }

    #[test]
    fn comb_matches_modpow_over_forced_layouts() {
        let mut rng = StdRng::seed_from_u64(16);
        // (modulus limbs, layouts tried): every block count at the small
        // widths; at the kernel widths one block, the two shapes deployed
        // keys get, and the most blocks the search tries.
        let all: Vec<(u64, u64)> =
            [1u64, 2, 3, 5].iter().flat_map(|&r| (1..=8).map(move |b| (r, b))).collect();
        let deployed = vec![(8u64, 1u64), (8, 2), (7, 4), (3, 8)];
        for (limbs, layouts) in
            [(1u64, &all), (2, &all), (16, &deployed), (32, &deployed), (64, &deployed)]
        {
            let n = odd_modulus(&mut rng, limbs);
            let ctx = Arc::new(MontgomeryContext::new(&n).unwrap());
            let (g, h) = (random::gen_below(&mut rng, &n), random::gen_below(&mut rng, &n));
            let factor = random::gen_below(&mut rng, &n);
            let max_bits = if limbs <= 2 { 61 } else { 100 };
            let th = FixedBaseComb::new(Arc::clone(&ctx), &h, 32);
            let f = random::gen_bits(&mut rng, 32);
            let h_f = modpow_basic(&h, &f, &n);
            for &(rows, blocks) in layouts {
                let comb =
                    FixedBaseComb::with_layout(Arc::clone(&ctx), &g, (rows, blocks), max_bits);
                assert!(comb.max_exp_bits() >= max_bits);
                let (width, cols) = (comb.max_exp_bits(), comb.cols);
                let bit = |i: u64| Ubig::one() << i as u32;
                let ones = |bits: u64| (Ubig::one() << bits as u32) - Ubig::one();
                // 0, 1, one bit per strip, all-ones, a strip boundary ± 1,
                // exactly the comb's width, and one bit wider (the `modpow`
                // fallback).
                let mut exps = vec![Ubig::zero(), Ubig::one(), ones(width), bit(width)];
                exps.push(
                    (0..rows * blocks).fold(Ubig::zero(), |e, s| e + bit(s * cols + s % cols)),
                );
                let boundary = cols * (rows * blocks).div_ceil(2);
                exps.extend([ones(boundary), bit(boundary), bit(boundary) + Ubig::one()]);
                exps.push(random::gen_exact_bits(&mut rng, width));
                for e in &exps {
                    let expect = modpow_basic(&g, e, &n);
                    let at = format!("{limbs} limbs, {rows}x{blocks}x{cols}, e = {e}");
                    assert_eq!(comb.pow(e), expect, "pow: {at}");
                    assert_eq!(
                        comb.pow_times(e, &factor),
                        modmul(&expect, &factor, &n),
                        "pow_times: {at}"
                    );
                    assert_eq!(
                        comb.pow_mul(e, &th, &f),
                        modmul(&expect, &h_f, &n),
                        "pow_mul: {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn comb_pow_times_is_the_product_with_a_plain_factor() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = odd_modulus(&mut rng, 3);
        let ctx = Arc::new(MontgomeryContext::new(&n).unwrap());
        let g = random::gen_below(&mut rng, &n);
        let comb = FixedBaseComb::new(Arc::clone(&ctx), &g, 96);
        // Factors 0, 1, n − 1, and unreduced ones (as wide as n, and wider).
        let factors = [
            Ubig::zero(),
            Ubig::one(),
            &n - &Ubig::one(),
            n.clone(),
            &n + &Ubig::from(5u64),
            random::gen_exact_bits(&mut rng, 400),
        ];
        for ebits in [0u64, 1, 40, 96, 130] {
            let e = random::gen_bits(&mut rng, ebits);
            for y in &factors {
                assert_eq!(
                    comb.pow_times(&e, y),
                    modmul(&comb.pow(&e), y, &n),
                    "{ebits} bits, y = {y}"
                );
            }
        }
    }

    #[test]
    fn comb_wide_exponent_falls_back() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut n = random::gen_exact_bits(&mut rng, 128);
        n.set_bit(0, true);
        let ctx = Arc::new(MontgomeryContext::new(&n).unwrap());
        let g = random::gen_below(&mut rng, &n);
        let comb = FixedBaseComb::new(Arc::clone(&ctx), &g, 16);
        let wide = random::gen_exact_bits(&mut rng, 80);
        assert_eq!(comb.pow(&wide), modpow_basic(&g, &wide, &n));
    }

    #[test]
    fn comb_pow_mul_is_double_exp() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut n = random::gen_exact_bits(&mut rng, 128);
        n.set_bit(0, true);
        let ctx = Arc::new(MontgomeryContext::new(&n).unwrap());
        let g = random::gen_below(&mut rng, &n);
        let h = random::gen_below(&mut rng, &n);
        let tg = FixedBaseComb::new(Arc::clone(&ctx), &g, 32);
        let th = FixedBaseComb::new(Arc::clone(&ctx), &h, 64);
        for _ in 0..10 {
            let a = random::gen_bits(&mut rng, 32);
            let b = random::gen_bits(&mut rng, 64);
            let expect = modmul(&modpow_basic(&g, &a, &n), &modpow_basic(&h, &b, &n), &n);
            assert_eq!(tg.pow_mul(&a, &th, &b), expect);
        }
        // Wide exponents route through the context double-exp fallback.
        let wide = random::gen_exact_bits(&mut rng, 90);
        let expect = modmul(&modpow_basic(&g, &wide, &n), &modpow_basic(&h, &wide, &n), &n);
        assert_eq!(tg.pow_mul(&wide, &th, &wide), expect);
    }

    /// A `CrtComb` for a random base under fresh `p_bits`/`q_bits`-bit
    /// primes, with `p − 1` and `q − 1` standing in for the orders
    /// (Fermat: a multiple of every element's order).
    fn crt_comb(rng: &mut StdRng, p_bits: u64, q_bits: u64) -> (CrtComb, Ubig, Ubig, Ubig) {
        let p = crate::prime::gen_prime(rng, p_bits);
        let q = crate::prime::gen_prime(rng, q_bits);
        let n = &p * &q;
        let base = random::gen_range(rng, &Ubig::two(), &n);
        let comb = CrtComb::new(
            Arc::new(MontgomeryContext::new(&p).unwrap()),
            Arc::new(MontgomeryContext::new(&q).unwrap()),
            &crate::gcd::modinv(&p, &q).unwrap(),
            &base,
            (&(&p - &Ubig::one()), &(&q - &Ubig::one())),
        );
        (comb, base, p, n)
    }

    #[test]
    fn crt_comb_matches_the_power_mod_n() {
        let mut rng = StdRng::seed_from_u64(13);
        // One-limb primes, unequal limb counts (k_p < k_q), a prime pair
        // straddling a limb boundary, and a multi-limb pair.
        for (p_bits, q_bits) in [(48u64, 64u64), (64, 128), (96, 100), (256, 256)] {
            let (comb, base, p, n) = crt_comb(&mut rng, p_bits, q_bits);
            let factor = random::gen_below(&mut rng, &n);
            let residue = comb.residue(&factor);
            let order_p = &p - &Ubig::one();
            // Zero, tiny, the order itself (the `Z_p` comb sees exponent 0
            // and returns its empty accumulator), and exponents narrower
            // than, as wide as and twice as wide as the orders.
            let mut exps = vec![Ubig::zero(), Ubig::one(), order_p.clone(), &order_p * &order_p];
            for ebits in [17, p_bits, q_bits, 2 * q_bits + 16] {
                exps.push(random::gen_exact_bits(&mut rng, ebits));
            }
            for e in &exps {
                let expect = modpow_basic(&base, e, &n);
                assert_eq!(comb.pow(e), expect, "{p_bits}/{q_bits} bits, e = {e}");
                assert_eq!(
                    comb.pow_mul(e, &residue),
                    modmul(&expect, &factor, &n),
                    "{p_bits}/{q_bits} bits, e = {e}, with a factor"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "p no wider than q")]
    fn crt_comb_refuses_a_wider_p() {
        crt_comb(&mut StdRng::seed_from_u64(14), 128, 64);
    }

    #[test]
    fn crt_types_print_no_limb() {
        let (comb, _, p, n) = crt_comb(&mut StdRng::seed_from_u64(15), 64, 64);
        assert_eq!(format!("{comb:?}"), "CrtComb(<redacted>)");
        assert_eq!(format!("{:?}", comb.residue(&(&n - &p))), "CrtResidue(<redacted>)");
    }

    #[test]
    fn cached_context_builds_once_and_matches() {
        let m = Ubig::from(1_000_003u64);
        let cell = CachedContext::new();
        let first = cell.context(&m).unwrap();
        let first_ptr = Arc::as_ptr(first);
        assert_eq!(Arc::as_ptr(cell.context(&m).unwrap()), first_ptr, "must reuse the context");
        let base = Ubig::from(123u64);
        let exp = Ubig::from(4567u64);
        assert_eq!(cell.modpow(&base, &exp, &m), modpow_basic(&base, &exp, &m));
    }

    #[test]
    fn cached_context_even_modulus_falls_back() {
        let m = Ubig::from(1000u64);
        let cell = CachedContext::new();
        assert!(cell.context(&m).is_none());
        let base = Ubig::from(123u64);
        let exp = Ubig::from(45u64);
        assert_eq!(cell.modpow(&base, &exp, &m), modpow_basic(&base, &exp, &m));
    }

    #[test]
    fn cached_cells_compare_equal_and_survive_clone() {
        let m = Ubig::from(101u64);
        let cell = CachedContext::new();
        let _ = cell.context(&m);
        let clone = cell.clone();
        assert_eq!(cell, clone);
        assert_eq!(cell, CachedContext::new());
        // The clone carries the resolved context (shared Arc).
        assert!(clone.context(&m).is_some());
    }

    #[test]
    fn modpow_multi_matches_iterated_modpow() {
        let mut rng = StdRng::seed_from_u64(9);
        for bits in [64u64, 128, 256] {
            let mut n = random::gen_exact_bits(&mut rng, bits);
            n.set_bit(0, true);
            let ctx = MontgomeryContext::new(&n).unwrap();
            for k in 1usize..=5 {
                let pairs: Vec<(Ubig, Ubig)> = (0..k)
                    .map(|_| (random::gen_below(&mut rng, &n), random::gen_bits(&mut rng, bits)))
                    .collect();
                let refs: Vec<(&Ubig, &Ubig)> = pairs.iter().map(|(b, e)| (b, e)).collect();
                let mut expect = if n.is_one() { Ubig::zero() } else { Ubig::one() };
                for (b, e) in &pairs {
                    expect = modmul(&expect, &modpow_basic(b, e, &n), &n);
                }
                assert_eq!(ctx.modpow_multi(&refs), expect, "bits {bits} k {k}");
            }
        }
    }

    #[test]
    fn modpow_multi_short_exponents_use_interleaved_ladder() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut n = random::gen_exact_bits(&mut rng, 128);
        n.set_bit(0, true);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let pairs: Vec<(Ubig, Ubig)> = (0..3)
            .map(|_| (random::gen_below(&mut rng, &n), random::gen_bits(&mut rng, 20)))
            .collect();
        let refs: Vec<(&Ubig, &Ubig)> = pairs.iter().map(|(b, e)| (b, e)).collect();
        let mut expect = Ubig::one();
        for (b, e) in &pairs {
            expect = modmul(&expect, &modpow_basic(b, e, &n), &n);
        }
        assert_eq!(ctx.modpow_multi(&refs), expect);
    }

    #[test]
    fn modpow_multi_edge_cases() {
        let n = Ubig::from(101u64);
        let ctx = MontgomeryContext::new(&n).unwrap();
        // Empty product is 1.
        assert_eq!(ctx.modpow_multi(&[]), Ubig::one());
        // All-zero exponents collapse to 1 as well.
        let (b1, b2) = (Ubig::from(7u64), Ubig::from(9u64));
        let z = Ubig::zero();
        assert_eq!(ctx.modpow_multi(&[(&b1, &z), (&b2, &z)]), Ubig::one());
        // Mixed zero / non-zero exponents and unreduced bases.
        let wide = Ubig::from(108u64); // 108 ≡ 7 (mod 101)
        let e = Ubig::from(13u64);
        assert_eq!(ctx.modpow_multi(&[(&wide, &e), (&b2, &z)]), modpow_basic(&b1, &e, &n));
        // Trivial modulus 1: everything is 0.
        // (MontgomeryContext::new rejects n=1, so only n>1 applies here.)
        let one_pair = [(&b1, &e)];
        assert_eq!(ctx.modpow_multi(&one_pair), modpow_basic(&b1, &e, &n));
    }

    #[test]
    fn modpow_with_scratch_reuses_buffers_across_widths() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ws = PowScratch::new();
        for bits in [64u64, 256, 128] {
            let mut n = random::gen_exact_bits(&mut rng, bits);
            n.set_bit(0, true);
            let ctx = MontgomeryContext::new(&n).unwrap();
            // Alternate ladder-path (short) and window-path (wide)
            // exponents through the same scratch.
            for ebits in [1u64, bits, 17, bits / 2 + 64] {
                let base = random::gen_below(&mut rng, &n);
                let exp = random::gen_bits(&mut rng, ebits);
                assert_eq!(
                    ctx.modpow_with_scratch(&base, &exp, &mut ws),
                    modpow_basic(&base, &exp, &n),
                    "bits {bits} ebits {ebits}"
                );
            }
        }
    }

    #[test]
    fn wide_moduli_match_plain() {
        // 2048- and 4096-bit moduli (32 and 64 limbs): the widths every
        // deployable Paillier `n²` runs at.
        let mut rng = StdRng::seed_from_u64(12);
        for bits in [2048u64, 4096] {
            let mut n = random::gen_exact_bits(&mut rng, bits);
            n.set_bit(0, true);
            let ctx = MontgomeryContext::new(&n).unwrap();
            let a = random::gen_below(&mut rng, &n);
            let b = random::gen_below(&mut rng, &n);
            let got = ctx.from_mont(&ctx.mul_mont(&ctx.to_mont(&a), &ctx.to_mont(&b)));
            assert_eq!(got, modmul(&a, &b, &n));
            let exp = random::gen_exact_bits(&mut rng, 64);
            assert_eq!(ctx.modpow(&a, &exp), modpow_basic(&a, &exp, &n));
        }
    }

    #[test]
    fn strong_probable_prime_test_matches_definition() {
        let mut ws = PowScratch::new();
        // 561 = 3·11·17 is a Carmichael number: a Fermat liar for every
        // coprime base, but base 2 is a strong witness. 2^89 − 1 is prime.
        for (n, expect) in [(Ubig::from(561u64), false), ((Ubig::one() << 89) - Ubig::one(), true)]
        {
            let ctx = MontgomeryContext::new(&n).unwrap();
            let n_minus_1 = &n - &Ubig::one();
            let s = n_minus_1.trailing_zeros().unwrap();
            let d = &n_minus_1 >> (s as u32);
            assert_eq!(ctx.is_strong_probable_prime(&Ubig::two(), &d, s, &mut ws), expect);
        }
    }

    #[test]
    fn cached_comb_reuses_table() {
        let n = Ubig::from(1_000_003u64);
        let ctx = Arc::new(MontgomeryContext::new(&n).unwrap());
        let g = Ubig::from(29u64);
        let cell = CachedComb::new();
        let t1 = Arc::as_ptr(cell.comb(&ctx, &g, 64));
        let t2 = Arc::as_ptr(cell.comb(&ctx, &g, 64));
        assert_eq!(t1, t2, "must reuse the comb");
        let e = Ubig::from(999_999u64);
        assert_eq!(cell.comb(&ctx, &g, 64).pow(&e), modpow_basic(&g, &e, &n));
    }
}
