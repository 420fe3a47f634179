//! Allocation-free limb-slice kernels: the multiply-accumulate row, and
//! the product, squaring and Montgomery reduction built on it.
//!
//! Every Montgomery product in the workspace — and therefore every
//! Paillier and DGK operation — bottoms out in these four functions, so
//! they are written for the optimizer: `u128` accumulators instead of
//! `overflowing_add` chains, every slice cut to its final length once
//! before the loop (no per-element bounds checks), fixed trip counts (no
//! zero-limb skips, no ripple loops), and two rows fused per pass so two
//! independent carry chains are in flight. Callers own all buffers.
//!
//! [`mont_cost_ns`] is the wall-clock model fitted to these kernels; the
//! work-splitting hints of the layers above all derive from it.

use crate::{DoubleLimb, Limb, LIMB_BITS};

/// `out += a · b` over `b.len()` limbs; returns the carry limb.
#[inline(always)]
fn mac_row(out: &mut [Limb], b: &[Limb], a: Limb) -> Limb {
    let out = &mut out[..b.len()];
    let mut carry: Limb = 0;
    for (o, &bj) in out.iter_mut().zip(b) {
        // a·b + o + c ≤ (2⁶⁴−1)² + 2(2⁶⁴−1) = 2¹²⁸ − 1: never wraps.
        let t = a as DoubleLimb * bj as DoubleLimb + *o as DoubleLimb + carry as DoubleLimb;
        *o = t as Limb;
        carry = (t >> LIMB_BITS) as Limb;
    }
    carry
}

/// Two fused rows: `out += (a0 + a1·2⁶⁴) · b + c_in + top·2^(64·k)` over
/// `k + 1` limbs (`k = b.len() ≥ 1`); returns the carry out of limb `k`.
/// `c_in` enters at limb 0 and `top` at limb `k`, which is where the
/// squaring and the reduction have a pending carry to fold in. With
/// `top == 0` the carry fits one limb; with it, it can reach `2⁶⁴`.
#[inline(always)]
fn mac_row2(out: &mut [Limb], b: &[Limb], a0: Limb, a1: Limb, c_in: Limb, top: Limb) -> DoubleLimb {
    let k = b.len();
    let out = &mut out[..k + 1];
    let (a0, a1) = (a0 as DoubleLimb, a1 as DoubleLimb);
    let t = a0 * b[0] as DoubleLimb + out[0] as DoubleLimb + c_in as DoubleLimb;
    out[0] = t as Limb;
    let mut c0 = (t >> LIMB_BITS) as Limb;
    let mut c1: Limb = 0;
    for (o, pair) in out[1..k].iter_mut().zip(b.windows(2)) {
        let t1 = a1 * pair[0] as DoubleLimb + *o as DoubleLimb + c1 as DoubleLimb;
        c1 = (t1 >> LIMB_BITS) as Limb;
        let t0 = a0 * pair[1] as DoubleLimb + (t1 as Limb) as DoubleLimb + c0 as DoubleLimb;
        c0 = (t0 >> LIMB_BITS) as Limb;
        *o = t0 as Limb;
    }
    let t1 = a1 * b[k - 1] as DoubleLimb + out[k] as DoubleLimb + c1 as DoubleLimb;
    let t2 = (t1 as Limb) as DoubleLimb + c0 as DoubleLimb + top as DoubleLimb;
    out[k] = t2 as Limb;
    (t1 >> LIMB_BITS) + (t2 >> LIMB_BITS)
}

/// `out = a · b`. `out.len()` must be at least `a.len() + b.len()`; limbs
/// past the product are zeroed.
pub(crate) fn mul_into(a: &[Limb], b: &[Limb], out: &mut [Limb]) {
    let k = b.len();
    debug_assert!(out.len() >= a.len() + k);
    out.fill(0);
    if k == 0 {
        return;
    }
    let mut pairs = a.chunks_exact(2);
    let mut i = 0;
    for pair in &mut pairs {
        out[i + k + 1] = mac_row2(&mut out[i..], b, pair[0], pair[1], 0, 0) as Limb;
        i += 2;
    }
    if let [last] = pairs.remainder() {
        out[i + k] = mac_row(&mut out[i..], b, *last);
    }
}

/// `out = a²`: the off-diagonal triangle once, doubled, plus the
/// diagonal — about half the limb products of [`mul_into`].
/// `out.len()` must be at least `2 · a.len()`; limbs past the square are
/// zeroed.
pub(crate) fn sqr_into(a: &[Limb], out: &mut [Limb]) {
    let k = a.len();
    debug_assert!(out.len() >= 2 * k);
    out.fill(0);
    // Triangle: out += Σ_{i<j} a_i·a_j·2^(64(i+j)), rows i and i+1 fused.
    // Row i's first product a_i·a_{i+1} has no partner in row i+1; its
    // carry enters the fused pass at limb 0.
    let mut i = 0;
    while i + 2 < k {
        let t = a[i] as DoubleLimb * a[i + 1] as DoubleLimb + out[2 * i + 1] as DoubleLimb;
        out[2 * i + 1] = t as Limb;
        let rest = &a[i + 2..];
        let c_in = (t >> LIMB_BITS) as Limb;
        // Rows 0..=i+1 sum to less than 2^(64(i+k+2)): one carry limb.
        out[i + k + 1] = mac_row2(&mut out[2 * i + 2..], rest, a[i], a[i + 1], c_in, 0) as Limb;
        i += 2;
    }
    if i + 2 == k {
        out[i + k] = mac_row(&mut out[2 * i + 1..], &a[i + 1..], a[i]);
    }
    // out = 2·out + Σ a_i²·2^(128 i), one pass.
    let mut carry: Limb = 0;
    let mut shifted_out: Limb = 0;
    for (pair, &ai) in out.chunks_exact_mut(2).zip(a) {
        let (lo, hi) = (pair[0], pair[1]);
        let sq = ai as DoubleLimb * ai as DoubleLimb;
        let t0 = ((lo << 1) | shifted_out) as DoubleLimb
            + (sq as Limb) as DoubleLimb
            + carry as DoubleLimb;
        let t1 = ((hi << 1) | (lo >> (LIMB_BITS - 1))) as DoubleLimb
            + (sq >> LIMB_BITS)
            + (t0 >> LIMB_BITS);
        shifted_out = hi >> (LIMB_BITS - 1);
        pair[0] = t0 as Limb;
        pair[1] = t1 as Limb;
        carry = (t1 >> LIMB_BITS) as Limb;
    }
    debug_assert_eq!((carry, shifted_out), (0, 0), "a² fits 2k limbs");
}

/// Montgomery reduction. `t` holds `T < n·R` in `2k` limbs (`k =
/// n.len()`, `R = 2^(64k)`, `n_prime = −n⁻¹ mod 2⁶⁴`) and is consumed as
/// scratch; `out` receives the canonical `T·R⁻¹ mod n` in `k` limbs.
pub(crate) fn redc_into(t: &mut [Limb], n: &[Limb], n_prime: Limb, out: &mut [Limb]) {
    let k = n.len();
    debug_assert_eq!(t.len(), 2 * k);
    debug_assert_eq!(out.len(), k);
    // Each pass adds mᵢ·n·2^(64i) to clear limb i. `top` is the carry out
    // of the highest limb a pass touched, folded into the next pass
    // instead of rippling.
    let mut top: Limb = 0;
    let mut i = 0;
    while i + 2 <= k {
        let m0 = t[i].wrapping_mul(n_prime);
        // Limb i+1 as it will stand once row i is added decides m1.
        let c = (m0 as DoubleLimb * n[0] as DoubleLimb + t[i] as DoubleLimb) >> LIMB_BITS;
        let next = m0 as DoubleLimb * n[1] as DoubleLimb + t[i + 1] as DoubleLimb + c;
        let m1 = (next as Limb).wrapping_mul(n_prime);
        let sum = t[i + k + 1] as DoubleLimb + mac_row2(&mut t[i..], n, m0, m1, 0, top);
        t[i + k + 1] = sum as Limb;
        top = (sum >> LIMB_BITS) as Limb;
        i += 2;
    }
    if i < k {
        let m = t[i].wrapping_mul(n_prime);
        let carry = mac_row(&mut t[i..], n, m);
        let sum = t[i + k] as DoubleLimb + carry as DoubleLimb + top as DoubleLimb;
        t[i + k] = sum as Limb;
        top = (sum >> LIMB_BITS) as Limb;
    }
    // top·R + t[k..] lies in [0, 2n): one conditional subtraction.
    let hi = &t[k..];
    if top != 0 || !less_than(hi, n) {
        let mut borrow = false;
        for ((o, &x), &y) in out.iter_mut().zip(hi).zip(n) {
            let (d, b1) = x.overflowing_sub(y);
            let (d, b2) = d.overflowing_sub(borrow as Limb);
            *o = d;
            borrow = b1 | b2;
        }
    } else {
        out.copy_from_slice(hi);
    }
}

/// `a < b` over equal-length little-endian limb slices.
fn less_than(a: &[Limb], b: &[Limb]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().rev().cmp(b.iter().rev()).is_lt()
}

/// Fitted cost of one limb product inside a Montgomery *product* (limb
/// multiply plus reduction), in picoseconds per limb² of the modulus.
const PRODUCT_PS_PER_LIMB2: u64 = 1300;

/// As [`PRODUCT_PS_PER_LIMB2`] for a Montgomery *squaring*: the triangle
/// halves the multiply, the reduction is unchanged.
const SQUARING_PS_PER_LIMB2: u64 = 1000;

/// Per-call cost that does not scale with the operand (slicing, the
/// final compare-and-subtract, the copy out), in nanoseconds.
const CALL_OVERHEAD_NS: u64 = 13;

/// Estimated wall-clock nanoseconds of `squarings` Montgomery squarings
/// plus `products` Montgomery products modulo a `modulus_bits`-bit
/// modulus — the one cost model behind every
/// `Parallelism::with_item_cost_ns` hint in the workspace (Paillier,
/// DGK, SMC). Fitted to the kernels in this module on the reference box
/// (DESIGN.md, "Exponentiation strategy"); it only has to be right to a
/// small factor, since it decides how batches are chunked, never what
/// they compute.
///
/// ```
/// use bigint::montgomery::mont_cost_ns;
/// // A squaring is cheaper than a product, and cost grows with width.
/// assert!(mont_cost_ns(2048, 1, 0) < mont_cost_ns(2048, 0, 1));
/// assert!(mont_cost_ns(4096, 0, 1) > 3 * mont_cost_ns(2048, 0, 1));
/// ```
pub fn mont_cost_ns(modulus_bits: u64, squarings: u64, products: u64) -> u64 {
    let k = modulus_bits.div_ceil(LIMB_BITS as u64).max(1);
    let per = |ps_per_limb2: u64| k * k * ps_per_limb2 / 1000 + CALL_OVERHEAD_NS;
    squarings * per(SQUARING_PS_PER_LIMB2) + products * per(PRODUCT_PS_PER_LIMB2)
}

/// [`mont_cost_ns`] of one 4-bit-windowed exponentiation with an
/// `exp_bits`-bit exponent: a squaring per bit and a product per window.
pub fn modpow_cost_ns(modulus_bits: u64, exp_bits: u64) -> u64 {
    mont_cost_ns(modulus_bits, exp_bits, exp_bits.div_ceil(4))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference product: one limb at a time through `u128`.
    fn mul_ref(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
        let mut out = vec![0; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry: DoubleLimb = 0;
            for (j, &bj) in b.iter().enumerate() {
                let t = ai as DoubleLimb * bj as DoubleLimb + out[i + j] as DoubleLimb + carry;
                out[i + j] = t as Limb;
                carry = t >> LIMB_BITS;
            }
            out[i + b.len()] = carry as Limb;
        }
        out
    }

    #[test]
    fn product_and_square_match_reference_on_hostile_limbs() {
        let widths = (0..=9).chain([15, 16, 17, 31, 32, 33, 63, 64, 65]);
        for k in widths {
            let saturated = vec![Limb::MAX; k];
            let top_bit: Vec<Limb> = (0..k).map(|i| if i + 1 == k { 1 << 63 } else { 0 }).collect();
            let holes: Vec<Limb> =
                (0..k).map(|i| if i % 3 == 1 { 0 } else { Limb::MAX - i as Limb }).collect();
            for a in [&saturated, &top_bit, &holes] {
                let mut out = vec![0xdead; 2 * k + 1];
                mul_into(a, &saturated, &mut out);
                assert_eq!(out[..2 * k], mul_ref(a, &saturated)[..], "mul k={k}");
                assert_eq!(out[2 * k], 0, "tail zeroed");
                let mut sq = vec![0xdead; 2 * k];
                sqr_into(a, &mut sq);
                assert_eq!(sq, mul_ref(a, a), "sqr k={k}");
            }
        }
    }

    #[test]
    fn product_handles_unequal_and_empty_operands() {
        let a = [Limb::MAX, 0, Limb::MAX, 7, 1 << 63];
        for blen in 0..=4 {
            let b = &[3, Limb::MAX, 0, Limb::MAX][..blen];
            let mut out = vec![1; a.len() + blen];
            mul_into(&a, b, &mut out);
            assert_eq!(out, mul_ref(&a, b), "blen={blen}");
            mul_into(b, &a, &mut out);
            assert_eq!(out, mul_ref(b, &a), "swapped blen={blen}");
        }
    }

    #[test]
    fn cost_model_orders_squarings_below_products() {
        for bits in [64, 128, 1024, 2048, 4096] {
            assert!(mont_cost_ns(bits, 1, 0) <= mont_cost_ns(bits, 0, 1));
            assert!(mont_cost_ns(bits, 1, 1) > 0);
        }
        assert_eq!(mont_cost_ns(2048, 0, 0), 0);
    }
}
