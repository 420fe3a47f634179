//! Multiplication for [`Ubig`].
//!
//! Schoolbook multiplication with a Karatsuba branch for large operands.
//! Cryptographic moduli in this workspace are small (64–2048 bits), so the
//! Karatsuba threshold is chosen conservatively.

use std::ops::{Mul, MulAssign};

use crate::ubig::wide_mul;
use crate::{Limb, Ubig};

/// Limb count above which Karatsuba is used instead of schoolbook.
const KARATSUBA_THRESHOLD: usize = 32;

/// Schoolbook `O(n*m)` multiplication.
fn mul_schoolbook(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0 as Limb; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry: Limb = 0;
        for (j, &bj) in b.iter().enumerate() {
            let (lo, hi) = wide_mul(ai, bj);
            let (s1, c1) = out[i + j].overflowing_add(lo);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i + j] = s2;
            carry = hi + c1 as Limb + c2 as Limb;
        }
        out[i + b.len()] = carry;
    }
    out
}

/// Karatsuba multiplication: splits both operands at `half` limbs and
/// recombines with three recursive products. The recombination runs
/// entirely on limb slices — no `Ubig` temporaries, no shifted copies —
/// because at the ~2× threshold widths where one recursion level fires,
/// the 25% saving in limb products is smaller than the cost of naive
/// allocate-and-shift recombination.
fn mul_karatsuba(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    let half = a.len().max(b.len()) / 2;
    let (a0, a1) = a.split_at(half.min(a.len()));
    let (b0, b1) = b.split_at(half.min(b.len()));

    let z0 = mul_karatsuba(a0, b0);
    let z2 = mul_karatsuba(a1, b1);
    let sa = add_limbs(a0, a1);
    let sb = add_limbs(b0, b1);
    // z1 = (a0+a1)(b0+b1) - z0 - z2 >= 0 always.
    let mut z1 = mul_karatsuba(&sa, &sb);
    sub_limbs_in_place(&mut z1, &z0);
    sub_limbs_in_place(&mut z1, &z2);

    let mut out = vec![0 as Limb; a.len() + b.len()];
    out[..z0.len()].copy_from_slice(&z0);
    add_limbs_at(&mut out, &z1, half);
    add_limbs_at(&mut out, &z2, 2 * half);
    out
}

/// `a + b` over raw limb slices.
fn add_limbs(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry: Limb = 0;
    for (i, &l) in long.iter().enumerate() {
        let s = short.get(i).copied().unwrap_or(0);
        let (v1, c1) = l.overflowing_add(s);
        let (v2, c2) = v1.overflowing_add(carry);
        out.push(v2);
        carry = c1 as Limb + c2 as Limb;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a -= b` over raw limb slices; the caller guarantees `a >= b`.
fn sub_limbs_in_place(a: &mut [Limb], b: &[Limb]) {
    debug_assert!(b.len() <= a.len(), "karatsuba z1 holds the widest product");
    let mut borrow: Limb = 0;
    for (i, limb) in a.iter_mut().enumerate() {
        let s = b.get(i).copied().unwrap_or(0);
        let (v1, b1) = limb.overflowing_sub(s);
        let (v2, b2) = v1.overflowing_sub(borrow);
        *limb = v2;
        borrow = b1 as Limb + b2 as Limb;
        if i >= b.len() && borrow == 0 {
            break;
        }
    }
    debug_assert_eq!(borrow, 0, "karatsuba z1 is non-negative");
}

/// `out += src << (64·at)` in place; the true product always fits `out`,
/// so any `src` limbs past the end are zeros.
fn add_limbs_at(out: &mut [Limb], src: &[Limb], at: usize) {
    let mut carry: Limb = 0;
    let mut i = 0;
    while i < src.len() || carry != 0 {
        let s = src.get(i).copied().unwrap_or(0);
        let Some(slot) = out.get_mut(at + i) else {
            debug_assert!(s == 0 && carry == 0, "karatsuba recombination overflow");
            break;
        };
        let (v1, c1) = slot.overflowing_add(s);
        let (v2, c2) = v1.overflowing_add(carry);
        *slot = v2;
        carry = c1 as Limb + c2 as Limb;
        i += 1;
    }
}

impl Ubig {
    /// Squares `self`.
    ///
    /// ```
    /// use bigint::Ubig;
    /// assert_eq!(Ubig::from(12u64).square(), Ubig::from(144u64));
    /// ```
    pub fn square(&self) -> Ubig {
        self * self
    }
}

impl Mul<&Ubig> for &Ubig {
    type Output = Ubig;
    fn mul(self, rhs: &Ubig) -> Ubig {
        Ubig::from_limbs(mul_karatsuba(&self.limbs, &rhs.limbs))
    }
}

impl Mul for Ubig {
    type Output = Ubig;
    fn mul(self, rhs: Ubig) -> Ubig {
        (&self).mul(&rhs)
    }
}

impl Mul<u64> for &Ubig {
    type Output = Ubig;
    fn mul(self, rhs: u64) -> Ubig {
        self * &Ubig::from(rhs)
    }
}

impl MulAssign<&Ubig> for Ubig {
    fn mul_assign(&mut self, rhs: &Ubig) {
        let out = (&*self) * rhs;
        *self = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_by_zero_and_one() {
        let x = Ubig::from_limbs(vec![1, 2, 3]);
        assert_eq!(&x * &Ubig::zero(), Ubig::zero());
        assert_eq!(&x * &Ubig::one(), x);
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xffff_ffff_ffffu64;
        let b = 0x1234_5678_9abcu64;
        let prod = a as u128 * b as u128;
        assert_eq!((&Ubig::from(a) * &Ubig::from(b)).to_u128(), Some(prod));
    }

    #[test]
    fn mul_is_commutative_multi_limb() {
        let a = Ubig::from_limbs(vec![u64::MAX, 5, 17]);
        let b = Ubig::from_limbs(vec![3, u64::MAX]);
        assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn karatsuba_agrees_with_schoolbook() {
        // Build operands wide enough to trip the Karatsuba branch.
        let a: Vec<Limb> = (0..80).map(|i| (i as u64).wrapping_mul(0x9e3779b97f4a7c15)).collect();
        let b: Vec<Limb> =
            (0..70).map(|i| (i as u64).wrapping_mul(0xc2b2ae3d27d4eb4f) ^ 0xff).collect();
        let kara = mul_karatsuba(&a, &b);
        let school = mul_schoolbook(&a, &b);
        assert_eq!(Ubig::from_limbs(kara), Ubig::from_limbs(school));
    }

    #[test]
    fn square_matches_mul() {
        let x = Ubig::from_limbs(vec![0xdead_beef, 42, 7]);
        assert_eq!(x.square(), &x * &x);
    }

    #[test]
    fn distributes_over_addition() {
        let a = Ubig::from_limbs(vec![11, 13]);
        let b = Ubig::from_limbs(vec![17, 19]);
        let c = Ubig::from_limbs(vec![23, 29]);
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }
}
