//! Division and remainder for [`Ubig`], via Knuth's Algorithm D
//! (TAOCP Vol. 2, 4.3.1) with 64-bit limbs.

use std::ops::{Div, Rem};

use crate::{DoubleLimb, Limb, Ubig, LIMB_BITS};

impl Ubig {
    /// Computes `(self / divisor, self % divisor)` in one pass.
    ///
    /// ```
    /// use bigint::Ubig;
    /// let (q, r) = Ubig::from(100u64).div_rem(&Ubig::from(7u64));
    /// assert_eq!(q, Ubig::from(14u64));
    /// assert_eq!(r, Ubig::from(2u64));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Ubig) -> (Ubig, Ubig) {
        assert!(!divisor.is_zero(), "division by zero Ubig");
        if self < divisor {
            return (Ubig::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(divisor.limbs[0]);
            return (q, Ubig::from(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Divides by a single limb, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem_limb(&self, divisor: Limb) -> (Ubig, Limb) {
        assert!(divisor != 0, "division by zero limb");
        let mut quotient = vec![0 as Limb; self.limbs.len()];
        let mut rem: DoubleLimb = 0;
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let acc = (rem << LIMB_BITS) | limb as DoubleLimb;
            quotient[i] = (acc / divisor as DoubleLimb) as Limb;
            rem = acc % divisor as DoubleLimb;
        }
        (Ubig::from_limbs(quotient), rem as Limb)
    }

    /// `self % divisor` for a single-limb divisor, without allocating.
    ///
    /// ```
    /// use bigint::Ubig;
    /// assert_eq!((Ubig::one() << 100).rem_limb(7), 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn rem_limb(&self, divisor: Limb) -> Limb {
        assert!(divisor != 0, "division by zero limb");
        let rem = self.limbs.iter().rev().fold(0 as DoubleLimb, |rem, &limb| {
            ((rem << LIMB_BITS) | limb as DoubleLimb) % divisor as DoubleLimb
        });
        rem as Limb
    }

    /// Knuth Algorithm D for multi-limb divisors.
    fn div_rem_knuth(&self, divisor: &Ubig) -> (Ubig, Ubig) {
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().expect("multi-limb").leading_zeros();
        let u = self << shift; // dividend, may gain a limb
        let v = divisor << shift;
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of the dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q = vec![0 as Limb; m + 1];

        // D2..D7: main loop over quotient digits, most significant first.
        for j in (0..=m).rev() {
            // D3: estimate q̂ from the top two limbs of the current window.
            let top = ((un[j + n] as DoubleLimb) << LIMB_BITS) | un[j + n - 1] as DoubleLimb;
            let mut qhat = top / v_top as DoubleLimb;
            let mut rhat = top % v_top as DoubleLimb;

            // Refine: while q̂ is a full limb too large or overshoots the
            // next limb, decrement.
            while qhat >> LIMB_BITS != 0
                || qhat * v_next as DoubleLimb > ((rhat << LIMB_BITS) | un[j + n - 2] as DoubleLimb)
            {
                qhat -= 1;
                rhat += v_top as DoubleLimb;
                if rhat >> LIMB_BITS != 0 {
                    break;
                }
            }

            // D4: multiply-and-subtract q̂ * v from the window.
            let mut borrow: i128 = 0;
            let mut carry: DoubleLimb = 0;
            for i in 0..n {
                let p = qhat * vn[i] as DoubleLimb + carry;
                carry = p >> LIMB_BITS;
                let sub = (un[j + i] as i128) - ((p as Limb) as i128) - borrow;
                un[j + i] = sub as Limb; // two's complement wrap is intended
                borrow = if sub < 0 { 1 } else { 0 };
            }
            let sub = (un[j + n] as i128) - (carry as i128) - borrow;
            un[j + n] = sub as Limb;

            // D5/D6: if we subtracted too much, add back one divisor.
            if sub < 0 {
                qhat -= 1;
                let mut c: DoubleLimb = 0;
                for i in 0..n {
                    let s = un[j + i] as DoubleLimb + vn[i] as DoubleLimb + c;
                    un[j + i] = s as Limb;
                    c = s >> LIMB_BITS;
                }
                un[j + n] = (un[j + n] as DoubleLimb + c) as Limb;
            }

            q[j] = qhat as Limb;
        }

        // D8: denormalize the remainder.
        let rem = Ubig::from_limbs(un[..n].to_vec()) >> shift;
        (Ubig::from_limbs(q), rem)
    }

    /// `self % modulus` as a convenience wrapper over [`Ubig::div_rem`].
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn rem_of(&self, modulus: &Ubig) -> Ubig {
        self.div_rem(modulus).1
    }
}

impl Div<&Ubig> for &Ubig {
    type Output = Ubig;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: &Ubig) -> Ubig {
        self.div_rem(rhs).0
    }
}

impl Div for Ubig {
    type Output = Ubig;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Ubig) -> Ubig {
        self.div_rem(&rhs).0
    }
}

impl Rem<&Ubig> for &Ubig {
    type Output = Ubig;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: &Ubig) -> Ubig {
        self.div_rem(rhs).1
    }
}

impl Rem for Ubig {
    type Output = Ubig;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: Ubig) -> Ubig {
        self.div_rem(&rhs).1
    }
}

impl Rem<&Ubig> for Ubig {
    type Output = Ubig;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: &Ubig) -> Ubig {
        self.div_rem(rhs).1
    }
}

impl Div<&Ubig> for Ubig {
    type Output = Ubig;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: &Ubig) -> Ubig {
        self.div_rem(rhs).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: u128, b: u128) {
        let (q, r) = Ubig::from(a).div_rem(&Ubig::from(b));
        assert_eq!(q.to_u128(), Some(a / b), "quotient for {a}/{b}");
        assert_eq!(r.to_u128(), Some(a % b), "remainder for {a}%{b}");
    }

    #[test]
    fn small_cases_match_u128() {
        check(0, 1);
        check(1, 1);
        check(100, 7);
        check(u64::MAX as u128, 2);
        check(u128::MAX, 3);
        check(u128::MAX, u64::MAX as u128);
        check(u128::MAX, u128::MAX);
        check(0x1234_5678_9abc_def0_1122_3344, 0xffff_ffff_0001);
    }

    #[test]
    fn dividend_smaller_than_divisor() {
        let (q, r) = Ubig::from(5u64).div_rem(&Ubig::from(100u64));
        assert!(q.is_zero());
        assert_eq!(r, Ubig::from(5u64));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Ubig::one().div_rem(&Ubig::zero());
    }

    #[test]
    fn multi_limb_reconstruction() {
        // For a spread of multi-limb values, verify a = q*b + r and r < b.
        let samples = [
            Ubig::from_limbs(vec![u64::MAX, u64::MAX, u64::MAX, 1]),
            Ubig::from_limbs(vec![0, 0, 1]),
            Ubig::from_limbs(vec![0xdead_beef, 0xcafe_babe, 0x1234]),
        ];
        let divisors = [
            Ubig::from_limbs(vec![1, 1]),
            Ubig::from_limbs(vec![u64::MAX, 1]),
            Ubig::from_limbs(vec![0x8000_0000_0000_0000, 0x8000_0000_0000_0000]),
            Ubig::from(3u64),
        ];
        for a in &samples {
            for b in &divisors {
                let (q, r) = a.div_rem(b);
                assert!(r < *b, "remainder must be < divisor");
                assert_eq!(&(&q * b) + &r, *a, "reconstruction failed");
            }
        }
    }

    #[test]
    fn knuth_addback_branch() {
        // A case crafted to hit the rare D6 add-back: dividend with
        // pattern forcing qhat overestimation.
        let a = Ubig::from_limbs(vec![0, u64::MAX - 1, u64::MAX]);
        let b = Ubig::from_limbs(vec![u64::MAX, u64::MAX]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_limb_matches_generic() {
        let a = Ubig::from_limbs(vec![123, 456, 789]);
        let (q1, r1) = a.div_rem_limb(97);
        let (q2, r2) = a.div_rem(&Ubig::from(97u64));
        assert_eq!(q1, q2);
        assert_eq!(Ubig::from(r1), r2);
    }

    #[test]
    fn operator_sugar() {
        let a = Ubig::from(1000u64);
        let b = Ubig::from(33u64);
        assert_eq!(&a / &b, Ubig::from(30u64));
        assert_eq!(&a % &b, Ubig::from(10u64));
        assert_eq!(a.rem_of(&b), Ubig::from(10u64));
    }
}
