//! Offline functional shim for the `rand 0.8` API surface used by this
//! workspace. Deterministic SplitMix64/xoshiro-style generator; uniform
//! sampling is statistically reasonable but NOT the upstream stream —
//! seeded tests may observe different draws than with real `rand`.

use std::cell::RefCell;
use std::ops::{Range, RangeInclusive};

/// Core entropy source.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Fallible [`RngCore::fill_bytes`]; upstream generators backed by
    /// the OS can fail here, the shim's never do.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Upstream's `rand::Error`, so a hand-written `RngCore` compiles against
/// both. The shim never constructs one.
#[derive(Debug)]
pub struct Error;

macro_rules! forward_rng_core {
    ($($t:ty),*) => {$(
        impl<R: RngCore + ?Sized> RngCore for $t {
            fn next_u64(&mut self) -> u64 {
                (**self).next_u64()
            }
            fn next_u32(&mut self) -> u32 {
                (**self).next_u32()
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                (**self).fill_bytes(dest);
            }
            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
                (**self).try_fill_bytes(dest)
            }
        }
    )*};
}
forward_rng_core!(&mut R, Box<R>);

/// Values producible from raw bits (the shim's stand-in for
/// `Standard: Distribution<T>`).
pub trait FromBits {
    /// Draws one value.
    fn draw_from<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! from_bits_int {
    ($($t:ty),*) => {$(
        impl FromBits for $t {
            fn draw_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                let mut wide: u128 = rng.next_u64() as u128;
                if std::mem::size_of::<$t>() > 8 {
                    wide |= (rng.next_u64() as u128) << 64;
                }
                wide as $t
            }
        }
    )*};
}
from_bits_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl FromBits for bool {
    fn draw_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromBits for f64 {
    fn draw_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl FromBits for f32 {
    fn draw_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// A range usable with [`Rng::gen_range`] producing `T` (generic over
/// the output so integer-literal ranges infer from the use site, like
/// upstream `SampleRange<T>`).
pub trait SampleRange<T> {
    /// Draws uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! sample_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                let draw = <$u>::draw_from(rng) % span;
                (self.start as $u).wrapping_add(draw) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end as $u).wrapping_sub(start as $u);
                if span == <$u>::MAX {
                    return <$u>::draw_from(rng) as $t;
                }
                let draw = <$u>::draw_from(rng) % (span + 1);
                (start as $u).wrapping_add(draw) as $t
            }
        }
    )*};
}
sample_range_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, u128 => u128, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, i128 => u128, isize => usize
);

macro_rules! sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let unit = <$t>::draw_from(rng);
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                let unit = <$t>::draw_from(rng);
                start + unit * (end - start)
            }
        }
    )*};
}
sample_range_float!(f32, f64);

/// User-facing convenience methods (auto-implemented for every RngCore).
pub trait Rng: RngCore {
    /// Draws a value of any primitive type.
    fn gen<T: FromBits>(&mut self) -> T {
        T::draw_from(self)
    }

    /// Draws uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::draw_from(self) < p
    }

    /// Fills a byte slice (mirror of `RngCore::fill_bytes`).
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// The full-width seed (`[u8; 32]` for [`rngs::StdRng`], as upstream).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds a generator from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds a generator from OS entropy (shim: time-derived).
    fn from_entropy() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        Self::seed_from_u64(nanos)
    }
}

/// Named generators.
pub mod rngs {
    use super::*;

    /// Deterministic 64-bit generator (SplitMix64 core; not the upstream
    /// ChaCha stream).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        /// Folds the 256-bit seed into the shim's 64-bit test state, one
        /// bijective mixing round per 64-bit word (seeds that differ in
        /// one word always give different states). The crates.io `StdRng`
        /// keys ChaCha12 with all 256 bits; that is what deployments get.
        fn from_seed(seed: [u8; 32]) -> Self {
            let mut rng = StdRng { state: 0x5851f42d4c957f2d };
            for word in seed.chunks_exact(8) {
                rng.state ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                rng.state = rng.next_u64();
            }
            rng
        }

        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed.wrapping_mul(0x2545f4914f6cdd1d) ^ 0x5851f42d4c957f2d }
        }
    }

    /// Handle to a thread-local generator.
    #[derive(Debug, Clone)]
    pub struct ThreadRng;

    thread_local! {
        pub(crate) static THREAD_RNG: RefCell<StdRng> = RefCell::new(StdRng::from_entropy());
    }

    impl RngCore for ThreadRng {
        fn next_u64(&mut self) -> u64 {
            THREAD_RNG.with(|r| r.borrow_mut().next_u64())
        }
    }
}

/// A handle to a thread-local generator.
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng
}

/// Upstream compatibility alias: `rand::random()`.
pub fn random<T: FromBits>() -> T {
    thread_rng().gen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_and_uniformish() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let (mut x, mut y) = ([0u8; 32], [0u8; 32]);
        a.fill_bytes(&mut x);
        y.copy_from_slice(&x);
        y[31] ^= 1;
        assert_eq!(StdRng::from_seed(x).next_u64(), StdRng::from_seed(x).next_u64());
        assert_ne!(StdRng::from_seed(x).next_u64(), StdRng::from_seed(y).next_u64());
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[a.gen_range(0..4usize)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800), "{counts:?}");
        for _ in 0..100 {
            let f: f64 = a.gen();
            assert!((0.0..1.0).contains(&f));
            let x = a.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            let i = a.gen_range(0..=3u32);
            assert!(i <= 3);
        }
    }
}
