//! Key generation and the encrypt/decrypt core of the Paillier scheme.

use std::fmt;
use std::sync::Arc;

use bigint::gcd::{gcd, lcm, modinv};
use bigint::modular::{garner, modmul, modneg, modpow, modsub};
use bigint::montgomery::{CachedComb, CachedContext, FixedBaseComb};
use bigint::prime::gen_prime_3mod4;
use bigint::{random, Ubig};
use rand::Rng;

use crate::ciphertext::Ciphertext;
use crate::error::PaillierError;

/// Paillier public key: the modulus `n` (with `n²` cached) and the
/// Damgård–Jurik–Nielsen randomizer base `hs`, under which anyone can
/// encrypt and combine ciphertexts homomorphically.
///
/// The generator is fixed to `g = n + 1`, so `g^m = 1 + m·n` costs one
/// multiplication, and the randomizer is a power of the fixed base
/// `hs = h^n mod n²` (`h = −y² mod n` for a secret random `y`):
/// `E[m] = (1 + m·n) · hs^x mod n²` with a fresh `⌈|n|/2⌉`-bit `x`
/// (DJN §4.2). `hs^x = (h^x)^n` is an n-th power like the classical
/// `r^n`, so decryption and every homomorphic identity are unchanged; a
/// fixed base lets the power run on a Lim–Lee comb
/// ([`bigint::montgomery::FixedBaseComb`]) over a half-width exponent.
///
/// The key embeds lazily built caches — the Montgomery context for `n²`
/// and the comb for `hs` — that every operation under the key reuses.
/// They are transparent: ignored by equality, and shared by every clone
/// taken after they are built. [`Keypair::generate`] builds them; call
/// [`PublicKey::precompute`] on a key built by [`PublicKey::from_parts`]
/// to pay for them eagerly:
///
/// ```
/// use paillier::Keypair;
/// let kp = Keypair::generate(&mut rand::thread_rng(), 64);
/// let pk = kp.public_key();
/// pk.precompute(); // idempotent
/// let c = pk.encrypt_u64(7, &mut rand::thread_rng());
/// assert_eq!(kp.private_key().decrypt_u64(&c), 7);
/// ```
///
/// A key has no decoder: the one way to build it from untrusted parts is
/// [`PublicKey::from_parts`], so a malformed key is an error, not silent
/// garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    n: Ubig,
    n_squared: Ubig,
    /// The randomizer base `h^n mod n²`.
    hs: Ubig,
    /// Montgomery context for `Z_{n²}`, built once per key on first use.
    ctx_n2: CachedContext,
    /// Comb for `hs` over `⌈|n|/2⌉`-bit exponents.
    comb_hs: CachedComb,
}

/// Paillier private key: the factorization-derived trapdoor
/// `λ = lcm(p−1, q−1)` and `μ = λ⁻¹ mod n`, plus the prime factors and
/// precomputed constants for CRT-accelerated decryption. `Debug` prints
/// the public half only.
#[derive(Clone, PartialEq, Eq)]
pub struct PrivateKey {
    public: PublicKey,
    lambda: Ubig,
    mu: Ubig,
    /// Prime factor `p` and its square.
    p: Ubig,
    p_squared: Ubig,
    /// Prime factor `q` and its square.
    q: Ubig,
    q_squared: Ubig,
    /// `h_p = (L_p(g^{p−1} mod p²))⁻¹ mod p`, for CRT decryption.
    h_p: Ubig,
    /// `h_q = (L_q(g^{q−1} mod q²))⁻¹ mod q`.
    h_q: Ubig,
    /// `p − 1` and `q − 1`: the CRT exponents, fixed at keygen so the
    /// decrypt hot path allocates no per-call constants.
    p_minus_1: Ubig,
    q_minus_1: Ubig,
    /// `p⁻¹ mod q`, for Garner recombination without a per-call
    /// extended GCD.
    p_inv_q: Ubig,
    /// Montgomery context for `Z_{p²}` (CRT decryption), built lazily.
    ctx_p2: CachedContext,
    /// Montgomery context for `Z_{q²}`, built lazily.
    ctx_q2: CachedContext,
}

impl fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrivateKey")
            .field("public", &self.public)
            .field("secret", &format_args!("<redacted>"))
            .finish()
    }
}

/// A freshly generated public/private keypair. `Debug` prints the public
/// half only.
#[derive(Clone, PartialEq, Eq)]
pub struct Keypair {
    /// The public half.
    public: PublicKey,
    /// The private half.
    private: PrivateKey,
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Keypair")
            .field("public", &self.public)
            .field("private", &format_args!("<redacted>"))
            .finish()
    }
}

impl Keypair {
    /// Generates a keypair with an (approximately) `modulus_bits`-bit `n`.
    ///
    /// The two primes are `modulus_bits / 2` bits each and `≡ 3 (mod 4)`
    /// (DJN's key shape: `−1` is then a non-residue modulo both), so `n`
    /// has `modulus_bits` or `modulus_bits - 1` bits. Primes are
    /// regenerated until `gcd(n, (p−1)(q−1)) = 1` and `p ≠ q`. The
    /// public key's caches are built before it is copied into the private
    /// half, so both halves and every later clone share them.
    ///
    /// ```
    /// use paillier::Keypair;
    /// let kp = Keypair::generate(&mut rand::thread_rng(), 64);
    /// assert!(kp.public_key().modulus().bits() >= 63);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `modulus_bits < 16` (the message space would be too small
    /// for the protocol's fixed-point values).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: u64) -> Keypair {
        assert!(modulus_bits >= 16, "modulus must be at least 16 bits");
        let prime_bits = modulus_bits / 2;
        loop {
            let p = gen_prime_3mod4(rng, prime_bits);
            let q = gen_prime_3mod4(rng, prime_bits);
            if p == q {
                continue;
            }
            let n = &p * &q;
            let p1 = &p - &Ubig::one();
            let q1 = &q - &Ubig::one();
            if !gcd(&n, &(&p1 * &q1)).is_one() {
                continue;
            }
            let lambda = lcm(&p1, &q1);
            let mu = match modinv(&lambda, &n) {
                Some(mu) => mu,
                None => continue,
            };
            let (p_squared, q_squared) = (p.square(), q.square());
            let p_inv_q = modinv(&p, &q).expect("distinct primes are coprime");
            // h = −y² mod n has Jacobi symbol 1 without being a square. A
            // y sharing a factor with n (one draw in 2^|p|) carries it into
            // hs, which the checked constructor then refuses.
            let y = random::gen_positive_below(rng, &n);
            let h = modneg(&modmul(&y, &y, &n), &n);
            let hs = pow_n_crt(&h, (&p, &p_squared), (&q, &q_squared), &p_inv_q);
            let Ok(public) = PublicKey::from_parts(n, hs) else { continue };
            public.precompute();
            // CRT precomputation: with g = 1+n and n² ≡ 0 (mod p²),
            // g^{p−1} mod p² = 1 + (p−1)·n, so L_p(g^{p−1} mod p²) =
            // (p−1)·q ≡ −q (mod p), and symmetrically −p (mod q). Both
            // inverses come out of the one Bézout identity behind
            // u = p⁻¹ mod q: u·p − 1 = k·q with 0 < k < p, so
            // (−q)⁻¹ ≡ k (mod p), and (−p)⁻¹ ≡ q − u (mod q).
            let h_p = &(&(&p_inv_q * &p) - &Ubig::one()) / &q;
            let h_q = &q - &p_inv_q;
            let private = PrivateKey {
                public: public.clone(),
                lambda,
                mu,
                p_squared,
                q_squared,
                p,
                q,
                h_p,
                h_q,
                p_minus_1: p1,
                q_minus_1: q1,
                p_inv_q,
                ctx_p2: CachedContext::new(),
                ctx_q2: CachedContext::new(),
            };
            return Keypair { public, private };
        }
    }

    /// Borrow the public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// Borrow the private key.
    pub fn private_key(&self) -> &PrivateKey {
        &self.private
    }

    /// Consumes the keypair into `(public, private)` halves.
    pub fn split(self) -> (PublicKey, PrivateKey) {
        (self.public, self.private)
    }
}

/// `r^n mod n²` for `r` coprime to `n = p·q`, by CRT over `p²` and `q²`
/// — how key generation computes `hs` at half the cost of the direct
/// power.
///
/// `x^p mod p²` depends only on `x mod p` (every other binomial term
/// carries `p²`), so `r^n ≡ (r^q mod p)^p (mod p²)`, and Fermat reduces
/// the inner exponent to `q mod (p−1)`: one half-width exponentiation mod
/// `p` and one mod `p²`, each over a `|p|`-bit exponent. The halves
/// recombine by Garner's formula, as in [`PrivateKey::decrypt_crt`].
fn pow_n_crt(
    r: &Ubig,
    (p, p_squared): (&Ubig, &Ubig),
    (q, q_squared): (&Ubig, &Ubig),
    p_inv_q: &Ubig,
) -> Ubig {
    let one = Ubig::one();
    let x_p = modpow(&modpow(r, &(q % &(p - &one)), p), p, p_squared);
    let x_q = modpow(&modpow(r, &(p % &(q - &one)), q), q, q_squared);
    // Garner over (p², q²) needs (p²)⁻¹ mod q². With u = p⁻¹ mod q, one
    // Hensel step gives p⁻¹ mod q² = u·(2 − p·u), and its square is
    // (p²)⁻¹ mod q².
    let pu = modmul(p, p_inv_q, q_squared);
    let p_inv_q2 = modmul(p_inv_q, &modsub(&Ubig::two(), &pu, q_squared), q_squared);
    garner(&x_p, &x_q, p_squared, q_squared, &modmul(&p_inv_q2, &p_inv_q2, q_squared))
}

impl PublicKey {
    /// Builds a key from the pair `(n, hs)`, recomputing `n²`.
    ///
    /// # Errors
    ///
    /// Returns [`PaillierError::MalformedKey`] unless `n > 1` is odd,
    /// `1 < hs < n²` and `gcd(hs, n) = 1`: `hs = 1` would make every
    /// encryption the deterministic `1 + m·n`, and a base sharing a factor
    /// with `n` yields ciphertexts that do not decrypt.
    pub fn from_parts(n: Ubig, hs: Ubig) -> Result<PublicKey, PaillierError> {
        let n_squared = n.square();
        // No hs fits between 1 and n² = 1, so n = 1 fails the range too.
        let well_formed = n.is_odd() && hs > Ubig::one() && hs < n_squared && gcd(&hs, &n).is_one();
        if !well_formed {
            return Err(PaillierError::MalformedKey);
        }
        Ok(PublicKey { n, n_squared, hs, ctx_n2: CachedContext::new(), comb_hs: CachedComb::new() })
    }

    /// The modulus `n`; plaintexts live in `Z_n`.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// The ciphertext modulus `n²`.
    pub fn modulus_squared(&self) -> &Ubig {
        &self.n_squared
    }

    /// The randomizer base `hs = h^n mod n²`: an encryption of zero.
    pub fn randomizer_base(&self) -> &Ubig {
        &self.hs
    }

    /// Width of the exponent a randomizer `hs^x` draws: `⌈|n|/2⌉` bits,
    /// the width DJN's subgroup assumption is stated for.
    pub fn randomizer_bits(&self) -> u64 {
        self.n.bits().div_ceil(2)
    }

    /// Eagerly builds the Montgomery context for `n²` and the comb for
    /// `hs`, so the first encryption does not pay the one-time setup cost
    /// and clones taken afterwards share both. Idempotent and cheap after
    /// the first call.
    pub fn precompute(&self) {
        let _ = self.comb();
    }

    /// The comb for `hs`, built on first use.
    fn comb(&self) -> &Arc<FixedBaseComb> {
        let ctx = self.ctx_n2.context(&self.n_squared).expect("n² is odd: checked at construction");
        self.comb_hs.comb(ctx, &self.hs, self.randomizer_bits())
    }

    /// `c · hs^x mod n²` for a fresh `x` uniform over
    /// [`PublicKey::randomizer_bits`] bits: `c` times a random encryption
    /// of zero, the factor multiplied in as the comb's last product.
    fn randomize<R: Rng + ?Sized>(&self, c: &Ubig, rng: &mut R) -> Ciphertext {
        let x = random::gen_bits(rng, self.randomizer_bits());
        Ciphertext::from_raw(self.comb().pow_times(&x, c))
    }

    /// `base^exp mod n²` through the per-key cached Montgomery context.
    pub(crate) fn pow_mod_n2(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.ctx_n2.modpow(base, exp, &self.n_squared)
    }

    /// Encrypts a plaintext `m ∈ Z_n`:
    /// `E[m] = (1 + m·n) · hs^x mod n²` with a fresh random `x` — the one
    /// route from a message to a ciphertext, for every party and key.
    ///
    /// # Errors
    ///
    /// Returns [`PaillierError::MessageOutOfRange`] if `m >= n`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &Ubig,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        if m >= &self.n {
            return Err(PaillierError::MessageOutOfRange);
        }
        Ok(self.randomize(&self.g_pow(m), rng))
    }

    /// The classical `E[m] = (1 + m·n) · r^n mod n²` with caller-chosen
    /// `r ∈ Z_n^*`: deterministic, and the reference the fixed-base path
    /// is tested against.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `m >= n`.
    pub fn encrypt_with_randomness(&self, m: &Ubig, r: &Ubig) -> Ciphertext {
        let r_n = self.pow_mod_n2(r, &self.n);
        Ciphertext::from_raw(modmul(&self.g_pow(m), &r_n, &self.n_squared))
    }

    /// `g^m = (1 + n)^m = 1 + m·n mod n²` for `m < n` and `g = n + 1`.
    fn g_pow(&self, m: &Ubig) -> Ubig {
        debug_assert!(m < &self.n, "message must be reduced mod n");
        &(Ubig::one() + modmul(m, &self.n, &self.n_squared)) % &self.n_squared
    }

    /// Convenience wrapper: encrypt a `u64` (must be `< n`).
    ///
    /// # Panics
    ///
    /// Panics if `m >= n`.
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> Ciphertext {
        self.encrypt(&Ubig::from(m), rng).expect("u64 message exceeds modulus")
    }

    /// Homomorphic addition: `E[m1 + m2] = E[m1] · E[m2] mod n²` (Eqn. 1).
    pub fn add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        Ciphertext::from_raw(modmul(c1.as_raw(), c2.as_raw(), &self.n_squared))
    }

    /// Homomorphic plaintext addition: `E[m + k]` from `E[m]` and plain `k`.
    pub fn add_plain(&self, c: &Ciphertext, k: &Ubig) -> Ciphertext {
        let k = k % &self.n;
        let g_k = &(Ubig::one() + modmul(&k, &self.n, &self.n_squared)) % &self.n_squared;
        Ciphertext::from_raw(modmul(c.as_raw(), &g_k, &self.n_squared))
    }

    /// Homomorphic scalar multiplication: `E[a·m] = E[m]^a mod n²` (Eqn. 2).
    pub fn mul_plain(&self, c: &Ciphertext, a: &Ubig) -> Ciphertext {
        Ciphertext::from_raw(self.pow_mod_n2(c.as_raw(), &(a % &self.n)))
    }

    /// Homomorphic negation: `E[−m] = E[m]^(n−1)`, since `n−1 ≡ −1 (mod n)`.
    pub fn neg(&self, c: &Ciphertext) -> Ciphertext {
        self.mul_plain(c, &(&self.n - &Ubig::one()))
    }

    /// Homomorphic subtraction: `E[m1 − m2]`.
    pub fn sub(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        self.add(c1, &self.neg(c2))
    }

    /// Rerandomizes a ciphertext (multiplies by a fresh encryption of zero)
    /// so it is unlinkable to its origin. Used when a server forwards
    /// ciphertexts it did not create.
    pub fn rerandomize<R: Rng + ?Sized>(&self, c: &Ciphertext, rng: &mut R) -> Ciphertext {
        self.randomize(c.as_raw(), rng)
    }

    /// Encryption of zero with fixed randomness 1 — the homomorphic
    /// identity element.
    pub fn zero_ciphertext(&self) -> Ciphertext {
        Ciphertext::from_raw(Ubig::one())
    }

    /// Encrypts each element of a slice (vector plaintexts are how the
    /// protocol handles the `K` class labels).
    ///
    /// # Errors
    ///
    /// Propagates [`PaillierError::MessageOutOfRange`] from any element.
    pub fn encrypt_vec<R: Rng + ?Sized>(
        &self,
        ms: &[Ubig],
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>, PaillierError> {
        ms.iter().map(|m| self.encrypt(m, rng)).collect()
    }

    /// Element-wise homomorphic sum of two equal-length ciphertext vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn add_vec(&self, a: &[Ciphertext], b: &[Ciphertext]) -> Vec<Ciphertext> {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        a.iter().zip(b).map(|(x, y)| self.add(x, y)).collect()
    }
}

impl PrivateKey {
    /// Borrow the matching public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// Eagerly builds every cache the key works under (the public
    /// half's, plus the `p²` and `q²` contexts of the CRT path).
    /// Idempotent; see [`PublicKey::precompute`].
    pub fn precompute(&self) {
        self.public.precompute();
        let _ = self.ctx_p2.context(&self.p_squared);
        let _ = self.ctx_q2.context(&self.q_squared);
    }

    /// Decrypts: `m = L(c^λ mod n²) · μ mod n`, where `L(x) = (x−1)/n`.
    ///
    /// # Errors
    ///
    /// Returns [`PaillierError::MalformedCiphertext`] if `c` is not in
    /// `Z_{n²}` or is not a unit.
    pub fn decrypt(&self, c: &Ciphertext) -> Result<Ubig, PaillierError> {
        let n = &self.public.n;
        let n2 = &self.public.n_squared;
        if c.as_raw() >= n2 || c.as_raw().is_zero() {
            return Err(PaillierError::MalformedCiphertext);
        }
        if !gcd(c.as_raw(), n).is_one() {
            return Err(PaillierError::MalformedCiphertext);
        }
        let x = self.public.pow_mod_n2(c.as_raw(), &self.lambda);
        let l = &(&x - &Ubig::one()) / n;
        Ok(modmul(&l, &self.mu, n))
    }

    /// CRT-accelerated decryption: exponentiates modulo `p²` and `q²`
    /// separately and recombines — roughly 3–4× faster than the direct
    /// form at production key sizes. Produces identical plaintexts to
    /// [`PrivateKey::decrypt`] (asserted by tests and benched as an
    /// ablation).
    ///
    /// # Errors
    ///
    /// Same as [`PrivateKey::decrypt`].
    pub fn decrypt_crt(&self, c: &Ciphertext) -> Result<Ubig, PaillierError> {
        let n2 = &self.public.n_squared;
        if c.as_raw() >= n2 || c.as_raw().is_zero() {
            return Err(PaillierError::MalformedCiphertext);
        }
        // gcd(c, n) = 1 ⟺ p ∤ c and q ∤ c — two half-size remainders
        // (reused below) instead of a binary GCD over full-width values.
        let c_p = c.as_raw() % &self.p_squared;
        let c_q = c.as_raw() % &self.q_squared;
        if (&c_p % &self.p).is_zero() || (&c_q % &self.q).is_zero() {
            return Err(PaillierError::MalformedCiphertext);
        }
        // m_p = L_p(c^{p−1} mod p²) · h_p mod p.
        let xp = self.ctx_p2.modpow(&c_p, &self.p_minus_1, &self.p_squared);
        let lp = &(&xp - &Ubig::one()) / &self.p;
        let m_p = modmul(&lp, &self.h_p, &self.p);
        let xq = self.ctx_q2.modpow(&c_q, &self.q_minus_1, &self.q_squared);
        let lq = &(&xq - &Ubig::one()) / &self.q;
        let m_q = modmul(&lq, &self.h_q, &self.q);
        // The unique value in [0, n), with the keygen-time `p⁻¹ mod q`.
        Ok(garner(&m_p, &m_q, &self.p, &self.q, &self.p_inv_q))
    }

    /// Convenience wrapper: decrypt to `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is malformed or the plaintext exceeds `u64`.
    pub fn decrypt_u64(&self, c: &Ciphertext) -> u64 {
        self.decrypt(c).expect("malformed ciphertext").to_u64().expect("plaintext exceeds u64")
    }

    /// Decrypts a slice of ciphertexts.
    ///
    /// # Errors
    ///
    /// Propagates [`PaillierError::MalformedCiphertext`] from any element.
    pub fn decrypt_vec(&self, cs: &[Ciphertext]) -> Result<Vec<Ubig>, PaillierError> {
        cs.iter().map(|c| self.decrypt(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn keypair(bits: u64) -> Keypair {
        Keypair::generate(&mut rng(), bits)
    }

    #[test]
    fn roundtrip_small_messages() {
        let kp = keypair(64);
        let mut r = rng();
        for m in [0u64, 1, 2, 41, 1000, 65535, 1 << 30] {
            let c = kp.public_key().encrypt_u64(m, &mut r);
            assert_eq!(kp.private_key().decrypt_u64(&c), m, "roundtrip {m}");
        }
    }

    #[test]
    fn roundtrip_near_modulus() {
        let kp = keypair(64);
        let mut r = rng();
        let n = kp.public_key().modulus().clone();
        let m = &n - &Ubig::one();
        let c = kp.public_key().encrypt(&m, &mut r).unwrap();
        assert_eq!(kp.private_key().decrypt(&c).unwrap(), m);
    }

    #[test]
    fn message_out_of_range_rejected() {
        let kp = keypair(64);
        let mut r = rng();
        let n = kp.public_key().modulus().clone();
        assert_eq!(kp.public_key().encrypt(&n, &mut r), Err(PaillierError::MessageOutOfRange));
    }

    #[test]
    fn homomorphic_addition() {
        let kp = keypair(64);
        let mut r = rng();
        let pk = kp.public_key();
        let c1 = pk.encrypt_u64(1234, &mut r);
        let c2 = pk.encrypt_u64(8766, &mut r);
        assert_eq!(kp.private_key().decrypt_u64(&pk.add(&c1, &c2)), 10000);
    }

    #[test]
    fn homomorphic_plain_ops() {
        let kp = keypair(64);
        let mut r = rng();
        let pk = kp.public_key();
        let c = pk.encrypt_u64(100, &mut r);
        assert_eq!(kp.private_key().decrypt_u64(&pk.add_plain(&c, &Ubig::from(23u64))), 123);
        assert_eq!(kp.private_key().decrypt_u64(&pk.mul_plain(&c, &Ubig::from(7u64))), 700);
    }

    #[test]
    fn negation_and_subtraction_wrap() {
        let kp = keypair(64);
        let mut r = rng();
        let pk = kp.public_key();
        let n = pk.modulus().clone();
        let c5 = pk.encrypt_u64(5, &mut r);
        let c3 = pk.encrypt_u64(3, &mut r);
        // 3 - 5 == n - 2 in Z_n.
        let d = kp.private_key().decrypt(&pk.sub(&c3, &c5)).unwrap();
        assert_eq!(d, &n - &Ubig::two());
        // 5 - 3 == 2.
        assert_eq!(kp.private_key().decrypt_u64(&pk.sub(&c5, &c3)), 2);
    }

    #[test]
    fn rerandomize_preserves_plaintext_changes_ciphertext() {
        let kp = keypair(64);
        let mut r = rng();
        let pk = kp.public_key();
        let c = pk.encrypt_u64(77, &mut r);
        let c2 = pk.rerandomize(&c, &mut r);
        assert_ne!(c, c2, "rerandomization must change the ciphertext");
        assert_eq!(kp.private_key().decrypt_u64(&c2), 77);
    }

    #[test]
    fn zero_ciphertext_is_identity() {
        let kp = keypair(64);
        let mut r = rng();
        let pk = kp.public_key();
        let c = pk.encrypt_u64(99, &mut r);
        let z = pk.zero_ciphertext();
        assert_eq!(kp.private_key().decrypt_u64(&pk.add(&c, &z)), 99);
        assert_eq!(kp.private_key().decrypt_u64(&z), 0);
    }

    #[test]
    fn probabilistic_encryption() {
        let kp = keypair(64);
        let mut r = rng();
        let pk = kp.public_key();
        let c1 = pk.encrypt_u64(5, &mut r);
        let c2 = pk.encrypt_u64(5, &mut r);
        assert_ne!(c1, c2, "two encryptions of the same message must differ");
    }

    #[test]
    fn vector_helpers() {
        let kp = keypair(64);
        let mut r = rng();
        let pk = kp.public_key();
        let a: Vec<Ubig> = [1u64, 2, 3].iter().map(|&v| Ubig::from(v)).collect();
        let b: Vec<Ubig> = [10u64, 20, 30].iter().map(|&v| Ubig::from(v)).collect();
        let ca = pk.encrypt_vec(&a, &mut r).unwrap();
        let cb = pk.encrypt_vec(&b, &mut r).unwrap();
        let sum = kp.private_key().decrypt_vec(&pk.add_vec(&ca, &cb)).unwrap();
        assert_eq!(sum, vec![Ubig::from(11u64), Ubig::from(22u64), Ubig::from(33u64)]);
    }

    #[test]
    fn malformed_ciphertext_rejected() {
        let kp = keypair(64);
        let bad = Ciphertext::from_raw(kp.public_key().modulus_squared().clone());
        assert_eq!(kp.private_key().decrypt(&bad), Err(PaillierError::MalformedCiphertext));
        let zero = Ciphertext::from_raw(Ubig::zero());
        assert_eq!(kp.private_key().decrypt(&zero), Err(PaillierError::MalformedCiphertext));
    }

    #[test]
    fn larger_keys_work() {
        let mut r = rng();
        let kp = Keypair::generate(&mut r, 256);
        let pk = kp.public_key();
        assert!(pk.modulus().bits() >= 255);
        let c = pk.encrypt_u64(123_456_789, &mut r);
        assert_eq!(kp.private_key().decrypt_u64(&c), 123_456_789);
    }

    #[test]
    fn crt_decryption_matches_direct() {
        let kp = keypair(64);
        let mut r = rng();
        let pk = kp.public_key();
        let n = pk.modulus().clone();
        for m in [0u64, 1, 42, 65535, 1 << 31] {
            let c = pk.encrypt_u64(m, &mut r);
            assert_eq!(
                kp.private_key().decrypt_crt(&c).unwrap(),
                kp.private_key().decrypt(&c).unwrap(),
                "CRT mismatch at {m}"
            );
        }
        // Near-modulus message.
        let m = &n - &Ubig::one();
        let c = pk.encrypt(&m, &mut r).unwrap();
        assert_eq!(kp.private_key().decrypt_crt(&c).unwrap(), m);
        // Malformed input rejected identically.
        let bad = Ciphertext::from_raw(pk.modulus_squared().clone());
        assert_eq!(kp.private_key().decrypt_crt(&bad), Err(PaillierError::MalformedCiphertext));
    }

    #[test]
    fn crt_decryption_at_larger_keys() {
        let mut r = rng();
        let kp = Keypair::generate(&mut r, 256);
        let c = kp.public_key().encrypt_u64(987_654_321, &mut r);
        assert_eq!(kp.private_key().decrypt_crt(&c).unwrap(), Ubig::from(987_654_321u64));
    }

    #[test]
    fn generated_key_has_the_djn_shape() {
        let kp = keypair(64);
        let (pk, sk) = (kp.public_key(), kp.private_key());
        for prime in [&sk.p, &sk.q] {
            assert_eq!(prime.rem_limb(4), 3);
        }
        // hs is an n-th power: an encryption of zero.
        let hs = Ciphertext::from_raw(pk.randomizer_base().clone());
        assert_eq!(sk.decrypt(&hs).unwrap(), Ubig::zero());
        assert_eq!(pk.randomizer_bits(), pk.modulus().bits().div_ceil(2));
        // The CRT power keygen computes hs with is the direct power.
        for r in [2u64, 12345, u64::MAX] {
            let r = Ubig::from(r) % pk.modulus();
            let by_crt = pow_n_crt(&r, (&sk.p, &sk.p_squared), (&sk.q, &sk.q_squared), &sk.p_inv_q);
            assert_eq!(by_crt, pk.pow_mod_n2(&r, pk.modulus()));
        }
    }

    #[test]
    fn debug_prints_no_secret() {
        let kp = keypair(128);
        let sk = kp.private_key();
        let shown = format!("{kp:?} {sk:?}");
        assert!(shown.contains(&format!("{:?}", kp.public_key())), "public half is shown");
        assert!(shown.contains("<redacted>"));
        for secret in [&sk.p, &sk.q, &sk.lambda, &sk.mu, &sk.p_inv_q, &sk.h_p, &sk.h_q] {
            for digits in [secret.to_string(), secret.to_str_radix(16)] {
                assert!(!shown.contains(&digits), "{digits} leaked into {shown}");
            }
        }
    }

    #[test]
    fn malformed_public_keys_are_rejected() {
        let kp = keypair(64);
        let pk = kp.public_key();
        let (n, hs, n2) = (pk.modulus(), pk.randomizer_base(), pk.modulus_squared());
        let built = PublicKey::from_parts(n.clone(), hs.clone()).unwrap();
        assert_eq!(&built, pk);
        assert_eq!(built.modulus_squared(), &n.square(), "n² recomputed from n");
        let c = built.encrypt_u64(77, &mut rng());
        assert_eq!(kp.private_key().decrypt_u64(&c), 77);
        let p = kp.private_key().p.clone();
        for (bad_n, bad_hs) in [
            (n.clone(), Ubig::zero()),
            (n.clone(), Ubig::one()),
            (n.clone(), n2.clone()),
            (n.clone(), n2 + hs),
            (n.clone(), &p * &Ubig::from(5u64)),
            (n + &Ubig::one(), hs.clone()),
            (Ubig::one(), Ubig::zero()),
            (Ubig::zero(), hs.clone()),
        ] {
            assert_eq!(
                PublicKey::from_parts(bad_n.clone(), bad_hs.clone()),
                Err(PaillierError::MalformedKey),
                "n = {bad_n}, hs = {bad_hs}"
            );
        }
    }

    #[test]
    fn deterministic_encryption_with_fixed_randomness() {
        let kp = keypair(64);
        let pk = kp.public_key();
        let r = Ubig::from(12345u64);
        let c1 = pk.encrypt_with_randomness(&Ubig::from(7u64), &r);
        let c2 = pk.encrypt_with_randomness(&Ubig::from(7u64), &r);
        assert_eq!(c1, c2);
    }
}
