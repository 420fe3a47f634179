//! Key generation and the encrypt/decrypt core of the Paillier scheme.

use bigint::gcd::{gcd, lcm, modinv};
use bigint::modular::{modmul, modsub};
use bigint::montgomery::CachedContext;
use bigint::prime::gen_prime;
use bigint::{random, Ubig};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ciphertext::Ciphertext;
use crate::error::PaillierError;

/// Paillier public key: the modulus `n` (with `n²` cached) under which
/// anyone can encrypt and combine ciphertexts homomorphically.
///
/// The generator is fixed to `g = n + 1`, the standard choice that makes
/// encryption a single modular multiplication:
/// `E[m] = (1 + m·n) · r^n mod n²`.
///
/// The key embeds a lazily built Montgomery context for `n²` so every
/// exponentiation under the key (`r^n`, `E[m]^a`, rerandomization,
/// [`crate::RandomizerPool`] generation) reuses one precomputation
/// instead of rebuilding it per call. The cache is transparent: it is
/// skipped by serde (rebuilt on first use after deserialization) and
/// ignored by equality. Call [`PublicKey::precompute`] to pay the setup
/// cost eagerly, e.g. before timing-sensitive protocol rounds:
///
/// ```
/// use paillier::Keypair;
/// let kp = Keypair::generate(&mut rand::thread_rng(), 64);
/// let pk = kp.public_key();
/// pk.precompute(); // warm the n² Montgomery context (optional)
/// let c = pk.encrypt_u64(7, &mut rand::thread_rng());
/// assert_eq!(kp.private_key().decrypt_u64(&c), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublicKey {
    n: Ubig,
    n_squared: Ubig,
    /// Montgomery context for `Z_{n²}`, built once per key on first use.
    #[serde(skip)]
    ctx_n2: CachedContext,
}

/// Paillier private key: the factorization-derived trapdoor
/// `λ = lcm(p−1, q−1)` and `μ = λ⁻¹ mod n`, plus the prime factors and
/// precomputed constants for CRT-accelerated decryption.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Montgomery context for `Z_{p²}` (CRT decryption and own-key
    /// encryption), built lazily.
    #[serde(skip)]
    ctx_p2: CachedContext,
    /// Montgomery context for `Z_{q²}`, built lazily.
    #[serde(skip)]
    ctx_q2: CachedContext,
    /// Montgomery contexts for `Z_p` and `Z_q` (own-key encryption),
    /// built lazily.
    #[serde(skip)]
    ctx_p: CachedContext,
    #[serde(skip)]
    ctx_q: CachedContext,
}

/// A freshly generated public/private keypair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Keypair {
    /// The public half.
    public: PublicKey,
    /// The private half.
    private: PrivateKey,
}

impl Keypair {
    /// Generates a keypair with an (approximately) `modulus_bits`-bit `n`.
    ///
    /// The two primes are `modulus_bits / 2` bits each, so `n` has
    /// `modulus_bits` or `modulus_bits - 1` bits. Primes are regenerated
    /// until `gcd(n, (p−1)(q−1)) = 1` and `p ≠ q`.
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
            let p = gen_prime(rng, prime_bits);
            let q = gen_prime(rng, prime_bits);
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
            let n_squared = n.square();
            let public = PublicKey { n, n_squared, ctx_n2: CachedContext::new() };
            // CRT precomputation: with g = 1+n and n² ≡ 0 (mod p²),
            // g^{p−1} mod p² = 1 + (p−1)·n, so
            // L_p(g^{p−1} mod p²) = (p−1)·q mod p (and symmetrically).
            let h_p = modinv(&modmul(&p1, &q, &p), &p).expect("q invertible mod p");
            let h_q = modinv(&modmul(&q1, &p, &q), &q).expect("p invertible mod q");
            let p_inv_q = modinv(&p, &q).expect("distinct primes are coprime");
            let private = PrivateKey {
                public: public.clone(),
                lambda,
                mu,
                p_squared: p.square(),
                q_squared: q.square(),
                p,
                q,
                h_p,
                h_q,
                p_minus_1: p1,
                q_minus_1: q1,
                p_inv_q,
                ctx_p2: CachedContext::new(),
                ctx_q2: CachedContext::new(),
                ctx_p: CachedContext::new(),
                ctx_q: CachedContext::new(),
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

impl PublicKey {
    /// The modulus `n`; plaintexts live in `Z_n`.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// The ciphertext modulus `n²`.
    pub fn modulus_squared(&self) -> &Ubig {
        &self.n_squared
    }

    /// Eagerly builds the Montgomery context for `n²` so the first
    /// encryption does not pay the one-time setup cost. Idempotent and
    /// cheap after the first call; useful before latency-sensitive
    /// protocol rounds or before sharing the key across worker threads.
    pub fn precompute(&self) {
        let _ = self.ctx_n2.context(&self.n_squared);
    }

    /// `base^exp mod n²` through the per-key cached Montgomery context.
    pub(crate) fn pow_mod_n2(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.ctx_n2.modpow(base, exp, &self.n_squared)
    }

    /// The cached `n²` Montgomery context itself, for batch kernels
    /// ([`bigint::montgomery::MontgomeryContext::modpow_multi`]) that need
    /// more than one exponentiation per call. Always `Some` for RSA-like
    /// keys (`n²` is odd), `None` only for degenerate test moduli.
    pub(crate) fn ctx_n2(&self) -> Option<&std::sync::Arc<bigint::montgomery::MontgomeryContext>> {
        self.ctx_n2.context(&self.n_squared)
    }

    /// Encrypts a plaintext `m ∈ Z_n`:
    /// `E[m] = (1 + m·n) · r^n mod n²` with uniform `r ∈ Z_n^*`.
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
        let r = random::gen_coprime(rng, &self.n);
        Ok(self.encrypt_with_randomness(m, &r))
    }

    /// Deterministic encryption with caller-chosen randomness `r`; used by
    /// tests and by protocol transcripts that must be replayable.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `m >= n`.
    pub fn encrypt_with_randomness(&self, m: &Ubig, r: &Ubig) -> Ciphertext {
        self.combine(m, &self.pow_mod_n2(r, &self.n))
    }

    /// `(1 + m·n) · r_n mod n²`: the ciphertext of `m < n` blinded by
    /// `r_n = r^n mod n²`, however that power was computed.
    fn combine(&self, m: &Ubig, r_n: &Ubig) -> Ciphertext {
        debug_assert!(m < &self.n, "message must be reduced mod n");
        // g^m = (1+n)^m = 1 + m*n (mod n^2) for g = n+1.
        let g_m = &(Ubig::one() + modmul(m, &self.n, &self.n_squared)) % &self.n_squared;
        Ciphertext::from_raw(modmul(&g_m, r_n, &self.n_squared))
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
        let r = random::gen_coprime(rng, &self.n);
        let r_n = self.pow_mod_n2(&r, &self.n);
        Ciphertext::from_raw(modmul(c.as_raw(), &r_n, &self.n_squared))
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

    /// Eagerly builds all Montgomery contexts the key works under (`n²`
    /// via the embedded public key, `p²` and `q²` for the CRT paths, `p`
    /// and `q` for own-key encryption). Idempotent; see
    /// [`PublicKey::precompute`].
    pub fn precompute(&self) {
        self.public.precompute();
        let _ = self.ctx_p2.context(&self.p_squared);
        let _ = self.ctx_q2.context(&self.q_squared);
        let _ = self.ctx_p.context(&self.p);
        let _ = self.ctx_q.context(&self.q);
    }

    /// Encrypts under the key's **own** public half, using the
    /// factorization: the same `E[m] = (1 + m·n) · r^n mod n²` as
    /// [`PublicKey::encrypt`], from the same single RNG draw, so for equal
    /// RNG states the two return byte-identical ciphertexts — only the
    /// route to `r^n` differs. About 2.6× cheaper at deployable key sizes.
    ///
    /// # Errors
    ///
    /// Returns [`PaillierError::MessageOutOfRange`] if `m >= n`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &Ubig,
        rng: &mut R,
    ) -> Result<Ciphertext, PaillierError> {
        let pk = &self.public;
        if m >= &pk.n {
            return Err(PaillierError::MessageOutOfRange);
        }
        let r = random::gen_coprime(rng, &pk.n);
        Ok(pk.combine(m, &self.pow_n_crt(&r)))
    }

    /// `r^n mod n²` for `r` coprime to `n`, by CRT over `p²` and `q²`.
    ///
    /// `x^p mod p²` depends only on `x mod p` (every other binomial term
    /// carries `p²`), so with `n = p·q`
    /// `r^n ≡ (r^q mod p)^p (mod p²)`, and Fermat reduces the inner
    /// exponent to `q mod (p−1)`: one half-width exponentiation mod `p`
    /// and one mod `p²`, each over a `|p|`-bit exponent, instead of an
    /// `|n|`-bit exponent mod `n²`. The halves recombine by Garner's
    /// formula, as in [`PrivateKey::decrypt_crt`].
    fn pow_n_crt(&self, r: &Ubig) -> Ubig {
        let y_p = self.ctx_p.modpow(&(r % &self.p), &(&self.q % &self.p_minus_1), &self.p);
        let x_p = self.ctx_p2.modpow(&y_p, &self.p, &self.p_squared);
        let y_q = self.ctx_q.modpow(&(r % &self.q), &(&self.p % &self.q_minus_1), &self.q);
        let x_q = self.ctx_q2.modpow(&y_q, &self.q, &self.q_squared);
        // x = x_p + p²·((x_q − x_p)·(p²)⁻¹ mod q²). With u = p⁻¹ mod q,
        // one Hensel step gives p⁻¹ mod q² = u·(2 − p·u), and its square
        // is (p²)⁻¹ mod q².
        let q2 = &self.q_squared;
        let pu = modmul(&self.p, &self.p_inv_q, q2);
        let p_inv_q2 = modmul(&self.p_inv_q, &modsub(&Ubig::two(), &pu, q2), q2);
        let t = modmul(&modmul(&modsub(&x_q, &x_p, q2), &p_inv_q2, q2), &p_inv_q2, q2);
        &x_p + &(&self.p_squared * &t)
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
        // Garner recombination with the keygen-time `p⁻¹ mod q`:
        // m = m_p + p·((m_q − m_p)·p⁻¹ mod q), the unique value in
        // [0, n) — identical to a general CRT solve, minus its per-call
        // extended GCD.
        let t = modmul(&modsub(&m_q, &m_p, &self.q), &self.p_inv_q, &self.q);
        Ok(&m_p + &(&self.p * &t))
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
    fn own_key_encryption_is_byte_identical_to_public() {
        let kp = keypair(64);
        let (pk, sk) = (kp.public_key(), kp.private_key());
        let n_minus_1 = pk.modulus() - &Ubig::one();
        for m in [Ubig::zero(), Ubig::from(41u64), n_minus_1] {
            let public = pk.encrypt(&m, &mut StdRng::seed_from_u64(9)).unwrap();
            let own = sk.encrypt(&m, &mut StdRng::seed_from_u64(9)).unwrap();
            assert_eq!(own.as_raw().to_le_bytes(), public.as_raw().to_le_bytes());
        }
        assert_eq!(sk.encrypt(pk.modulus(), &mut rng()), Err(PaillierError::MessageOutOfRange));
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
