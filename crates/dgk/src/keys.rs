//! DGK key generation, encryption, decryption and the zero test.
//!
//! Key structure (following DGK 2007/2009):
//!
//! * `u` — a small prime bounding the plaintext space `Z_u`;
//! * `v_p`, `v_q` — secret `t`-bit primes;
//! * `p`, `q` — primes with `u·v_p | p−1` and `u·v_q | q−1`; `n = p·q`;
//! * `g` — an element of `Z_n^*` of order `u·v_p·v_q`;
//! * `h` — an element of `Z_n^*` of order `v_p·v_q`.
//!
//! Encryption: `E(m) = g^m · h^r mod n` for random `r`. The private-key
//! holder tests `m = 0` by checking `E(m)^{v_p} ≡ 1 (mod p)`, because
//! raising to `v_p` kills the `h` component mod `p` and leaves
//! `(g^{v_p})^m`, which is 1 iff `u | m`. Full decryption walks a small
//! lookup table of `(g^{v_p})^m mod p` for `m ∈ Z_u`.
//!
//! The same structure makes the holder's own bit encryptions cheap:
//! `h` has order `v_p` modulo `p` and `v_q` modulo `q`, so
//! [`DgkPrivateKey::encrypt_bit`] computes the very ciphertext
//! [`DgkPublicKey::encrypt_bit`] would — same `r`, same bytes — as two
//! half-width combs over `|v|`-bit exponents and a Garner step.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bigint::gcd::modinv;
use bigint::modular::{garner, modmul};
use bigint::montgomery::{
    comb_cost_ns, mont_cost_ns, CachedComb, CachedContext, CrtComb, CrtResidue, FixedBaseComb,
    MontgomeryContext, PowScratch,
};
use bigint::prime::{gen_prime, gen_prime_with_divisor, next_prime};
use bigint::{random, Ubig};
use rand::Rng;

use crate::error::DgkError;

/// Size parameters for DGK key generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgkParams {
    /// Bits of the RSA-like modulus `n`.
    pub modulus_bits: u64,
    /// Bits of the secret subgroup primes `v_p`, `v_q`.
    pub subgroup_bits: u64,
    /// Input bit width `ℓ` of the comparison protocol; determines the
    /// plaintext prime `u > 3ℓ + 5`.
    pub compare_bits: u32,
}

impl DgkParams {
    /// Parameters matching the paper's prototype scale: a small modulus
    /// in line with its 64-bit Paillier keys. **Not cryptographically
    /// strong** — reproduction scale, like the paper's.
    pub fn paper() -> Self {
        DgkParams { modulus_bits: 256, subgroup_bits: 40, compare_bits: 40 }
    }

    /// Tiny parameters for fast unit tests. Insecure by construction.
    /// `compare_bits` matches `smc::ShareDomain::test()`.
    pub fn insecure_test() -> Self {
        DgkParams { modulus_bits: 128, subgroup_bits: 24, compare_bits: 26 }
    }

    /// The plaintext-space prime `u`: smallest prime exceeding `3ℓ + 5`,
    /// large enough that every value the comparison protocol encrypts
    /// (`a_i − b_i − 1 + 3·Σ w_j ∈ [−2, 3ℓ+1]`) is distinguishable mod `u`.
    pub fn plaintext_prime<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        next_prime(&Ubig::from(3 * self.compare_bits as u64 + 6), rng)
    }
}

impl Default for DgkParams {
    fn default() -> Self {
        DgkParams::paper()
    }
}

/// DGK public key.
///
/// The key embeds lazily built exponentiation caches: a Montgomery
/// context for `n` plus fixed-base combs
/// ([`bigint::montgomery::FixedBaseComb`]) for the generators `g` and
/// `h`, which never change over the key's lifetime. Encryption is then
/// two comb evaluations joined in Montgomery form (`g^m · h^r`) — the
/// multi-x win the comparison-heavy protocol steps (Alg. 2, SVT) ride
/// on. The caches are ignored by equality and shared by every clone
/// taken after they are built; [`DgkKeypair::generate`] builds them, and
/// [`DgkPublicKey::precompute`] is idempotent:
///
/// ```
/// use dgk::{DgkKeypair, DgkParams};
/// let keys = DgkKeypair::generate(&mut rand::thread_rng(), &DgkParams::insecure_test());
/// let pk = keys.public_key();
/// pk.precompute(); // idempotent
/// let c = pk.encrypt_u64(3, &mut rand::thread_rng());
/// assert_eq!(keys.private_key().decrypt(&c).unwrap(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DgkPublicKey {
    n: Ubig,
    g: Ubig,
    h: Ubig,
    u: Ubig,
    /// Blinding exponent bit length for `h^r` (2.5·t in DGK; we use 2t+16).
    blind_bits: u64,
    /// Comparison input width carried with the key so both parties agree.
    compare_bits: u32,
    /// Montgomery context for `Z_n`, built once per key on first use.
    ctx_n: CachedContext,
    /// Comb for `g` (exponents `< u`, i.e. `u.bits()` wide).
    comb_g: CachedComb,
    /// Comb for `h` (exponents `blind_bits` wide).
    comb_h: CachedComb,
}

/// DGK private key: the factors, subgroup primes and decryption table.
///
/// `Debug` prints the public half only.
#[derive(Clone)]
pub struct DgkPrivateKey {
    public: DgkPublicKey,
    p: Ubig,
    v_p: Ubig,
    /// `g^{v_p} mod p`, the generator of the order-`u` subgroup used by
    /// table decryption.
    g_vp: Ubig,
    /// Lookup table `(g^{v_p})^m mod p → m` for all `m ∈ Z_u`.
    table: HashMap<Ubig, u64>,
    /// Montgomery context for `Z_p` — the zero test `c^{v_p} mod p` is
    /// DGK's signature operation and runs entirely under this context.
    ctx_p: Arc<MontgomeryContext>,
    /// `h^r mod n` the key holder's way: `h` has order `v_p` mod `p` and
    /// `v_q` mod `q`, so the blinding factor is two `|v|`-bit combs at
    /// half the limb count and a Garner step. Carries the second prime's
    /// half of the trapdoor (`q`, `v_q`, `p⁻¹ mod q`); shared by clones.
    h_crt: Arc<CrtComb>,
    /// `g mod p` and `g mod q`, the factor a 1-bit multiplies in.
    g_crt: CrtResidue,
}

impl fmt::Debug for DgkPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DgkPrivateKey")
            .field("public", &self.public)
            .field("secret", &format_args!("<redacted>"))
            .finish()
    }
}

/// A DGK public/private keypair. `Debug` prints the public half only.
#[derive(Clone)]
pub struct DgkKeypair {
    public: DgkPublicKey,
    private: DgkPrivateKey,
}

impl fmt::Debug for DgkKeypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DgkKeypair")
            .field("public", &self.public)
            .field("private", &format_args!("<redacted>"))
            .finish()
    }
}

/// A DGK ciphertext: an element of `Z_n^*`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DgkCiphertext(Ubig);

impl DgkCiphertext {
    /// Wraps a raw group element.
    pub fn from_raw(value: Ubig) -> Self {
        DgkCiphertext(value)
    }

    /// Borrow the raw group element.
    pub fn as_raw(&self) -> &Ubig {
        &self.0
    }

    /// Serialized size in bytes, for communication accounting.
    pub fn byte_len(&self) -> usize {
        self.0.to_le_bytes().len()
    }
}

/// Finds an element of order exactly `target_order` in `Z_p^*`, where
/// `target_order | p−1` and `order_prime_factors` are the distinct primes
/// dividing `target_order`. All trial exponentiations share the caller's
/// Montgomery context for `p` instead of rebuilding one per candidate.
fn find_element_of_order<R: Rng + ?Sized>(
    rng: &mut R,
    ctx: &MontgomeryContext,
    target_order: &Ubig,
    order_prime_factors: &[&Ubig],
) -> Ubig {
    let p_minus_1 = ctx.modulus() - &Ubig::one();
    let cofactor = &p_minus_1 / target_order;
    loop {
        let r = random::gen_range(rng, &Ubig::two(), &p_minus_1);
        let candidate = ctx.modpow(&r, &cofactor);
        if candidate.is_one() {
            continue;
        }
        // candidate has order dividing target_order; verify it is exact by
        // checking no proper divisor (target_order / f) is an order.
        let exact = order_prime_factors
            .iter()
            .all(|f| !ctx.modpow(&candidate, &(target_order / *f)).is_one());
        if exact {
            return candidate;
        }
    }
}

impl DgkKeypair {
    /// Generates a DGK keypair.
    ///
    /// ```
    /// use dgk::{DgkKeypair, DgkParams};
    /// let keys = DgkKeypair::generate(&mut rand::thread_rng(), &DgkParams::insecure_test());
    /// assert!(keys.public_key().modulus().bits() > 100);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (modulus too small to fit
    /// the subgroup structure).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, params: &DgkParams) -> DgkKeypair {
        let u = params.plaintext_prime(rng);
        let t = params.subgroup_bits;
        let half = params.modulus_bits / 2;
        assert!(
            half > t + u.bits() + 2,
            "modulus_bits too small for subgroup_bits + plaintext prime"
        );

        let (p, v_p) = loop {
            let v_p = gen_prime(rng, t);
            if v_p == u {
                continue;
            }
            let p = gen_prime_with_divisor(rng, half, &(&u * &v_p));
            break (p, v_p);
        };
        let (q, v_q) = loop {
            let v_q = gen_prime(rng, t);
            if v_q == v_p || v_q == u {
                continue;
            }
            let q = gen_prime_with_divisor(rng, half, &(&u * &v_q));
            if q == p {
                continue;
            }
            break (q, v_q);
        };
        let n = &p * &q;

        // One Montgomery context per prime serves every keygen
        // exponentiation below (generator search, g_vp, table build) and
        // then moves into the private key.
        let ctx_p = Arc::new(MontgomeryContext::new(&p).expect("p is an odd prime"));
        let ctx_q = Arc::new(MontgomeryContext::new(&q).expect("q is an odd prime"));
        let p_inv_q = modinv(&p, &q).expect("p, q distinct primes");

        // g: order u*v_p mod p and u*v_q mod q → order u*v_p*v_q mod n.
        let g_p = find_element_of_order(rng, &ctx_p, &(&u * &v_p), &[&u, &v_p]);
        let g_q = find_element_of_order(rng, &ctx_q, &(&u * &v_q), &[&u, &v_q]);
        let g = garner(&g_p, &g_q, &p, &q, &p_inv_q);

        // h: order v_p mod p and v_q mod q → order v_p*v_q mod n.
        let h_p = find_element_of_order(rng, &ctx_p, &v_p, &[&v_p]);
        let h_q = find_element_of_order(rng, &ctx_q, &v_q, &[&v_q]);
        let h = garner(&h_p, &h_q, &p, &q, &p_inv_q);

        let public = DgkPublicKey {
            n,
            g,
            h,
            u: u.clone(),
            blind_bits: 2 * t + 16,
            compare_bits: params.compare_bits,
            ctx_n: CachedContext::new(),
            comb_g: CachedComb::new(),
            comb_h: CachedComb::new(),
        };
        // Built before the key is copied into the private half, so both
        // halves and every later clone share one context and two combs.
        public.precompute();

        // Decryption table over the order-u subgroup generated by g^{v_p}.
        let g_vp = ctx_p.modpow(&public.g, &v_p);
        let u64_u = u.to_u64().expect("u is small");
        let mut table = HashMap::with_capacity(u64_u as usize);
        let mut acc = Ubig::one();
        for m in 0..u64_u {
            table.insert(acc.clone(), m);
            acc = modmul(&acc, &g_vp, &p);
        }

        let h_crt = CrtComb::new(Arc::clone(&ctx_p), ctx_q, &p_inv_q, &public.h, (&v_p, &v_q));
        let g_crt = h_crt.residue(&public.g);
        let private = DgkPrivateKey {
            public: public.clone(),
            p,
            v_p,
            g_vp,
            table,
            ctx_p,
            h_crt: Arc::new(h_crt),
            g_crt,
        };
        DgkKeypair { public, private }
    }

    /// Borrow the public key.
    pub fn public_key(&self) -> &DgkPublicKey {
        &self.public
    }

    /// Borrow the private key.
    pub fn private_key(&self) -> &DgkPrivateKey {
        &self.private
    }

    /// Consumes the keypair into `(public, private)` halves.
    pub fn split(self) -> (DgkPublicKey, DgkPrivateKey) {
        (self.public, self.private)
    }
}

impl DgkPublicKey {
    /// The modulus `n`.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// The plaintext-space prime `u`.
    pub fn plaintext_space(&self) -> &Ubig {
        &self.u
    }

    /// The message generator `g` (order `u·v_p·v_q`).
    pub fn generator_g(&self) -> &Ubig {
        &self.g
    }

    /// The bit length of the blinding exponent `r` in `h^r`.
    pub fn blind_bits(&self) -> u64 {
        self.blind_bits
    }

    /// The comparison input width `ℓ` the key was generated for.
    pub fn compare_bits(&self) -> u32 {
        self.compare_bits
    }

    /// Eagerly builds the key's exponentiation caches: the Montgomery
    /// context for `n` and the combs for `g` and `h`. Idempotent; without
    /// it the caches are built on first use.
    pub fn precompute(&self) {
        let _ = (self.g_comb(), self.h_comb());
    }

    /// `base^exp mod n` through the per-key cached Montgomery context.
    pub(crate) fn pow_mod_n(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.ctx_n().modpow(base, exp)
    }

    /// The cached `Z_n` Montgomery context, built on first use.
    pub(crate) fn ctx_n(&self) -> &Arc<MontgomeryContext> {
        self.ctx_n.context(&self.n).expect("n = p·q is odd: the only constructor multiplies primes")
    }

    /// The comb for `g` (exponents live in `Z_u`).
    fn g_comb(&self) -> &Arc<FixedBaseComb> {
        self.comb_g.comb(self.ctx_n(), &self.g, self.u.bits())
    }

    /// The comb for `h` (exponents are `blind_bits` wide).
    fn h_comb(&self) -> &Arc<FixedBaseComb> {
        self.comb_h.comb(self.ctx_n(), &self.h, self.blind_bits)
    }

    /// Encrypts `m ∈ Z_u`: `E(m) = g^m · h^r mod n`.
    ///
    /// # Errors
    ///
    /// Returns [`DgkError::MessageOutOfRange`] if `m >= u`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        m: &Ubig,
        rng: &mut R,
    ) -> Result<DgkCiphertext, DgkError> {
        if m >= &self.u {
            return Err(DgkError::MessageOutOfRange);
        }
        let r = random::gen_bits(rng, self.blind_bits);
        // One fixed-base double exponentiation over the two combs, joined
        // in Montgomery form.
        Ok(DgkCiphertext(self.g_comb().pow_mul(m, self.h_comb(), &r)))
    }

    /// Encrypts a `u64` plaintext (reduced check against `u`).
    ///
    /// # Panics
    ///
    /// Panics if `m >= u`.
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> DgkCiphertext {
        self.encrypt(&Ubig::from(m), rng).expect("message exceeds u")
    }

    /// Encrypts a single bit.
    pub fn encrypt_bit<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> DgkCiphertext {
        self.encrypt_u64(bit as u64, rng)
    }

    /// Homomorphic addition: `E(m1 + m2 mod u) = E(m1)·E(m2) mod n`.
    pub fn add(&self, c1: &DgkCiphertext, c2: &DgkCiphertext) -> DgkCiphertext {
        DgkCiphertext(modmul(&c1.0, &c2.0, &self.n))
    }

    /// Homomorphic plaintext addition: multiplies by `g^k` (a comb
    /// evaluation).
    pub fn add_plain(&self, c: &DgkCiphertext, k: &Ubig) -> DgkCiphertext {
        DgkCiphertext(self.g_comb().pow_times(&(k % &self.u), &c.0))
    }

    /// Homomorphic scalar multiplication: `E(a·m mod u) = E(m)^a mod n`
    /// under the key's cached Montgomery context.
    pub fn mul_plain(&self, c: &DgkCiphertext, a: &Ubig) -> DgkCiphertext {
        DgkCiphertext(self.pow_mod_n(&c.0, a))
    }

    /// Homomorphic negation: `E(−m mod u) = E(m)^{u−1}`.
    pub fn neg(&self, c: &DgkCiphertext) -> DgkCiphertext {
        self.mul_plain(c, &(&self.u - &Ubig::one()))
    }

    /// Rerandomizes a ciphertext by multiplying with a fresh `h^r` (a comb
    /// evaluation whose last product takes the ciphertext in).
    pub fn rerandomize<R: Rng + ?Sized>(&self, c: &DgkCiphertext, rng: &mut R) -> DgkCiphertext {
        let r = random::gen_bits(rng, self.blind_bits);
        DgkCiphertext(self.h_comb().pow_times(&r, &c.0))
    }

    /// Rough wall-clock model (ns) for one blinded witness of the
    /// comparison's round 2 (`crate::comparison::blinder_build_witnesses`),
    /// used to hint [`parallel::Parallelism`] splitting: a 3-base
    /// interleaved multi-exponentiation with `~2|u|`-bit exponents (one
    /// shared squaring chain, a product per set bit per base) and the
    /// `h^{r'}` comb, all over `Z_n`.
    pub fn witness_cost_ns(&self) -> u64 {
        let (n_bits, exp_bits) = (self.n.bits(), 2 * self.u.bits());
        mont_cost_ns(n_bits, exp_bits, 3 * exp_bits / 2) + comb_cost_ns(n_bits, self.blind_bits)
    }
}

impl DgkPrivateKey {
    /// Borrow the matching public key.
    pub fn public_key(&self) -> &DgkPublicKey {
        &self.public
    }

    /// Eagerly builds the public key's context and combs. The private
    /// half has no lazy state: key generation hands it the `Z_p`/`Z_q`
    /// contexts it already built.
    pub fn precompute(&self) {
        self.public.precompute();
    }

    /// Encrypts a single bit as the key holder: the same ciphertext
    /// `g^b · h^r mod n` as [`DgkPublicKey::encrypt_bit`] from the same
    /// `r`, drawn the same way from `rng` — equal byte for byte, and the
    /// generator left in the same state — computed over `Z_p × Z_q` with
    /// the exponent cut to `h`'s order in each (see
    /// [`bigint::montgomery::CrtComb`]). This is the evaluator's route in
    /// [`crate::comparison`]; the public route stays as the reference.
    pub fn encrypt_bit<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> DgkCiphertext {
        self.encrypt_bit_with(bit, &random::gen_bits(rng, self.public.blind_bits))
    }

    /// `g^bit · h^r mod n` over `Z_p × Z_q`.
    fn encrypt_bit_with(&self, bit: bool, r: &Ubig) -> DgkCiphertext {
        DgkCiphertext(if bit { self.h_crt.pow_mul(r, &self.g_crt) } else { self.h_crt.pow(r) })
    }

    /// The zero test: whether the ciphertext encrypts `0`, decided by
    /// `c^{v_p} mod p == 1` under the key's `Z_p` context. This is
    /// DGK's cheap signature operation.
    ///
    /// # Errors
    ///
    /// Returns [`DgkError::MalformedCiphertext`] for values outside `Z_n`.
    pub fn is_zero(&self, c: &DgkCiphertext) -> Result<bool, DgkError> {
        self.is_zero_scratch(c, &mut PowScratch::new())
    }

    /// [`DgkPrivateKey::is_zero`] with caller-owned working buffers, so a
    /// loop over many ciphertexts pays zero heap allocation per test
    /// after the first. Bit-exact with `is_zero`.
    pub(crate) fn is_zero_scratch(
        &self,
        c: &DgkCiphertext,
        ws: &mut PowScratch,
    ) -> Result<bool, DgkError> {
        if c.0 >= self.public.n || c.0.is_zero() {
            return Err(DgkError::MalformedCiphertext);
        }
        Ok(self.ctx_p.modpow_with_scratch(&c.0, &self.v_p, ws).is_one())
    }

    /// Batched zero test: one scratch-reusing half-size exponentiation
    /// per ciphertext (the CRT form — each test runs mod `p` only, never
    /// mod `n`).
    ///
    /// # Errors
    ///
    /// Returns the first [`DgkError::MalformedCiphertext`] in input order.
    pub fn is_zero_batch(&self, cs: &[DgkCiphertext]) -> Result<Vec<bool>, DgkError> {
        let mut ws = PowScratch::new();
        cs.iter().map(|c| self.is_zero_scratch(c, &mut ws)).collect()
    }

    /// Rough wall-clock model (ns) for one zero test (`v_p`-bit exponent
    /// mod `p`), used to hint [`parallel::Parallelism`] splitting.
    pub fn zero_test_cost_ns(&self) -> u64 {
        bigint::montgomery::modpow_cost_ns(self.p.bits(), self.v_p.bits())
    }

    /// As [`DgkPrivateKey::zero_test_cost_ns`] for one
    /// [`DgkPrivateKey::encrypt_bit`]: a `|v_p|`-bit comb under each
    /// prime (`q` and `v_q` are as wide as `p` and `v_p`) and the
    /// handful of half-width products of the `g` factor and Garner step.
    pub fn encrypt_bit_cost_ns(&self) -> u64 {
        let half = self.p.bits();
        2 * comb_cost_ns(half, self.v_p.bits()) + mont_cost_ns(half, 0, 6)
    }

    /// Full decryption by table lookup over `Z_u`.
    ///
    /// # Errors
    ///
    /// Returns [`DgkError::MalformedCiphertext`] for out-of-group values and
    /// [`DgkError::DecryptionFailed`] if the lookup misses (which indicates
    /// the ciphertext was not produced under this key).
    pub fn decrypt(&self, c: &DgkCiphertext) -> Result<u64, DgkError> {
        if c.0 >= self.public.n || c.0.is_zero() {
            return Err(DgkError::MalformedCiphertext);
        }
        let reduced = self.ctx_p.modpow(&c.0, &self.v_p);
        self.table.get(&reduced).copied().ok_or(DgkError::DecryptionFailed)
    }

    /// Generator of the order-`u` subgroup mod `p` (exposed for tests).
    pub fn subgroup_generator(&self) -> &Ubig {
        &self.g_vp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigint::modular::modpow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// Shared keypair: generation dominates test time otherwise.
    fn keys() -> &'static DgkKeypair {
        static KEYS: OnceLock<DgkKeypair> = OnceLock::new();
        KEYS.get_or_init(|| {
            DgkKeypair::generate(&mut StdRng::seed_from_u64(11), &DgkParams::insecure_test())
        })
    }

    #[test]
    fn roundtrip_all_plaintexts() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(1);
        let u = kp.public_key().plaintext_space().to_u64().unwrap();
        for m in 0..u {
            let c = kp.public_key().encrypt_u64(m, &mut rng);
            assert_eq!(kp.private_key().decrypt(&c).unwrap(), m, "roundtrip {m}");
        }
    }

    #[test]
    fn zero_test_is_exact() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(2);
        let c0 = kp.public_key().encrypt_u64(0, &mut rng);
        assert!(kp.private_key().is_zero(&c0).unwrap());
        for m in [1u64, 2, 5, 17] {
            let c = kp.public_key().encrypt_u64(m, &mut rng);
            assert!(!kp.private_key().is_zero(&c).unwrap(), "E({m}) is not zero");
        }
    }

    #[test]
    fn homomorphic_add_mod_u() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(3);
        let pk = kp.public_key();
        let u = pk.plaintext_space().to_u64().unwrap();
        let (m1, m2) = (u - 2, 5);
        let c = pk.add(&pk.encrypt_u64(m1, &mut rng), &pk.encrypt_u64(m2, &mut rng));
        assert_eq!(kp.private_key().decrypt(&c).unwrap(), (m1 + m2) % u);
    }

    #[test]
    fn homomorphic_scalar_and_neg() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(4);
        let pk = kp.public_key();
        let u = pk.plaintext_space().to_u64().unwrap();
        let c = pk.encrypt_u64(7, &mut rng);
        let scaled = pk.mul_plain(&c, &Ubig::from(6u64));
        assert_eq!(kp.private_key().decrypt(&scaled).unwrap(), 42 % u);
        let negated = pk.neg(&c);
        assert_eq!(kp.private_key().decrypt(&negated).unwrap(), u - 7);
        // E(m) * E(-m) = E(0).
        let zero = pk.add(&c, &negated);
        assert!(kp.private_key().is_zero(&zero).unwrap());
    }

    #[test]
    fn blinding_preserves_zeroness() {
        // The comparison protocol blinds c^r for random r in [1, u): zero
        // stays zero, nonzero stays nonzero.
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(5);
        let pk = kp.public_key();
        let c0 = pk.encrypt_u64(0, &mut rng);
        let c3 = pk.encrypt_u64(3, &mut rng);
        for r in [1u64, 2, 10, 20] {
            let b0 = pk.mul_plain(&c0, &Ubig::from(r));
            let b3 = pk.mul_plain(&c3, &Ubig::from(r));
            assert!(kp.private_key().is_zero(&b0).unwrap());
            assert!(!kp.private_key().is_zero(&b3).unwrap());
        }
    }

    #[test]
    fn rerandomization_changes_ciphertext_only() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(6);
        let pk = kp.public_key();
        let c = pk.encrypt_u64(9, &mut rng);
        let c2 = pk.rerandomize(&c, &mut rng);
        assert_ne!(c, c2);
        assert_eq!(kp.private_key().decrypt(&c2).unwrap(), 9);
    }

    #[test]
    fn message_out_of_range() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(7);
        let u = kp.public_key().plaintext_space().clone();
        assert_eq!(kp.public_key().encrypt(&u, &mut rng), Err(DgkError::MessageOutOfRange));
    }

    #[test]
    fn malformed_ciphertext_rejected() {
        let kp = keys();
        let big = DgkCiphertext::from_raw(kp.public_key().modulus().clone());
        assert_eq!(kp.private_key().is_zero(&big), Err(DgkError::MalformedCiphertext));
        let zero = DgkCiphertext::from_raw(Ubig::zero());
        assert_eq!(kp.private_key().decrypt(&zero), Err(DgkError::MalformedCiphertext));
    }

    #[test]
    fn batched_zero_test_matches_per_item() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(10);
        let pk = kp.public_key();
        let cs: Vec<DgkCiphertext> =
            [0u64, 3, 0, 1, 17, 0, 8].iter().map(|&m| pk.encrypt_u64(m, &mut rng)).collect();
        let expect: Vec<bool> = cs.iter().map(|c| kp.private_key().is_zero(c).unwrap()).collect();
        assert_eq!(kp.private_key().is_zero_batch(&cs).unwrap(), expect);
    }

    #[test]
    fn batched_zero_test_error_matches_sequential() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(12);
        let pk = kp.public_key();
        let mut cs: Vec<DgkCiphertext> =
            (0..6u64).map(|m| pk.encrypt_u64(m % 3, &mut rng)).collect();
        cs.insert(3, DgkCiphertext::from_raw(Ubig::zero()));
        assert_eq!(kp.private_key().is_zero_batch(&cs), Err(DgkError::MalformedCiphertext));
    }

    #[test]
    fn plaintext_prime_exceeds_protocol_bound() {
        let mut rng = StdRng::seed_from_u64(8);
        let params = DgkParams::insecure_test();
        let u = params.plaintext_prime(&mut rng).to_u64().unwrap();
        assert!(u > 3 * params.compare_bits as u64 + 5);
    }

    #[test]
    fn key_holder_encrypt_bit_at_multiples_of_the_subgroup_order() {
        // r ≡ 0 (mod v_p) leaves the `Z_p` comb nothing to multiply: its
        // empty-accumulator path must still hand Garner a 1 (times g).
        let kp = keys();
        let (pk, sk) = (kp.public_key(), kp.private_key());
        let top = Ubig::one() << (pk.blind_bits - sk.v_p.bits()) as u32;
        let rs = [Ubig::zero(), sk.v_p.clone(), &sk.v_p * &(&top - &Ubig::one()), Ubig::one()];
        for r in &rs {
            assert!(r.bits() <= pk.blind_bits);
            for bit in [false, true] {
                let g_b = if bit { pk.g.clone() } else { Ubig::one() };
                let expect = modmul(&g_b, &modpow(&pk.h, r, &pk.n), &pk.n);
                assert_eq!(sk.encrypt_bit_with(bit, r).0, expect, "r = {r}, bit = {bit}");
            }
        }
    }

    #[test]
    fn debug_prints_no_secret() {
        let kp = keys();
        let sk = kp.private_key();
        let shown = format!("{kp:?} {sk:?}");
        assert!(shown.contains(&format!("{:?}", kp.public_key())), "public half is shown");
        assert!(shown.contains("<redacted>"));
        for secret in [&sk.p, &sk.v_p, &(&sk.public.n / &sk.p), &sk.g_vp] {
            for digits in [secret.to_string(), secret.to_str_radix(16)] {
                assert!(!shown.contains(&digits), "{digits} leaked into {shown}");
            }
        }
    }

    #[test]
    fn encrypt_bit_helper() {
        let kp = keys();
        let mut rng = StdRng::seed_from_u64(9);
        let c1 = kp.public_key().encrypt_bit(true, &mut rng);
        let c0 = kp.public_key().encrypt_bit(false, &mut rng);
        assert_eq!(kp.private_key().decrypt(&c1).unwrap(), 1);
        assert!(kp.private_key().is_zero(&c0).unwrap());
    }
}
