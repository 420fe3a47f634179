//! Session configuration, key material and per-party contexts.
//!
//! A consensus session involves `|U|` users and two servers:
//!
//! * **S1** owns Paillier keypair 1 *and* the DGK keypair (it plays the
//!   evaluator in every secure comparison);
//! * **S2** owns Paillier keypair 2.
//!
//! Users encrypt the share destined for S1 under *S2's* key and vice
//! versa, so the aggregating server can combine ciphertexts it cannot
//! read (Alg. 5, step 2).

use dgk::{DgkKeypair, DgkParams, DgkPublicKey};
use paillier::{Keypair, PrivateKey, PublicKey, SignedCodec};
use parallel::Parallelism;
use rand::Rng;

use crate::domain::ShareDomain;

/// Which server a context belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerRole {
    /// Server S1 (Paillier key 1, DGK evaluator).
    Server1,
    /// Server S2 (Paillier key 2, DGK blinder).
    Server2,
}

/// Cryptographic and domain parameters of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Number of participating users `|U|`.
    pub num_users: usize,
    /// Number of classes `K`.
    pub num_classes: usize,
    /// Paillier modulus size (the paper's prototype: 64).
    pub paillier_bits: u64,
    /// DGK parameters; `dgk.compare_bits` must equal
    /// `domain.compare_bits`.
    pub dgk: DgkParams,
    /// Share/mask/comparison bit budget.
    pub domain: ShareDomain,
    /// How the roster is partitioned for streaming aggregation. Defaults
    /// to the flat single-shard path; every shard count produces the
    /// identical consensus fingerprint.
    pub shards: crate::shard::ShardConfig,
}

impl SessionConfig {
    /// Paper-scale parameters (64-bit Paillier, ℓ = 40 comparisons).
    ///
    /// # Panics
    ///
    /// Panics if `num_users == 0` or `num_classes == 0`.
    pub fn paper(num_users: usize, num_classes: usize) -> Self {
        let cfg = SessionConfig {
            num_users,
            num_classes,
            paillier_bits: 96,
            dgk: DgkParams::paper(),
            domain: ShareDomain::paper(),
            shards: crate::shard::ShardConfig::flat(),
        };
        cfg.validate();
        cfg
    }

    /// Small, fast parameters for tests (ℓ = 16 comparisons).
    ///
    /// # Panics
    ///
    /// Panics if `num_users == 0` or `num_classes == 0`.
    pub fn test(num_users: usize, num_classes: usize) -> Self {
        let cfg = SessionConfig {
            num_users,
            num_classes,
            paillier_bits: 64,
            dgk: DgkParams::insecure_test(),
            domain: ShareDomain::test(),
            shards: crate::shard::ShardConfig::flat(),
        };
        cfg.validate();
        cfg
    }

    /// Selects the sharded streaming aggregation geometry. The shard
    /// count only changes *how* the servers fold uploads (memory and
    /// parallel shape), never *what* they compute — fingerprints are
    /// identical for every value.
    pub fn with_shards(mut self, shards: crate::shard::ShardConfig) -> Self {
        self.shards = shards;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the DGK comparison width disagrees with the share domain,
    /// if the Paillier window cannot hold masked aggregates, or on empty
    /// user/class counts.
    pub fn validate(&self) {
        assert!(self.num_users > 0, "need at least one user");
        assert!(self.num_classes > 0, "need at least one class");
        assert_eq!(
            self.dgk.compare_bits, self.domain.compare_bits,
            "DGK compare width must match the share domain"
        );
        // Signed window (−n/2, n/2) must hold |masked aggregate| which is
        // below 2^(compare_bits) by the domain budget, with headroom.
        assert!(
            self.paillier_bits >= self.domain.compare_bits as u64 + 4,
            "Paillier modulus too small for the share domain"
        );
    }
}

/// All key material of a session, held by the trusted dealer / PKI that
/// provisions parties (the paper assumes a PKI distributes public keys).
#[derive(Clone)]
pub struct SessionKeys {
    config: SessionConfig,
    paillier1: Keypair,
    paillier2: Keypair,
    dgk: DgkKeypair,
    parallelism: Parallelism,
}

impl std::fmt::Debug for SessionKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SessionKeys({} users, {} classes)",
            self.config.num_users, self.config.num_classes
        )
    }
}

impl SessionKeys {
    /// Generates fresh key material for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation.
    pub fn generate<R: Rng + ?Sized>(config: SessionConfig, rng: &mut R) -> SessionKeys {
        config.validate();
        let paillier1 = Keypair::generate(rng, config.paillier_bits);
        let paillier2 = Keypair::generate(rng, config.paillier_bits);
        let dgk = DgkKeypair::generate(rng, &config.dgk);
        let keys = SessionKeys {
            config,
            paillier1,
            paillier2,
            dgk,
            parallelism: Parallelism::sequential(),
        };
        keys.precompute();
        keys
    }

    /// Sets the data-parallelism config every party context built from
    /// these keys will use for its crypto hot loops. Defaults to
    /// sequential; results are bit-identical for every setting (see the
    /// `parallel` crate).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// In-place variant of [`SessionKeys::with_parallelism`].
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// The data-parallelism config party contexts inherit.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Warms every per-key exponentiation cache (Paillier `n²`/`p²`/`q²`
    /// Montgomery contexts and the randomizer comb, the DGK `n`/`p`
    /// contexts and the `g`/`h` combs). Key generation already built the
    /// public halves' caches and shares them between the halves of a
    /// keypair, so every [`ServerContext`]/[`UserContext`] cloned from
    /// these keys reuses the warmed state — no party pays the setup cost
    /// on its first protocol message. Called automatically by
    /// [`SessionKeys::generate`]; idempotent.
    pub fn precompute(&self) {
        self.paillier1.private_key().precompute();
        self.paillier2.private_key().precompute();
        self.dgk.private_key().precompute();
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Builds S1's context (Paillier private key 1, S2's public key, DGK
    /// keypair).
    pub fn server1(&self) -> ServerContext {
        ServerContext {
            role: ServerRole::Server1,
            config: self.config.clone(),
            own_private: self.paillier1.private_key().clone(),
            peer_public: self.paillier2.public_key().clone(),
            dgk_private: Some(self.dgk.clone()),
            dgk_public: self.dgk.public_key().clone(),
            parallelism: self.parallelism,
        }
    }

    /// Builds S2's context (Paillier private key 2, S1's public key, DGK
    /// public key only).
    pub fn server2(&self) -> ServerContext {
        ServerContext {
            role: ServerRole::Server2,
            config: self.config.clone(),
            own_private: self.paillier2.private_key().clone(),
            peer_public: self.paillier1.public_key().clone(),
            dgk_private: None,
            dgk_public: self.dgk.public_key().clone(),
            parallelism: self.parallelism,
        }
    }

    /// Builds a user's context (both public keys).
    pub fn user(&self) -> UserContext {
        UserContext {
            config: self.config.clone(),
            pk1: self.paillier1.public_key().clone(),
            pk2: self.paillier2.public_key().clone(),
            parallelism: self.parallelism,
        }
    }
}

/// A server's key material and helpers.
#[derive(Clone)]
pub struct ServerContext {
    role: ServerRole,
    config: SessionConfig,
    own_private: PrivateKey,
    peer_public: PublicKey,
    dgk_private: Option<DgkKeypair>,
    dgk_public: DgkPublicKey,
    parallelism: Parallelism,
}

impl std::fmt::Debug for ServerContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerContext({:?})", self.role)
    }
}

impl ServerContext {
    /// Which server this context belongs to.
    pub fn role(&self) -> ServerRole {
        self.role
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The share-domain budget.
    pub fn domain(&self) -> ShareDomain {
        self.config.domain
    }

    /// This server's own Paillier private key.
    pub fn own_private(&self) -> &PrivateKey {
        &self.own_private
    }

    /// This server's own Paillier public key.
    pub fn own_public(&self) -> &PublicKey {
        self.own_private.public_key()
    }

    /// The *other* server's Paillier public key.
    pub fn peer_public(&self) -> &PublicKey {
        &self.peer_public
    }

    /// Signed codec for this server's own modulus.
    pub fn own_codec(&self) -> SignedCodec {
        SignedCodec::new(self.own_public())
    }

    /// Signed codec for the peer's modulus.
    pub fn peer_codec(&self) -> SignedCodec {
        SignedCodec::new(&self.peer_public)
    }

    /// The DGK keypair — present only on S1 (the evaluator).
    ///
    /// # Panics
    ///
    /// Panics when called on S2; that is always a protocol-role bug.
    pub fn dgk_keys(&self) -> &DgkKeypair {
        self.dgk_private.as_ref().expect("DGK private key lives on S1; S2 must use dgk_public()")
    }

    /// The DGK public key (both servers).
    pub fn dgk_public(&self) -> &DgkPublicKey {
        &self.dgk_public
    }

    /// The data-parallelism config for this server's crypto hot loops.
    pub fn parallelism(&self) -> &Parallelism {
        &self.parallelism
    }
}

/// A user's key material: both servers' public keys.
#[derive(Clone)]
pub struct UserContext {
    config: SessionConfig,
    pk1: PublicKey,
    pk2: PublicKey,
    parallelism: Parallelism,
}

impl std::fmt::Debug for UserContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UserContext")
    }
}

impl UserContext {
    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The share-domain budget.
    pub fn domain(&self) -> ShareDomain {
        self.config.domain
    }

    /// S1's Paillier public key.
    pub fn pk1(&self) -> &PublicKey {
        &self.pk1
    }

    /// S2's Paillier public key.
    pub fn pk2(&self) -> &PublicKey {
        &self.pk2
    }

    /// The data-parallelism config for this user's crypto hot loops.
    pub fn parallelism(&self) -> &Parallelism {
        &self.parallelism
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_and_build_contexts() {
        let mut rng = StdRng::seed_from_u64(1);
        let keys = SessionKeys::generate(SessionConfig::test(3, 4), &mut rng);
        let s1 = keys.server1();
        let s2 = keys.server2();
        let user = keys.user();
        assert_eq!(s1.role(), ServerRole::Server1);
        assert_eq!(s2.role(), ServerRole::Server2);
        // Cross-wiring: S1's own public key is what users call pk1.
        assert_eq!(s1.own_public(), user.pk1());
        assert_eq!(s2.own_public(), user.pk2());
        // Peers see each other.
        assert_eq!(s1.peer_public(), s2.own_public());
        assert_eq!(s2.peer_public(), s1.own_public());
    }

    #[test]
    fn dgk_lives_on_s1_only() {
        let mut rng = StdRng::seed_from_u64(2);
        let keys = SessionKeys::generate(SessionConfig::test(1, 2), &mut rng);
        let _ = keys.server1().dgk_keys(); // fine
        assert_eq!(keys.server1().dgk_public(), keys.server2().dgk_public());
    }

    #[test]
    #[should_panic(expected = "DGK private key lives on S1")]
    fn s2_dgk_access_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let keys = SessionKeys::generate(SessionConfig::test(1, 2), &mut rng);
        let _ = keys.server2().dgk_keys();
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_rejected() {
        let _ = SessionConfig::test(0, 2);
    }

    #[test]
    #[should_panic(expected = "compare width must match")]
    fn mismatched_compare_bits_rejected() {
        let mut cfg = SessionConfig::test(1, 2);
        cfg.dgk.compare_bits = 20;
        cfg.validate();
    }

    #[test]
    fn cross_server_encryption_path() {
        // A user encrypts under pk2; S2 (not S1) can decrypt.
        let mut rng = StdRng::seed_from_u64(4);
        let keys = SessionKeys::generate(SessionConfig::test(1, 2), &mut rng);
        let user = keys.user();
        let c = user.pk2().encrypt_u64(9, &mut rng);
        assert_eq!(keys.server2().own_private().decrypt_u64(&c), 9);
    }
}
