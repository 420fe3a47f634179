//! Rough per-item wall-clock models (ns) for the protocol's data-parallel
//! hot loops.
//!
//! Each model is handed to [`parallel::Parallelism::with_item_cost_ns`]
//! right before a fan-out, so [`parallel::Parallelism::workers_for`] only
//! splits a batch when every worker's chunk carries at least
//! [`parallel::SPLIT_MIN_WORK_NS`] of estimated work — spawning a scoped
//! thread costs tens of microseconds, and small batches of cheap items
//! (e.g. per-label mask additions at `K = 10`) lose more to the spawn than
//! they win back. The hints change how batches are *chunked*, never what
//! they compute: outputs are split-invariant by construction, so results
//! stay bit-identical with or without them.
//!
//! The models only need to be right to a small factor. They all count
//! Montgomery squarings and products and price them with
//! [`bigint::montgomery::mont_cost_ns`], the one model fitted to the limb
//! kernel.

use bigint::montgomery::{comb_cost_ns, mont_cost_ns};
use dgk::DgkPublicKey;
use paillier::PublicKey;

/// One Paillier encryption: the `hs^x` randomizer dominates — one comb
/// evaluation mod `n²` over the key's randomizer exponent.
pub(crate) fn paillier_encrypt_cost_ns(pk: &PublicKey) -> u64 {
    comb_cost_ns(pk.modulus_squared().bits(), pk.randomizer_bits())
}

/// One RNG-free homomorphic step (`add` / `add_plain`): a handful of
/// modular multiplications mod `n²`. Cheap — the point of hinting it is
/// to keep small per-label fan-outs sequential.
pub(crate) fn paillier_add_cost_ns(pk: &PublicKey) -> u64 {
    mont_cost_ns(pk.modulus_squared().bits(), 0, 4)
}

/// One leg of an `ℓ`-bit DGK comparison: `ℓ` bit-encryptions, `ℓ`
/// witness multi-exponentiations, or `ℓ` CRT zero tests. All three are
/// within a small factor of `ℓ · blind_bits / 2` products over `Z_n`,
/// which is accurate enough to decide whether a round of matches is worth
/// splitting.
pub(crate) fn dgk_compare_leg_cost_ns(pk: &DgkPublicKey) -> u64 {
    let ell = pk.compare_bits() as u64;
    mont_cost_ns(pk.modulus().bits(), 0, (ell * pk.blind_bits() / 2).max(1))
}
