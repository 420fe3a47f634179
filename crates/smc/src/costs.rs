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
use paillier::PublicKey;

use crate::session::{ServerContext, ServerRole};

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

/// One server's share of an `ℓ`-bit DGK comparison, to decide whether a
/// round of matches is worth splitting. S1, the key holder, pays `ℓ`
/// key-holder bit encryptions and `ℓ` zero tests, all at half width; S2
/// pays `ℓ` witnesses over `Z_n` ([`dgk::DgkPublicKey::witness_cost_ns`]).
pub(crate) fn dgk_compare_leg_cost_ns(ctx: &ServerContext) -> u64 {
    let pk = ctx.dgk_public();
    let ell = pk.compare_bits() as u64;
    let per_bit = match ctx.role() {
        ServerRole::Server1 => {
            let sk = ctx.dgk_keys().private_key();
            sk.encrypt_bit_cost_ns() + sk.zero_test_cost_ns()
        }
        ServerRole::Server2 => pk.witness_cost_ns(),
    };
    ell * per_bit
}
