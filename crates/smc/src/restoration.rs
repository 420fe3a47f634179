//! Restoration — Alg. 3 of the paper.
//!
//! After the noisy ranking, both servers know the *permuted* winner slot
//! `π(ĩ*)` but neither knows the double permutation `π = π1∘π2`. The
//! restoration protocol walks an encrypted indicator vector back through
//! both servers' permutation inverses, each leg masked so the other side
//! learns nothing it did not already know, until S2 holds the plain
//! indicator `e_{ĩ*}` — the true label index — which it then shares with
//! S1 (the protocol's public output).
//!
//! Message walk (masks `r1` from S1, `r2` from S2, both per-entry):
//!
//! 1. S2 encrypts `π(e)` under its own pk2, sends to S1;
//! 2. S1 applies `π1⁻¹`, homomorphically adds `r1`, returns
//!    `E_pk2[π2(e) + r1]`;
//! 3. S2 decrypts and sends back the plaintext `π2(e) + r1`;
//! 4. S1 strips `r1` and re-encrypts under its own pk1 → `E_pk1[π2(e)]`;
//! 5. S2 applies `π2⁻¹` and adds `r2` → `E_pk1[e + r2]`;
//! 6. S1 decrypts and returns the plaintext `e + r2`;
//! 7. S2 strips `r2`, reads off the winner index, and announces it.

use paillier::Ciphertext;
use rand::Rng;
use transport::{ByzantineAction, Endpoint, PartyId, Step};

use crate::audit::{transpose01, AuditTap};
use crate::error::SmcError;
use crate::permutation::Permutation;
use crate::session::ServerContext;

/// S1's side of restoration. `pi1` is the permutation S1 chose during
/// Blind-and-Permute. `tap` records the audit transcript; pass
/// [`AuditTap::disabled`] for unaudited runs. Returns the true label
/// index.
///
/// # Errors
///
/// Fails on transport, cryptosystem or domain errors, and with
/// [`SmcError::AuditFailure`] when a challenge convicts the peer.
pub fn server1_restore<R: Rng + ?Sized>(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    pi1: &Permutation,
    step: Step,
    rng: &mut R,
    tap: &mut AuditTap,
) -> Result<usize, SmcError> {
    let k = ctx.config().num_classes;
    let domain = ctx.domain();
    let codec1 = ctx.own_codec();
    let codec2 = ctx.peer_codec();
    let pk2 = ctx.peer_public();
    let par = ctx.parallelism();
    tap.begin(endpoint)?;
    // A tampering S1 walks the indicator through the wrong inverse; the
    // tap attests to the permutation actually used, which Restoration
    // checks against the one verified at the second Blind-and-Permute.
    let used_pi1 = if tap.byzantine() == Some(ByzantineAction::TamperPermutation) {
        transpose01(pi1)
    } else {
        pi1.clone()
    };
    tap.permutation(&used_pi1);

    // Step 1 output from S2: E_pk2[π(e)].
    let enc_pi_e: Vec<Ciphertext> = endpoint.recv(PartyId::Server2, step)?;
    tap.record_received(&enc_pi_e);
    if enc_pi_e.len() != k {
        return Err(SmcError::LengthMismatch { expected: k, got: enc_pi_e.len() });
    }

    // Step 2: revert π1 and add per-entry mask r1.
    let reverted = used_pi1.inverse().apply(&enc_pi_e);
    let mut r1: Vec<i128> = (0..k).map(|_| domain.random_mask(rng)).collect();
    if tap.byzantine() == Some(ByzantineAction::DropMask) {
        r1[0] = 0;
    }
    tap.masks(&r1);
    let masked: Vec<Ciphertext> = par
        .with_item_cost_ns(crate::costs::paillier_add_cost_ns(pk2))
        .try_map(&reverted, |i, c| {
            Ok::<_, SmcError>(pk2.add_plain(c, &codec2.encode_i128(r1[i])?))
        })?;
    tap.record_sent(&masked);
    endpoint.send(PartyId::Server2, step, &masked)?;

    // Step 3 arrives in plaintext: π2(e) + r1.
    let plain_masked: Vec<i128> = endpoint.recv(PartyId::Server2, step)?;
    tap.record_received(&plain_masked);
    if plain_masked.len() != k {
        return Err(SmcError::LengthMismatch { expected: k, got: plain_masked.len() });
    }

    // Step 4: strip r1 and re-encrypt under own pk1 — one seed-derived
    // RNG stream per entry, fanned out.
    let enc_pi2_e: Vec<Ciphertext> = par
        .with_item_cost_ns(crate::costs::paillier_encrypt_cost_ns(ctx.own_public()))
        .try_map_seeded(&plain_masked, rng, |i, &v, item_rng| {
            Ok::<_, SmcError>(ctx.own_public().encrypt(&codec1.encode_i128(v - r1[i])?, item_rng)?)
        })?;
    tap.record_sent(&enc_pi2_e);
    endpoint.send(PartyId::Server2, step, &enc_pi2_e)?;

    // Step 5 output from S2: E_pk1[e + r2]; step 6: decrypt and return.
    let enc_e_masked: Vec<Ciphertext> = endpoint.recv(PartyId::Server2, step)?;
    tap.record_received(&enc_e_masked);
    if enc_e_masked.len() != k {
        return Err(SmcError::LengthMismatch { expected: k, got: enc_e_masked.len() });
    }

    // Challenge-verify S2's opening before decrypting its final frame.
    tap.verify_peer(endpoint, k, 0, &domain)?;

    let mut plain: Vec<i128> = par
        .with_item_cost_ns(crate::costs::paillier_decrypt_cost_ns(ctx.own_public()))
        .try_map(&enc_e_masked, |_, c| {
            Ok::<_, SmcError>(codec1.decode_i128(&ctx.own_private().decrypt_crt(c)?)?)
        })?;
    tap.record_sent(&plain);
    if tap.byzantine() == Some(ByzantineAction::Equivocate) {
        plain[0] += 1;
    }
    endpoint.send(PartyId::Server2, step, &plain)?;
    tap.flush_opening(endpoint)?;

    // Step 7: S2 announces the winner. (The announcement is not part of
    // the audited transcript — it trails both openings.)
    let winner: u64 = endpoint.recv(PartyId::Server2, step)?;
    Ok(winner as usize)
}

/// S2's side of restoration. `pi2` is S2's Blind-and-Permute permutation
/// and `permuted_slot` the winning slot `π(ĩ*)` both servers learned from
/// the ranking. Returns the true label index.
///
/// # Errors
///
/// Fails on transport, cryptosystem or domain errors, or if the recovered
/// vector is not a valid one-hot indicator (which would mean a corrupted
/// run).
pub fn server2_restore<R: Rng + ?Sized>(
    endpoint: &mut Endpoint,
    ctx: &ServerContext,
    pi2: &Permutation,
    permuted_slot: usize,
    step: Step,
    rng: &mut R,
    tap: &mut AuditTap,
) -> Result<usize, SmcError> {
    let k = ctx.config().num_classes;
    let domain = ctx.domain();
    let codec1 = ctx.peer_codec();
    let codec2 = ctx.own_codec();
    let pk1 = ctx.peer_public();
    let par = ctx.parallelism();
    tap.begin(endpoint)?;
    let used_pi2 = if tap.byzantine() == Some(ByzantineAction::TamperPermutation) {
        transpose01(pi2)
    } else {
        pi2.clone()
    };
    tap.permutation(&used_pi2);

    // Step 1: encrypted indicator at the permuted slot, under own pk2.
    let mut indicator = vec![0i128; k];
    indicator[permuted_slot] = 1;
    let enc_indicator: Vec<Ciphertext> = par
        .with_item_cost_ns(crate::costs::paillier_encrypt_cost_ns(ctx.own_public()))
        .try_map_seeded(&indicator, rng, |_, &v, item_rng| {
            Ok::<_, SmcError>(ctx.own_public().encrypt(&codec2.encode_i128(v)?, item_rng)?)
        })?;
    tap.record_sent(&enc_indicator);
    endpoint.send(PartyId::Server1, step, &enc_indicator)?;

    // Step 3: decrypt S1's masked, π1-reverted vector and bounce it back
    // in plaintext.
    let masked: Vec<Ciphertext> = endpoint.recv(PartyId::Server1, step)?;
    tap.record_received(&masked);
    if masked.len() != k {
        return Err(SmcError::LengthMismatch { expected: k, got: masked.len() });
    }
    let mut plain_masked: Vec<i128> = par
        .with_item_cost_ns(crate::costs::paillier_decrypt_cost_ns(ctx.own_public()))
        .try_map(&masked, |_, c| {
            Ok::<_, SmcError>(codec2.decode_i128(&ctx.own_private().decrypt_crt(c)?)?)
        })?;
    tap.record_sent(&plain_masked);
    if tap.byzantine() == Some(ByzantineAction::Equivocate) {
        plain_masked[0] += 1;
    }
    endpoint.send(PartyId::Server1, step, &plain_masked)?;

    // Step 5: revert π2 on the re-encrypted vector and add r2.
    let enc_pi2_e: Vec<Ciphertext> = endpoint.recv(PartyId::Server1, step)?;
    tap.record_received(&enc_pi2_e);
    if enc_pi2_e.len() != k {
        return Err(SmcError::LengthMismatch { expected: k, got: enc_pi2_e.len() });
    }
    let reverted = used_pi2.inverse().apply(&enc_pi2_e);
    let mut r2: Vec<i128> = (0..k).map(|_| domain.random_mask(rng)).collect();
    if tap.byzantine() == Some(ByzantineAction::DropMask) {
        r2[0] = 0;
    }
    tap.masks(&r2);
    let masked_e: Vec<Ciphertext> = par
        .with_item_cost_ns(crate::costs::paillier_add_cost_ns(pk1))
        .try_map(&reverted, |i, c| {
            Ok::<_, SmcError>(pk1.add_plain(c, &codec1.encode_i128(r2[i])?))
        })?;
    tap.record_sent(&masked_e);
    if tap.byzantine() == Some(ByzantineAction::ReplayStaleFrame) {
        // Resend the step-1 indicator frame in place of the masked one;
        // same shape, stale content.
        endpoint.send(PartyId::Server1, step, &enc_indicator)?;
    } else {
        endpoint.send(PartyId::Server1, step, &masked_e)?;
    }
    tap.flush_opening(endpoint)?;

    // Step 6 arrives in plaintext: e + r2. Step 7: strip r2 and read the
    // indicator.
    let plain_e_masked: Vec<i128> = endpoint.recv(PartyId::Server1, step)?;
    tap.record_received(&plain_e_masked);
    if plain_e_masked.len() != k {
        return Err(SmcError::LengthMismatch { expected: k, got: plain_e_masked.len() });
    }

    // Challenge-verify S1's opening before the one-hot read-off: a
    // convicted peer must never influence the announced label.
    tap.verify_peer(endpoint, k, 0, &domain)?;
    let e: Vec<i128> = plain_e_masked.iter().zip(&r2).map(|(&v, &m)| v - m).collect();
    let winner = e.iter().position(|&v| v == 1);
    let valid = winner.is_some() && e.iter().filter(|&&v| v != 0).count() == 1;
    if !valid {
        // A malformed indicator means protocol corruption, not bad input.
        return Err(SmcError::LengthMismatch {
            expected: 1,
            got: e.iter().filter(|&&v| v != 0).count(),
        });
    }
    let winner = winner.expect("checked above");
    endpoint.send(PartyId::Server1, step, &(winner as u64))?;
    Ok(winner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionConfig, SessionKeys};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use transport::Network;

    fn keys() -> &'static SessionKeys {
        static KEYS: OnceLock<SessionKeys> = OnceLock::new();
        KEYS.get_or_init(|| {
            SessionKeys::generate(SessionConfig::test(1, 5), &mut StdRng::seed_from_u64(51))
        })
    }

    /// Runs restoration for a known joint permutation and target label.
    fn run(true_label: usize, seed: u64) -> (usize, usize) {
        let k = keys().config().num_classes;
        let s1_ctx = keys().server1();
        let s2_ctx = keys().server2();
        let mut rng = StdRng::seed_from_u64(seed);
        let pi1 = Permutation::random(k, &mut rng);
        let pi2 = Permutation::random(k, &mut rng);
        // π = π1 ∘ π2; where does the true label land?
        let slot = pi1.compose(&pi2).apply_index(true_label);

        let mut net = Network::new(0);
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        std::thread::scope(|scope| {
            let pi1_ref = &pi1;
            let pi2_ref = &pi2;
            let h1 = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + 1);
                server1_restore(
                    &mut s1,
                    &s1_ctx,
                    pi1_ref,
                    Step::Restoration,
                    &mut rng,
                    &mut AuditTap::disabled(),
                )
                .unwrap()
            });
            let h2 = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + 2);
                server2_restore(
                    &mut s2,
                    &s2_ctx,
                    pi2_ref,
                    slot,
                    Step::Restoration,
                    &mut rng,
                    &mut AuditTap::disabled(),
                )
                .unwrap()
            });
            (h1.join().unwrap(), h2.join().unwrap())
        })
    }

    #[test]
    fn recovers_every_label() {
        for label in 0..5 {
            let (w1, w2) = run(label, 900 + label as u64);
            assert_eq!(w1, w2, "servers must agree");
            assert_eq!(w1, label, "restoration must invert the permutation");
        }
    }

    #[test]
    fn many_random_permutations() {
        for seed in 0..10u64 {
            let label = (seed % 5) as usize;
            let (w1, w2) = run(label, 1000 + seed * 13);
            assert_eq!((w1, w2), (label, label), "seed {seed}");
        }
    }

    #[test]
    fn restoration_traffic_metered() {
        let k = keys().config().num_classes;
        let s1_ctx = keys().server1();
        let s2_ctx = keys().server2();
        let mut rng = StdRng::seed_from_u64(3);
        let pi1 = Permutation::random(k, &mut rng);
        let pi2 = Permutation::random(k, &mut rng);
        let slot = pi1.compose(&pi2).apply_index(2);
        let mut net = Network::new(0);
        let mut s1 = net.take_endpoint(PartyId::Server1);
        let mut s2 = net.take_endpoint(PartyId::Server2);
        let meter = std::sync::Arc::clone(net.meter());
        std::thread::scope(|scope| {
            let pi1 = &pi1;
            let pi2 = &pi2;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(4);
                server1_restore(
                    &mut s1,
                    &s1_ctx,
                    pi1,
                    Step::Restoration,
                    &mut rng,
                    &mut AuditTap::disabled(),
                )
                .unwrap()
            });
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(5);
                server2_restore(
                    &mut s2,
                    &s2_ctx,
                    pi2,
                    slot,
                    Step::Restoration,
                    &mut rng,
                    &mut AuditTap::disabled(),
                )
                .unwrap()
            });
        });
        assert!(meter.report().step_bytes(Step::Restoration) > 0);
    }
}
