//! Cross-crate integration: privacy accounting against the paper's
//! formulas, and transport metering through a real secure run.

use std::sync::Arc;

use consensus_core::config::ConsensusConfig;
use consensus_core::secure::SecureEngine;
use dp::rdp::{consensus_epsilon, LinearRdp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::pack::Packer;
use smc::{SessionConfig, SessionKeys};
use transport::{LinkKind, Meter, Step};

/// Theorem 5's closed form, the RDP-curve composition, and the
/// ConsensusConfig surface must all agree.
#[test]
fn theorem5_agrees_across_all_apis() {
    for (s1, s2) in [(20.0, 20.0), (35.0, 80.0), (100.0, 40.0)] {
        let closed = consensus_epsilon(s1, s2, 1e-6);
        let curve =
            LinearRdp::sparse_vector(s1).compose(&LinearRdp::report_noisy_max(s2)).to_epsilon(1e-6);
        let config = ConsensusConfig::paper_default(s1, s2).epsilon(1, 1e-6);
        assert!((closed - curve).abs() < 1e-10);
        assert!((closed - config).abs() < 1e-10);
    }
}

/// The paper's quoted privacy level ε = 8.19 at δ = 1e-6 corresponds to a
/// concrete noise scale recoverable by our calibrator.
#[test]
fn paper_privacy_level_is_reachable() {
    let sigma = dp::rdp::sigma_for_epsilon(8.19, 1e-6, 1);
    let eps = consensus_epsilon(sigma, sigma, 1e-6);
    assert!((eps - 8.19).abs() < 1e-3, "calibrated ε {eps}");
}

/// A secure run produces the traffic pattern of Table II: user→server
/// traffic only in the secure-sum steps, server↔server everywhere else,
/// and comparison steps dominating by volume.
#[test]
fn secure_run_matches_table2_traffic_pattern() {
    let mut rng = StdRng::seed_from_u64(77);
    let engine = SecureEngine::new(
        SessionConfig::test(3, 3),
        ConsensusConfig::paper_default(0.3, 0.3),
        &mut rng,
    );
    let votes = vec![vec![0.0, 1.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 1.0, 0.0]];
    let meter = Meter::new();
    let out = engine.run_instance(&votes, Arc::clone(&meter), &mut rng).unwrap();
    assert_eq!(out.label, Some(1));
    let report = meter.report();

    // User→server traffic exists exactly in the secure-sum steps.
    for step in [Step::SecureSumVotes, Step::SecureSumNoisy] {
        assert!(report.link_stats(step, LinkKind::UserToServer).bytes > 0, "{step}");
        assert_eq!(report.link_stats(step, LinkKind::ServerToServer).bytes, 0, "{step}");
    }
    // Server↔server traffic exists in all interactive steps.
    for step in [
        Step::BlindPermute1,
        Step::CompareRank,
        Step::ThresholdCheck,
        Step::BlindPermute2,
        Step::CompareNoisyRank,
        Step::Restoration,
    ] {
        assert!(report.link_stats(step, LinkKind::ServerToServer).bytes > 0, "{step}");
        assert_eq!(report.link_stats(step, LinkKind::UserToServer).bytes, 0, "{step}");
    }
    // Comparisons dominate: the K = 3 bracket plays K−1 = 2 matches in
    // ⌈log₂3⌉ = 2 rounds against the threshold check's one match in one
    // round, so it is twice the messages and ~2x the bytes.
    let rank = report.link_stats(Step::CompareRank, LinkKind::ServerToServer);
    let check = report.link_stats(Step::ThresholdCheck, LinkKind::ServerToServer);
    assert_eq!((rank.messages, check.messages), (6, 3));
    assert!(
        2 * rank.bytes > 3 * check.bytes && 2 * rank.bytes < 5 * check.bytes,
        "ranking must be ~2x the threshold check: {} vs {}",
        rank.bytes,
        check.bytes
    );
    // Blind-and-permute is far cheaper than comparison, as in Table II.
    assert!(report.step_bytes(Step::CompareRank) > report.step_bytes(Step::BlindPermute1));

    // The rendered tables carry paper step numbers.
    let t1 = report.render_table1();
    assert!(t1.contains("(4)") && t1.contains("(9)"), "{t1}");
    let t2 = report.render_table2();
    assert!(t2.contains("user-to-server") && t2.contains("server-to-server"), "{t2}");
}

/// Rejected instances must not leak later-step traffic (steps 7-9 are
/// never executed on ⊥).
#[test]
fn rejection_short_circuits_protocol() {
    let mut rng = StdRng::seed_from_u64(78);
    let engine = SecureEngine::new(
        SessionConfig::test(3, 3),
        ConsensusConfig::paper_default(0.3, 0.3),
        &mut rng,
    );
    // 1/1/1 split: max 1 < T = 1.8.
    let votes = vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
    let meter = Meter::new();
    let out = engine.run_instance(&votes, Arc::clone(&meter), &mut rng).unwrap();
    assert_eq!(out.label, None);
    let report = meter.report();
    assert_eq!(report.step_bytes(Step::BlindPermute2), 0);
    assert_eq!(report.step_bytes(Step::CompareNoisyRank), 0);
    assert_eq!(report.step_bytes(Step::Restoration), 0);
    assert!(report.step_bytes(Step::ThresholdCheck) > 0);
}

/// Slot packing's wire shape, read off the meter: Blind-and-Permute over
/// `m` vectors ships `3⌈mK/slots⌉ + mK + m` Paillier ciphertexts (three
/// packed frames, the per-entry `E[−r3]`, the `m` encrypted `r1`) and
/// Restoration `2⌈K/slots⌉ + 2K` (two packed frames, two per-entry).
#[test]
fn packed_steps_ship_the_derived_ciphertext_counts() {
    let (users, k) = (3, 5);
    let keys = SessionKeys::generate(SessionConfig::test(users, k), &mut StdRng::seed_from_u64(79));
    let engine = SecureEngine::with_keys(keys.clone(), ConsensusConfig::paper_default(0.3, 0.3));
    let votes = vec![vec![0.0, 0.0, 1.0, 0.0, 0.0]; users];
    let meter = Meter::new();
    let out = engine.run_instance(&votes, Arc::clone(&meter), &mut StdRng::seed_from_u64(80));
    assert_eq!(out.unwrap().label, Some(2));
    let report = meter.report();

    // A 64-bit key's plaintext holds two of the test domain's slots, and
    // a ciphertext is 16 bytes behind a 4-byte length.
    let user = keys.user();
    for pk in [user.pk1(), user.pk2()] {
        assert_eq!(Packer::new(keys.config(), pk).unwrap().slots(), 2);
        assert_eq!(pk.modulus_squared().bits().div_ceil(8), 16);
    }
    // Everything on the link that is not a ciphertext: one 4-byte count
    // per vector, 16 bytes per plaintext value, Restoration's 8-byte
    // announcement. What is left is ciphertexts, an occasional one a
    // leading zero byte short — hence the rounding up.
    let ciphertexts = |step, fixed: usize| {
        let link = report.link_stats(step, LinkKind::ServerToServer);
        (link.messages, (link.bytes as usize - fixed).div_ceil(4 + 16))
    };
    let blind_permute = |step, m: usize| {
        let fixed = 4 + (4 + m * (4 + 16 * k)) + 4 + 4 + (4 + 4 * m) + 4;
        assert_eq!(ciphertexts(step, fixed), (6, 3 * (m * k).div_ceil(2) + m * k + m), "{step}");
    };
    blind_permute(Step::BlindPermute1, 2);
    blind_permute(Step::BlindPermute2, 1);
    let fixed = 4 + 4 + (4 + 16 * k) + 4 + 4 + (4 + 16 * k) + 8;
    assert_eq!(ciphertexts(Step::Restoration, fixed), (7, 2 * k.div_ceil(2) + 2 * k));
}
