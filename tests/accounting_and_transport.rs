//! Cross-crate integration: privacy accounting against the paper's
//! formulas, and transport metering through a real secure run.

use std::sync::Arc;

use consensus_core::config::ConsensusConfig;
use consensus_core::secure::SecureEngine;
use dp::rdp::{consensus_epsilon, LinearRdp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::SessionConfig;
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
