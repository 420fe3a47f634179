//! Sharded streaming aggregation pinned to the flat path.
//!
//! The shard layer changes *how* the servers fold uploads — streaming
//! per-shard partial sums, per-shard survivor reconciliation — but must
//! never change *what* a round computes. These tests pin the
//! [`ConsensusFingerprint`] across shard counts {1, 2, 7} and thread
//! counts {1, 3}, in strict mode, under dropouts, and at quorum loss —
//! and the metered bytes of a sharded round to the flat round's.

use std::time::Duration;

use consensus_core::config::ConsensusConfig;
use consensus_core::secure::{ConsensusFingerprint, SecureEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::{Parallelism, SessionConfig, SessionKeys, ShardConfig, SmcError};
use transport::{FaultPlan, LinkKind, Meter, PartyId, Step, TimeoutPolicy};

const USERS: usize = 7;
const CLASSES: usize = 3;
const KEY_SEED: u64 = 4242;

/// Key material regenerated from the same seed per variant: only the
/// `shards` field differs between configs, so every variant runs the
/// identical cryptographic round.
fn keys_with_shards(num_shards: usize) -> SessionKeys {
    keys_for(USERS, num_shards)
}

fn keys_for(users: usize, num_shards: usize) -> SessionKeys {
    let mut rng = StdRng::seed_from_u64(KEY_SEED);
    SessionKeys::generate(
        SessionConfig::test(users, CLASSES).with_shards(ShardConfig::new(num_shards)),
        &mut rng,
    )
}

fn onehot(k: usize) -> Vec<f64> {
    let mut v = vec![0.0; CLASSES];
    v[k] = 1.0;
    v
}

/// Users 0–1 vote class 0, users 2–6 vote class 1: five votes for class
/// 1 clear the default threshold T = 0.6·7 = 4.2 even after one class-1
/// dropout.
fn votes() -> Vec<Vec<f64>> {
    (0..USERS).map(|u| onehot(usize::from(u >= 2))).collect()
}

#[test]
fn fingerprint_identical_across_shard_and_thread_counts() {
    let mut reference: Option<ConsensusFingerprint> = None;
    for shards in [1, 2, 7] {
        for threads in [1, 3] {
            let engine = SecureEngine::with_keys(
                keys_with_shards(shards),
                ConsensusConfig::paper_default(1e-6, 1e-6),
            )
            .with_parallelism(Parallelism::new(threads));
            let mut rng = StdRng::seed_from_u64(7);
            let out = engine.run_instance(&votes(), Meter::new(), &mut rng).unwrap();
            assert_eq!(out.label, Some(1), "shards={shards} threads={threads}");
            assert!(out.health.is_clean());
            let fp = out.consensus_fingerprint();
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(
                    &fp, r,
                    "sharded round must be fingerprint-identical to flat \
                     (shards={shards} threads={threads})"
                ),
            }
        }
    }
}

#[test]
fn dropout_reconciliation_matches_flat_semantics() {
    // User 1 never uploads its step-2 vectors, user 3 loses its step-6
    // upload: every shard count must reconcile the identical survivor
    // sets per step and produce the identical fingerprint — per-shard
    // survivor exchanges compose to exactly the unsharded semantics.
    let mut reference: Option<ConsensusFingerprint> = None;
    for shards in [1, 2, 7] {
        let engine = SecureEngine::with_keys(
            keys_with_shards(shards),
            ConsensusConfig::paper_default(1e-6, 1e-6).with_min_users(2),
        )
        .with_timeout(TimeoutPolicy::with_retries(Duration::from_millis(40), 1, 2.0))
        .with_fault_plan(
            FaultPlan::new(21)
                .crash(PartyId::User(1), Step::SecureSumVotes)
                .crash(PartyId::User(3), Step::SecureSumNoisy),
        );
        let mut rng = StdRng::seed_from_u64(9);
        let out = engine.run_instance(&votes(), Meter::new(), &mut rng).unwrap();
        assert_eq!(out.health.survivors, vec![0, 2, 3, 4, 5, 6], "shards={shards}");
        assert_eq!(
            out.health.noisy_survivors.as_deref(),
            Some(&[0, 2, 4, 5, 6][..]),
            "shards={shards}"
        );
        assert!(out.health.dropouts.contains(&(1, Step::SecureSumVotes)));
        assert!(out.health.dropouts.contains(&(3, Step::SecureSumNoisy)));
        let fp = out.consensus_fingerprint();
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(&fp, r, "shards={shards}"),
        }
    }
}

#[test]
fn quorum_loss_is_identical_for_every_shard_count() {
    // Quorum is a global property: the union of per-shard intersections
    // equals the global intersection, so losing one user below a
    // full-roster quorum aborts identically at every shard count.
    for shards in [1, 2, 7] {
        let engine = SecureEngine::with_keys(
            keys_with_shards(shards),
            ConsensusConfig::paper_default(1e-6, 1e-6).with_min_users(USERS),
        )
        .with_timeout(TimeoutPolicy::with_retries(Duration::from_millis(40), 1, 2.0))
        .with_fault_plan(FaultPlan::new(31).crash(PartyId::User(5), Step::SecureSumVotes));
        let mut rng = StdRng::seed_from_u64(11);
        let err = engine.run_instance(&votes(), Meter::new(), &mut rng).unwrap_err();
        match err {
            SmcError::QuorumLost { step, survivors, required } => {
                assert_eq!(step, Step::SecureSumVotes, "shards={shards}");
                assert_eq!(survivors, USERS - 1, "shards={shards}");
                assert_eq!(required, USERS, "shards={shards}");
            }
            other => panic!("expected QuorumLost at shards={shards}, got {other:?}"),
        }
    }
}

#[test]
fn sharding_moves_no_upload_byte_and_under_five_percent_overall() {
    // A resilient round at |U| = 64: the servers reconcile survivors once
    // when flat and once per shard under 8 shards. That exchange is all
    // sharding may add to the wire — every user uploads the same bytes,
    // and the round's total per user stays within 5 % of the flat one.
    const CROWD: usize = 64;
    let votes: Vec<Vec<f64>> = (0..CROWD).map(|u| onehot(usize::from(u >= 16))).collect();
    let metered = |shards: usize| {
        let engine = SecureEngine::with_keys(
            keys_for(CROWD, shards),
            ConsensusConfig::paper_default(1e-6, 1e-6).with_min_users(2),
        );
        let meter = Meter::new();
        let mut rng = StdRng::seed_from_u64(13);
        let out = engine.run_instance(&votes, meter.clone(), &mut rng).unwrap();
        assert_eq!(out.label, Some(1), "shards={shards}");
        assert!(out.health.is_clean(), "shards={shards}");
        let report = meter.report();
        let uploads: u64 = report
            .comm_rows()
            .filter(|(_, link, _)| *link == LinkKind::UserToServer)
            .map(|(_, _, stats)| stats.bytes)
            .sum();
        (uploads, report.total_bytes())
    };
    let (flat_uploads, flat_total) = metered(1);
    let (sharded_uploads, sharded_total) = metered(8);
    assert_eq!(sharded_uploads, flat_uploads);
    assert!(sharded_total > flat_total, "eight survivor exchanges outweigh one");
    assert!(sharded_total * 100 <= flat_total * 105, "{sharded_total} vs {flat_total} bytes");
}
