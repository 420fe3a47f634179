//! Dropout-resilient consensus under injected faults.
//!
//! Runs three secure rounds of the same 5-user query while user 3 is
//! crashed before its first upload, then shows the typed abort when the
//! quorum cannot be met. Demonstrates the `RoundHealth` record: who
//! survived, the noise scale actually realized, and the honest RDP
//! charge for each round. Finally, crashes a *server* mid-round and
//! lets the `RoundSupervisor` resume it from durable checkpoints — the
//! recovered result is bit-identical to an uninterrupted round, and its
//! privacy budget is charged exactly once.
//!
//! Two more fault classes round out the tour: hostile upload encodings
//! (replays, wrong arity, malformed ciphertexts) refused at the door
//! with their `rejected_*` counters surfaced on the meter, and a
//! mid-round TCP connection kill that the socket transport heals by
//! reconnect-and-replay without the protocol ever noticing.
//!
//! ```bash
//! cargo run --release -p consensus-core --example fault_tolerance
//! ```

use std::sync::Arc;
use std::time::Duration;

use bigint::Ubig;
use consensus_core::config::ConsensusConfig;
use consensus_core::recovery::{RdpLedger, RoundSupervisor};
use consensus_core::secure::SecureEngine;
use paillier::Ciphertext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::{SessionConfig, SessionKeys, SmcError, UploadValidator};
use transport::{
    FaultPlan, MemoryCheckpointStore, Meter, PartyId, Step, TcpConfig, TimeoutPolicy,
    TransportBackend,
};

fn main() {
    let users = 5;
    let classes = 3;
    let mut rng = StdRng::seed_from_u64(42);
    println!("generating session keys ({users} users, {classes} classes)...");
    let keys = SessionKeys::generate(SessionConfig::test(users, classes), &mut rng);
    let delta = 1e-6;
    let config = ConsensusConfig::paper_default(1.0, 1.0).with_min_users(3);

    // User 3 crashes before it can upload anything.
    let plan = FaultPlan::new(7).crash(PartyId::User(3), Step::SecureSumVotes);
    let engine = SecureEngine::with_keys(keys.clone(), config)
        .with_timeout(TimeoutPolicy::with_retries(Duration::from_millis(100), 1, 2.0))
        .with_fault_plan(plan);

    // Three rounds of the same unanimous query: the roster shrinks after
    // round 1 and the remaining users recalibrate their noise shares.
    let instance: Vec<Vec<f64>> = (0..users).map(|_| vec![0.0, 1.0, 0.0]).collect();
    let instances = vec![instance.clone(), instance.clone(), instance];
    println!("\n== three rounds with user 3 crashed (quorum 3) ==");
    let meter = Meter::new();
    let outcomes = engine.run_batch(&instances, meter.clone(), &mut rng).expect("quorum holds");
    for (i, out) in outcomes.iter().enumerate() {
        let h = &out.health;
        println!(
            "round {}: label={:?} roster={:?} survivors={:?} dropouts={:?}",
            i + 1,
            out.label,
            h.intended_users,
            h.survivors,
            h.dropouts,
        );
        println!(
            "         realized σ1={:.4} σ2={:?} clean={} ε_charged={:.4}",
            h.realized_sigma1,
            h.realized_sigma2,
            h.is_clean(),
            h.charged_rdp().to_epsilon(delta),
        );
    }

    print!("\n{}", meter.report().render_fault_summary());

    // Crash three of five users: below the quorum, both servers abort
    // with the same typed error instead of releasing a 2-user consensus.
    println!("\n== mass crash below quorum ==");
    let plan = FaultPlan::new(8)
        .crash(PartyId::User(1), Step::SecureSumVotes)
        .crash(PartyId::User(2), Step::SecureSumVotes)
        .crash(PartyId::User(3), Step::SecureSumVotes);
    let engine = SecureEngine::with_keys(
        keys.clone(),
        ConsensusConfig::paper_default(1.0, 1.0).with_min_users(3),
    )
    .with_timeout(TimeoutPolicy::with_retries(Duration::from_millis(100), 1, 2.0))
    .with_fault_plan(plan);
    let instance: Vec<Vec<f64>> = (0..users).map(|_| vec![0.0, 1.0, 0.0]).collect();
    match engine.run_instance(&instance, Meter::new(), &mut rng) {
        Err(SmcError::QuorumLost { step, survivors, required }) => {
            println!(
                "typed abort: quorum lost at {step} — {survivors} survivors < {required} required"
            );
        }
        other => println!("unexpected outcome: {other:?}"),
    }

    // Crash server 2 in the middle of the secure-comparison step. The
    // supervisor restores the latest consistent checkpoint pair, strips
    // the server crash (the process was "restarted"), replays the
    // round's prepared uploads and resumes — and the recovered result
    // matches an uninterrupted round of the same seed bit for bit.
    println!("\n== server crash mid-round, recovered from checkpoints ==");
    let config = ConsensusConfig::paper_default(1.0, 1.0).with_min_users(3);
    let baseline_engine = SecureEngine::with_keys(keys.clone(), config)
        .with_timeout(TimeoutPolicy::with_retries(Duration::from_millis(100), 1, 2.0));
    let mut baseline_rng = StdRng::seed_from_u64(77);
    let baseline = baseline_engine
        .run_instance(&instance, Meter::new(), &mut baseline_rng)
        .expect("baseline round completes");

    let crash_plan = FaultPlan::new(9).crash(PartyId::Server2, Step::CompareRank);
    let engine = SecureEngine::with_keys(keys.clone(), config)
        .with_timeout(TimeoutPolicy::with_retries(Duration::from_millis(100), 1, 2.0))
        .with_fault_plan(crash_plan);
    let ledger = Arc::new(RdpLedger::new());
    let mut supervisor = RoundSupervisor::new(&engine, Arc::new(MemoryCheckpointStore::new()))
        .with_ledger(Arc::clone(&ledger));
    let meter = Meter::new();
    let mut crash_rng = StdRng::seed_from_u64(77);
    let recovered =
        supervisor.run_instance(&instance, meter.clone(), &mut crash_rng).expect("round recovered");

    let h = &recovered.health;
    println!(
        "recovered: label={:?} resumptions={} resumed_from={:?}",
        recovered.label, h.resumptions, h.resumed_from
    );
    let stats = meter.fault_stats();
    println!(
        "checkpoints: saved={} restored={} rounds_resumed={}",
        stats.checkpoints_saved, stats.checkpoints_restored, stats.rounds_resumed
    );
    println!(
        "bit-identical to the uninterrupted round: {}",
        recovered.consensus_fingerprint() == baseline.consensus_fingerprint()
    );
    println!(
        "privacy charged exactly once: {} charge(s), ε={:.4}",
        ledger.charges(),
        ledger.total().expect("one round charged").to_epsilon(delta)
    );

    // Hostile encodings never reach the homomorphic pipeline: a replayed
    // sequence number, a wrong-arity vector and a malformed ciphertext
    // are each refused at the door of the server that cannot decrypt
    // them, and every refusal lands on a `rejected_*` meter counter.
    println!("\n== adversarial uploads rejected at the door ==");
    let key = keys.server1().peer_public().clone();
    let good: Vec<Ciphertext> =
        (0..classes).map(|_| key.encrypt(&Ubig::from(1u64), &mut rng).expect("encrypt")).collect();
    let mut rejections = Vec::new();
    let mut validator = UploadValidator::new(classes);
    let step = Step::SecureSumVotes;
    validator
        .check(&mut rejections, PartyId::User(0), step, 1, &good, &key)
        .expect("a well-formed upload passes");
    let replay = validator.check(&mut rejections, PartyId::User(0), step, 1, &good, &key);
    println!("replayed sequence:    {}", replay.unwrap_err());
    let arity = validator.check(&mut rejections, PartyId::User(1), step, 1, &good[..1], &key);
    println!("truncated vector:     {}", arity.unwrap_err());
    let mut hostile = good.clone();
    hostile[0] = Ciphertext::from_raw(Ubig::from(0u64));
    let malformed = validator.check(&mut rejections, PartyId::User(2), step, 2, &hostile, &key);
    println!("malformed ciphertext: {}", malformed.unwrap_err());
    // A round's driver counts what the validator emits on its meter.
    let meter = Meter::new();
    rejections.into_iter().for_each(|event| meter.record_fault(event));
    print!("\n{}", meter.report().render_fault_summary());

    // The same story over real loopback sockets: a chaos proxy severs
    // the server spine mid-frame, the link layer redials and replays
    // from the last acknowledged sequence number, and the round lands on
    // the in-proc fingerprint without the protocol ever seeing a
    // dropout.
    println!("\n== mid-round connection kill over real TCP sockets ==");
    let inproc_engine =
        SecureEngine::with_keys(keys.clone(), config).with_timeout(TimeoutPolicy::fast_local());
    let mut tcp_rng = StdRng::seed_from_u64(91);
    let inproc = inproc_engine
        .run_instance(&instance, Meter::new(), &mut tcp_rng)
        .expect("in-proc reference completes");

    let sever_plan = FaultPlan::new(11).sever_connection(PartyId::Server1, PartyId::Server2, 2_000);
    let tcp_engine = SecureEngine::with_keys(keys, config)
        .with_timeout(TimeoutPolicy::fast_local())
        .with_fault_plan(sever_plan)
        .with_transport(TransportBackend::Tcp(TcpConfig::fast_local()));
    let meter = Meter::new();
    let mut tcp_rng = StdRng::seed_from_u64(91);
    let tcp = tcp_engine
        .run_instance(&instance, meter.clone(), &mut tcp_rng)
        .expect("tcp round completes");
    let stats = meter.fault_stats();
    println!("reconnects={} dropouts={:?}", stats.reconnects, tcp.health.dropouts);
    println!(
        "tcp fingerprint matches in-proc: {}",
        tcp.consensus_fingerprint() == inproc.consensus_fingerprint()
    );
    print!("\n{}", meter.report().render_fault_summary());
}
