//! Secure session: runs the *actual* two-server cryptographic protocol
//! (Paillier secure sums, Blind-and-Permute, DGK comparisons, threshold
//! check, Restoration) over in-process channels for a few queries, then
//! prints the per-step cost tables.
//!
//! Run: `cargo run --release -p consensus-core --example secure_session`

use std::sync::Arc;

use consensus_core::config::ConsensusConfig;
use consensus_core::secure::SecureEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::SessionConfig;
use transport::Meter;

fn onehot(k: usize, classes: usize) -> Vec<f64> {
    let mut v = vec![0.0; classes];
    v[k] = 1.0;
    v
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let (users, classes) = (5usize, 4usize);

    println!("Provisioning session keys (Paillier x2 + DGK)...");
    let engine = SecureEngine::new(
        SessionConfig::test(users, classes),
        ConsensusConfig::paper_default(0.5, 0.5),
        &mut rng,
    );
    let meter = Meter::new();

    // Query 1: strong consensus — 4 of 5 users vote class 2.
    let strong: Vec<Vec<f64>> =
        (0..users).map(|u| onehot(if u < 4 { 2 } else { 0 }, classes)).collect();
    let out = engine.run_instance(&strong, Arc::clone(&meter), &mut rng).expect("protocol run");
    println!(
        "strong vote  (4/5 for class 2): released label = {:?} (exact counts {:?})",
        out.label, out.witness.counts_scaled
    );

    // Query 2: three-way split — should be rejected at the threshold.
    let split: Vec<Vec<f64>> = (0..users).map(|u| onehot(u % 3, classes)).collect();
    let out = engine.run_instance(&split, Arc::clone(&meter), &mut rng).expect("protocol run");
    println!(
        "split vote   (2/2/1):           released label = {:?} (threshold rejected)",
        out.label
    );

    let report = meter.report();
    println!("\n--- per-step running time (Table I form) ---");
    print!("{}", report.render_table1());
    println!("\n--- per-step message volume (Table II form) ---");
    print!("{}", report.render_table2());
    println!(
        "\nNote the Secure Comparison steps dominating both tables, as in the paper: each \
         of the K-1 bracket comparisons encrypts the operands bit by bit (the paper's \
         all-pairs ranking runs K(K-1)/2 of them; multiply by K/2 for parity)."
    );
}
