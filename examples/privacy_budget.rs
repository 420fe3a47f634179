//! Privacy accounting tour: how the Rényi-DP curves of the consensus
//! protocol compose, what Theorem 5 guarantees per query, how many
//! queries a fixed budget buys — and how the *durable* campaign daemon
//! survives a kill -9 with its epsilon intact.
//!
//! Run: `cargo run --release -p consensus-core --example privacy_budget`

use consensus_core::campaign::{CampaignConfig, CampaignRunner, CampaignStop};
use consensus_core::config::ConsensusConfig;
use dp::rdp::{consensus_epsilon, sigma_for_epsilon, LinearRdp};
use transport::Meter;

fn main() {
    println!("== Per-query guarantee (Theorem 5) ==");
    println!("{:<10} {:<10} {:>12}", "sigma1", "sigma2", "epsilon(1e-6)");
    for sigma in [10.0, 20.0, 40.0, 80.0, 160.0] {
        println!("{sigma:<10} {sigma:<10} {:>12.4}", consensus_epsilon(sigma, sigma, 1e-6));
    }

    println!("\n== Composition over a labeling campaign ==");
    let sigma = 40.0;
    let per_query = LinearRdp::sparse_vector(sigma).compose(&LinearRdp::report_noisy_max(sigma));
    println!("{:<10} {:>12} {:>18}", "queries", "epsilon", "naive k*eps1");
    let one = per_query.to_epsilon(1e-6);
    for k in [1u64, 10, 100, 755, 1000] {
        println!("{k:<10} {:>12.3} {:>18.3}", per_query.repeat(k).to_epsilon(1e-6), one * k as f64);
    }
    println!("(RDP composition grows ~sqrt(k), far better than naive linear composition)");

    println!("\n== Calibrating noise to a target ε ==");
    for (target, k) in [(2.0, 1000u64), (8.19, 1000), (20.0, 1000)] {
        let s = sigma_for_epsilon(target, 1e-6, k);
        println!("target ε = {target:<6} over {k} queries  →  σ1 = σ2 = {s:.1} votes");
    }

    println!("\n== Queries a hard budget buys ==");
    let budget = 4.0;
    let spend = |k: u64| per_query.repeat(k).to_epsilon(1e-6);
    let answered = (1..).take_while(|&k| spend(k) <= budget).count() as u64;
    println!(
        "budget ε ≤ {budget}: answered {answered} queries, final spend ε = {:.3}",
        spend(answered)
    );

    println!("\n== Durable campaign daemon: kill -9, resume, budget refusal ==");
    let dir = std::env::temp_dir().join(format!("privacy-budget-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // σ = 1.5 with quorum 2 of 5 spends ε fast enough to watch: worst-case
    // admission refuses the fourth query against a budget of ε ≤ 40.
    let campaign_budget = 40.0;
    let config = CampaignConfig::new(
        ConsensusConfig::paper_default(1.5, 1.5).with_min_users(2),
        5,
        3,
        campaign_budget,
        1e-6,
    )
    .with_seed(0xDAE5);
    let onehot = |k: usize| {
        let mut v = vec![0.0; 3];
        v[k] = 1.0;
        v
    };
    let instances: Vec<Vec<Vec<f64>>> = (0..6).map(|i| vec![onehot(i % 3); 5]).collect();

    // First lifetime: answer two queries, then the process "dies" — the
    // runner is dropped with the queue unfinished. The only durable state
    // is the campaign directory.
    let mut daemon = CampaignRunner::open(&dir, config.clone()).expect("open campaign");
    let first = daemon.run(&instances[..2], Meter::new()).expect("first lifetime");
    let eps_at_kill = first.epsilon_spent;
    println!(
        "lifetime 1: answered {} queries, ε = {:.3}, then kill -9",
        first.released.len(),
        eps_at_kill
    );
    drop(daemon);

    // Second lifetime: reopening the directory replays the ledger journal,
    // so admission control resumes at the exact epsilon already spent.
    let mut daemon = CampaignRunner::open(&dir, config).expect("reopen campaign");
    assert_eq!(daemon.epsilon_spent().to_bits(), eps_at_kill.to_bits());
    println!("lifetime 2: reopened, ε resumes bitwise-equal at {:.3}", daemon.epsilon_spent());

    // Re-running the full queue replays the two paid rounds (same labels,
    // charged = false — the ledger refuses duplicate charges) and then
    // stops at the first query whose worst-case spend would overshoot.
    let report = daemon.run(&instances, Meter::new()).expect("second lifetime");
    for row in report.telemetry_json() {
        println!("  {row}");
    }
    match report.stop {
        CampaignStop::BudgetExhausted { refused_instance, worst_case_epsilon } => println!(
            "refused query {refused_instance}: worst-case ε = {worst_case_epsilon:.2} exceeds \
             budget {campaign_budget} (spent ε = {:.3}, never overdrawn)",
            report.epsilon_spent
        ),
        other => println!("unexpected stop: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
