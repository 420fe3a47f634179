//! **Table I — Computational costs.** Runs the full secure protocol
//! (Alg. 5) over real channels for a batch of instances and reports the
//! per-step average running time, in the same rows as the paper.
//!
//! Paper setting: 1000 instances, 10 classes, averaged over 755 rounds on
//! a Xeon E5-2650. Defaults here are smaller (override with `--instances`,
//! `--classes`, `--users`); absolute times differ from the paper's
//! testbed but the *ratios* (secure comparison ≫ blind-and-permute) are
//! the reproduced signal.
//!
//! Usage: `cargo run --release -p benches --bin table1_costs -- [--instances N] [--users U] [--classes K] [--paper-params]`

use std::sync::Arc;
use std::time::Duration;

use benches::{f3, Args, Table};
use consensus_core::config::ConsensusConfig;
use consensus_core::secure::SecureEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::SessionConfig;
use transport::{LinkKind, Meter, MeterReport, Step};

fn main() {
    let args = Args::capture();
    let instances: usize = args.get("instances", 20);
    let users: usize = args.get("users", 10);
    let classes: usize = args.get("classes", 10);
    let seed: u64 = args.get("seed", 7);
    let paper_params = args.has("paper-params");

    let mut rng = StdRng::seed_from_u64(seed);
    let session = if paper_params {
        SessionConfig::paper(users, classes)
    } else {
        SessionConfig::test(users, classes)
    };
    println!(
        "Table I reproduction: {instances} instances, {users} users, {classes} classes, \
         Paillier {} bits, DGK ℓ = {}",
        session.paillier_bits, session.dgk.compare_bits
    );
    let consensus = ConsensusConfig::paper_default(2.0, 2.0);
    let engine = SecureEngine::new(session, consensus, &mut rng);
    let meter = Meter::new();

    let mut released = 0usize;
    for i in 0..instances {
        // Rotate a strong majority so most instances pass the threshold
        // and exercise steps 6-9 (as the paper's per-step averages do).
        let winner = i % classes;
        let votes: Vec<Vec<f64>> = (0..users)
            .map(|u| {
                let mut v = vec![0.0; classes];
                let pick = if u < users * 4 / 5 { winner } else { (winner + 1 + u) % classes };
                v[pick] = 1.0;
                v
            })
            .collect();
        let out =
            engine.run_instance(&votes, Arc::clone(&meter), &mut rng).expect("secure run failed");
        if out.label.is_some() {
            released += 1;
        }
    }

    let report = meter.report();
    let mut table = Table::new(&["Step", "Average Running Time (s)"]);
    for step in [
        Step::BlindPermute1,
        Step::CompareRank,
        Step::ThresholdCheck,
        Step::BlindPermute2,
        Step::CompareNoisyRank,
        Step::Restoration,
    ] {
        table.row(vec![
            step.to_string(),
            f3(report.step_time(step).as_secs_f64() / instances as f64),
        ]);
    }
    table
        .row(vec!["Overall".to_string(), f3(report.total_time().as_secs_f64() / instances as f64)]);
    table.print();
    println!("\n({released}/{instances} instances passed the threshold)");
    println!("Paper reference ratios: comparison steps (4)(8) dominate; the bracket plays K−1 comparisons where the paper's all-pairs ranking plays K(K−1)/2, so multiply steps (4)(8) by K/2 for paper parity; threshold check (5) ≈ 1/(K−1) of step (4); permute/restore steps are orders of magnitude cheaper.");

    // Analytic network projection: what the same run would pay in message
    // latency + serialization on realistic links.
    println!("\nEstimated network time per instance (latency model):");
    for (name, profile) in [
        ("loopback", NetworkProfile::local()),
        ("federated (users WAN, servers LAN)", NetworkProfile::federated()),
        ("wide-area", NetworkProfile::wide_area()),
    ] {
        let t = profile.total_network_time(&report).as_secs_f64() / instances as f64;
        println!("  {name:<36} {t:.3} s");
    }
}

// ---- Analytic network-cost model ------------------------------------
//
// The in-process channels deliver messages in microseconds, so the wall
// times in Table I reflect pure computation. A real deployment pays
// latency per message round and serialization per byte; since the meter
// records exactly how many messages and bytes each step moved, the total
// network cost of a run can be estimated for any link profile rather
// than re-run over a WAN.

/// A link's latency/bandwidth characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkProfile {
    /// One-way message latency in microseconds.
    latency_us: u64,
    /// Usable bandwidth in bytes per second.
    bytes_per_sec: u64,
}

impl LinkProfile {
    /// A same-rack / loopback link: 50 µs, 10 Gb/s.
    fn loopback() -> Self {
        LinkProfile { latency_us: 50, bytes_per_sec: 1_250_000_000 }
    }

    /// A LAN link: 0.5 ms, 1 Gb/s.
    fn lan() -> Self {
        LinkProfile { latency_us: 500, bytes_per_sec: 125_000_000 }
    }

    /// A WAN link between data centers: 30 ms, 100 Mb/s.
    fn wan() -> Self {
        LinkProfile { latency_us: 30_000, bytes_per_sec: 12_500_000 }
    }
}

/// Link profiles for the three link kinds of the deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NetworkProfile {
    /// Users ↔ servers (typically WAN: users are remote institutions).
    user_server: LinkProfile,
    /// Server ↔ server (typically LAN or inter-DC).
    server_server: LinkProfile,
}

impl NetworkProfile {
    /// Everything on one machine.
    fn local() -> Self {
        NetworkProfile {
            user_server: LinkProfile::loopback(),
            server_server: LinkProfile::loopback(),
        }
    }

    /// Users over WAN, servers co-located on a LAN — the paper's
    /// two-corporation deployment story.
    fn federated() -> Self {
        NetworkProfile { user_server: LinkProfile::wan(), server_server: LinkProfile::lan() }
    }

    /// Everything across data centers.
    fn wide_area() -> Self {
        NetworkProfile { user_server: LinkProfile::wan(), server_server: LinkProfile::wan() }
    }

    fn profile_for(&self, link: LinkKind) -> LinkProfile {
        match link {
            LinkKind::UserToServer | LinkKind::ServerToUser => self.user_server,
            LinkKind::ServerToServer => self.server_server,
        }
    }

    /// Estimated network time of one step under this profile: every
    /// message pays the link latency (the protocol's server↔server
    /// messages are strictly sequential rounds) plus serialization.
    fn step_network_time(&self, report: &MeterReport, step: Step) -> Duration {
        let mut total = Duration::ZERO;
        for (s, link, stats) in report.comm_rows() {
            if s != step {
                continue;
            }
            let profile = self.profile_for(link);
            // User messages of one step travel concurrently: charge one
            // latency for the slowest plus full serialization; the
            // server↔server dialogue is sequential rounds.
            match link {
                LinkKind::UserToServer | LinkKind::ServerToUser => {
                    if stats.messages > 0 {
                        total += Duration::from_micros(profile.latency_us);
                        total += Duration::from_secs_f64(
                            stats.bytes as f64 / profile.bytes_per_sec as f64,
                        );
                    }
                }
                LinkKind::ServerToServer => {
                    total += Duration::from_micros(profile.latency_us) * stats.messages as u32;
                    total +=
                        Duration::from_secs_f64(stats.bytes as f64 / profile.bytes_per_sec as f64);
                }
            }
        }
        total
    }

    /// Estimated total network time across all steps.
    fn total_network_time(&self, report: &MeterReport) -> Duration {
        Step::ALL.iter().map(|&s| self.step_network_time(report, s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> MeterReport {
        let meter = Meter::new();
        // 10 users upload one 1 KB message each.
        for _ in 0..10 {
            meter.record_message(Step::SecureSumVotes, LinkKind::UserToServer, 1024);
        }
        // 45 comparison rounds of 2 messages, 4 KB each.
        for _ in 0..90 {
            meter.record_message(Step::CompareRank, LinkKind::ServerToServer, 4096);
        }
        meter.report()
    }

    #[test]
    fn sequential_rounds_dominate_on_wan() {
        let report = sample_report();
        let profile = NetworkProfile::wide_area();
        let compare = profile.step_network_time(&report, Step::CompareRank);
        // 90 sequential messages × 30 ms ≈ 2.7 s of pure latency.
        assert!(compare.as_secs_f64() > 2.6, "{compare:?}");
        let upload = profile.step_network_time(&report, Step::SecureSumVotes);
        // Concurrent uploads: one latency + 10 KB transfer — far smaller.
        assert!(upload < compare / 10, "upload {upload:?} vs compare {compare:?}");
    }

    #[test]
    fn faster_links_cost_less() {
        let report = sample_report();
        let local = NetworkProfile::local().total_network_time(&report);
        let fed = NetworkProfile::federated().total_network_time(&report);
        let wan = NetworkProfile::wide_area().total_network_time(&report);
        assert!(local < fed);
        assert!(fed <= wan);
    }

    #[test]
    fn empty_report_is_free() {
        let report = Meter::new().report();
        assert_eq!(NetworkProfile::wide_area().total_network_time(&report), Duration::ZERO);
    }

    #[test]
    fn total_is_sum_of_steps() {
        let report = sample_report();
        let profile = NetworkProfile::federated();
        let by_steps: Duration =
            Step::ALL.iter().map(|&s| profile.step_network_time(&report, s)).sum();
        assert_eq!(by_steps, profile.total_network_time(&report));
    }
}
