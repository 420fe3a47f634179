//! End-to-end protocol benches: one full Alg. 5 instance (Table I's
//! "Overall" row, criterion-grade), plus the clear-path decision for the
//! clear-vs-secure ablation of DESIGN.md §5.

use consensus_core::clear::ClearEngine;
use consensus_core::config::ConsensusConfig;
use consensus_core::secure::SecureEngine;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::SessionConfig;
use transport::Meter;

fn onehot(k: usize, classes: usize) -> Vec<f64> {
    let mut v = vec![0.0; classes];
    v[k] = 1.0;
    v
}

fn bench_secure_instance(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let engine = SecureEngine::new(
        SessionConfig::test(4, 4),
        ConsensusConfig::paper_default(1.0, 1.0),
        &mut rng,
    );
    let votes: Vec<Vec<f64>> = (0..4).map(|_| onehot(1, 4)).collect();
    let mut group = c.benchmark_group("secure_protocol");
    group.sample_size(10);
    group.bench_function("full_instance_4users_4classes", |b| {
        b.iter(|| engine.run_instance(&votes, Meter::new(), &mut rng).unwrap())
    });
    group.finish();
}

fn bench_clear_instance(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let engine = ClearEngine::new(ConsensusConfig::paper_default(1.0, 1.0), 100, 10);
    let votes: Vec<Vec<f64>> = (0..100).map(|u| onehot(u % 3, 10)).collect();
    c.bench_function("clear_instance_100users_10classes", |b| {
        b.iter(|| engine.decide(&votes, &mut rng))
    });
}

fn bench_noise_splitting_overhead(c: &mut Criterion) {
    // Ablation: distributed noise (2|U| draws) vs centralized (1 draw).
    let mut rng = StdRng::seed_from_u64(3);
    let dist = dp::DistributedNoise::new(40.0, 100);
    let central = dp::Gaussian::new(0.0, 40.0);
    c.bench_function("noise_distributed_100users", |b| b.iter(|| dist.aggregate(&mut rng)));
    c.bench_function("noise_centralized", |b| b.iter(|| central.sample(&mut rng)));
}

criterion_group!(
    benches,
    bench_secure_instance,
    bench_clear_instance,
    bench_noise_splitting_overhead
);
criterion_main!(benches);
