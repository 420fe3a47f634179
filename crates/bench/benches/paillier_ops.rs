//! Microbenches of the Paillier cryptosystem, including the key-size
//! ablation called out in DESIGN.md §5 (64-bit paper scale vs larger).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paillier::Keypair;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_encrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_encrypt");
    for bits in [64u64, 128, 256, 512] {
        let mut rng = StdRng::seed_from_u64(bits);
        let kp = Keypair::generate(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| kp.public_key().encrypt_u64(12345, &mut rng))
        });
    }
    group.finish();
}

fn bench_decrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_decrypt");
    for bits in [64u64, 256] {
        let mut rng = StdRng::seed_from_u64(bits);
        let kp = Keypair::generate(&mut rng, bits);
        let ct = kp.public_key().encrypt_u64(9876, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| kp.private_key().decrypt(&ct).unwrap())
        });
    }
    group.finish();
}

fn bench_decrypt_crt(c: &mut Criterion) {
    // Ablation: CRT decryption vs direct λ-exponent decryption.
    let mut group = c.benchmark_group("paillier_decrypt_crt");
    for bits in [64u64, 256] {
        let mut rng = StdRng::seed_from_u64(bits);
        let kp = Keypair::generate(&mut rng, bits);
        let ct = kp.public_key().encrypt_u64(9876, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| kp.private_key().decrypt_crt(&ct).unwrap())
        });
    }
    group.finish();
}

fn bench_homomorphic_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(64);
    let kp = Keypair::generate(&mut rng, 64);
    let pk = kp.public_key();
    let c1 = pk.encrypt_u64(11, &mut rng);
    let c2 = pk.encrypt_u64(22, &mut rng);
    c.bench_function("paillier_homomorphic_add_64", |b| b.iter(|| pk.add(&c1, &c2)));
    c.bench_function("paillier_scalar_mul_64", |b| {
        b.iter(|| pk.mul_plain(&c1, &bigint::Ubig::from(12345u64)))
    });
}

criterion_group!(benches, bench_encrypt, bench_decrypt, bench_decrypt_crt, bench_homomorphic_ops);
criterion_main!(benches);
