//! Microbenches of the bigint substrate: multiplication, division and
//! modular exponentiation at the key sizes the cryptosystems use.

use bigint::modular::modpow;
use bigint::montgomery::{FixedBaseComb, MontgomeryContext};
use bigint::random;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_mul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("bigint_mul");
    for bits in [64u64, 128, 256, 1024] {
        let a = random::gen_exact_bits(&mut rng, bits);
        let b = random::gen_exact_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| &a * &b)
        });
    }
    group.finish();
}

fn bench_divrem(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("bigint_divrem");
    for bits in [128u64, 256, 1024] {
        let a = random::gen_exact_bits(&mut rng, bits * 2);
        let b = random::gen_exact_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| a.div_rem(&b))
        });
    }
    group.finish();
}

fn bench_modpow(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("bigint_modpow");
    group.sample_size(20);
    for bits in [64u64, 128, 256] {
        let m = random::gen_exact_bits(&mut rng, bits);
        let base = random::gen_below(&mut rng, &m);
        let exp = random::gen_exact_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| modpow(&base, &exp, &m))
        });
    }
    group.finish();
}

fn bench_modpow_montgomery(c: &mut Criterion) {
    // Ablation (DESIGN.md §5): Montgomery REDC vs division-based modpow.
    let mut rng = StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("bigint_modpow_montgomery");
    group.sample_size(20);
    for bits in [64u64, 128, 256] {
        let mut m = random::gen_exact_bits(&mut rng, bits);
        m.set_bit(0, true); // Montgomery needs odd moduli
        let ctx = MontgomeryContext::new(&m).expect("odd modulus");
        let base = random::gen_below(&mut rng, &m);
        let exp = random::gen_exact_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| ctx.modpow(&base, &exp))
        });
    }
    group.finish();
}

fn bench_fixed_base(c: &mut Criterion) {
    // Ablation (DESIGN.md §5): fixed-base comb vs plain cached-context
    // modpow for a reused generator.
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("bigint_fixed_base");
    group.sample_size(20);
    for bits in [64u64, 128, 256] {
        let mut m = random::gen_exact_bits(&mut rng, bits);
        m.set_bit(0, true);
        let ctx = Arc::new(MontgomeryContext::new(&m).expect("odd modulus"));
        let base = random::gen_below(&mut rng, &m);
        let comb = FixedBaseComb::new(Arc::clone(&ctx), &base, bits);
        let exp = random::gen_exact_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| comb.pow(&exp))
        });
    }
    group.finish();
}

fn bench_double_exp(c: &mut Criterion) {
    // Shamir/Straus simultaneous g^a·h^b vs two independent walks.
    let mut rng = StdRng::seed_from_u64(6);
    let mut group = c.benchmark_group("bigint_double_exp");
    group.sample_size(20);
    for bits in [128u64, 256] {
        let mut m = random::gen_exact_bits(&mut rng, bits);
        m.set_bit(0, true);
        let ctx = MontgomeryContext::new(&m).expect("odd modulus");
        let g = random::gen_below(&mut rng, &m);
        let h = random::gen_below(&mut rng, &m);
        let a = random::gen_exact_bits(&mut rng, bits);
        let b = random::gen_exact_bits(&mut rng, bits);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |bench, _| {
            bench.iter(|| ctx.modpow2(&g, &a, &h, &b))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mul,
    bench_divrem,
    bench_modpow,
    bench_modpow_montgomery,
    bench_fixed_base,
    bench_double_exp
);
criterion_main!(benches);
