//! Layer probes: the harness times each layer's public function
//! directly, at the workload's key sizes, and reports the floor.
//!
//! Probes run in the traced pass only. Each gets an equal slice of the
//! probe budget and repeats until the slice is spent (at least once), so
//! a 2048-bit key generation is timed once and a Montgomery multiply a
//! million times. Nothing here is bounded — the numbers exist to say
//! which layer an end-to-end change came from.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bigint::montgomery::MontgomeryContext;
use bigint::prime::gen_prime;
use bigint::{random, Ubig};
use dgk::comparison::compare_gt_plain;
use dgk::DgkKeypair;
use dp::rdp::LinearRdp;
use dp::{DistributedNoise, DurableRdpLedger};
use paillier::{Ciphertext, Keypair};
use parallel::Parallelism;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::SessionConfig;
use transport::{CheckpointStore, FileCheckpointStore, Meter, Network, PartyId, Step, Wire};

use crate::stats::ms;
use crate::workloads::DELTA;

/// Number of probes [`run_all`] times; the probe budget is split evenly.
const PROBES: u32 = 19;

/// Repeats `f` until `slice` is spent (at least once) and returns the
/// fastest repetition.
fn floor_of(slice: Duration, mut f: impl FnMut()) -> Duration {
    let begun = Instant::now();
    let mut best = Duration::MAX;
    loop {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
        if begun.elapsed() >= slice {
            return best;
        }
    }
}

/// As [`floor_of`] for operations too short for one clock read: times
/// `batch` calls together and returns the per-call floor.
fn floor_of_batch(slice: Duration, batch: u32, mut f: impl FnMut()) -> Duration {
    floor_of(slice, || (0..batch).for_each(|_| f())) / batch
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs every probe at `config`'s key sizes, spending about `budget` in
/// total, with scratch files under `dir`. Returns `(metric, value)`
/// pairs in catalogue units.
///
/// # Panics
///
/// Panics if `dir` cannot hold the checkpoint and ledger scratch files,
/// or a probe's own output fails its sanity check.
pub fn run_all(
    config: &SessionConfig,
    sigma: f64,
    seed: u64,
    budget: Duration,
    dir: &Path,
) -> Vec<(&'static str, f64)> {
    let slice = budget / PROBES;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F9E_0B35);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let bits = config.paillier_bits;
    let (users, classes) = (config.num_users, config.num_classes);

    // bigint + key generation. The keypairs the timed calls produce are
    // the ones the operation probes below use.
    out.push((
        "bigint.gen_prime_ms",
        ms(floor_of(slice, || {
            black_box(gen_prime(&mut rng, bits / 2));
        })),
    ));
    let mut paillier = None;
    out.push((
        "paillier.keygen_ms",
        ms(floor_of(slice, || {
            paillier = Some(Keypair::generate(&mut rng, bits));
        })),
    ));
    let paillier = paillier.expect("floor_of runs at least once");
    let mut dgk = None;
    out.push((
        "dgk.keygen_ms",
        ms(floor_of(slice, || {
            dgk = Some(DgkKeypair::generate(&mut rng, &config.dgk));
        })),
    ));
    let dgk: DgkKeypair = dgk.expect("floor_of runs at least once");

    let (pk, sk) = (paillier.public_key(), paillier.private_key());
    pk.precompute();
    sk.precompute();
    let n2 = pk.modulus_squared();
    let ctx = MontgomeryContext::new(n2).expect("n² is odd");
    let base = random::gen_below(&mut rng, n2);
    let other = random::gen_below(&mut rng, n2);
    out.push((
        "bigint.modpow_us",
        us(floor_of(slice, || {
            black_box(ctx.modpow(&base, pk.modulus()));
        })),
    ));
    let (a_mont, b_mont) = (ctx.to_mont(&base), ctx.to_mont(&other));
    let mont_mul = floor_of_batch(slice, 1000, || {
        black_box(ctx.mul_mont(black_box(&a_mont), black_box(&b_mont)));
    });
    out.push(("bigint.mont_mul_ns", mont_mul.as_secs_f64() * 1e9));

    // Paillier.
    let mut c = pk.encrypt_u64(41, &mut rng);
    out.push((
        "paillier.encrypt_us",
        us(floor_of(slice, || {
            c = pk.encrypt_u64(41, &mut rng);
        })),
    ));
    let c2 = pk.encrypt_u64(1, &mut rng);
    out.push((
        "paillier.decrypt_crt_us",
        us(floor_of(slice, || {
            black_box(sk.decrypt_crt(&c).expect("own ciphertext decrypts"));
        })),
    ));
    out.push((
        "paillier.rerandomize_us",
        us(floor_of(slice, || {
            black_box(pk.rerandomize(&c, &mut rng));
        })),
    ));
    // A mask-sized scalar: what Blind-and-Permute multiplies by.
    let scalar = random::gen_bits(&mut rng, u64::from(config.domain.compare_bits));
    out.push((
        "paillier.mul_plain_us",
        us(floor_of(slice, || {
            black_box(pk.mul_plain(&c, &scalar));
        })),
    ));
    out.push((
        "paillier.add_us",
        us(floor_of_batch(slice, 100, || {
            black_box(pk.add(&c, &c2));
        })),
    ));
    assert_eq!(sk.decrypt_crt(&pk.add(&c, &c2)).expect("sum decrypts"), Ubig::from(42u64));
    out.push(("paillier.ciphertext_bytes", c.byte_len() as f64));

    // DGK: one bit encryption, and one whole ℓ-bit comparison.
    let dgk_pk = dgk.public_key();
    let mut bit = dgk_pk.encrypt_bit(true, &mut rng);
    out.push((
        "dgk.encrypt_bit_us",
        us(floor_of_batch(slice, 10, || {
            bit = dgk_pk.encrypt_bit(true, &mut rng);
        })),
    ));
    let top = (1u64 << dgk_pk.compare_bits()) - 1;
    out.push((
        "dgk.compare_ms",
        ms(floor_of(slice, || {
            let gt =
                compare_gt_plain(top - 1, top / 3, &dgk, &mut rng).expect("in-range comparison");
            assert!(gt, "DGK comparison returned the wrong order");
        })),
    ));
    // Computed, not metered: ℓ encrypted bits one way, ℓ witnesses back.
    out.push(("dgk.compare_bytes", (2 * dgk_pk.compare_bits() as usize * bit.byte_len()) as f64));

    // Transport.
    let mut net = Network::new(1);
    let s1 = net.take_endpoint(PartyId::Server1);
    let mut s2 = net.take_endpoint(PartyId::Server2);
    out.push((
        "transport.inproc_rtt_us",
        us(floor_of_batch(slice, 100, || {
            s1.send(PartyId::Server2, Step::Setup, &7u64).expect("in-proc send");
            let got: u64 = s2.recv(PartyId::Server1, Step::Setup).expect("in-proc recv");
            black_box(got);
        })) * 2.0,
    ));
    out.push((
        "transport.network_build_us",
        us(floor_of(slice, || {
            let mut net = Network::with_meter(users, Meter::new());
            black_box((net.take_endpoint(PartyId::Server1), net.take_endpoint(PartyId::Server2)));
        })),
    ));
    let vector: Vec<Ciphertext> = (0..classes).map(|_| pk.rerandomize(&c, &mut rng)).collect();
    out.push((
        "transport.wire_encode_us",
        us(floor_of_batch(slice, 10, || {
            black_box(vector.to_bytes());
        })),
    ));
    let payload = vector.to_bytes();
    let store = FileCheckpointStore::open(dir.join("probe-checkpoints")).expect("open store");
    let mut round = 0u64;
    out.push((
        "transport.checkpoint_save_us",
        us(floor_of(slice, || {
            round += 1;
            store.save(round, PartyId::Server1, Step::BlindPermute1, &payload).expect("save");
        })),
    ));

    // DP: a user's 2K noise shares, one durable charge, and the constant.
    let noise = DistributedNoise::new(sigma, users);
    out.push((
        "dp.noise_shares_us",
        us(floor_of_batch(slice, 10, || {
            (0..classes).for_each(|_| {
                black_box(noise.user_share_pair(&mut rng));
            });
        })),
    ));
    let cost = LinearRdp::sparse_vector(sigma).compose(&LinearRdp::report_noisy_max(sigma));
    let ledger = DurableRdpLedger::open(dir.join("probe-ledger"), 1e18, DELTA).expect("open");
    let mut charge = 0u64;
    out.push((
        "dp.ledger_charge_us",
        us(floor_of(slice, || {
            charge += 1;
            assert!(ledger.charge(charge, cost).expect("durable charge"), "fresh round id");
        })),
    ));
    out.push(("dp.epsilon_per_label", cost.to_epsilon(DELTA)));

    // parallel: what handing half of 32 trivial items to a second worker
    // costs over doing them in place (the engine default stays sequential).
    let items = [0u64; 32];
    let spread = Parallelism::new(2).with_min_batch(1);
    let threaded = floor_of(slice / 2, || {
        black_box(spread.map(&items, |i, x| x + i as u64));
    });
    let inline = floor_of(slice / 2, || {
        black_box(Parallelism::sequential().map(&items, |i, x| x + i as u64));
    });
    out.push(("parallel.map32_overhead_us", us(threaded.saturating_sub(inline))));
    out
}
