//! **BENCH_protocol.json** — machine-readable protocol microbenches.
//!
//! Times the cryptographic hot-path operations (Paillier encrypt/decrypt,
//! DGK encrypt/zero-test, homomorphic scalar ops) and emits a flat
//! `step → ns/iter` JSON map, seeding the repository's performance
//! trajectory. For every operation two variants run on **identical
//! operands**:
//!
//! * `<step>_pre` — the pre-caching baseline: the exact exponentiation
//!   strategy the workspace used before per-key cached Montgomery
//!   contexts landed (a fresh context built per call, Montgomery only
//!   when `exp.bits() >= 24`, allocation-per-step binary ladder);
//! * `<step>` — the current path through the per-key caches and
//!   fixed-base combs.
//!
//! Private scalars the public API hides (Paillier `λ`, DGK `v_p`/`p`)
//! are replaced by freshly sampled stand-ins of the same documented bit
//! lengths, used identically by both variants, so every pre/post ratio
//! compares like against like.
//!
//! The `ablation_*` entries record the DESIGN.md "Exponentiation
//! strategy" ladder (division → rebuilt Montgomery → cached Montgomery →
//! fixed-base comb → Shamir double-exp) at a 256-bit modulus.
//!
//! The `par_*` entries form the data-parallel thread-scaling sweep: the
//! same hot loops (batch encryption, DGK witness construction,
//! secure-sum aggregation, one full engine round at |U| = 8, K = 10)
//! timed at 1/2/4/8 worker threads through the [`Parallelism`] engine. Every JSON sample carries the thread count it
//! was measured at.
//!
//! The emitted JSON also contains one `fault_counters` object with the
//! reliability counters the end-to-end rounds accumulated — timeouts,
//! retries, `rejected_*` upload-validation refusals, backpressure and
//! socket events — all expected to be zero on a healthy machine, so a
//! trend line notices the first run where they are not.
//!
//! Usage:
//! `cargo run --release -p benches --bin bench_protocol -- [--smoke] [--batch] [--scale] [--iters N] [--threads N] [--out PATH]`
//!
//! `--smoke` runs 2 iterations per step and trims the thread sweep (CI
//! wiring); `--threads` (default: the `CONSENSUS_THREADS` environment
//! variable, else 1) is always included as a sweep point; `--audit`
//! additionally times the full engine round with the covert-security
//! audit layer off vs. on (`audit_off_engine_round_*` /
//! `audit_on_engine_round_*` rows), so the cost of commit-and-challenge
//! verification is a tracked number rather than folklore; `--batch` adds
//! the batched-kernel ablation rows (Straus multi-exp vs iterated modpow
//! at k ∈ {1, 4, 16, 64}, fixed-Garner vs gcd CRT recombination, batched
//! vs per-item DGK zero test), each k-sweep reported as per-item
//! nanoseconds; `--out` defaults to `BENCH_protocol.json` in the
//! current directory.
//!
//! `--scale` runs the simulated streaming-ingest sweep behind the
//! hierarchical shard layer: |U| ∈ {100k, 300k, 1M} uploads (one
//! template ciphertext vector cloned per arriving user, so the round's
//! uploads are never materialized at once) are validated, stream-folded
//! through per-shard [`smc::ShardAccumulator`]s at shard counts
//! {1, 64} (+ one 1024-shard row at 1M), and tree-combined. Each
//! `scale_u<users>_s<shards>` JSON row records users, shards,
//! bytes-per-user on the wire, ingest throughput, and the process peak /
//! current RSS (`VmHWM`/`VmRSS` from `/proc/self/status`) — the
//! committed evidence that server memory tracks shard geometry, not
//! |U|. The sweep also emits the survivor-intersection ablation at
//! |U| = 10k (`ablation_survivor_intersect_{linear,sorted}_u10000`):
//! the O(|U|²) `Vec::contains` reconciliation scan vs the sorted-merge
//! intersection that replaced it. Every run emits a `meta` object with
//! the machine's available cores, so trend tooling can discount thread
//! sweeps measured on single-core boxes.
//!
//! Every run also times encryption at deployable key sizes — per
//! `bits ∈ {1024, 2048}` (1024 only in smoke mode) the full-width
//! `r^n mod n²` (`modpow_n2_<bits>`), the randomizer comb alone
//! (`fixed_base_comb_<bits>`) and a whole `PublicKey::encrypt`
//! (`paillier_encrypt_<bits>`), plus the sieved prime search behind the
//! keys (`gen_prime_<bits/2>`, mean over fixed seeds);
//! `scripts/check_bench.sh` gates `paillier_encrypt_2048` at a quarter of
//! `modpow_n2_2048`.
//!
//! Every run also times the steps-4/8 ranking bracket over real channels
//! at K ∈ {10, 100} and emits one `rank_bracket_k<K>` JSON row each (ns
//! per ranking, comparisons, S1↔S2 messages and bytes);
//! `scripts/check_bench.sh` gates comparisons = K−1 and messages =
//! 3·⌈log₂K⌉.
//!
//! Every run also drives the multi-session reactor at 128 concurrent
//! sessions (16 in smoke mode) and emits one `reactor_sessions` JSON row
//! with sessions/sec and p50/p99 admission→completion latency, plus one
//! deliberately shed over-cap admission so the `sessions_rejected`
//! counter is exercised; the `sessions_{admitted,rejected,evicted}`
//! scheduler counters ride in `fault_counters`.
//!
//! Every run also drives a short durable campaign through
//! [`consensus_core::campaign::CampaignRunner`] and emits one
//! `campaign_round_<i>` JSON row per round (epsilon trajectory,
//! wall/compute split, per-link bytes) plus a `campaign_summary` row
//! with rounds-per-second — the cost time series
//! `scripts/check_bench.sh` gates on.

use std::hint::black_box;
use std::time::{Duration, Instant};

use benches::Args;
use bigint::modular::{crt_pair, modinverse, modmul, modpow_basic, modsub};
use bigint::montgomery::{FixedBaseComb, MontgomeryContext};
use bigint::prime::gen_prime;
use bigint::{random, Ubig};
use consensus_core::campaign::{CampaignConfig, CampaignRunner};
use consensus_core::config::ConsensusConfig;
use consensus_core::reactor::{Reactor, ReactorConfig, SessionMachine, SessionResult};
use consensus_core::secure::SecureEngine;
use dgk::comparison::{blinder_build_witnesses, evaluator_encrypt_bits};
use dgk::{DgkKeypair, DgkParams};
use paillier::{Ciphertext, Keypair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::bracket::Argmax;
use smc::machine::{Next, Outbox};
use smc::secure_sum::{encrypt_share_vector, Collect};
use smc::shard::{intersect_sorted, STREAM_CHUNK};
use smc::{
    run_pair, AuditPolicy, Machine, Parallelism, SessionConfig, SessionKeys, ShardAccumulator,
    ShardConfig, ShardPlan, UploadValidator,
};
use std::sync::Arc;
use transport::metrics::LinkStats;
use transport::{FaultStats, Meter, PartyId, Step, Wire};

/// The dispatch threshold the pre-change `modular::modpow` used.
const OLD_MONTGOMERY_EXP_THRESHOLD: u64 = 24;

/// Replica of the pre-change `modular::modpow`: a Montgomery context is
/// rebuilt on **every call** (the cost this PR removes), and the ladder
/// runs over allocating `Ubig`-level Montgomery multiplications.
fn modpow_old(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    if m.is_odd() && exp.bits() >= OLD_MONTGOMERY_EXP_THRESHOLD {
        if let Some(ctx) = MontgomeryContext::new(m) {
            return ctx_modpow_old(&ctx, base, exp);
        }
    }
    modpow_basic(base, exp, m)
}

/// The pre-change context ladder: plain high-to-low square-and-multiply
/// through the public (allocating) `to_mont`/`mul_mont`/`from_mont` API,
/// exactly as `MontgomeryContext::modpow` was implemented before the
/// scratch-buffer engine and 4-bit windows.
fn ctx_modpow_old(ctx: &MontgomeryContext, base: &Ubig, exp: &Ubig) -> Ubig {
    let base = base % ctx.modulus();
    if exp.is_zero() {
        return Ubig::one();
    }
    let base_m = ctx.to_mont(&base);
    let mut acc = ctx.to_mont(&Ubig::one());
    for i in (0..exp.bits()).rev() {
        acc = ctx.mul_mont(&acc, &acc);
        if exp.bit(i) {
            acc = ctx.mul_mont(&acc, &base_m);
        }
    }
    ctx.from_mont(&acc)
}

/// Times `f` over `iters` iterations (after 2 warmup runs) and returns
/// whole nanoseconds per iteration.
fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> u128 {
    f();
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed().as_nanos() / iters as u128).max(1)
}

/// Reads a kB-denominated field (`VmHWM`, `VmRSS`) from
/// `/proc/self/status`. Returns `None` off Linux or if the field is
/// missing, in which case the scale rows record 0.
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs one step-4 ranking of the shared sequences `xs`/`ys` in memory
/// and returns the S1↔S2 traffic it put on the wire.
fn rank_once(keys: &SessionKeys, xs: &[i128], ys: &[i128]) -> LinkStats {
    let (s1_ctx, s2_ctx) = (keys.server1(), keys.server2());
    let s1 = Argmax::new(xs.to_vec(), Step::CompareRank, StdRng::seed_from_u64(11));
    let s2 = Argmax::new(ys.to_vec(), Step::CompareRank, StdRng::seed_from_u64(12));
    let run = run_pair((&s1_ctx, s1), (&s2_ctx, s2), Vec::new()).expect("rank");
    assert_eq!(run.outputs.0, run.outputs.1, "servers must elect the same slot");
    LinkStats {
        messages: run.transcript.len() as u64,
        bytes: run.transcript.iter().map(|f| f.payload.len() as u64).sum(),
    }
}

struct Report {
    entries: Vec<(String, u128, usize)>,
    /// Named raw-JSON objects (scale-sweep rows, run metadata) spliced
    /// verbatim into the top-level map after the timing entries.
    objects: Vec<(String, String)>,
    /// Reliability counters accumulated by the end-to-end engine rounds:
    /// upload-validation rejections (`rejected_*`), injected/detected
    /// faults, backpressure and socket-level events. All zero on a
    /// healthy machine — the point is that CI trend lines notice when
    /// they stop being zero.
    faults: FaultStats,
}

impl Report {
    /// Records a single-threaded sample.
    fn record(&mut self, step: &str, ns: u128) {
        self.record_at(step, ns, 1);
    }

    /// Records a sample measured at `threads` worker threads.
    fn record_at(&mut self, step: &str, ns: u128, threads: usize) {
        println!("  {step:<44} {ns:>12} ns/iter");
        self.entries.push((step.to_string(), ns, threads));
    }

    /// Records a pre-serialized JSON object under `name` — the richer
    /// row shape the scale sweep and `meta` entry need.
    fn record_obj(&mut self, name: &str, body: String) {
        println!("  {name:<44} {body}");
        self.objects.push((name.to_string(), body));
    }

    fn ns(&self, step: &str) -> u128 {
        self.entries
            .iter()
            .find(|(s, _, _)| s == step)
            .map(|&(_, ns, _)| ns)
            .expect("step recorded")
    }

    fn speedup(&self, step: &str) -> f64 {
        self.ns(&format!("{step}_pre")) as f64 / self.ns(step) as f64
    }

    /// Hand-rolled JSON (the workspace has no serde_json): a flat
    /// `{"step": {"ns": N, "threads": T}, ...}` object, so every sample
    /// records the worker-thread count it was measured at, plus one
    /// `"fault_counters"` object with the reliability and upload-
    /// validation counters observed by the end-to-end engine rounds.
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (step, ns, threads) in &self.entries {
            out.push_str(&format!("  \"{step}\": {{\"ns\": {ns}, \"threads\": {threads}}},\n"));
        }
        for (name, body) in &self.objects {
            out.push_str(&format!("  \"{name}\": {body},\n"));
        }
        let f = &self.faults;
        let counters = [
            ("timeouts", f.timeouts),
            ("retries", f.retries),
            ("drops_injected", f.drops_injected),
            ("delays_injected", f.delays_injected),
            ("duplicates_injected", f.duplicates_injected),
            ("duplicates_suppressed", f.duplicates_suppressed),
            ("corruptions_injected", f.corruptions_injected),
            ("corruptions_detected", f.corruptions_detected),
            ("crashed_sends", f.crashed_sends),
            ("checkpoints_saved", f.checkpoints_saved),
            ("checkpoints_restored", f.checkpoints_restored),
            ("rounds_resumed", f.rounds_resumed),
            ("rejected_ciphertexts", f.rejected_ciphertexts),
            ("rejected_arity", f.rejected_arity),
            ("rejected_duplicates", f.rejected_duplicates),
            ("backpressure_blocked", f.backpressure_blocked),
            ("liveness_expired", f.liveness_expired),
            ("reconnects", f.reconnects),
            ("audit_challenges", f.audit_challenges),
            ("audit_failures", f.audit_failures),
            ("equivocation_detected", f.equivocation_detected),
            ("sessions_admitted", f.sessions_admitted),
            ("sessions_rejected", f.sessions_rejected),
            ("sessions_evicted", f.sessions_evicted),
        ];
        out.push_str("  \"fault_counters\": {");
        for (i, (name, count)) in counters.iter().enumerate() {
            let comma = if i + 1 == counters.len() { "" } else { ", " };
            out.push_str(&format!("\"{name}\": {count}{comma}"));
        }
        out.push_str("}\n}\n");
        out
    }
}

fn main() {
    let args = Args::capture();
    let smoke = args.has("smoke");
    let iters: u64 = if smoke { 2 } else { args.get("iters", 300) };
    let heavy_iters: u64 = if smoke { 2 } else { (iters / 6).max(20) };
    let out_path: String = args.get("out", "BENCH_protocol.json".to_string());

    let mut rng = StdRng::seed_from_u64(42);
    let mut report =
        Report { entries: Vec::new(), objects: Vec::new(), faults: FaultStats::default() };
    println!(
        "bench_protocol: {} iters/step ({} for heavy steps){}",
        iters,
        heavy_iters,
        if smoke { " [smoke]" } else { "" }
    );

    // ----- Paillier (the paper's 64-bit prototype scale) ------------------
    let kp = Keypair::generate(&mut rng, 64);
    let pk = kp.public_key().clone();
    let sk = kp.private_key().clone();
    pk.precompute();
    let n = pk.modulus().clone();
    let n2 = pk.modulus_squared().clone();
    let m = random::gen_below(&mut rng, &n);
    let r = random::gen_coprime(&mut rng, &n);
    let ct = pk.encrypt_with_randomness(&m, &r);
    let scalar = random::gen_below(&mut rng, &n);
    // λ stand-in: lcm(p−1, q−1) has (about) the modulus bit length.
    let lambda_proxy = random::gen_exact_bits(&mut rng, n.bits() - 1);

    println!("\nPaillier ({}-bit n):", n.bits());
    // Encryption: g^m is one modmul (g = n+1); the cost is r^n mod n².
    report.record(
        "paillier_encrypt_pre",
        time_ns(iters, || {
            let g_m = &(Ubig::one() + modmul(&m, &n, &n2)) % &n2;
            let r_n = modpow_old(&r, &n, &n2);
            black_box(modmul(&g_m, &r_n, &n2));
        }),
    );
    report.record(
        "paillier_encrypt",
        time_ns(iters, || {
            black_box(pk.encrypt_with_randomness(&m, &r));
        }),
    );

    // Decryption: c^λ mod n², then L and one modmul (identical in both).
    report.record(
        "paillier_decrypt_pre",
        time_ns(iters, || {
            let x = modpow_old(ct.as_raw(), &lambda_proxy, &n2);
            let l = &(&x - &Ubig::one()) / &n;
            black_box(modmul(&l, &scalar, &n));
        }),
    );
    report.record(
        "paillier_decrypt",
        time_ns(iters, || {
            black_box(sk.decrypt(&ct).expect("well-formed ciphertext"));
        }),
    );

    // CRT decryption: two half-size exponentiations under p²/q² contexts.
    report.record(
        "paillier_decrypt_crt",
        time_ns(iters, || {
            black_box(sk.decrypt_crt(&ct).expect("well-formed ciphertext"));
        }),
    );

    report.record(
        "paillier_mul_plain_pre",
        time_ns(iters, || {
            black_box(modpow_old(ct.as_raw(), &scalar, &n2));
        }),
    );
    report.record(
        "paillier_mul_plain",
        time_ns(iters, || {
            black_box(pk.mul_plain(&ct, &scalar));
        }),
    );

    // ----- DGK (test parameters: 128-bit n, ℓ = 26) -----------------------
    let dgk_params = DgkParams::insecure_test();
    let dgk = DgkKeypair::generate(&mut rng, &dgk_params);
    let dpk = dgk.public_key().clone();
    let dsk = dgk.private_key().clone();
    dpk.precompute();
    let dn = dpk.modulus().clone();
    let du = dpk.plaintext_space().clone();
    let dm = random::gen_below(&mut rng, &du);
    let blind_bits = dpk.blind_bits();
    let dct = dpk.encrypt(&dm, &mut rng).expect("message in Z_u");
    // Stand-ins for the private p / v_p of the zero test, same bit sizes.
    let p_proxy = {
        let mut p = random::gen_exact_bits(&mut rng, dgk_params.modulus_bits / 2);
        p.set_bit(0, true);
        p
    };
    let vp_proxy = random::gen_exact_bits(&mut rng, dgk_params.subgroup_bits);
    let ctx_p_proxy = MontgomeryContext::new(&p_proxy).expect("odd modulus");
    let c_mod_p = dct.as_raw() % &p_proxy;

    println!("\nDGK ({}-bit n, u = {}):", dn.bits(), du);
    // Encryption: g^m · h^r. Old: two context rebuilds + two ladders.
    report.record(
        "dgk_encrypt_pre",
        time_ns(iters, || {
            let rr = random::gen_bits(&mut rng, blind_bits);
            let g_m = modpow_old(dpk.generator_g(), &dm, &dn);
            let h_r = modpow_old(dpk.generator_h(), &rr, &dn);
            black_box(modmul(&g_m, &h_r, &dn));
        }),
    );
    report.record(
        "dgk_encrypt",
        time_ns(iters, || {
            black_box(dpk.encrypt(&dm, &mut rng).expect("message in Z_u"));
        }),
    );

    // Zero test: c^{v_p} mod p, on the same proxy operands both ways.
    report.record(
        "dgk_is_zero_pre",
        time_ns(iters, || {
            black_box(modpow_old(&c_mod_p, &vp_proxy, &p_proxy).is_one());
        }),
    );
    report.record(
        "dgk_is_zero",
        time_ns(iters, || {
            black_box(ctx_p_proxy.modpow(&c_mod_p, &vp_proxy).is_one());
        }),
    );
    // The real zero test through the private key's cached context.
    report.record(
        "dgk_is_zero_full",
        time_ns(iters, || {
            black_box(dsk.is_zero(&dct).expect("well-formed ciphertext"));
        }),
    );

    report.record(
        "dgk_mul_plain_pre",
        time_ns(iters, || {
            black_box(modpow_old(dct.as_raw(), &vp_proxy, &dn));
        }),
    );
    report.record(
        "dgk_mul_plain",
        time_ns(iters, || {
            black_box(dpk.mul_plain(&dct, &vp_proxy));
        }),
    );

    // ----- Exponentiation-strategy ablation (256-bit modulus) -------------
    let mut am = random::gen_exact_bits(&mut rng, 256);
    am.set_bit(0, true);
    let actx = Arc::new(MontgomeryContext::new(&am).expect("odd modulus"));
    let abase = random::gen_below(&mut rng, &am);
    let aexp = random::gen_exact_bits(&mut rng, 256);
    let atable = FixedBaseComb::new(Arc::clone(&actx), &abase, 256);
    let h = random::gen_below(&mut rng, &am);
    let bexp = random::gen_exact_bits(&mut rng, 256);
    let htable = FixedBaseComb::new(Arc::clone(&actx), &h, 256);

    println!("\nExponentiation ablation (256-bit modulus):");
    report.record(
        "ablation_modpow_division_256",
        time_ns(heavy_iters, || {
            black_box(modpow_basic(&abase, &aexp, &am));
        }),
    );
    report.record(
        "ablation_modpow_rebuilt_montgomery_256",
        time_ns(heavy_iters, || {
            black_box(modpow_old(&abase, &aexp, &am));
        }),
    );
    report.record(
        "ablation_modpow_cached_montgomery_256",
        time_ns(heavy_iters, || {
            black_box(actx.modpow(&abase, &aexp));
        }),
    );
    report.record(
        "ablation_fixed_base_256",
        time_ns(heavy_iters, || {
            black_box(atable.pow(&aexp));
        }),
    );
    report.record(
        "ablation_two_pows_mul_256",
        time_ns(heavy_iters, || {
            black_box(modmul(&actx.modpow(&abase, &aexp), &actx.modpow(&h, &bexp), &am));
        }),
    );
    report.record(
        "ablation_double_exp_256",
        time_ns(heavy_iters, || {
            black_box(actx.modpow2(&abase, &aexp, &h, &bexp));
        }),
    );
    report.record(
        "ablation_fixed_base_double_exp_256",
        time_ns(heavy_iters, || {
            black_box(atable.pow_mul(&aexp, &htable, &bexp));
        }),
    );

    // ----- Batched-kernel ablation (`--batch`) ----------------------------
    // Old-vs-new rows for every kernel this round touched, each k-sweep
    // reported as **per-item** nanoseconds so the amortization curve reads
    // directly off the k ∈ {1, 4, 16, 64} columns.
    if args.has("batch") {
        println!("\nBatched-kernel ablation (k in {{1, 4, 16, 64}}):");
        let ks: [usize; 4] = [1, 4, 16, 64];

        // (a) k independent 256-bit exponentiations folded by modular
        // multiply, vs one interleaved Straus multi-exponentiation that
        // shares a single squaring chain across all k bases.
        for &k in &ks {
            let pairs_owned: Vec<(Ubig, Ubig)> = (0..k)
                .map(|_| (random::gen_below(&mut rng, &am), random::gen_exact_bits(&mut rng, 256)))
                .collect();
            let pairs: Vec<(&Ubig, &Ubig)> = pairs_owned.iter().map(|(b, e)| (b, e)).collect();
            report.record(
                &format!("ablation_multiexp_iter_k{k}"),
                (time_ns(heavy_iters, || {
                    let mut acc = Ubig::one();
                    for (b, e) in &pairs_owned {
                        acc = modmul(&acc, &actx.modpow(b, e), &am);
                    }
                    black_box(acc);
                }) / k as u128)
                    .max(1),
            );
            report.record(
                &format!("ablation_multiexp_straus_k{k}"),
                (time_ns(heavy_iters, || {
                    black_box(actx.modpow_multi(&pairs));
                }) / k as u128)
                    .max(1),
            );
        }

        // (b) CRT recombination on two half-size prime proxies: the
        // generic extended-gcd `crt_pair` (what `decrypt_crt` used to call
        // per decryption) vs the fixed Garner form with a precomputed
        // `p⁻¹ mod q` (what the key now caches).
        let cp = gen_prime(&mut rng, 32);
        let cq = {
            let mut q = gen_prime(&mut rng, 32);
            while q == cp {
                q = gen_prime(&mut rng, 32);
            }
            q
        };
        let mp = random::gen_below(&mut rng, &cp);
        let mq = random::gen_below(&mut rng, &cq);
        let p_inv_q = modinverse(&cp, &cq).expect("distinct primes are coprime");
        report.record(
            "ablation_crt_recombine_gcd",
            time_ns(iters, || {
                black_box(crt_pair(&mp, &cp, &mq, &cq).expect("coprime moduli"));
            }),
        );
        report.record(
            "ablation_crt_recombine_fixed",
            time_ns(iters, || {
                let t = modmul(&modsub(&mq, &mp, &cq), &p_inv_q, &cq);
                black_box(&mp + &(&cp * &t));
            }),
        );

        // (c) DGK zero test over the same k ciphertexts: a per-item loop
        // vs the batched scratch-reusing CRT test.
        for &k in &ks {
            let zcs: Vec<_> = (0..k).map(|i| dpk.encrypt_u64((i % 3) as u64, &mut rng)).collect();
            report.record(
                &format!("ablation_dgk_zero_loop_k{k}"),
                (time_ns(iters, || {
                    for c in &zcs {
                        black_box(dsk.is_zero(c).expect("well-formed ciphertext"));
                    }
                }) / k as u128)
                    .max(1),
            );
            report.record(
                &format!("ablation_dgk_zero_batch_k{k}"),
                (time_ns(iters, || {
                    black_box(dsk.is_zero_batch(&zcs).expect("well-formed ciphertexts"));
                }) / k as u128)
                    .max(1),
            );
        }
    }

    // ----- Encryption at deployable key sizes ------------------------------
    // The full-width ladder a classical randomizer costs, the comb that
    // replaced it, a whole encryption through the comb, and the prime
    // search behind the key (mean over fixed seeds: one search is luck).
    println!("\nEncryption and prime search at deployable sizes:");
    let deploy_iters: u64 = if smoke { 1 } else { 10 };
    for bits in if smoke { vec![1024u64] } else { vec![1024, 2048] } {
        let searches: u64 = if smoke { 1 } else { 8 };
        report.record(
            &format!("gen_prime_{}", bits / 2),
            time_ns(1, || {
                for seed in 0..searches {
                    black_box(gen_prime(&mut StdRng::seed_from_u64(seed), bits / 2));
                }
            }) / searches as u128,
        );
        let big = Keypair::generate(&mut StdRng::seed_from_u64(bits), bits);
        let big_pk = big.public_key();
        let (big_n, big_n2) = (big_pk.modulus(), big_pk.modulus_squared());
        let ctx = Arc::new(MontgomeryContext::new(big_n2).expect("n² is odd"));
        let rr = random::gen_coprime(&mut rng, big_n);
        report.record(
            &format!("modpow_n2_{bits}"),
            time_ns(deploy_iters, || {
                black_box(ctx.modpow(&rr, big_n));
            }),
        );
        let comb = FixedBaseComb::new(ctx, big_pk.randomizer_base(), big_pk.randomizer_bits());
        let x = random::gen_exact_bits(&mut rng, big_pk.randomizer_bits());
        report.record(
            &format!("fixed_base_comb_{bits}"),
            time_ns(deploy_iters, || {
                black_box(comb.pow(&x));
            }),
        );
        report.record(
            &format!("paillier_encrypt_{bits}"),
            time_ns(deploy_iters, || {
                black_box(big_pk.encrypt(&m, &mut rng).expect("m below the 64-bit n"));
            }),
        );
    }

    // ----- Ranking bracket (steps 4/8) -------------------------------------
    // One ranking over K permuted slots, both servers on real channels.
    // Every comparison round costs three messages, each a length-prefixed
    // (4-byte) vector, so `comparisons` is the ranking's payload bytes in
    // units of a single comparison's (the K = 2 ranking) payload bytes.
    println!("\nRanking bracket (K-1 comparisons in ceil(log2 K) rounds):");
    let rank_keys = SessionKeys::generate(SessionConfig::test(1, 2), &mut rng);
    let payload = |link: LinkStats| link.bytes - 4 * link.messages;
    let unit = payload(rank_once(&rank_keys, &[5, 3], &[0, 1])) as f64;
    for k in [10usize, 100] {
        let xs: Vec<i128> = (0..k as i128).map(|i| (i * 7919) % 1000 - 500).collect();
        let ys: Vec<i128> = (0..k as i128).map(|i| (i * 104_729) % 1000 - 500).collect();
        let mut link = LinkStats::default();
        let ns = time_ns(if smoke { 1 } else { 5 }, || {
            link = rank_once(&rank_keys, &xs, &ys);
        });
        let comparisons = (payload(link) as f64 / unit).round() as u64;
        report.record_obj(
            &format!("rank_bracket_k{k}"),
            format!(
                "{{\"ns\": {ns}, \"threads\": 1, \"classes\": {k}, \"comparisons\": {comparisons}, \
                 \"messages\": {}, \"bytes\": {}}}",
                link.messages, link.bytes
            ),
        );
    }

    // ----- Data-parallel thread-scaling sweep -----------------------------
    // `--threads` (default: CONSENSUS_THREADS, else 1) is always a sweep
    // point; the full 1/2/4/8 grid runs in non-smoke mode. Reported
    // speedups are whatever this machine delivers — on a single-core box
    // the parallel path degenerates to sequential chunking and the curve
    // is flat by construction.
    let cli_threads: usize = args.get("threads", Parallelism::from_env().threads());
    let mut sweep: Vec<usize> = if smoke { vec![1] } else { vec![1, 2, 4, 8] };
    if !sweep.contains(&cli_threads) {
        sweep.push(cli_threads);
    }
    sweep.sort_unstable();

    let batch = if smoke { 8usize } else { 32 };
    let batch_values: Vec<i128> = (0..batch as i128).map(|i| i * 7919 - 100_000).collect();
    let sweep_users = 8usize;
    let sweep_classes = 10usize;
    let e2e_iters: u64 = if smoke { 1 } else { 3 };
    // S1-bound uploads are encrypted under S2's key.
    let sum_keys = SessionKeys::generate(SessionConfig::test(sweep_users, sweep_classes), &mut rng);
    let upload = encrypt_share_vector(
        &vec![1; sweep_classes],
        sum_keys.user().pk2(),
        &Parallelism::sequential(),
        &mut rng,
    )
    .expect("in-window shares")
    .to_bytes();
    let sum_roster: Vec<usize> = (0..sweep_users).collect();
    let votes: Vec<Vec<f64>> = (0..sweep_users)
        .map(|u| {
            let mut v = vec![0.0; sweep_classes];
            v[if u < sweep_users * 4 / 5 { 0 } else { 1 + u % (sweep_classes - 1) }] = 1.0;
            v
        })
        .collect();
    let (dgk_x, dgk_y) = (12_345u64, 54_321u64);

    println!(
        "\nThread-scaling sweep (threads ∈ {sweep:?}, |U| = {sweep_users}, K = {sweep_classes}):"
    );
    // One meter across the whole sweep: its counters become the JSON's
    // `fault_counters` object.
    let meter = Meter::new();
    for &t in &sweep {
        let par = Parallelism::new(t);

        report.record_at(
            &format!("par_encrypt_batch{batch}_t{t}"),
            time_ns(heavy_iters, || {
                black_box(
                    encrypt_share_vector(&batch_values, &pk, &par, &mut rng)
                        .expect("values inside the signed window"),
                );
            }),
            t,
        );

        let round1 =
            evaluator_encrypt_bits(dgk_x, &dpk, &par, &mut rng).expect("x in comparison domain");
        report.record_at(
            &format!("par_dgk_witnesses_t{t}"),
            time_ns(heavy_iters, || {
                black_box(
                    blinder_build_witnesses(dgk_y, &round1, &dpk, &par, &mut rng)
                        .expect("y in comparison domain"),
                );
            }),
            t,
        );

        // Secure-sum aggregation: S1's strict collection machine is fed
        // 8 users' encoded uploads each iteration and folds them per
        // class slot.
        let sum_ctx = sum_keys.clone().with_parallelism(par).server1();
        report.record_at(
            &format!("par_secure_sum_aggregate_t{t}"),
            time_ns(iters.min(100), || {
                let plan = ShardPlan::flat(&sum_roster);
                let step = Step::SecureSumVotes;
                let mut machine = Collect::new(&sum_ctx, step, plan, sweep_classes, 1, None);
                let mut answer = None;
                let aggregate = loop {
                    match machine.resume(&sum_ctx, answer.take(), &mut Outbox::default()) {
                        Ok(Next::Recv(_)) => answer = Some(Ok((1, upload.clone()))),
                        Ok(Next::Done(aggregate)) => break aggregate,
                        Err(e) => panic!("aggregate: {e}"),
                    }
                };
                black_box(aggregate);
            }),
            t,
        );

        // One full Alg. 5 round end-to-end.
        let mut engine_rng = StdRng::seed_from_u64(7);
        let engine = SecureEngine::new(
            SessionConfig::test(sweep_users, sweep_classes),
            ConsensusConfig::paper_default(2.0, 2.0),
            &mut engine_rng,
        )
        .with_parallelism(par);
        report.record_at(
            &format!("par_engine_round_u8_k10_t{t}"),
            time_ns(e2e_iters, || {
                black_box(
                    engine
                        .run_instance(&votes, Arc::clone(&meter), &mut engine_rng)
                        .expect("secure run"),
                );
            }),
            t,
        );
    }

    // ----- Audit overhead (opt-in: --audit) -------------------------------
    // The same full round timed with the covert-security layer off and
    // on (challenge rate 1.0 — every step audited, the worst case), so
    // the pair bounds the per-round cost of commit-and-challenge
    // verification on this machine.
    if args.has("audit") {
        println!("\nAudit overhead (strict policy, every round challenged):");
        let policies: [(&str, Option<AuditPolicy>); 2] =
            [("audit_off", None), ("audit_on", Some(AuditPolicy::strict()))];
        for (name, policy) in policies {
            let mut engine_rng = StdRng::seed_from_u64(7);
            let mut engine = SecureEngine::new(
                SessionConfig::test(sweep_users, sweep_classes),
                ConsensusConfig::paper_default(2.0, 2.0),
                &mut engine_rng,
            )
            .with_parallelism(Parallelism::new(cli_threads));
            if let Some(p) = policy {
                engine = engine.with_audit(p);
            }
            report.record_at(
                &format!("{name}_engine_round_u8_k10_t{cli_threads}"),
                time_ns(e2e_iters, || {
                    black_box(
                        engine
                            .run_instance(&votes, Arc::clone(&meter), &mut engine_rng)
                            .expect("secure run"),
                    );
                }),
                cli_threads,
            );
        }
        let off = report.ns(&format!("audit_off_engine_round_u8_k10_t{cli_threads}"));
        let on = report.ns(&format!("audit_on_engine_round_u8_k10_t{cli_threads}"));
        println!("  audit-on / audit-off: {:.3}x", on as f64 / off as f64);
    }

    // ----- Simulated streaming-ingest scale sweep (opt-in: --scale) -------
    // One template upload is cloned per "arriving" user, so the round's
    // |U| uploads are never materialized at once — exactly the property
    // the streaming server has. Every arrival runs the real ingest path:
    // upload validation, retire-after-fold, chunked per-shard streaming
    // fold, tree combine. The recorded VmHWM across rows is the evidence
    // that live memory tracks shard geometry and K, not |U|.
    if args.has("scale") {
        let scale_classes = 4usize;
        let par = Parallelism::new(cli_threads);
        let template: Vec<Ciphertext> = (0..scale_classes)
            .map(|_| {
                let v = random::gen_below(&mut rng, &n);
                let rr = random::gen_coprime(&mut rng, &n);
                pk.encrypt_with_randomness(&v, &rr)
            })
            .collect();
        let upload_bytes = template.to_bytes().len();
        let grid: Vec<(usize, usize)> = if smoke {
            vec![(2_000, 1), (2_000, 8)]
        } else {
            vec![
                (100_000, 1),
                (100_000, 64),
                (300_000, 1),
                (300_000, 64),
                (1_000_000, 1),
                (1_000_000, 64),
                (1_000_000, 1024),
            ]
        };
        println!(
            "\nStreaming-ingest scale sweep (K = {scale_classes}, chunk = {STREAM_CHUNK}, {} threads):",
            par.threads()
        );
        for (users, shards) in grid {
            let roster: Vec<usize> = (0..users).collect();
            let plan =
                ShardPlan::derive(0xC0FF_EE00 ^ users as u64, &roster, ShardConfig::new(shards));
            let rss_before = proc_status_kb("VmRSS:").unwrap_or(0);
            let mut validator = UploadValidator::new(scale_classes);
            let mut rejections = Vec::new();
            let mut combined = ShardAccumulator::new(&pk, 1, scale_classes);
            let start = Instant::now();
            for shard in plan.shards() {
                let mut acc = ShardAccumulator::new(&pk, 1, scale_classes);
                let mut chunk: Vec<(usize, Vec<Vec<Ciphertext>>)> =
                    Vec::with_capacity(STREAM_CHUNK);
                for &u in shard {
                    let arrival = template.clone();
                    validator
                        .check(
                            &mut rejections,
                            PartyId::User(u),
                            Step::SecureSumVotes,
                            u as u64,
                            &arrival,
                            &pk,
                        )
                        .expect("well-formed template upload");
                    validator.retire(PartyId::User(u));
                    chunk.push((u, vec![arrival]));
                    if chunk.len() == STREAM_CHUNK {
                        acc.fold_chunk(&pk, &par, std::mem::take(&mut chunk));
                    }
                }
                acc.fold_chunk(&pk, &par, chunk);
                combined.merge(&pk, acc);
            }
            let secs = start.elapsed().as_secs_f64();
            rejections.into_iter().for_each(|event| meter.record_fault(event));
            assert_eq!(combined.members().len(), users, "every user folded");
            assert_eq!(validator.live_senders(), 0, "per-user state retired after fold");
            black_box(combined.into_sums());
            let vm_hwm = proc_status_kb("VmHWM:").unwrap_or(0);
            let vm_rss = proc_status_kb("VmRSS:").unwrap_or(0);
            // Wire cost per user: the upload itself plus this user's
            // amortized slice of the shard-aggregate flow (one aggregate
            // vector per shard up to the final combine).
            let bytes_per_user =
                upload_bytes as f64 * (1.0 + plan.num_shards() as f64 / users as f64);
            let ups = (users as f64 / secs) as u64;
            report.record_obj(
                &format!("scale_u{users}_s{shards}"),
                format!(
                    "{{\"users\": {users}, \"shards\": {shards}, \"classes\": {scale_classes}, \
                     \"threads\": {}, \"bytes_per_user\": {bytes_per_user:.1}, \
                     \"users_per_sec\": {ups}, \"vm_hwm_kb\": {vm_hwm}, \
                     \"vm_rss_kb\": {vm_rss}, \"rss_delta_kb\": {}}}",
                    par.threads(),
                    vm_rss.saturating_sub(rss_before),
                ),
            );
        }

        // Survivor-reconciliation ablation: the old O(|U|²)
        // `Vec::contains` scan vs the sorted-merge intersection the shard
        // layer uses (both lists ascending by construction).
        let ab_users = if smoke { 2_000usize } else { 10_000 };
        let left: Vec<usize> = (0..ab_users).collect();
        let right: Vec<usize> = (0..ab_users).filter(|u| u % 17 != 3).collect();
        let ab_iters: u64 = if smoke { 1 } else { 3 };
        println!("\nSurvivor-intersection ablation (|U| = {ab_users}):");
        report.record(
            &format!("ablation_survivor_intersect_linear_u{ab_users}"),
            time_ns(ab_iters, || {
                black_box(
                    left.iter().filter(|u| right.contains(u)).copied().collect::<Vec<usize>>(),
                );
            }),
        );
        report.record(
            &format!("ablation_survivor_intersect_sorted_u{ab_users}"),
            time_ns(ab_iters, || {
                black_box(intersect_sorted(&left, &right));
            }),
        );
    }

    // ----- Campaign daemon cost telemetry ---------------------------------
    // A short durable campaign over the secure engine: per-round cost
    // rows (communication split, wall/compute time, epsilon trajectory)
    // plus a summary with rounds/sec — the time series the campaign
    // runtime appends in production, gated by scripts/check_bench.sh.
    {
        let campaign_rounds = if smoke { 4usize } else { 10 };
        let campaign_users = 5usize;
        let campaign_classes = 3usize;
        let dir = std::env::temp_dir().join(format!("bench-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CampaignConfig::new(
            ConsensusConfig::paper_default(1.5, 1.5).with_min_users(2),
            campaign_users,
            campaign_classes,
            1e6,
            1e-6,
        )
        .with_seed(0xBE7C);
        let mut runner = CampaignRunner::open(&dir, config).expect("open bench campaign");
        let instances: Vec<Vec<Vec<f64>>> = (0..campaign_rounds)
            .map(|i| {
                let mut v = vec![0.0; campaign_classes];
                v[i % campaign_classes] = 1.0;
                vec![v; campaign_users]
            })
            .collect();
        println!("\nCampaign daemon telemetry ({campaign_rounds} rounds, |U| = {campaign_users}):");
        let campaign_meter = Meter::new();
        let start = Instant::now();
        let campaign =
            runner.run(&instances, Arc::clone(&campaign_meter)).expect("bench campaign completes");
        let secs = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(campaign.rounds.len(), campaign_rounds, "every bench instance answers");
        for cost in &campaign.rounds {
            println!(
                "  round {:<3} eps_total {:>8.3}  wall {:>8.2} ms  {:>8} B user  {:>8} B server",
                cost.round, cost.epsilon_total, cost.wall_ms, cost.user_bytes, cost.server_bytes
            );
            report.record_obj(&format!("campaign_round_{}", cost.round), cost.to_json());
        }
        let rps = campaign_rounds as f64 / secs;
        report.record_obj(
            "campaign_summary",
            format!(
                "{{\"rounds\": {campaign_rounds}, \"users\": {campaign_users}, \
                 \"rounds_per_sec\": {rps:.3}, \"epsilon_spent\": {:.6}, \"released\": {}}}",
                campaign.epsilon_spent,
                campaign.released.len(),
            ),
        );
        println!("  {rps:.2} rounds/sec, final epsilon {:.3}", campaign.epsilon_spent);
    }

    // ----- Multi-session reactor throughput -------------------------------
    // Every bench round so far was one blocking round at a time; the
    // reactor multiplexes many. 128 concurrent sessions (16 in smoke)
    // are admitted, fed through the session-frame codec, and driven
    // round-robin to completion; one extra admission past the cap is
    // shed on purpose so the `sessions_rejected` counter in
    // `fault_counters` exercises the overload path deterministically.
    // The row records sessions/sec plus p50/p99 admission→completion
    // latency — the concurrency numbers `scripts/check_bench.sh` gates.
    {
        let n_sessions = if smoke { 16usize } else { 128 };
        let r_users = 5usize;
        let r_classes = 3usize;
        let mut r_rng = StdRng::seed_from_u64(0x5E55);
        let r_engine = Arc::new(SecureEngine::new(
            SessionConfig::test(r_users, r_classes),
            ConsensusConfig::paper_default(1.5, 1.5),
            &mut r_rng,
        ));
        let r_roster: Vec<usize> = (0..r_users).collect();
        let r_votes: Vec<Vec<f64>> = (0..r_users)
            .map(|_| {
                let mut v = vec![0.0; r_classes];
                v[1] = 1.0;
                v
            })
            .collect();
        println!("\nMulti-session reactor ({n_sessions} concurrent sessions, |U| = {r_users}):");
        let mut reactor = Reactor::new(
            ReactorConfig { max_sessions: n_sessions, deadline: Duration::from_secs(600) },
            Arc::clone(&meter),
        );
        let start = Instant::now();
        let mut frame_sets = Vec::with_capacity(n_sessions);
        for i in 0..n_sessions {
            let (machine, frames) = SessionMachine::new(
                i as u64,
                Arc::clone(&r_engine),
                &r_votes,
                &r_roster,
                Arc::clone(&meter),
                &mut r_rng,
            )
            .expect("prepare bench session");
            reactor.admit(machine).expect("admit under the bench cap");
            frame_sets.push(frames);
        }
        let (overflow, _) = SessionMachine::new(
            n_sessions as u64,
            Arc::clone(&r_engine),
            &r_votes,
            &r_roster,
            Arc::clone(&meter),
            &mut r_rng,
        )
        .expect("prepare overflow session");
        assert!(reactor.admit(overflow).is_err(), "the session past the cap must be shed");
        for frames in frame_sets {
            for frame in frames {
                reactor.ingest(frame).expect("admitted bench session");
            }
        }
        reactor.run_until_idle();
        let secs = start.elapsed().as_secs_f64();
        for i in 0..n_sessions {
            match reactor.take_result(i as u64) {
                Some(SessionResult::Done(_)) => {}
                other => panic!("bench session {i} must complete, got {other:?}"),
            }
        }
        let mut lat: Vec<u128> = reactor.latencies().iter().map(|&(_, d)| d.as_nanos()).collect();
        lat.sort_unstable();
        let p50 = lat[lat.len() / 2];
        let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
        let sps = n_sessions as f64 / secs;
        report.record_obj(
            "reactor_sessions",
            format!(
                "{{\"sessions\": {n_sessions}, \"users\": {r_users}, \
                 \"sessions_per_sec\": {sps:.3}, \"p50_ns\": {p50}, \"p99_ns\": {p99}}}"
            ),
        );
        println!(
            "  {sps:.2} sessions/sec, p50 {:.2} ms, p99 {:.2} ms",
            p50 as f64 / 1e6,
            p99 as f64 / 1e6
        );
    }

    // ----- Summary + JSON -------------------------------------------------
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    report.record_obj(
        "meta",
        format!(
            "{{\"available_cores\": {cores}, \"smoke\": {smoke}, \"vm_hwm_kb\": {}}}",
            proc_status_kb("VmHWM:").unwrap_or(0)
        ),
    );
    report.faults = meter.fault_stats();
    println!("\nSpeedups vs pre-change baseline (same operands):");
    for step in
        ["paillier_encrypt", "paillier_decrypt", "paillier_mul_plain", "dgk_encrypt", "dgk_is_zero"]
    {
        println!("  {step:<24} {:.2}x", report.speedup(step));
    }
    if sweep.len() > 1 {
        let base = sweep[0];
        println!("\nThread scaling vs {base} thread(s) (this machine):");
        for kind in [format!("par_encrypt_batch{batch}"), "par_engine_round_u8_k10".to_string()] {
            let base_ns = report.ns(&format!("{kind}_t{base}"));
            for &t in &sweep[1..] {
                let ns = report.ns(&format!("{kind}_t{t}"));
                println!("  {kind:<32} t{t}: {:.2}x", base_ns as f64 / ns as f64);
            }
        }
    }

    std::fs::write(&out_path, report.to_json()).expect("write BENCH_protocol.json");
    println!("\nwrote {out_path}");
}
