//! The workload and metric tables — the single source `BENCHMARK.json`
//! is generated from (`benchmark --emit-benchmark-json`) and every
//! result line is checked against.
//!
//! A later issue cites a number as `<metric> on <workload>`, e.g.
//! "`server_ms_floor` on `paper1024`"; both names come from here.

use dgk::DgkParams;
use smc::{SessionConfig, ShardConfig, ShareDomain};

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 20;

/// Which public driver a workload goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `SessionMachine::new` → one `Reactor` per op → `admit`, `ingest`,
    /// `run_until_idle`, `take_result`, with this many sessions in flight.
    Reactor {
        /// Sessions per op (1 = one round in flight).
        concurrency: usize,
    },
    /// One `CampaignRunner::open` + `run` per op over this many instances
    /// in a fresh directory.
    Campaign {
        /// Instances (= rounds = labels) per op.
        instances: usize,
    },
}

/// One named workload: a closed loop of identical ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name issues cite.
    pub name: &'static str,
    /// Why it exists, one line (goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// The driver and op size.
    pub driver: Driver,
    /// `|U|`.
    pub users: usize,
    /// `K`.
    pub classes: usize,
    /// Paillier modulus bits; 64 selects the drivers' hard-coded test
    /// session (`SessionConfig::test`).
    pub paillier_bits: u64,
    /// DGK modulus bits (large-key workloads).
    pub dgk_bits: u64,
    /// DGK subgroup prime bits (large-key workloads).
    pub dgk_subgroup_bits: u64,
    /// σ₁ = σ₂, in votes. Chosen so the unanimous margin `0.4·|U|` is at
    /// least 8σ: every round takes the full nine-step release path on any
    /// seed (a rejected round stops at step 5 and would pull the floor down).
    pub sigma: f64,
    /// Run pinned to one CPU. An op of a wakeup-bound workload is
    /// thousands of cross-thread wakeups, and across this VM's vCPUs their
    /// latency follows the host's load for minutes at a time (unpinned,
    /// `reactor64` moved by 30 % between identical run-sets); on one CPU
    /// they never leave the guest. A compute-bound workload has one
    /// runnable thread at a time, which the scheduler moves off a
    /// contended vCPU — pinning takes that away (pinned, `paper1024`
    /// moved by 27 %). See the README's calibration record.
    pub pin_one_cpu: bool,
}

impl Workload {
    /// Labels one op releases.
    pub fn labels_per_op(&self) -> usize {
        match self.driver {
            Driver::Reactor { concurrency } => concurrency,
            Driver::Campaign { instances } => instances,
        }
    }

    /// The session parameters. The large-key sessions are built from the
    /// struct's public fields, not a preset, so presets can change
    /// without moving these workloads.
    pub fn session_config(&self) -> SessionConfig {
        if self.paillier_bits == 64 {
            return SessionConfig::test(self.users, self.classes);
        }
        let domain = ShareDomain::paper();
        SessionConfig {
            num_users: self.users,
            num_classes: self.classes,
            paillier_bits: self.paillier_bits,
            dgk: DgkParams {
                modulus_bits: self.dgk_bits,
                subgroup_bits: self.dgk_subgroup_bits,
                compare_bits: domain.compare_bits,
            },
            domain,
            shards: ShardConfig::flat(),
        }
    }

    /// The same workload at 64-bit test keys and a small op, for the
    /// smoke pass: every code path and check, none of the cost.
    pub fn smoke(&self) -> Workload {
        let driver = match self.driver {
            Driver::Reactor { concurrency } => Driver::Reactor { concurrency: concurrency.min(4) },
            Driver::Campaign { instances } => Driver::Campaign { instances: instances.min(4) },
        };
        Workload { driver, paillier_bits: 64, ..*self }
    }
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "deploy2048",
        why: "Deployable keys (Paillier 2048, DGK 2048/256), one round in flight: bigint kernels at 32/64 limbs are >95% of the work, driver overhead is invisible.",
        driver: Driver::Reactor { concurrency: 1 },
        users: 2,
        classes: 3,
        paillier_bits: 2048,
        dgk_bits: 2048,
        dgk_subgroup_bits: 256,
        sigma: 0.05,
        pin_one_cpu: false,
    },
    Workload {
        name: "paper1024",
        why: "The paper's Table I/II shape (K=10, 1024-bit): 45 DGK comparisons x2 dominate the servers, 6K encryptions the user; where comparison-count and packing changes must show.",
        driver: Driver::Reactor { concurrency: 1 },
        users: 3,
        classes: 10,
        paillier_bits: 1024,
        dgk_bits: 1024,
        dgk_subgroup_bits: 160,
        sigma: 0.05,
        pin_one_cpu: false,
    },
    Workload {
        name: "campaign64",
        why: "The same pipeline used sequentially and durably at 64-bit test keys: crypto is a third of a round, the rest is threads, network build, checkpoints and the fsynced ledger.",
        driver: Driver::Campaign { instances: 50 },
        users: 5,
        classes: 3,
        paillier_bits: 64,
        dgk_bits: 128,
        dgk_subgroup_bits: 24,
        sigma: 0.25,
        pin_one_cpu: true,
    },
    Workload {
        name: "reactor64",
        why: "The same pipeline used concurrently: 32 sessions per wave through one Reactor at 64-bit test keys, so scheduling, per-step thread spawn and micro-networks dominate.",
        driver: Driver::Reactor { concurrency: 32 },
        users: 5,
        classes: 3,
        paillier_bits: 64,
        dgk_bits: 128,
        dgk_subgroup_bits: 24,
        sigma: 0.25,
        pin_one_cpu: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; every workload reports all
/// of them on the untraced pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// The name issues cite.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics. Timing bounds come from the calibration
/// record in the README (max of a tenth and twice the observed spread,
/// capped at the contract's 0.25).
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "labels_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "server_ms_floor", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "user_ms_per_label", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "user_upload_bytes", unit: "B", better: Better::Lower, bound: 0.01 },
    EndToEnd { name: "server_link_bytes", unit: "B", better: Better::Lower, bound: 0.01 },
    EndToEnd { name: "server_link_msgs", unit: "count", better: Better::Lower, bound: 0.0 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.15 },
];

/// A metric of a single layer; every workload reports all of them on
/// the traced pass. No bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric it should move (`-` for controls and
    /// sentinels that should move none).
    pub moves: &'static str,
    /// The workloads it should move it on.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves, on }
}

const BIG: &str = "deploy2048 paper1024";
const SMALL: &str = "campaign64 reactor64";
const ALL: &str = "deploy2048 paper1024 campaign64 reactor64";
use Better::{Higher, Lower};

/// The per-layer metrics, with the end-to-end metric and workloads each
/// should move (README: the interaction table, including the predicted
/// no-change cells).
pub const PER_LAYER: [PerLayer; 66] = [
    layer("bigint.modpow_us", "us", Lower, "server_ms_floor", BIG),
    layer("bigint.mont_mul_ns", "ns", Lower, "user_ms_per_label", BIG),
    layer("bigint.gen_prime_ms", "ms", Lower, "setup_s", "deploy2048"),
    layer("paillier.keygen_ms", "ms", Lower, "setup_s", BIG),
    layer("paillier.encrypt_us", "us", Lower, "user_ms_per_label", BIG),
    layer("paillier.decrypt_crt_us", "us", Lower, "server_ms_floor", BIG),
    layer("paillier.rerandomize_us", "us", Lower, "server_ms_floor", "deploy2048"),
    layer("paillier.mul_plain_us", "us", Lower, "server_ms_floor", "deploy2048"),
    layer("paillier.add_us", "us", Lower, "-", "-"),
    layer("paillier.ciphertext_bytes", "B", Lower, "user_upload_bytes", ALL),
    layer("dgk.keygen_ms", "ms", Lower, "setup_s", BIG),
    layer("dgk.encrypt_bit_us", "us", Lower, "server_ms_floor", "paper1024"),
    layer("dgk.compare_ms", "ms", Lower, "server_ms_floor", "paper1024"),
    layer("dgk.compare_bytes", "B", Lower, "server_link_bytes", "paper1024"),
    layer("smc.keygen_ms", "ms", Lower, "setup_s", BIG),
    layer("smc.s2_secure_sum.ms", "ms", Lower, "-", "-"),
    layer("smc.s2_secure_sum.bytes", "B", Lower, "user_upload_bytes", ALL),
    layer("smc.s2_secure_sum.msgs", "count", Lower, "-", "-"),
    layer("smc.s3_blind_permute.ms", "ms", Lower, "server_ms_floor", "deploy2048"),
    layer("smc.s3_blind_permute.bytes", "B", Lower, "server_link_bytes", ALL),
    layer("smc.s3_blind_permute.msgs", "count", Lower, "server_link_msgs", ALL),
    layer("smc.s4_compare_rank.ms", "ms", Lower, "server_ms_floor", "paper1024"),
    layer("smc.s4_compare_rank.bytes", "B", Lower, "server_link_bytes", "paper1024"),
    layer("smc.s4_compare_rank.msgs", "count", Lower, "server_link_msgs", "paper1024"),
    layer("smc.s5_threshold.ms", "ms", Lower, "server_ms_floor", ALL),
    layer("smc.s5_threshold.bytes", "B", Lower, "server_link_bytes", ALL),
    layer("smc.s5_threshold.msgs", "count", Lower, "server_link_msgs", ALL),
    layer("smc.s6_secure_sum_noisy.ms", "ms", Lower, "-", "-"),
    layer("smc.s6_secure_sum_noisy.bytes", "B", Lower, "user_upload_bytes", ALL),
    layer("smc.s6_secure_sum_noisy.msgs", "count", Lower, "-", "-"),
    layer("smc.s7_blind_permute.ms", "ms", Lower, "server_ms_floor", "deploy2048"),
    layer("smc.s7_blind_permute.bytes", "B", Lower, "server_link_bytes", ALL),
    layer("smc.s7_blind_permute.msgs", "count", Lower, "server_link_msgs", ALL),
    layer("smc.s8_compare_noisy.ms", "ms", Lower, "server_ms_floor", "paper1024"),
    layer("smc.s8_compare_noisy.bytes", "B", Lower, "server_link_bytes", "paper1024"),
    layer("smc.s8_compare_noisy.msgs", "count", Lower, "server_link_msgs", "paper1024"),
    layer("smc.s9_restoration.ms", "ms", Lower, "server_ms_floor", "deploy2048"),
    layer("smc.s9_restoration.bytes", "B", Lower, "server_link_bytes", ALL),
    layer("smc.s9_restoration.msgs", "count", Lower, "server_link_msgs", ALL),
    layer("transport.inproc_rtt_us", "us", Lower, "labels_per_s", SMALL),
    layer("transport.network_build_us", "us", Lower, "labels_per_s", SMALL),
    layer("transport.wire_encode_us", "us", Lower, "labels_per_s", SMALL),
    layer("transport.checkpoint_save_us", "us", Lower, "labels_per_s", "campaign64"),
    layer("dp.noise_shares_us", "us", Lower, "-", "-"),
    layer("dp.ledger_charge_us", "us", Lower, "labels_per_s", "campaign64"),
    layer("dp.epsilon_per_label", "eps", Lower, "-", "-"),
    layer("parallel.map32_overhead_us", "us", Lower, "-", "-"),
    layer("core.setup_ms", "ms", Lower, "setup_s", ALL),
    layer("core.prepare_ms", "ms", Lower, "user_ms_per_label", ALL),
    layer("core.admit_ingest_us", "us", Lower, "server_ms_floor", SMALL),
    layer("core.run_ms", "ms", Lower, "server_ms_floor", ALL),
    layer("core.polls_per_session", "count", Lower, "server_ms_floor", SMALL),
    layer("core.server_pipeline_ms", "ms", Lower, "server_ms_floor", ALL),
    layer("core.unattributed_share", "ratio", Lower, "labels_per_s", SMALL),
    layer("core.server_ms_p50", "ms", Lower, "server_ms_floor", ALL),
    layer("core.server_ms_tail", "ms", Lower, "server_ms_floor", SMALL),
    layer("core.server_ms_tail_pct", "%", Higher, "-", "-"),
    layer("core.cpu_ms_per_label", "ms", Lower, "labels_per_s", ALL),
    layer("core.threads_per_label", "count", Lower, "labels_per_s", SMALL),
    layer("core.ctx_switches_per_label", "count", Lower, "labels_per_s", SMALL),
    layer("core.traced_labels_per_s", "1/s", Higher, "labels_per_s", ALL),
    layer("core.trace_overhead_share", "ratio", Lower, "-", "-"),
    layer("core.ops_measured", "count", Higher, "-", "-"),
    layer("proc.ref_spin_ms_before", "ms", Lower, "-", "-"),
    layer("proc.ref_spin_ms_after", "ms", Lower, "-", "-"),
    layer("proc.peak_rss_mb", "MB", Lower, "peak_rss_mb", ALL),
];

fn valid_name(name: &str, max: usize) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= max
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Checks the tables against the contract's limits and the catalogue's
/// own rule that every per-layer row names the end-to-end metric and
/// the workloads it should move. Returns every violation found.
pub fn validate(
    workloads: &[Workload],
    end_to_end: &[EndToEnd],
    per_layer: &[PerLayer],
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut name = |kind: &str, n: &str, errors: &mut Vec<String>| {
        if !valid_name(n, 64) {
            errors.push(format!("{kind} name {n:?} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"));
        }
        if !seen.insert(n.to_string()) {
            errors.push(format!("name {n:?} is used twice"));
        }
    };
    if !(2..=8).contains(&workloads.len()) {
        errors.push(format!("{} workloads, need 2 to 8", workloads.len()));
    }
    for w in workloads {
        name("workload", w.name, &mut errors);
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
            errors.push(format!("workload {}: why must be one line of at most 200 chars", w.name));
        }
    }
    if !(1..=16).contains(&end_to_end.len()) {
        errors.push(format!("{} end-to-end metrics, need 1 to 16", end_to_end.len()));
    }
    for m in end_to_end {
        name("end-to-end", m.name, &mut errors);
        if !valid_unit(m.unit) {
            errors.push(format!("{}: bad unit {:?}", m.name, m.unit));
        }
        if !(0.0..=0.25).contains(&m.bound) {
            errors.push(format!("{}: bound {} outside [0, 0.25]", m.name, m.bound));
        }
    }
    let setup = end_to_end.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower) {
        errors.push("end-to-end metrics must include setup_s in s, lower is better".to_string());
    }
    if !(1..=128).contains(&per_layer.len()) {
        errors.push(format!("{} per-layer metrics, need 1 to 128", per_layer.len()));
    }
    for m in per_layer {
        name("per-layer", m.name, &mut errors);
        if !valid_unit(m.unit) {
            errors.push(format!("{}: bad unit {:?}", m.name, m.unit));
        }
        if !m.name.contains('.') {
            errors.push(format!("{}: per-layer names are <crate>.<metric>", m.name));
        }
        let targets_known = m.on.split_whitespace().all(|w| workloads.iter().any(|x| x.name == w));
        let moves_known = end_to_end.iter().any(|e| e.name == m.moves);
        let is_control = m.moves == "-" && m.on == "-";
        if !(is_control || (moves_known && targets_known && !m.on.is_empty())) {
            errors.push(format!(
                "{}: must name the end-to-end metric and workloads it moves (or - and -)",
                m.name
            ));
        }
    }
    errors
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json` from the tables.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!("    {{\"name\": {}, \"why\": {}}}", json_string(w.name), json_string(w.why))
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"crates/benchmark/run.sh\"],\n  \"paths\": [\"crates/benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_tables_are_valid() {
        let errors = validate(&WORKLOADS, &END_TO_END, &PER_LAYER);
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn validation_catches_each_rule() {
        let bad_name = Workload { name: "has space", ..WORKLOADS[0] };
        assert!(!validate(&[bad_name, WORKLOADS[1]], &END_TO_END, &PER_LAYER).is_empty());

        let dup = [WORKLOADS[0], WORKLOADS[0]];
        assert!(validate(&dup, &END_TO_END, &PER_LAYER).iter().any(|e| e.contains("twice")));

        let loose = EndToEnd { bound: 0.3, ..END_TO_END[1] };
        assert!(validate(&WORKLOADS, &[END_TO_END[0], loose], &PER_LAYER)
            .iter()
            .any(|e| e.contains("bound")));

        assert!(validate(&WORKLOADS, &END_TO_END[1..], &PER_LAYER)
            .iter()
            .any(|e| e.contains("setup_s")));

        let seventeen: Vec<EndToEnd> = (0..17).map(|_| END_TO_END[0]).collect();
        assert!(validate(&WORKLOADS, &seventeen, &PER_LAYER)
            .iter()
            .any(|e| e.contains("need 1 to 16")));

        let many: Vec<PerLayer> = (0..129).map(|_| PER_LAYER[0]).collect();
        assert!(validate(&WORKLOADS, &END_TO_END, &many).iter().any(|e| e.contains("1 to 128")));

        let orphan = PerLayer { moves: "no_such_metric", ..PER_LAYER[0] };
        assert!(validate(&WORKLOADS, &END_TO_END, &[orphan])
            .iter()
            .any(|e| e.contains("must name the end-to-end metric")));
        let nowhere = PerLayer { on: "no_such_workload", ..PER_LAYER[0] };
        assert!(!validate(&WORKLOADS, &END_TO_END, &[nowhere]).is_empty());
    }

    /// `BENCHMARK.json` at the repo root is this table, byte for byte.
    /// Regenerate with `crates/benchmark/run.sh --emit-benchmark-json`.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
    }

    #[test]
    fn smoke_variant_keeps_the_shape_and_drops_the_cost() {
        for w in WORKLOADS {
            let s = w.smoke();
            assert_eq!((s.name, s.users, s.classes), (w.name, w.users, w.classes));
            assert_eq!(s.paillier_bits, 64);
            assert!(s.labels_per_op() <= 4);
        }
    }
}
