//! Turns op records into the catalogue's metrics and the result line.

use std::time::Duration;

use transport::{LinkKind, MeterReport, Step};

use crate::catalogue::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{floor, highest_supported_tail, median, ms, percentile};
use crate::sys;
use crate::workloads::{OpRecord, SetupTime};

/// Named values in catalogue units.
pub type Metrics = Vec<(&'static str, f64)>;

/// The paper steps 2–9, with the catalogue's name stem for each.
const STEPS: [(Step, &str); 8] = [
    (Step::SecureSumVotes, "smc.s2_secure_sum"),
    (Step::BlindPermute1, "smc.s3_blind_permute"),
    (Step::CompareRank, "smc.s4_compare_rank"),
    (Step::ThresholdCheck, "smc.s5_threshold"),
    (Step::SecureSumNoisy, "smc.s6_secure_sum_noisy"),
    (Step::BlindPermute2, "smc.s7_blind_permute"),
    (Step::CompareNoisyRank, "smc.s8_compare_noisy"),
    (Step::Restoration, "smc.s9_restoration"),
];

/// Bytes and messages of one link kind over every step.
fn link_total(report: &MeterReport, kind: LinkKind) -> (f64, f64) {
    report
        .comm_rows()
        .filter(|&(_, link, _)| link == kind)
        .fold((0.0, 0.0), |(b, m), (_, _, s)| (b + s.bytes as f64, m + s.messages as f64))
}

fn ops_floor(ops: &[OpRecord], f: impl Fn(&OpRecord) -> f64) -> f64 {
    floor(&ops.iter().map(f).collect::<Vec<_>>())
}

/// Throughput with each phase at its quiet-machine speed: labels per op
/// ÷ (floor of the users' phase + floor of the servers' phase). The two
/// phases partition an op's timed section, so on a quiet machine this is
/// labels ÷ wall; on this box it is the part of that quotient that
/// repeats.
pub fn labels_per_s(ops: &[OpRecord]) -> f64 {
    let op_ms = ops_floor(ops, |op| op.prepare_ms) + ops_floor(ops, |op| op.serve_ms);
    ops[0].labels as f64 / (op_ms / 1e3)
}

/// Floor of one component of the set-up repetitions, in milliseconds.
fn setup_floor_ms(setups: &[SetupTime], f: impl Fn(&SetupTime) -> Duration) -> f64 {
    floor(&setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
}

/// The end-to-end metrics of an untraced pass. Counts come from the
/// first op alone: it is a function of the seed, so two runs of one
/// seed agree exactly however many ops each fitted in.
///
/// # Panics
///
/// Panics if `ops` or `setups` is empty.
pub fn end_to_end(spec: &Workload, setups: &[SetupTime], ops: &[OpRecord]) -> Metrics {
    let first = &ops[0];
    let labels = first.labels as f64;
    let (user_bytes, _) = link_total(&first.report, LinkKind::UserToServer);
    let (link_bytes, link_msgs) = link_total(&first.report, LinkKind::ServerToServer);
    vec![
        ("setup_s", setup_floor_ms(setups, |s| s.total) / 1e3),
        ("labels_per_s", labels_per_s(ops)),
        // One representative latency per op — the median over its labels
        // (one round, a wave's sessions, a campaign's rounds) — then the floor.
        ("server_ms_floor", ops_floor(ops, |op| median(&op.latencies_ms))),
        ("user_ms_per_label", ops_floor(ops, |op| op.core_prepare_ms) / spec.users as f64),
        ("user_upload_bytes", user_bytes / labels / spec.users as f64),
        ("server_link_bytes", link_bytes / labels),
        ("server_link_msgs", link_msgs / labels),
        ("peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN)),
    ]
}

/// `/proc` counters around a timed section.
#[derive(Debug, Clone, Copy)]
pub struct ProcSnapshot {
    cpu_ms: Option<f64>,
    tasks: Option<f64>,
    switches: Option<f64>,
}

impl ProcSnapshot {
    /// Reads the counters now.
    pub fn take() -> ProcSnapshot {
        ProcSnapshot {
            cpu_ms: sys::cpu_ms(),
            tasks: sys::tasks_created().map(|n| n as f64),
            switches: sys::context_switches().map(|n| n as f64),
        }
    }
}

/// The per-layer metrics the traced ops supply (everything but the
/// probes and the sentinel, which the caller appends).
///
/// # Panics
///
/// Panics if `traced` is empty.
pub fn per_layer_from_ops(
    setups: &[SetupTime],
    untraced: &[OpRecord],
    traced: &[OpRecord],
    before: ProcSnapshot,
    after: ProcSnapshot,
) -> Metrics {
    let mut out: Metrics = Vec::new();
    let labels_per_op = traced[0].labels as f64;
    let first = &traced[0].report;
    for (step, stem) in STEPS {
        let per_label: Vec<f64> =
            traced.iter().map(|op| ms(op.report.step_time(step)) / op.labels as f64).collect();
        let (mut bytes, mut msgs) = (0.0, 0.0);
        for (_, _, stats) in first.comm_rows().filter(|&(s, _, _)| s == step) {
            bytes += stats.bytes as f64;
            msgs += stats.messages as f64;
        }
        // The catalogue owns the names; a stem it does not know is a bug.
        for (suffix, value) in [
            ("ms", floor(&per_label)),
            ("bytes", bytes / labels_per_op),
            ("msgs", msgs / labels_per_op),
        ] {
            let name = format!("{stem}.{suffix}");
            let row = PER_LAYER.iter().find(|m| m.name == name).expect("step metric in catalogue");
            out.push((row.name, value));
        }
    }

    let latencies: Vec<f64> =
        traced.iter().flat_map(|op| op.latencies_ms.iter().copied()).collect();
    // The share of the servers' wall the nine metered steps do not
    // explain, per op (a ratio inside one op, so machine speed cancels).
    let attributed: Vec<f64> =
        traced.iter().map(|op| op.pipeline_ms / op.metered_wall_ms).collect();
    let (tail_pct, tail) = match highest_supported_tail(latencies.len()) {
        Some(p) => (p, percentile(&latencies, p)),
        // Too few samples for any tail: say so (percentile 50 = the median).
        None => (50.0, median(&latencies)),
    };
    let labels_total: f64 = traced.iter().map(|op| op.labels as f64).sum();
    let delta = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) => (b - a) / labels_total,
        _ => f64::NAN,
    };
    let traced_rate = labels_per_s(traced);
    out.extend([
        ("smc.keygen_ms", setup_floor_ms(setups, |s| s.keygen)),
        ("core.setup_ms", setup_floor_ms(setups, |s| s.total)),
        ("core.prepare_ms", ops_floor(traced, |op| op.core_prepare_ms)),
        ("core.admit_ingest_us", ops_floor(traced, |op| op.admit_ingest_us)),
        ("core.run_ms", ops_floor(traced, |op| op.run_ms)),
        ("core.polls_per_session", traced[0].polls_per_session),
        ("core.server_pipeline_ms", ops_floor(traced, |op| op.pipeline_ms / op.labels as f64)),
        ("core.unattributed_share", 1.0 - median(&attributed)),
        ("core.server_ms_p50", median(&latencies)),
        ("core.server_ms_tail", tail),
        ("core.server_ms_tail_pct", tail_pct),
        ("core.cpu_ms_per_label", delta(before.cpu_ms, after.cpu_ms)),
        ("core.threads_per_label", delta(before.tasks, after.tasks)),
        ("core.ctx_switches_per_label", delta(before.switches, after.switches)),
        ("core.traced_labels_per_s", traced_rate),
        ("core.trace_overhead_share", 1.0 - traced_rate / labels_per_s(untraced)),
        ("core.ops_measured", traced.len() as f64),
        ("proc.peak_rss_mb", sys::peak_rss_mb().unwrap_or(f64::NAN)),
    ]);
    out
}

/// Which table a result line must cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `--trace 0`: every end-to-end metric.
    Untraced,
    /// `--trace 1`: every per-layer metric.
    Traced,
}

/// The names and units a pass must report, in catalogue order.
pub fn expected(pass: Pass) -> Vec<(&'static str, &'static str)> {
    match pass {
        Pass::Untraced => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        Pass::Traced => PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
    }
}

/// Orders `metrics` as the catalogue does and attaches units.
///
/// # Errors
///
/// Names the first metric the pass owes and did not measure, measured
/// twice, or measured as something that is not a finite number.
pub fn cover(
    pass: Pass,
    metrics: &Metrics,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut rows = Vec::new();
    for (name, unit) in expected(pass) {
        let mut hits = metrics.iter().filter(|(n, _)| *n == name);
        let value = match (hits.next(), hits.next()) {
            (Some(&(_, v)), None) => v,
            (None, _) => return Err(format!("metric {name} was not measured")),
            (Some(_), Some(_)) => return Err(format!("metric {name} was measured twice")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        rows.push((name, value, unit));
    }
    if let Some((stray, _)) = metrics.iter().find(|(n, _)| !rows.iter().any(|(r, _, _)| r == n)) {
        return Err(format!("metric {stray} is not in the catalogue for this pass"));
    }
    Ok(rows)
}

/// The one JSON object the contract wants as the last line of stdout.
pub fn result_line(
    attempted: u64,
    failed: u64,
    rows: &[(&'static str, f64, &'static str)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_rejects_missing_duplicate_stray_and_nan() {
        let full: Metrics = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let rows = cover(Pass::Untraced, &full).expect("complete set");
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[0], ("setup_s", 1.5, "s"));

        let missing: Metrics = full[1..].to_vec();
        assert!(cover(Pass::Untraced, &missing).unwrap_err().contains("setup_s"));
        let mut twice = full.clone();
        twice.push(full[2]);
        assert!(cover(Pass::Untraced, &twice).unwrap_err().contains("twice"));
        let mut stray = full.clone();
        stray.push(("core.run_ms", 1.0));
        assert!(cover(Pass::Untraced, &stray).unwrap_err().contains("core.run_ms"));
        let mut nan = full;
        nan[3].1 = f64::NAN;
        assert!(cover(Pass::Untraced, &nan).unwrap_err().contains("NaN"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(12, 0, &[("setup_s", 0.8127, "s"), ("labels_per_s", 3.0, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"labels_per_s\": {\"value\": 3, \"unit\": \"1/s\"}}}"
        );
        assert!(result_line(12, 1, &[]).starts_with("{\"correct\": false"));
    }
}
