//! One run of one workload: set-up, the timed ops, the checks, and —
//! on the traced pass — the span file and the layer probes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::catalogue::{self, Workload};
use crate::probes;
use crate::report::{self, Metrics, Pass, ProcSnapshot};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{AnyDriver, OpRecord, SetupTime};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// A name from the catalogue.
    pub workload: String,
    /// Every input is a function of this.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// `false`: the end-to-end pass. `true`: the per-layer pass.
    pub trace: bool,
    /// Tiny counts at 64-bit keys; every check still runs.
    pub smoke: bool,
    /// Where the run may write (span files, campaign directories).
    pub out_dir: PathBuf,
    /// Test hook: expect one wrong label, to show the command fails.
    pub corrupt_first_expectation: bool,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Labels attempted.
    pub attempted: u64,
    /// Labels that erred or failed a check.
    pub failed: u64,
    /// The pass's metrics in catalogue order: name, value, unit.
    pub rows: Vec<(&'static str, f64, &'static str)>,
    /// Facts about the run a reader needs beside the numbers.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    /// 0 only when every check on every operation passed.
    pub fn exit_code(&self) -> u8 {
        u8::from(self.failed != 0)
    }
}

/// Set-up is repeated — identical work each time — until three
/// repetitions and a second have gone by (at most 256), and the floor
/// is reported. The smoke pass sets up once.
fn set_up(spec: &Workload, args: &RunArgs, tracer: &mut Tracer) -> (AnyDriver, Vec<SetupTime>) {
    let dir = args.out_dir.join(format!("campaign-{}-{}", spec.name, std::process::id()));
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        let (driver, took) = AnyDriver::setup(spec, args.seed, &dir, tracer);
        times.push(took);
        let enough = times.len() >= 3 && begun.elapsed() >= Duration::from_secs(1);
        if args.smoke || enough || times.len() == 256 {
            return (driver, times);
        }
    }
}

/// Runs ops `first..` until `seconds` have gone by, and at least
/// `at_least` of them.
fn run_ops(
    driver: &AnyDriver,
    tracer: &mut Tracer,
    first: u64,
    seconds: f64,
    at_least: usize,
) -> Vec<OpRecord> {
    let begun = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < at_least || begun.elapsed().as_secs_f64() < seconds {
        ops.push(driver.op(first + ops.len() as u64, tracer));
    }
    ops
}

fn meta(spec: &Workload, args: &RunArgs, ops: usize) -> Vec<(&'static str, String)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let config = spec.session_config();
    vec![
        ("workload", spec.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("smoke", args.smoke.to_string()),
        ("commit", env("BENCH_COMMIT")),
        // Seeded streams differ between the two: the offline shim is
        // SplitMix64, crates.io's StdRng is ChaCha12.
        ("rand_backend", env("BENCH_RAND_BACKEND")),
        // Set by the parent that re-ran this process under `taskset`
        // (`Workload::pin_one_cpu`); `nproc` is what the process may use.
        ("pinned_cpu", std::env::var("BENCH_PINNED_CPU").unwrap_or_else(|_| "none".to_string())),
        ("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ("cpu_model", sys::cpu_model().unwrap_or_else(|| "unknown".to_string())),
        ("out_dir_fs", sys::fs_type(&args.out_dir).unwrap_or_else(|| "unknown".to_string())),
        ("users", spec.users.to_string()),
        ("classes", spec.classes.to_string()),
        ("paillier_bits", config.paillier_bits.to_string()),
        ("dgk_modulus_bits", config.dgk.modulus_bits.to_string()),
        ("dgk_subgroup_bits", config.dgk.subgroup_bits.to_string()),
        ("compare_bits", config.dgk.compare_bits.to_string()),
        ("sigma", spec.sigma.to_string()),
        ("labels_per_op", spec.labels_per_op().to_string()),
        ("ops_measured", ops.to_string()),
    ]
}

/// Runs one pass of one workload.
///
/// # Errors
///
/// An unknown workload name, an output directory that cannot be
/// created or written, or a metric the pass owes and did not produce.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let spec = catalogue::workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?}; the catalogue has {names:?}", args.workload)
    })?;
    let spec = if args.smoke { spec.smoke() } else { *spec };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let min_ops = if args.smoke { 2 } else { 3 };
    let seconds = if args.smoke { 0.0 } else { args.seconds };

    let mut tracer = Tracer::new(args.trace);
    let spin_before = sys::ref_spin_ms();
    let (mut driver, setups) = set_up(&spec, args, &mut tracer);
    if args.corrupt_first_expectation {
        driver.corrupt_first_expectation();
    }

    let (pass, metrics, ops): (Pass, Metrics, Vec<OpRecord>) = if args.trace {
        // A fifth of the time untraced, three tenths traced (the ratio
        // of their rates is the recording overhead), four tenths for the
        // layer probes, the rest for set-up.
        tracer.set_recording(false);
        let untraced = run_ops(&driver, &mut tracer, 0, seconds * 0.2, 2);
        tracer.set_recording(true);
        let before = ProcSnapshot::take();
        let traced = run_ops(&driver, &mut tracer, untraced.len() as u64, seconds * 0.3, 2);
        let after = ProcSnapshot::take();
        let mut metrics = report::per_layer_from_ops(&setups, &untraced, &traced, before, after);
        let probe_dir = args.out_dir.join(format!("probes-{}-{}", spec.name, std::process::id()));
        metrics.extend(probes::run_all(
            &spec.session_config(),
            spec.sigma,
            args.seed,
            Duration::from_secs_f64(seconds * 0.4),
            &probe_dir,
        ));
        let _ = std::fs::remove_dir_all(&probe_dir);
        metrics.push(("proc.ref_spin_ms_before", spin_before));
        metrics.push(("proc.ref_spin_ms_after", sys::ref_spin_ms()));
        let path = args.out_dir.join(format!("trace-{}.jsonl", spec.name));
        tracer.write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let mut ops = untraced;
        ops.extend(traced);
        (Pass::Traced, metrics, ops)
    } else {
        let ops = run_ops(&driver, &mut tracer, 0, seconds, min_ops);
        (Pass::Untraced, report::end_to_end(&spec, &setups, &ops), ops)
    };
    driver.cleanup();

    Ok(Outcome {
        attempted: ops.iter().map(|op| op.labels).sum(),
        failed: ops.iter().map(|op| op.failed).sum(),
        rows: report::cover(pass, &metrics)?,
        meta: meta(&spec, args, ops.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};

    fn smoke(workload: &str, trace: bool, corrupt: bool) -> Outcome {
        let out_dir = std::env::temp_dir()
            .join(format!("benchmark-smoke-{}-{workload}-{trace}-{corrupt}", std::process::id()));
        let args = RunArgs {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.0,
            trace,
            smoke: true,
            out_dir: out_dir.clone(),
            corrupt_first_expectation: corrupt,
        };
        let outcome = run(&args).expect("smoke run");
        if trace {
            let spans = std::fs::read_to_string(out_dir.join(format!("trace-{workload}.jsonl")))
                .expect("span file");
            for name in ["setup", "core.prepare", "core.run", "check.oracle"] {
                assert!(
                    spans.contains(&format!("\"name\":\"{name}\"")),
                    "{workload}: no {name} span"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
        outcome
    }

    /// The smoke pass: all four workloads, both passes, every check.
    #[test]
    fn smoke_pass_of_every_workload() {
        for w in WORKLOADS {
            let untraced = smoke(w.name, false, false);
            assert_eq!((untraced.failed, untraced.exit_code()), (0, 0), "{}", w.name);
            assert!(untraced.attempted >= 2);
            assert_eq!(untraced.rows.len(), END_TO_END.len());
            assert!(untraced.rows.iter().all(|&(_, v, _)| v > 0.0), "{:?}", untraced.rows);

            let traced = smoke(w.name, true, false);
            assert_eq!((traced.failed, traced.exit_code()), (0, 0), "{}", w.name);
            assert_eq!(traced.rows.len(), PER_LAYER.len());
            let share = traced.rows.iter().find(|r| r.0 == "core.unattributed_share").unwrap().1;
            assert!((0.0..1.0).contains(&share), "{}: unattributed share {share}", w.name);
        }
    }

    /// One wrong expected label fails the command, on either driver.
    #[test]
    fn a_wrong_label_fails_the_command() {
        for workload in ["reactor64", "campaign64"] {
            let outcome = smoke(workload, false, true);
            assert!(outcome.failed >= 1, "{workload}");
            assert_ne!(outcome.exit_code(), 0, "{workload}");
        }
    }

    #[test]
    fn an_unknown_workload_is_an_error() {
        let args = RunArgs {
            workload: "nope".to_string(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            smoke: true,
            out_dir: std::env::temp_dir(),
            corrupt_first_expectation: false,
        };
        assert!(run(&args).unwrap_err().contains("deploy2048"));
    }
}
