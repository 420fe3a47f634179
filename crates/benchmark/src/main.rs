//! `benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]`
//! runs one pass of one workload and prints `meta`/`metric` lines, then
//! the result as one JSON object on the last line.
//! `benchmark --emit-benchmark-json` prints `BENCHMARK.json`.
//! Use `crates/benchmark/run.sh`, which builds this first.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use benchmark::catalogue::{self, PER_LAYER};
use benchmark::report;
use benchmark::runner::{self, RunArgs};

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] | --emit-benchmark-json";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<RunArgs>, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(catalogue::RUN_SECONDS),
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(target).join("benchmark"),
        corrupt_first_expectation: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--emit-benchmark-json" => return Ok(None),
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, not {}", args.seconds));
    }
    Ok(Some(args))
}

/// Runs a workload the catalogue wants on one CPU as a child of this
/// process under `taskset` (the last CPU: CPU 0 also serves the
/// block-device interrupts), and waits for it. `None` means run here:
/// the workload is not pinned, this *is* the pinned child, or there is
/// no `taskset` (then `meta pinned_cpu` says `none`).
fn run_pinned(args: &RunArgs) -> Option<ExitCode> {
    let pin = catalogue::workload(&args.workload).is_some_and(|w| w.pin_one_cpu);
    if !pin || std::env::var_os("BENCH_PINNED_CPU").is_some() {
        return None;
    }
    let cpu = std::thread::available_parallelism().map_or(0, |n| n.get() - 1).to_string();
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env("BENCH_PINNED_CPU", &cpu)
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(2, |code| code as u8)))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", catalogue::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = run_pinned(&args) {
        return code;
    }
    let outcome = match runner::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    for (key, value) in &outcome.meta {
        println!("meta {key} {value}");
    }
    for (name, value, unit) in &outcome.rows {
        // A per-layer row also says which end-to-end metric it should
        // move, and on which workloads.
        match PER_LAYER.iter().find(|m| m.name == *name) {
            Some(m) => println!("metric {name} {value} {unit} -> {} on {}", m.moves, m.on),
            None => println!("metric {name} {value} {unit}"),
        }
    }
    println!("{}", report::result_line(outcome.attempted, outcome.failed, &outcome.rows));
    ExitCode::from(outcome.exit_code())
}
