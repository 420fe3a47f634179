//! The two drivers behind the four workloads, and the checks every
//! operation's output goes through.
//!
//! Both are closed loops run from one load-generating thread (the engine
//! itself runs S1 and S2 as two threads per step). Message delivery is
//! in-process and instant, so every latency here is processor time;
//! `server_link_msgs` is reported so a WAN round-trip can be projected.
//!
//! Every engine is built with its defaults — ranking, parallelism,
//! in-proc transport, audit off, no fault plan — so a change of default
//! is measured as users would feel it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use consensus_core::algorithms::threshold_decision_scaled;
use consensus_core::campaign::{CampaignConfig, CampaignReport, CampaignRunner, CampaignStop};
use consensus_core::config::ConsensusConfig;
use consensus_core::reactor::{Reactor, ReactorConfig, SessionMachine, SessionResult};
use consensus_core::secure::{SecureEngine, SecureOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smc::SessionKeys;
use transport::{Meter, MeterReport};

use crate::catalogue::{Driver, Workload};
use crate::stats::ms;
use crate::trace::Tracer;

/// The δ of every `(ε, δ)` statement the harness checks.
pub const DELTA: f64 = 1e-6;

/// Quorum of the durable campaign (`with_min_users`): 3 of 5.
const CAMPAIGN_MIN_USERS: usize = 3;

/// Budget no campaign op can reach, so the only legal stop is instance
/// exhaustion.
const CAMPAIGN_BUDGET: f64 = 1e12;

/// Seed of every session key the harness generates — a constant, not the
/// run seed: prime-search luck moves key generation by ±40 % from seed to
/// seed, and would bury `setup_s` under it. With fixed keys every run's
/// set-up does identical work; votes and all protocol randomness still
/// come from `--seed`.
const KEY_SEED: u64 = 0x5E55_104B_E755;

/// Independent random streams derived from the run seed.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Session = 2,
    Campaign = 3,
}

/// Mixes the run seed, a stream tag and an index into an RNG seed
/// (splitmix64 finalizer).
fn stream_seed(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut x = seed
        ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The class the `label`-th query of the run must release.
fn winner(seed: u64, label: u64, classes: usize) -> usize {
    (seed.wrapping_add(label) % classes as u64) as usize
}

/// The vote matrix of one query: everyone votes `winner` except
/// `|U|/8` dissenters, who vote the next class.
fn votes(spec: &Workload, winner: usize) -> Vec<Vec<f64>> {
    (0..spec.users)
        .map(|u| {
            let class = if u < spec.users / 8 { (winner + 1) % spec.classes } else { winner };
            let mut row = vec![0.0; spec.classes];
            row[class] = 1.0;
            row
        })
        .collect()
}

fn consensus(spec: &Workload) -> ConsensusConfig {
    ConsensusConfig::paper_default(spec.sigma, spec.sigma)
}

/// How long one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Everything before the first op could start: the `setup_s` sample.
    pub total: Duration,
    /// `SessionKeys::generate` alone (for a campaign, of its reference
    /// round's keys — the runner generates its own inside `run`).
    pub keygen: Duration,
}

/// What one op measured. Times are wall-clock milliseconds.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Labels attempted.
    pub labels: u64,
    /// Labels that erred or failed a check.
    pub failed: u64,
    /// The users' phase: every `SessionMachine::new` of the op (reactor
    /// driver) or `CampaignRunner::open` (campaign driver).
    pub prepare_ms: f64,
    /// The servers' phase: admit → ingest → `run_until_idle` →
    /// `take_result`, or `CampaignRunner::run`.
    pub serve_ms: f64,
    /// Per-label server latency: `Reactor::latencies`, or
    /// `RoundCost::wall_ms`.
    pub latencies_ms: Vec<f64>,
    /// Metered step time of the whole op (`MeterReport::total_time`).
    pub pipeline_ms: f64,
    /// The server wall that step time should add up to: `run_until_idle`
    /// of the op, or the sum of the campaign's `RoundCost::wall_ms`.
    pub metered_wall_ms: f64,
    /// `SessionMachine::new` wall per session — `|U|` edge devices' work
    /// for one query. The campaign driver, which plays the users itself,
    /// takes this and the three fields below from its reference round.
    pub core_prepare_ms: f64,
    /// Admit + ingest of the whole op, microseconds per session.
    pub admit_ingest_us: f64,
    /// `run_until_idle` wall of the op.
    pub run_ms: f64,
    /// Machine polls per session.
    pub polls_per_session: f64,
    /// The op's own meter.
    pub report: MeterReport,
}

/// Verifies one reactor-driven session: it must be `Done`, clean, and
/// release both what the clear-text oracle derives from the witness and
/// the class the votes were built to elect.
fn session_ok(result: Option<SessionResult>, expected: usize) -> Result<(), String> {
    let out: Box<SecureOutcome> = match result {
        Some(SessionResult::Done(out)) => out,
        other => return Err(format!("session did not finish Done: {other:?}")),
    };
    if !out.health.is_clean() {
        return Err(format!("round was not clean: {:?}", out.health));
    }
    let w = &out.witness;
    let oracle =
        threshold_decision_scaled(&w.counts_scaled, &w.z1_scaled, &w.z2_scaled, w.threshold_scaled);
    if out.label != oracle {
        return Err(format!("label {:?} but the clear-text oracle says {oracle:?}", out.label));
    }
    if out.label != Some(expected) {
        return Err(format!("label {:?} but the votes elect {expected}", out.label));
    }
    Ok(())
}

/// Verifies one campaign op; returns the number of failed labels.
fn campaign_failures(
    report: &CampaignReport,
    expected: &[usize],
    consensus: &ConsensusConfig,
) -> (u64, Vec<String>) {
    let mut failed = 0u64;
    let mut why = Vec::new();
    for (i, &want) in expected.iter().enumerate() {
        let row = report.rounds.get(i);
        let ok = row.is_some_and(|r| {
            r.label == Some(want) && r.charged && r.instance == i && r.round == i as u64
        });
        if !ok {
            failed += 1;
            why.push(format!("instance {i}: want label {want} charged once, got {row:?}"));
        }
    }
    let mut whole = Vec::new();
    if report.rounds.len() != expected.len() || !report.parked.is_empty() {
        whole.push(format!("{} rounds, {} parked", report.rounds.len(), report.parked.len()));
    }
    if report.stop != CampaignStop::InstancesExhausted {
        whole.push(format!("stopped with {:?}", report.stop));
    }
    let closed_form = consensus.epsilon(expected.len() as u64, DELTA);
    if (report.epsilon_spent - closed_form).abs() > 1e-9 * closed_form {
        whole.push(format!(
            "epsilon {} but Theorem 5 composes to {closed_form}",
            report.epsilon_spent
        ));
    }
    if !whole.is_empty() {
        failed = failed.max(1);
        why.extend(whole);
    }
    (failed, why)
}

/// Drives ops of `concurrency` sessions through one `Reactor` each.
pub struct ReactorDriver {
    spec: Workload,
    concurrency: usize,
    seed: u64,
    engine: Arc<SecureEngine>,
    /// Name of the span around one op (`op`, or `reference_round` beside
    /// a campaign op).
    op_span: &'static str,
    /// Test hook: expect the wrong class from the first session, to show
    /// that a wrong label fails the command.
    pub corrupt_first_expectation: bool,
}

impl ReactorDriver {
    /// Set-up: `SessionKeys::generate` (which precomputes) from
    /// [`KEY_SEED`] and engine construction — identical work every time.
    /// Returns the driver and how long set-up took.
    pub fn setup(spec: &Workload, seed: u64, tracer: &mut Tracer) -> (ReactorDriver, SetupTime) {
        let concurrency = match spec.driver {
            Driver::Reactor { concurrency } => concurrency,
            Driver::Campaign { .. } => 1,
        };
        let open = tracer.begin("setup");
        let mut rng = StdRng::seed_from_u64(KEY_SEED);
        let (keys, keygen) =
            tracer.time("smc.keygen", || SessionKeys::generate(spec.session_config(), &mut rng));
        let (engine, _) =
            tracer.time("core.engine_new", || SecureEngine::with_keys(keys, consensus(spec)));
        let total = tracer.end(open);
        let driver = ReactorDriver {
            spec: *spec,
            concurrency,
            seed,
            engine: Arc::new(engine),
            op_span: "op",
            corrupt_first_expectation: false,
        };
        (driver, SetupTime { total, keygen })
    }

    /// One op: prepare every session, then serve them all through a
    /// fresh reactor, then check every result.
    pub fn op(&self, op: u64, tracer: &mut Tracer) -> OpRecord {
        let sessions = self.concurrency as u64;
        let roster: Vec<usize> = (0..self.spec.users).collect();
        let meter = Meter::new();
        let mut failures: Vec<String> = Vec::new();
        tracer.set_op(Some(op));
        let whole = tracer.begin(self.op_span);

        let prepare = tracer.begin("core.prepare");
        let mut machines = Vec::with_capacity(self.concurrency);
        let mut expected = Vec::with_capacity(self.concurrency);
        for s in 0..sessions {
            let sid = op * sessions + s;
            let want = winner(self.seed, sid, self.spec.classes);
            let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, Stream::Session, sid));
            match SessionMachine::new(
                sid,
                Arc::clone(&self.engine),
                &votes(&self.spec, want),
                &roster,
                Arc::clone(&meter),
                &mut rng,
            ) {
                Ok(pair) => {
                    machines.push(pair);
                    expected.push((sid, want));
                }
                Err(e) => failures.push(format!("session {sid}: prepare failed: {e}")),
            }
        }
        let prepare = tracer.end(prepare);

        let serve = tracer.begin("core.serve");
        // A generous watchdog: a co-tenant stall must not read as an
        // eviction. The deadline only fires on sessions that stop
        // progressing, so it does not shape the measured path.
        let config =
            ReactorConfig { max_sessions: self.concurrency, deadline: Duration::from_secs(120) };
        let mut reactor = Reactor::new(config, Arc::clone(&meter));
        let admit = tracer.begin("core.admit_ingest");
        for (machine, frames) in machines {
            let sid = machine.session();
            if let Err(e) = reactor.admit(machine) {
                failures.push(format!("session {sid}: {e}"));
                continue;
            }
            for frame in frames {
                if let Err(e) = reactor.ingest(frame) {
                    failures.push(format!("session {sid}: ingest failed: {e:?}"));
                }
            }
        }
        let admit = tracer.end(admit);
        let (polls, run) = tracer.time("core.run", || reactor.run_until_idle());
        let results: Vec<_> =
            expected.iter().map(|&(sid, want)| (sid, want, reactor.take_result(sid))).collect();
        let serve = tracer.end(serve);

        let check = tracer.begin("check.oracle");
        let mut failed = sessions - expected.len() as u64;
        for (i, (sid, want, result)) in results.into_iter().enumerate() {
            let corrupt = self.corrupt_first_expectation && op == 0 && i == 0;
            let want = if corrupt { (want + 1) % self.spec.classes } else { want };
            if let Err(why) = session_ok(result, want) {
                failed += 1;
                failures.push(format!("session {sid}: {why}"));
            }
        }
        tracer.end(check);
        tracer.end(whole);
        for why in &failures {
            eprintln!("FAILED {} op {op}: {why}", self.spec.name);
        }

        let report = meter.report();
        let latencies_ms: Vec<f64> = reactor.latencies().iter().map(|&(_, d)| ms(d)).collect();
        let per_session = |total: f64| total / sessions as f64;
        OpRecord {
            labels: sessions,
            failed: failed.min(sessions),
            prepare_ms: ms(prepare),
            serve_ms: ms(serve),
            latencies_ms,
            pipeline_ms: ms(report.total_time()),
            metered_wall_ms: ms(run),
            core_prepare_ms: per_session(ms(prepare)),
            admit_ingest_us: per_session(ms(admit) * 1e3),
            run_ms: ms(run),
            polls_per_session: per_session(polls as f64),
            report,
        }
    }
}

/// Drives ops of one durable campaign each: `CampaignRunner::open` +
/// `run` over a fresh directory on the real file system.
pub struct CampaignDriver {
    spec: Workload,
    instances: usize,
    seed: u64,
    dir: PathBuf,
    /// A bare reactor-driven round at the campaign's parameters, run once
    /// per op beside the campaign: the runner plays the users itself, so
    /// the user's cost and the `core.*` spans of a round are read here.
    reference: ReactorDriver,
    /// Test hook, as [`ReactorDriver::corrupt_first_expectation`].
    pub corrupt_first_expectation: bool,
}

impl CampaignDriver {
    fn config(&self, op: u64) -> CampaignConfig {
        CampaignConfig::new(
            consensus(&self.spec).with_min_users(CAMPAIGN_MIN_USERS),
            self.spec.users,
            self.spec.classes,
            CAMPAIGN_BUDGET,
            DELTA,
        )
        .with_seed(stream_seed(self.seed, Stream::Campaign, op))
    }

    /// Set-up: `CampaignRunner::open` on a fresh directory under `dir`
    /// (created here, removed by [`CampaignDriver::cleanup`]). The
    /// reference driver's 64-bit key generation is not part of it: the
    /// campaign generates its own keys inside `run`.
    ///
    /// # Panics
    ///
    /// Panics if `dir` cannot be created or the runner cannot open —
    /// nothing can be measured without a directory.
    pub fn setup(
        spec: &Workload,
        seed: u64,
        dir: &Path,
        tracer: &mut Tracer,
    ) -> (CampaignDriver, SetupTime) {
        let Driver::Campaign { instances } = spec.driver else {
            panic!("{} is not a campaign workload", spec.name)
        };
        let (mut reference, bare) = ReactorDriver::setup(spec, seed, &mut Tracer::new(false));
        reference.op_span = "reference_round";
        let driver = CampaignDriver {
            spec: *spec,
            instances,
            seed,
            dir: dir.to_path_buf(),
            reference,
            corrupt_first_expectation: false,
        };
        let scratch = driver.dir.join("setup");
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&driver.dir).expect("create the campaign directory");
        let open = tracer.begin("setup");
        let runner = CampaignRunner::open(&scratch, driver.config(0)).expect("open a campaign");
        let total = tracer.end(open);
        drop(runner);
        let _ = std::fs::remove_dir_all(&scratch);
        (driver, SetupTime { total, keygen: bare.keygen })
    }

    /// Removes the campaign directory.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// One op: open a fresh campaign, run it to instance exhaustion,
    /// check every round and the ledger, then one reference round.
    pub fn op(&self, op: u64, tracer: &mut Tracer) -> OpRecord {
        let n = self.instances as u64;
        let expected: Vec<usize> =
            (0..n).map(|j| winner(self.seed, op * n + j, self.spec.classes)).collect();
        let instances: Vec<Vec<Vec<f64>>> =
            expected.iter().map(|&w| votes(&self.spec, w)).collect();
        let dir = self.dir.join(format!("op-{op}"));
        let meter = Meter::new();
        let config = self.config(op);
        tracer.set_op(Some(op));
        let whole = tracer.begin("op");

        let (opened, open) =
            tracer.time("core.campaign_open", || CampaignRunner::open(&dir, config.clone()));
        let (ran, run) = tracer.time("core.campaign_run", || {
            opened.map_err(|e| e.to_string()).and_then(|mut runner| {
                runner.run(&instances, Arc::clone(&meter)).map_err(|e| e.to_string())
            })
        });

        let check = tracer.begin("check.oracle");
        let mut expected = expected;
        if self.corrupt_first_expectation && op == 0 {
            expected[0] = (expected[0] + 1) % self.spec.classes;
        }
        let (failed, failures, latencies_ms) = match &ran {
            Ok(report) => {
                let (failed, why) = campaign_failures(report, &expected, &config.consensus);
                (failed, why, report.rounds.iter().map(|r| r.wall_ms).collect())
            }
            Err(e) => (n, vec![format!("campaign failed: {e}")], vec![ms(run)]),
        };
        tracer.end(check);
        tracer.end(whole);
        for why in &failures {
            eprintln!("FAILED {} op {op}: {why}", self.spec.name);
        }
        let _ = std::fs::remove_dir_all(&dir);

        let reference = self.reference.op(op, tracer);
        let report = meter.report();
        OpRecord {
            labels: n,
            failed: (failed + reference.failed).min(n),
            prepare_ms: ms(open),
            serve_ms: ms(run),
            pipeline_ms: ms(report.total_time()),
            metered_wall_ms: latencies_ms.iter().sum(),
            latencies_ms,
            report,
            ..reference
        }
    }
}

/// Either driver, so the run loop is written once.
pub enum AnyDriver {
    /// Reactor waves.
    Reactor(ReactorDriver),
    /// Durable campaigns.
    Campaign(CampaignDriver),
}

impl AnyDriver {
    /// Performs the workload's set-up once and returns the driver with
    /// the time it took. `dir` is where a campaign workload may write.
    pub fn setup(
        spec: &Workload,
        seed: u64,
        dir: &Path,
        tracer: &mut Tracer,
    ) -> (AnyDriver, SetupTime) {
        match spec.driver {
            Driver::Reactor { .. } => {
                let (driver, took) = ReactorDriver::setup(spec, seed, tracer);
                (AnyDriver::Reactor(driver), took)
            }
            Driver::Campaign { .. } => {
                let (driver, took) = CampaignDriver::setup(spec, seed, dir, tracer);
                (AnyDriver::Campaign(driver), took)
            }
        }
    }

    /// Runs op number `op`.
    pub fn op(&self, op: u64, tracer: &mut Tracer) -> OpRecord {
        match self {
            AnyDriver::Reactor(d) => d.op(op, tracer),
            AnyDriver::Campaign(d) => d.op(op, tracer),
        }
    }

    /// Arms the wrong-expectation test hook.
    pub fn corrupt_first_expectation(&mut self) {
        match self {
            AnyDriver::Reactor(d) => d.corrupt_first_expectation = true,
            AnyDriver::Campaign(d) => d.corrupt_first_expectation = true,
        }
    }

    /// Removes whatever the driver wrote to disk.
    pub fn cleanup(&self) {
        if let AnyDriver::Campaign(d) = self {
            d.cleanup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::WORKLOADS;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(stream_seed(7, Stream::Session, 0), stream_seed(7, Stream::Session, 0));
        assert_ne!(stream_seed(7, Stream::Session, 0), stream_seed(8, Stream::Session, 0));
        assert_ne!(stream_seed(7, Stream::Campaign, 0), stream_seed(7, Stream::Session, 0));
        assert_ne!(stream_seed(7, Stream::Session, 0), stream_seed(7, Stream::Session, 1));
        assert_eq!(winner(5, 2, 3), 1);
    }

    #[test]
    fn votes_elect_the_winner_with_an_eighth_dissenting() {
        let spec = Workload { users: 16, classes: 4, ..WORKLOADS[3] };
        let matrix = votes(&spec, 3);
        let tally = |class: usize| matrix.iter().filter(|row| row[class] == 1.0).count();
        assert_eq!((tally(3), tally(0)), (14, 2));
        assert!(matrix.iter().all(|row| row.iter().sum::<f64>() == 1.0));
    }
}
