//! One optimization job, run in process exactly as a caller of the
//! library runs it: a fresh environment and a fresh `EvalService` per job,
//! so neither the per-env warm-start cache nor the memo cache carries
//! operating points from one job into the next. Only the process-global
//! symbolic-factorization cache stays warm, as in a long-lived daemon.

use std::time::{Duration, Instant};

use specwise::{mc_verify, OptimizerConfig, YieldOptimizer};
use specwise_ckt::{
    CircuitEnv, FiveTransistorOta, FoldedCascode, MillerOpamp, SimPhase, Testbench,
};
use specwise_exec::{EvalService, ExecConfig, ExecReport};
use specwise_linalg::DVec;

use crate::timed::{Kind, Recorder, Timed};

/// The built-in decks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Circuit {
    Ota,
    Miller,
    Folded,
}

impl Circuit {
    /// The rotation order of the serve workload.
    pub const ALL: [Circuit; 3] = [Circuit::Ota, Circuit::Miller, Circuit::Folded];

    pub fn label(self) -> &'static str {
        match self {
            Circuit::Ota => "ota",
            Circuit::Miller => "miller",
            Circuit::Folded => "folded",
        }
    }

    pub fn deck(self) -> &'static str {
        match self {
            Circuit::Ota => FiveTransistorOta::deck(),
            Circuit::Miller => MillerOpamp::deck(),
            Circuit::Folded => FoldedCascode::deck(),
        }
    }

    /// Compiles the deck. `warm_start` is set explicitly so the
    /// `SPECWISE_WARM_START` knob can never choose it.
    pub fn env(self, warm_start: bool) -> Testbench {
        Testbench::from_deck(self.deck())
            .expect("built-in decks compile")
            .with_warm_start(warm_start)
    }
}

/// Everything that defines a job except its seed.
#[derive(Debug, Clone)]
pub struct JobDef {
    pub circuit: Circuit,
    pub warm_start: bool,
    pub config: OptimizerConfig,
    pub exec: ExecConfig,
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub design: DVec,
    pub wall: Duration,
    pub total_sims: u64,
    pub phase_sims: [u64; SimPhase::COUNT],
    pub adjoint_solves: u64,
    pub fd_sims_avoided: u64,
    pub degraded_samples: usize,
    pub exec: ExecReport,
}

impl JobResult {
    /// Bit-exact identity of the job's outcome: final design, simulator
    /// calls and adjoint solves.
    pub fn same_outcome(&self, other: &JobResult) -> bool {
        let bits = |d: &DVec| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&self.design) == bits(&other.design)
            && self.total_sims == other.total_sims
            && self.adjoint_solves == other.adjoint_solves
    }
}

/// Runs one job with `seed`. With a recorder, the evaluator is wrapped in
/// the timing decorator and the job becomes span `job` in it; `wall` is
/// the time of `YieldOptimizer::run` alone either way.
pub fn run_job(
    def: &JobDef,
    seed: u64,
    trace: Option<(&Recorder, u64)>,
) -> Result<JobResult, String> {
    let env = def.circuit.env(def.warm_start);
    let svc = EvalService::new(&env, def.exec.clone());
    let optimizer = YieldOptimizer::new(OptimizerConfig { seed, ..def.config });
    let (result, wall) = match trace {
        None => {
            let t0 = Instant::now();
            let result = optimizer.run(&svc);
            (result, t0.elapsed())
        }
        Some((recorder, job)) => {
            let span = recorder.open(Kind::Job, job, None);
            let timed = Timed::new(&svc, recorder, job, span);
            let t0 = Instant::now();
            let result = optimizer.run(&timed);
            let wall = t0.elapsed();
            recorder.close(span);
            (result, wall)
        }
    };
    let trace =
        result.map_err(|e| format!("{} job (seed {seed}) failed: {e}", def.circuit.label()))?;
    if let Some(reason) = &trace.aborted {
        return Err(format!(
            "{} job (seed {seed}) aborted: {reason}",
            def.circuit.label()
        ));
    }
    let degraded_samples = trace
        .snapshots()
        .iter()
        .filter_map(|s| s.verified.as_ref())
        .map(|v| v.degraded_samples)
        .sum();
    Ok(JobResult {
        design: trace.final_design().clone(),
        wall,
        total_sims: trace.total_sims,
        phase_sims: trace.phase_sims,
        adjoint_solves: trace.adjoint_solves,
        fd_sims_avoided: trace.fd_sims_avoided,
        degraded_samples,
        exec: trace.exec.clone().unwrap_or_else(|| svc.report()),
    })
}

/// Checks a final design on a fresh environment: inside the design box and
/// every functional constraint `≥ 0`.
pub fn check_design(circuit: Circuit, design: &DVec) -> Result<(), String> {
    let env = circuit.env(false);
    if !CircuitEnv::design_space(&env).contains(design) {
        return Err(format!("{} design leaves the design box", circuit.label()));
    }
    let c = CircuitEnv::eval_constraints(&env, design)
        .map_err(|e| format!("{} constraints failed to evaluate: {e}", circuit.label()))?;
    match c.iter().position(|x| x.is_nan() || *x < 0.0) {
        Some(k) => Err(format!(
            "{} design violates constraint {k}: {}",
            circuit.label(),
            c[k]
        )),
        None => Ok(()),
    }
}

/// Seed of the untimed warm-up jobs (the library default), fixed so that
/// set-up does the same work whatever the workload seed.
pub const WARMUP_SEED: u64 = 2001;

/// Seed of the benchmark's own yield verification, fixed so that
/// `yield_final` depends only on the design.
pub const VERIFY_SEED: u64 = 0x5eed_2001;

/// Monte-Carlo yield of `design` with the benchmark's own fixed seed,
/// outside any timed region.
pub fn verified_yield(circuit: Circuit, design: &DVec, samples: usize) -> Result<f64, String> {
    let env = circuit.env(false);
    let svc = EvalService::new(&env, ExecConfig::default());
    let v = mc_verify(&svc, design, samples, VERIFY_SEED)
        .map_err(|e| format!("{} yield verification failed: {e}", circuit.label()))?;
    Ok(v.yield_estimate.value())
}

/// Distinct job seeds derived from the workload seed. The first is the
/// workload seed itself, so `--seed 2001` reproduces the library default;
/// the others keep 52 bits, below the wire protocol's integer limit.
pub fn job_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        return seed;
    }
    // splitmix64 of (seed, i).
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 12
}
