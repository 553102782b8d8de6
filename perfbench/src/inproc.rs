//! The in-process Fig. 6 workloads, `fc_fig6` and `miller_search`: one
//! `YieldOptimizer::run` per job on a fresh environment and `EvalService`.

use std::time::{Duration, Instant};

use specwise::{EstimatorKind, OptimizerConfig};
use specwise_exec::ExecConfig;
use specwise_mna::{clear_symbolic_cache, symbolic_cache_len};

use crate::jobs::{
    check_design, job_seed, run_job, verified_yield, Circuit, JobDef, JobResult, WARMUP_SEED,
};
use crate::layers;
use crate::stats::{mean, median, tail};
use crate::timed::Recorder;
use crate::{Report, SETUP_REPS};

/// An in-process workload.
pub struct InProc {
    pub def: JobDef,
    /// Job seeds per run, derived from the workload seed. Jobs cycle
    /// through them, so every seed runs at least twice.
    pub seeds: usize,
    /// Samples of the benchmark's own yield verification per design.
    pub verify_samples: usize,
    /// Simulator calls of the paper's run of this circuit (Table 7).
    pub paper_sims: u64,
}

/// The paper's optimizer settings (10,000 linear-model samples, two
/// iterations, plain Monte-Carlo verification), set explicitly rather
/// than read from the environment.
fn paper_config(verify_samples: usize) -> OptimizerConfig {
    OptimizerConfig {
        mc_samples: 10_000,
        verify_samples,
        max_iterations: 2,
        estimator: EstimatorKind::Mc,
        ..OptimizerConfig::default()
    }
}

/// `fc_fig6`: the headline folded-cascode run with 300-sample
/// verification per snapshot; bound by the simulator.
pub fn fc_fig6() -> InProc {
    InProc {
        def: JobDef {
            circuit: Circuit::Folded,
            warm_start: true,
            config: paper_config(300),
            exec: ExecConfig::default(),
        },
        seeds: 4,
        verify_samples: 150,
        paper_sims: 689,
    }
}

/// `miller_search`: the Miller run without verification; bound by the
/// coordinate search on the linear models.
pub fn miller_search() -> InProc {
    InProc {
        def: JobDef {
            circuit: Circuit::Miller,
            warm_start: true,
            config: paper_config(0),
            exec: ExecConfig::default(),
        },
        seeds: 32,
        verify_samples: 100,
        paper_sims: 627,
    }
}

impl InProc {
    fn seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.seeds as u64).map(|i| job_seed(seed, i)).collect()
    }

    /// Runs one job, counts it, and checks it against the first outcome
    /// seen for its seed.
    fn job(
        &self,
        report: &mut Report,
        first: &mut Option<JobResult>,
        seed: u64,
        trace: Option<(&Recorder, u64)>,
    ) -> Option<JobResult> {
        let result = run_job(&self.def, seed, trace);
        let result = report.check(result)?;
        match first {
            None => *first = Some(result.clone()),
            Some(first) => {
                report.check(if first.same_outcome(&result) {
                    Ok(())
                } else {
                    Err(format!(
                        "seed {seed}: two runs of the same job differ ({} vs {} sims)",
                        first.total_sims, result.total_sims
                    ))
                });
            }
        }
        Some(result)
    }

    /// Fills the process-global symbolic cache from empty with one
    /// untimed warm-up job and returns the wall time of doing so. The
    /// warm-up job has a fixed seed, so set-up does the same work in
    /// every run.
    fn setup(&self, report: &mut Report, first: &mut Option<JobResult>) -> f64 {
        clear_symbolic_cache();
        let t0 = Instant::now();
        self.job(report, first, WARMUP_SEED, None);
        let elapsed = t0.elapsed().as_secs_f64();
        report.check(if symbolic_cache_len() > 0 {
            Ok(())
        } else {
            Err("the warm-up job left the symbolic cache empty".into())
        });
        elapsed
    }

    /// The untraced run: `setup_s` and every end-to-end metric.
    pub fn run(&self, report: &mut Report, seed: u64, seconds: Duration) {
        let mut warmup = None;
        let setup: Vec<f64> = (0..SETUP_REPS)
            .map(|_| self.setup(report, &mut warmup))
            .collect();
        report.metric("setup_s", median(&setup), "s");

        let seeds = self.seeds(seed);
        let mut first: Vec<Option<JobResult>> = vec![None; seeds.len()];
        let mut walls_by_seed = vec![Vec::new(); seeds.len()];
        let start = Instant::now();
        let mut n = 0;
        while start.elapsed() < seconds || n < 2 * seeds.len() {
            let i = n % seeds.len();
            n += 1;
            if let Some(r) = self.job(report, &mut first[i], seeds[i], None) {
                walls_by_seed[i].push(r.wall.as_secs_f64());
            }
        }
        let loop_s = start.elapsed().as_secs_f64();
        crate::report_peak_rss(report);
        let walls: Vec<f64> = walls_by_seed.concat();

        let finished: Vec<JobResult> = first.into_iter().flatten().collect();
        let circuit = self.def.circuit;
        let mut yields = Vec::new();
        for r in &finished {
            report.check(check_design(circuit, &r.design));
            if let Some(y) = report.check(verified_yield(circuit, &r.design, self.verify_samples)) {
                yields.push(y);
            }
        }
        let sims: Vec<u64> = finished.iter().map(|r| r.total_sims).collect();
        let (tail_s, tail_pct) = tail(&walls);
        // Some seeds stop after one iteration, so the pooled job times
        // are a two-mode mixture whose median jumps with the mix; the
        // mean of per-seed medians moves smoothly instead.
        let seed_medians: Vec<f64> = walls_by_seed.iter().map(|w| median(w)).collect();
        report.metric("job_s", mean(&seed_medians), "s");
        report.metric("job_s_tail", tail_s, "s");
        report.metric("jobs_per_min", walls.len() as f64 / loop_s * 60.0, "1/min");
        report.metric(
            "sims_per_job",
            sims.iter().sum::<u64>() as f64 / sims.len() as f64,
            "count",
        );
        report.metric("yield_final", mean(&yields), "fraction");
        report.info("yield_by_seed", format!("{yields:?}"));
        report.info(
            "samples",
            format!(
                "{{\"setup_reps\":{SETUP_REPS},\"jobs\":{},\"job_seeds\":{},\
                 \"job_s_tail_percentile\":{tail_pct},\"yield_designs\":{},\
                 \"yield_samples_per_design\":{}}}",
                walls.len(),
                seeds.len(),
                yields.len(),
                self.verify_samples
            ),
        );
        self.info(report, &seeds, &sims);
    }

    /// The traced run: every per-layer metric. Traced and untraced jobs
    /// alternate on the same seeds and must agree bit for bit.
    pub fn run_traced(
        &self,
        report: &mut Report,
        seed: u64,
        seconds: Duration,
        recorder: &Recorder,
    ) {
        self.setup(report, &mut None);
        let seeds = self.seeds(seed);
        let mut first: Vec<Option<JobResult>> = vec![None; seeds.len()];

        let start = Instant::now();
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        let mut n = 0;
        while start.elapsed() < seconds || n < seeds.len() {
            let i = n % seeds.len();
            // Alternate which side goes first, so drift hits both alike.
            let traced_first = n % 2 == 1;
            for with_trace in [traced_first, !traced_first] {
                let trace = with_trace.then_some((recorder, n as u64));
                if let Some(r) = self.job(report, &mut first[i], seeds[i], trace) {
                    if with_trace {
                        traced.push(r);
                    } else {
                        untraced.push(r.wall.as_secs_f64());
                    }
                }
            }
            n += 1;
        }
        layers::report_jobs(report, &recorder.spans(), &traced, &untraced);
        let probes = layers::report_probes(report, recorder, &[(self.def.clone(), seeds[0])]);
        report.check(probes);
        let sims: Vec<u64> = first.iter().flatten().map(|r| r.total_sims).collect();
        self.info(report, &seeds, &sims);
    }

    fn info(&self, report: &mut Report, seeds: &[u64], sims: &[u64]) {
        let list = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        report.info("job_seeds", format!("[{}]", list(seeds)));
        report.info("sims_by_seed", format!("[{}]", list(sims)));
        report.info("paper_sims", self.paper_sims.to_string());
        report.info("workers", self.def.exec.workers.to_string());
    }
}
