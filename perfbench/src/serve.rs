//! `serve_mixed`: small jobs over the `specwise-serve` wire protocol to an
//! in-process daemon with a fresh spool.
//!
//! One connection runs a closed loop that keeps the daemon's one slot
//! busy, rotating through the three built-in decks, each job with its own
//! seed.
//! A second connection polls `status` on a fixed schedule (an open loop),
//! each poll timed from its scheduled send.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use specwise::{EstimatorKind, OptimizerConfig};
use specwise_ckt::DeckLimits;
use specwise_exec::ExecConfig;
use specwise_linalg::DVec;
use specwise_mna::{clear_symbolic_cache, symbolic_cache_len};
use specwise_serve::job::JobOutcome;
use specwise_serve::{Client, Daemon, ServeConfig, SubmitOptions};

use crate::jobs::{
    check_design, job_seed, run_job, verified_yield, Circuit, JobDef, JobResult, WARMUP_SEED,
};
use crate::layers;
use crate::stats::{mean, median, quantile, tail};
use crate::timed::Recorder;
use crate::{Report, SETUP_REPS};

/// Linear-model samples per job.
const MC_SAMPLES: usize = 500;
/// Open-loop `status` poll period.
const STATUS_PERIOD: Duration = Duration::from_millis(100);
/// Samples of the benchmark's own yield verification per design.
const VERIFY_SAMPLES: usize = 300;
/// Daemon job slots. With one job in flight the closed loop can block on
/// each result instead of polling. A poll round trip costs about 45 ms, so
/// polling two jobs in turn would see each finish only at its next turn,
/// in steps of about 90 ms, and `job_s_tail` would jump between steps from
/// run to run.
const SLOTS: usize = 1;

/// The serve workload.
pub struct ServeMixed {
    /// Directory that holds this run's spools; removed when the run ends.
    pub scratch: PathBuf,
}

/// One job the closed loop finished.
struct Finished {
    circuit: Circuit,
    seed: u64,
    wall: f64,
    outcome: JobOutcome,
}

/// What the timed loop measured.
#[derive(Default)]
struct LoopStats {
    finished: Vec<Finished>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    status_late_ms: Vec<f64>,
    wall_s: f64,
    spool_bytes: u64,
    spool_jobs: usize,
}

impl ServeMixed {
    /// The job every wire request asks for, as the equivalent in-process
    /// definition (the daemon shards its worker pool across the slots and
    /// runs with warm start off).
    fn def(&self, circuit: Circuit) -> JobDef {
        JobDef {
            circuit,
            warm_start: false,
            config: OptimizerConfig {
                mc_samples: MC_SAMPLES,
                verify_samples: 0,
                max_iterations: 1,
                estimator: EstimatorKind::Mc,
                ..OptimizerConfig::default()
            },
            exec: ExecConfig::default().into_shard(SLOTS),
        }
    }

    fn options(circuit: Circuit, seed: u64) -> SubmitOptions {
        SubmitOptions {
            tenant: circuit.label().to_owned(),
            seed: Some(seed),
            mc_samples: Some(MC_SAMPLES as u64),
            verify_samples: Some(0),
            max_iterations: Some(1),
            estimator: Some("mc".to_owned()),
        }
    }

    fn config(&self, spool: PathBuf) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            spool,
            owner: "perfbench".into(),
            lease_expiry: Duration::from_secs(30),
            heartbeat: Duration::from_secs(3),
            slots: SLOTS,
            tenant_budget: u64::MAX,
            max_line_bytes: 4 << 20,
            deck_limits: DeckLimits::default(),
            warm_start: false,
            exec: ExecConfig::default(),
        }
    }

    /// Starts a daemon on a fresh spool and runs one warm-up job per deck
    /// through it, from an empty symbolic cache. Returns the daemon, its
    /// spool and the wall time.
    fn setup(&self, report: &mut Report, rep: usize) -> Option<(Daemon, PathBuf, f64)> {
        let spool = self.scratch.join(format!("spool-{rep}"));
        clear_symbolic_cache();
        let t0 = Instant::now();
        let daemon =
            report.check(Daemon::start(self.config(spool.clone())).map_err(|e| e.to_string()))?;
        let warmed = (|| {
            let mut client = Client::connect(daemon.local_addr())?;
            let mut ids = Vec::new();
            for (k, circuit) in Circuit::ALL.into_iter().enumerate() {
                let seed = job_seed(WARMUP_SEED, (rep * 3 + k) as u64);
                ids.push(client.submit(circuit.deck(), &Self::options(circuit, seed))?);
            }
            for id in ids {
                client.result_wait(&id)?;
            }
            Ok::<(), specwise_serve::ClientError>(())
        })();
        let elapsed = t0.elapsed().as_secs_f64();
        let ok = report.check(warmed.map_err(|e| format!("warm-up over the wire failed: {e}")));
        report.check(if symbolic_cache_len() > 0 {
            Ok(())
        } else {
            Err("the warm-up jobs left the symbolic cache empty".into())
        });
        match ok {
            Some(()) => Some((daemon, spool, elapsed)),
            None => {
                daemon.shutdown();
                None
            }
        }
    }

    /// Sets up `SETUP_REPS` times (reporting the median as `setup_s` when
    /// asked to) and keeps the last daemon running.
    fn setup_all(&self, report: &mut Report, reps: usize) -> Option<(Daemon, PathBuf)> {
        let mut times = Vec::new();
        let mut kept: Option<(Daemon, PathBuf)> = None;
        for rep in 0..reps {
            if let Some((daemon, spool)) = kept.take() {
                shutdown(daemon, &spool);
            }
            let (daemon, spool, t) = self.setup(report, rep)?;
            times.push(t);
            kept = Some((daemon, spool));
        }
        if reps > 1 {
            report.metric("setup_s", median(&times), "s");
        }
        kept
    }

    /// The closed loop plus the status poller, for `seconds`; the job in
    /// flight when the time is up runs to its end.
    fn timed_loop(
        &self,
        report: &mut Report,
        daemon: &Daemon,
        spool: &Path,
        seed: u64,
        seconds: Duration,
    ) -> LoopStats {
        let addr = daemon.local_addr();
        let stop = AtomicBool::new(false);
        let mut stats = LoopStats::default();
        let status = std::thread::scope(|scope| {
            let poller = scope.spawn(|| poll_status(addr, &stop));
            self.closed_loop(report, addr, seed, seconds, &mut stats);
            stop.store(true, Ordering::SeqCst);
            poller.join().expect("status poller panicked")
        });
        match status {
            Ok((latency, late)) => {
                for _ in &latency {
                    report.check(Ok::<(), String>(()));
                }
                stats.status_ms = latency;
                stats.status_late_ms = late;
            }
            Err(e) => {
                report.check::<()>(Err(format!("status poll failed: {e}")));
            }
        }
        let (bytes, files) = dir_size(spool);
        stats.spool_bytes = bytes;
        stats.spool_jobs = files;
        stats
    }

    /// Keeps one job in flight: submit, then block on `result` with
    /// `wait` until the daemon settles it, so a job's wall time ends when
    /// the daemon answers rather than at the next poll.
    fn closed_loop(
        &self,
        report: &mut Report,
        addr: SocketAddr,
        seed: u64,
        seconds: Duration,
        stats: &mut LoopStats,
    ) {
        let Some(mut client) = report.check(Client::connect(addr).map_err(|e| e.to_string()))
        else {
            return;
        };
        let start = Instant::now();
        let mut next = 0u64;
        while start.elapsed() < seconds {
            let circuit = Circuit::ALL[(next % 3) as usize];
            let job_seed = job_seed(seed, next);
            next += 1;
            let t0 = Instant::now();
            let submitted = client
                .submit(circuit.deck(), &Self::options(circuit, job_seed))
                .map_err(|e| format!("submit of a {} job failed: {e}", circuit.label()));
            let Some(id) = report.check(submitted) else {
                break;
            };
            stats.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let settled = client
                .result_wait(&id)
                .map_err(|e| format!("{} job {id} failed: {e}", circuit.label()));
            let Some(outcome) = report.check(settled) else {
                break;
            };
            stats.finished.push(Finished {
                circuit,
                seed: job_seed,
                wall: t0.elapsed().as_secs_f64(),
                outcome,
            });
        }
        stats.wall_s = start.elapsed().as_secs_f64();
    }

    /// The untraced run: `setup_s` and every end-to-end metric.
    pub fn run(&self, report: &mut Report, seed: u64, seconds: Duration) {
        let Some((daemon, spool)) = self.setup_all(report, SETUP_REPS) else {
            return;
        };
        let stats = self.timed_loop(report, &daemon, &spool, seed, seconds);
        crate::report_peak_rss(report);
        shutdown(daemon, &spool);
        let walls: Vec<f64> = stats.finished.iter().map(|f| f.wall).collect();
        let (tail_s, tail_pct) = tail(&walls);
        report.metric("job_s", median(&walls), "s");
        report.metric("job_s_tail", tail_s, "s");
        report.metric(
            "jobs_per_min",
            walls.len() as f64 / stats.wall_s * 60.0,
            "1/min",
        );
        // One aggregate per deck, in `Circuit::ALL` order.
        let per_deck = |pick: fn(&Finished) -> f64, agg: fn(&[f64]) -> f64| -> Vec<f64> {
            Circuit::ALL
                .iter()
                .map(|&c| {
                    let xs: Vec<f64> = stats
                        .finished
                        .iter()
                        .filter(|f| f.circuit == c)
                        .map(pick)
                        .collect();
                    agg(&xs)
                })
                .collect()
        };
        report.metric(
            "sims_per_job",
            mean(&per_deck(|f| f.outcome.total_sims as f64, mean)),
            "count",
        );
        let by_deck: Vec<String> = Circuit::ALL
            .iter()
            .zip(per_deck(|f| f.wall, median))
            .map(|(c, wall)| format!("\"{}\":{wall}", c.label()))
            .collect();
        report.info("job_s_by_deck", format!("{{{}}}", by_deck.join(",")));

        // Outputs: every design is checked; the first job of each deck is
        // re-run in process and verified for yield.
        let mut yields = Vec::new();
        for f in &stats.finished {
            report.check(check_design(
                f.circuit,
                &DVec::from_slice(&f.outcome.design),
            ));
        }
        for circuit in Circuit::ALL {
            let Some(f) = stats.finished.iter().find(|f| f.circuit == circuit) else {
                report.check::<()>(Err(format!("no {} job finished", circuit.label())));
                continue;
            };
            if let Some(local) = report.check(run_job(&self.def(circuit), f.seed, None)) {
                report.check(matches_wire(&local, f));
            }
            let design = DVec::from_slice(&f.outcome.design);
            if let Some(y) = report.check(verified_yield(circuit, &design, VERIFY_SAMPLES)) {
                yields.push(y);
            }
        }
        report.metric("yield_final", mean(&yields), "fraction");
        report.info(
            "samples",
            format!(
                "{{\"setup_reps\":{SETUP_REPS},\"jobs\":{},\"job_s_tail_percentile\":{tail_pct},\
                 \"yield_designs\":{},\"yield_samples_per_design\":{VERIFY_SAMPLES}}}",
                walls.len(),
                yields.len()
            ),
        );
        self.info(report);
    }

    /// The traced run: the wire metrics from half of `seconds`, then the
    /// evaluator-boundary metrics from the same jobs run in process, traced
    /// and untraced, rotating through the decks.
    pub fn run_traced(
        &self,
        report: &mut Report,
        seed: u64,
        seconds: Duration,
        recorder: &Recorder,
    ) {
        let Some((daemon, spool)) = self.setup_all(report, 1) else {
            return;
        };
        let stats = self.timed_loop(report, &daemon, &spool, seed, seconds / 2);
        shutdown(daemon, &spool);
        report.metric("serve.submit_ms", median(&stats.submit_ms), "ms");
        report.metric("serve.status_ms.p50", median(&stats.status_ms), "ms");
        report.metric("serve.status_ms.p90", quantile(&stats.status_ms, 0.9), "ms");
        report.metric(
            "serve.spool_bytes_per_job",
            stats.spool_bytes as f64 / stats.spool_jobs.max(1) as f64,
            "bytes",
        );
        report.info(
            "serve.samples",
            format!(
                "{{\"submits\":{},\"status_polls\":{},\"status_late_ms_p90\":{},\"spool_jobs\":{}}}",
                stats.submit_ms.len(),
                stats.status_ms.len(),
                quantile(&stats.status_late_ms, 0.9),
                stats.spool_jobs
            ),
        );

        let start = Instant::now();
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        let mut n = 0u64;
        while start.elapsed() < seconds / 2 || n < 2 * Circuit::ALL.len() as u64 {
            let circuit = Circuit::ALL[(n % 3) as usize];
            let def = self.def(circuit);
            let job_seed = job_seed(seed, n);
            // Alternate which side goes first, so drift hits both alike.
            let traced_first = n % 2 == 1;
            let mut pair = [None, None];
            for traced in [traced_first, !traced_first] {
                let trace = traced.then_some((recorder, n));
                pair[traced as usize] = report.check(run_job(&def, job_seed, trace));
            }
            if let [Some(plain), Some(timed)] = pair {
                report.check(if plain.same_outcome(&timed) {
                    Ok(())
                } else {
                    Err(format!(
                        "{} seed {job_seed}: traced and untraced jobs differ",
                        circuit.label()
                    ))
                });
                untraced.push(plain.wall.as_secs_f64());
                traced.push(timed);
            }
            n += 1;
        }
        layers::report_jobs(report, &recorder.spans(), &traced, &untraced);
        let defs: Vec<(JobDef, u64)> = Circuit::ALL.iter().map(|&c| (self.def(c), seed)).collect();
        let probes = layers::report_probes(report, recorder, &defs);
        report.check(probes);
        self.info(report);
    }

    fn info(&self, report: &mut Report) {
        report.info("slots", SLOTS.to_string());
        report.info("workers", self.def(Circuit::Ota).exec.workers.to_string());
    }
}

/// A wire job and its in-process re-run agree bit for bit.
fn matches_wire(local: &JobResult, wire: &Finished) -> Result<(), String> {
    let same_design = local.design.len() == wire.outcome.design.len()
        && local
            .design
            .iter()
            .zip(&wire.outcome.design)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same_design
        && local.total_sims == wire.outcome.total_sims
        && local.adjoint_solves == wire.outcome.adjoint_solves
    {
        Ok(())
    } else {
        Err(format!(
            "{} seed {}: the wire result differs from the in-process run \
             ({} vs {} sims)",
            wire.circuit.label(),
            wire.seed,
            wire.outcome.total_sims,
            local.total_sims
        ))
    }
}

/// The open-loop poller: one `status` request every `STATUS_PERIOD`
/// until `stop`, each timed from its scheduled send. Returns the
/// latencies and how late each send went out, in ms.
fn poll_status(addr: SocketAddr, stop: &AtomicBool) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut latency = Vec::new();
    let mut late = Vec::new();
    for k in 0u32.. {
        let due = start + STATUS_PERIOD * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        late.push(due.elapsed().as_secs_f64() * 1e3);
        client.status().map_err(|e| e.to_string())?;
        latency.push(due.elapsed().as_secs_f64() * 1e3);
    }
    Ok((latency, late))
}

fn shutdown(daemon: Daemon, spool: &Path) {
    daemon.shutdown();
    if let Err(e) = std::fs::remove_dir_all(spool) {
        eprintln!("perfbench: could not remove spool {}: {e}", spool.display());
    }
}

/// Total bytes of the files in `dir` and the number of settled jobs
/// (`.out` files) among them.
fn dir_size(dir: &Path) -> (u64, usize) {
    let mut bytes = 0;
    let mut jobs = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    bytes += meta.len();
                }
            }
            if entry.path().extension().is_some_and(|e| e == "out") {
                jobs += 1;
            }
        }
    }
    (bytes, jobs)
}
