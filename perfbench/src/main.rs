//! The repository benchmark: Fig. 6 yield-optimization jobs in process and
//! over the `specwise-serve` wire, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fc_fig6 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. Workloads: `fc_fig6`, `miller_search`,
//! `serve_mixed`. `--trace 0` measures the end-to-end metrics with tracing
//! off; `--trace 1` is the separate traced run that reports the per-layer
//! metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! list every metric with its unit and a `info` record of the run's
//! settings and sample counts. Any failed job, wire request or output
//! check makes the exit code non-zero. See `perfbench/README.md`.

mod inproc;
mod jobs;
mod layers;
mod serve;
mod stats;
mod timed;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use timed::Recorder;

/// Set-up repetitions per run, each from an empty symbolic cache;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fc_fig6", "miller_search", "serve_mixed"];

/// End-to-end metrics (`--trace 0`) with their units. `ok_frac` is
/// `1 − failed_frac`: jobs, wire requests and output checks that
/// succeeded, over those attempted.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_s_tail", "s"),
    ("jobs_per_min", "1/min"),
    ("sims_per_job", "count"),
    ("yield_final", "fraction"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`) with their units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("trace.job_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("core.self_s", "s"),
    ("core.coordinate_search_s", "s"),
    ("core.linear_model_s", "s"),
    ("wcd.analysis_s", "s"),
    ("exec.busy_s.feasibility", "s"),
    ("exec.busy_s.wcd", "s"),
    ("exec.busy_s.linearization", "s"),
    ("exec.busy_s.line_search", "s"),
    ("exec.busy_s.verification", "s"),
    ("exec.busy_s.other", "s"),
    ("exec.calls.single", "count"),
    ("exec.calls.batch", "count"),
    ("exec.calls.samples", "count"),
    ("exec.calls.perturbed", "count"),
    ("exec.calls.constraints", "count"),
    ("exec.us_per_sim.verification", "us"),
    ("exec.cache_hits", "count"),
    ("exec.cache_useful_frac", "ratio"),
    ("exec.retries", "count"),
    ("exec.sim_failures", "count"),
    ("exec.panics", "count"),
    ("ckt.sims.feasibility", "count"),
    ("ckt.sims.wcd", "count"),
    ("ckt.sims.linearization", "count"),
    ("ckt.sims.line_search", "count"),
    ("ckt.sims.verification", "count"),
    ("ckt.sims.other", "count"),
    ("ckt.sims.optimizer", "count"),
    ("ckt.adjoint_solves", "count"),
    ("ckt.fd_sims_avoided", "count"),
    ("ckt.degraded_samples", "count"),
    ("ckt.compile_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms.p50", "ms"),
    ("serve.status_ms.p90", "ms"),
    ("serve.spool_bytes_per_job", "bytes"),
];

/// Metrics, run information and the tally of attempted and failed
/// operations of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<(String, String)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a run-information entry; `json` is a JSON value.
    pub fn info(&mut self, key: &str, json: impl Into<String>) {
        self.info.push((key.to_owned(), json.into()));
    }

    /// Counts one attempted operation, and a failure when `result` is an
    /// error.
    pub fn check<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(reason) => {
                self.failures.push(reason);
                None
            }
        }
    }

    fn value(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }

    /// Prints the expected metrics, the run information and, last, the result
    /// object. Returns whether the run is correct.
    fn print(mut self, expected: &[(&str, &str)], not_crossed: &[&str]) -> bool {
        let mut values = Vec::new();
        for &(name, unit) in expected {
            let value = match self.value(name) {
                Some((v, u)) if u == unit && v.is_finite() => v,
                Some((v, u)) => {
                    self.check::<()>(Err(format!("metric {name} reads {v} {u}")));
                    0.0
                }
                None if name == "ok_frac" => continue,
                // The workload does not cross this layer.
                None if not_crossed.iter().any(|p| name.starts_with(p)) => 0.0,
                None => {
                    self.check::<()>(Err(format!("metric {name} was not measured")));
                    0.0
                }
            };
            values.push((name, value, unit));
        }
        if expected.iter().any(|&(name, _)| name == "ok_frac") {
            let failed = self.failures.len() as f64;
            values.push((
                "ok_frac",
                1.0 - failed / self.attempted.max(1) as f64,
                "ratio",
            ));
        }
        for (name, value, unit) in &values {
            println!("{name:<32} {value} {unit}");
        }
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("info {{{}}}", info.join(","));
        for reason in &self.failures {
            eprintln!("perfbench: FAILED: {reason}");
        }
        let correct = self.failures.is_empty();
        let metrics: Vec<String> = values
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(",")
        );
        correct
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join(" | "))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The program reads several `SPECWISE_*` knobs internally (checkpoint
/// resume, solver, gradient and batch paths, warm start), out of the
/// benchmark's reach, so the benchmark refuses to run with any set.
fn refuse_knobs() -> Result<(), String> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("SPECWISE_")) {
        Some((k, _)) => Err(format!(
            "{} is set; the benchmark sets its configuration explicitly \
             and refuses to run with any SPECWISE_* variable in the environment",
            k.to_string_lossy()
        )),
        None => Ok(()),
    }
}

/// Reports `peak_rss_mb`, the `VmHWM` of this process, read right after
/// the timed loop so that the output checks after it do not count.
pub fn report_peak_rss(report: &mut Report) {
    let hwm = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| e.to_string())
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
                .ok_or_else(|| "no VmHWM in /proc/self/status".into())
        });
    if let Some(kb) = report.check(hwm) {
        report.metric("peak_rss_mb", kb / 1024.0, "MB");
    }
}

/// `(steal, total)` CPU ticks since boot, from the first line of
/// `/proc/stat`: the time the host ran something else on our CPUs.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_commit() -> String {
    let head = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    head.unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn main() -> ExitCode {
    let args = match refuse_knobs().and_then(|()| parse_args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seconds = Duration::from_secs(args.seconds);
    // Everything the run writes stays under .perfbench/ in the checkout.
    let out_dir = PathBuf::from(".perfbench");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }

    let mut report = Report::default();
    report.info("workload", format!("\"{}\"", args.workload));
    report.info("seed", args.seed.to_string());
    report.info("seconds", args.seconds.to_string());
    report.info("trace", (args.trace as u8).to_string());
    report.info("nproc", nproc.to_string());
    report.info("cpu", format!("{:?}", cpu_model()));
    report.info("git_commit", format!("\"{}\"", git_commit()));

    let ticks_before = cpu_ticks();
    let recorder = Recorder::default();
    let in_process = match args.workload.as_str() {
        "fc_fig6" => Some(inproc::fc_fig6()),
        "miller_search" => Some(inproc::miller_search()),
        _ => None,
    };
    match (&in_process, args.trace) {
        (Some(w), false) => w.run(&mut report, args.seed, seconds),
        (Some(w), true) => w.run_traced(&mut report, args.seed, seconds, &recorder),
        (None, trace) => {
            let w = serve::ServeMixed {
                scratch: scratch.clone(),
            };
            if trace {
                w.run_traced(&mut report, args.seed, seconds, &recorder);
            } else {
                w.run(&mut report, args.seed, seconds);
            }
        }
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.info("host_steal_frac", steal.to_string());
    }
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!("perfbench: could not remove {}: {e}", scratch.display());
    }

    let (expected, not_crossed): (&[(&str, &str)], &[&str]) = if args.trace {
        let spans = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = recorder.write_jsonl(&spans) {
            report.check::<()>(Err(format!("writing {}: {e}", spans.display())));
        }
        report.info("spans", format!("\"{}\"", spans.display()));
        (
            &PER_LAYER,
            if in_process.is_some() {
                &["serve."]
            } else {
                &[]
            },
        )
    } else {
        (&END_TO_END, &[])
    };
    // Removes .perfbench/ when an untraced run left it empty.
    let _ = std::fs::remove_dir(&out_dir);
    if report.print(expected, not_crossed) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{run_job, Circuit, JobDef};
    use specwise::{EstimatorKind, OptimizerConfig};
    use specwise_exec::ExecConfig;

    /// BENCHMARK.json names exactly the workloads and metrics this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let json = include_str!("../../BENCHMARK.json");
        let names = json.matches("\"name\"").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }

    /// The timing decorator forwards every evaluator method: a traced
    /// job and an untraced job agree on the final design bit for bit, on
    /// simulator calls and on adjoint solves (a declined
    /// `eval_margins_perturbed` would fall back to finite differences),
    /// and verification still takes the lockstep `eval_margins_samples`
    /// path through the decorator.
    #[test]
    fn traced_and_untraced_jobs_agree() {
        use crate::timed::{Entry, Kind};
        for (circuit, verify_samples) in [(Circuit::Ota, 20), (Circuit::Miller, 0)] {
            let def = JobDef {
                circuit,
                warm_start: true,
                config: OptimizerConfig {
                    mc_samples: 300,
                    verify_samples,
                    max_iterations: 1,
                    estimator: EstimatorKind::Mc,
                    ..OptimizerConfig::default()
                },
                exec: ExecConfig::default().with_workers(2),
            };
            let recorder = Recorder::default();
            let plain = run_job(&def, 7, None).unwrap();
            let traced = run_job(&def, 7, Some((&recorder, 0))).unwrap();
            assert!(plain.same_outcome(&traced), "{}", circuit.label());
            assert_eq!(plain.phase_sims, traced.phase_sims);
            assert!(traced.adjoint_solves > 0, "the adjoint path must be taken");
            let calls = |entry: Entry| {
                recorder
                    .spans()
                    .iter()
                    .filter(|s| matches!(s.kind, Kind::Call(e, _) if e == entry))
                    .count()
            };
            assert!(calls(Entry::Perturbed) > 0, "{}", circuit.label());
            assert_eq!(
                calls(Entry::Samples) > 0,
                verify_samples > 0,
                "{}",
                circuit.label()
            );
        }
    }
}
