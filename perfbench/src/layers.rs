//! Per-layer metrics of a traced run, computed from the recorded spans
//! and the traced jobs' own counters. Times and counts are per job,
//! averaged over the traced jobs, so `core.self_s + Σ exec.busy_s.*`
//! equals `trace.job_s` exactly.

use std::collections::HashMap;
use std::time::Duration;

use specwise::{find_feasible_start, CoordinateSearch, LinearConstraints, LinearizedYield};
use specwise_ckt::{SimPhase, Testbench};
use specwise_exec::{EvalService, Evaluator};
use specwise_wcd::WcAnalysis;

use crate::jobs::{Circuit, JobDef, JobResult};
use crate::stats::{mean, median};
use crate::timed::{covered, phase_label, Entry, Kind, Recorder, Span};
use crate::Report;

/// Reports the evaluator-boundary metrics (`core.self_s`, `exec.*`,
/// `ckt.*` job counters, `trace.*`) of the traced jobs. `untraced` holds
/// the wall times of the untraced jobs run beside them.
pub fn report_jobs(report: &mut Report, spans: &[Span], traced: &[JobResult], untraced: &[f64]) {
    let n = traced.len() as f64;
    let mut job_time = Duration::ZERO;
    let mut self_time = Duration::ZERO;
    let mut busy = [Duration::ZERO; SimPhase::COUNT];
    let mut calls: HashMap<&str, u64> = HashMap::new();
    let mut children: HashMap<usize, Vec<(Duration, Duration)>> = HashMap::new();
    for span in spans {
        if let (Kind::Call(entry, phase), Some(parent)) = (span.kind, span.parent) {
            busy[phase.index()] += span.duration();
            *calls.entry(entry.label()).or_default() += 1;
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    for (id, span) in spans.iter().enumerate() {
        if span.kind == Kind::Job {
            job_time += span.duration();
            let inside = covered(children.remove(&id).unwrap_or_default());
            self_time += span.duration().saturating_sub(inside);
        }
    }
    let per_job = |d: Duration| d.as_secs_f64() / n;
    report.metric("trace.job_s", per_job(job_time), "s");
    report.metric("core.self_s", per_job(self_time), "s");
    for phase in SimPhase::ALL {
        report.metric(
            format!("exec.busy_s.{}", phase_label(phase)),
            per_job(busy[phase.index()]),
            "s",
        );
    }
    for entry in Entry::ALL {
        let count = calls.get(entry.label()).copied().unwrap_or(0);
        report.metric(
            format!("exec.calls.{}", entry.label()),
            count as f64 / n,
            "count",
        );
    }

    let sum = |f: &dyn Fn(&JobResult) -> u64| traced.iter().map(f).sum::<u64>();
    for phase in SimPhase::ALL {
        let sims = sum(&|r| r.phase_sims[phase.index()]);
        report.metric(
            format!("ckt.sims.{}", phase_label(phase)),
            sims as f64 / n,
            "count",
        );
    }
    let verification = SimPhase::Verification.index();
    let optimizer = sum(&|r| r.total_sims - r.phase_sims[verification]);
    report.metric("ckt.sims.optimizer", optimizer as f64 / n, "count");
    let verify_sims = sum(&|r| r.phase_sims[verification]);
    let us_per_sim = if verify_sims == 0 {
        0.0
    } else {
        busy[verification].as_secs_f64() * 1e6 / verify_sims as f64
    };
    report.metric("exec.us_per_sim.verification", us_per_sim, "us");
    report.metric(
        "ckt.adjoint_solves",
        sum(&|r| r.adjoint_solves) as f64 / n,
        "count",
    );
    report.metric(
        "ckt.fd_sims_avoided",
        sum(&|r| r.fd_sims_avoided) as f64 / n,
        "count",
    );
    let degraded = sum(&|r| r.degraded_samples as u64);
    report.metric("ckt.degraded_samples", degraded as f64 / n, "count");

    let hits = sum(&|r| r.exec.cache_hits);
    let all_sims = sum(&|r| r.exec.total_sims);
    report.metric("exec.cache_hits", hits as f64 / n, "count");
    report.metric(
        "exec.cache_useful_frac",
        hits as f64 / (hits + all_sims).max(1) as f64,
        "ratio",
    );
    report.info(
        "exec.cache_useful_frac.base",
        format!(
            "{{\"hits\":{hits},\"sims\":{all_sims},\"jobs\":{}}}",
            traced.len()
        ),
    );
    report.metric("exec.retries", sum(&|r| r.exec.retries) as f64 / n, "count");
    report.metric(
        "exec.sim_failures",
        sum(&|r| r.exec.sim_failures) as f64 / n,
        "count",
    );
    report.metric(
        "exec.panics",
        sum(&|r| r.exec.panics_caught) as f64 / n,
        "count",
    );

    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall.as_secs_f64()).collect();
    report.metric(
        "trace.overhead_frac",
        median(&traced_walls) / median(untraced) - 1.0,
        "ratio",
    );
    report.info(
        "trace.samples",
        format!(
            "{{\"traced_jobs\":{},\"untraced_jobs\":{}}}",
            traced.len(),
            untraced.len()
        ),
    );
}

/// Probe repetitions per circuit.
const PROBE_REPS: usize = 3;

/// Times the probe calls into single layers (`wcd.analysis_s`,
/// `core.linear_model_s`, `core.coordinate_search_s`) at the feasible
/// start of each job definition, and `ckt.compile_ms` over the built-in
/// decks. Each probe runs on a fresh environment.
pub fn report_probes(
    report: &mut Report,
    recorder: &Recorder,
    defs: &[(JobDef, u64)],
) -> Result<(), String> {
    let mut job = 1u64 << 32;
    for (def, seed) in defs {
        for _ in 0..PROBE_REPS {
            probe(recorder, job, def, *seed)?;
            job += 1;
        }
    }
    for circuit in Circuit::ALL {
        for _ in 0..PROBE_REPS {
            recorder
                .time(Kind::Probe("ckt.compile_ms"), job, None, || {
                    Testbench::from_deck(circuit.deck())
                })
                .map_err(|e| format!("{} deck failed to compile: {e}", circuit.label()))?;
            job += 1;
        }
    }
    let spans = recorder.spans();
    for (metric, scale) in [
        ("wcd.analysis_s", 1.0),
        ("core.linear_model_s", 1.0),
        ("core.coordinate_search_s", 1.0),
        ("ckt.compile_ms", 1e3),
    ] {
        let times: Vec<f64> = spans
            .iter()
            .filter(|s| s.kind == Kind::Probe(metric))
            .map(|s| s.duration().as_secs_f64() * scale)
            .collect();
        let unit = if scale == 1.0 { "s" } else { "ms" };
        report.metric(metric, mean(&times), unit);
    }
    Ok(())
}

fn probe(recorder: &Recorder, job: u64, def: &JobDef, seed: u64) -> Result<(), String> {
    let cfg = &def.config;
    let env = def.circuit.env(def.warm_start);
    let svc = EvalService::new(&env, def.exec.clone());
    let err = |e: &dyn std::fmt::Display| format!("{} probe failed: {e}", def.circuit.label());
    let d_f = find_feasible_start(&svc, &svc.design_space().initial(), &cfg.feasible_start)
        .map_err(|e| err(&e))?;
    let analysis = recorder
        .time(Kind::Probe("wcd.analysis_s"), job, None, || {
            WcAnalysis::new(&svc, cfg.wc_options).run(&d_f)
        })
        .map_err(|e| err(&e))?;
    let model = recorder
        .time(Kind::Probe("core.linear_model_s"), job, None, || {
            let model = LinearizedYield::new(
                analysis.linearizations().to_vec(),
                svc.specs().len(),
                cfg.mc_samples,
                seed,
            )?;
            model.estimate(&d_f).map(|_| model)
        })
        .map_err(|e| err(&e))?;
    let constraints =
        LinearConstraints::from_env(&svc, &d_f, cfg.wc_options.fd_step_d).map_err(|e| err(&e))?;
    recorder
        .time(Kind::Probe("core.coordinate_search_s"), job, None, || {
            CoordinateSearch::new(cfg.coordinate_search).run(&model, &constraints, &d_f)
        })
        .map_err(|e| err(&e))?;
    Ok(())
}
