//! The [`Evaluator`] abstraction and the [`EvalService`] engine.
//!
//! [`Evaluator`] is what the worst-case analysis, linearization, line
//! search, and Monte-Carlo verification layers program against: the same
//! accessors and evaluation calls as [`CircuitEnv`], plus *batch* variants
//! that evaluate many points at once. Every `CircuitEnv + Sync` is an
//! `Evaluator` through a blanket implementation whose batches run serially
//! — existing behavior, bit for bit.
//!
//! [`EvalService`] wraps an environment and upgrades those batch calls
//! with a scoped-thread worker pool, a bounded memoization cache, and a
//! retry policy for non-converged simulations, while keeping results in
//! input order and bit-identical to the serial path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use specwise_ckt::{
    CircuitEnv, CktError, DesignSpace, OperatingPoint, OperatingRange, SimPhase, Spec, StatSpace,
};
use specwise_linalg::DVec;
use specwise_trace::Tracer;

use crate::cache::Cache;
use crate::config::{fmt_duration, ExecConfig};

/// One evaluation request: the full argument triple of
/// [`CircuitEnv::eval_performances`], owned so batches can cross threads.
///
/// The vectors are [`Arc`]-shared: gradient and sampling loops build many
/// points that differ from a base point in only one coordinate block, and
/// sharing the unchanged block avoids one heap allocation + copy per point
/// (cloning an `EvalPoint` is two refcount bumps).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPoint {
    /// Design point.
    pub d: Arc<DVec>,
    /// Standardized statistical point.
    pub s_hat: Arc<DVec>,
    /// Operating condition.
    pub theta: OperatingPoint,
}

impl EvalPoint {
    /// Creates a request. Accepts owned vectors or pre-shared [`Arc`]s, so
    /// call sites that reuse a base vector across many points pass
    /// `Arc::clone(&base)` and allocate nothing.
    pub fn new(
        d: impl Into<Arc<DVec>>,
        s_hat: impl Into<Arc<DVec>>,
        theta: OperatingPoint,
    ) -> Self {
        EvalPoint {
            d: d.into(),
            s_hat: s_hat.into(),
            theta,
        }
    }
}

/// The evaluation interface of the simulator-driven loops.
///
/// Mirrors the [`CircuitEnv`] surface (same method names, so call sites
/// only change their bound, not their body) and adds batch evaluation.
/// Implementors: every `CircuitEnv + Sync` (serial batches, via the blanket
/// impl) and [`EvalService`] (parallel, cached, fault-tolerant batches).
pub trait Evaluator: Sync {
    /// Human-readable circuit name.
    fn name(&self) -> &str;

    /// The design space.
    fn design_space(&self) -> &DesignSpace;

    /// The standardized statistical space.
    fn stat_space(&self) -> &StatSpace;

    /// Dimension of the statistical space.
    fn stat_dim(&self) -> usize;

    /// The performance specifications.
    fn specs(&self) -> &[Spec];

    /// The operating range `Θ`.
    fn operating_range(&self) -> &OperatingRange;

    /// Names of the functional constraints.
    fn constraint_names(&self) -> Vec<String>;

    /// Evaluates all performances at `(d, ŝ, θ)`.
    ///
    /// # Errors
    ///
    /// Returns [`CktError`] for dimension mismatches or failed simulations.
    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError>;

    /// Evaluates the margin vector at `(d, ŝ, θ)`.
    ///
    /// # Errors
    ///
    /// Propagates [`Evaluator::eval_performances`] errors.
    fn eval_margins(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError>;

    /// Evaluates the functional constraints `c(d) ≥ 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CktError`] for dimension mismatches or failed simulations.
    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError>;

    /// Evaluates margins at every point, returning results in input order.
    /// A failed point yields its error in the corresponding slot; the other
    /// points are unaffected.
    fn eval_margins_batch(&self, points: &[EvalPoint]) -> Vec<Result<DVec, CktError>> {
        self.warm_commit();
        points
            .iter()
            .map(|p| self.eval_margins(&p.d, &p.s_hat, &p.theta))
            .collect()
    }

    /// Evaluates performances at every point, in input order.
    fn eval_performances_batch(&self, points: &[EvalPoint]) -> Vec<Result<DVec, CktError>> {
        self.warm_commit();
        points
            .iter()
            .map(|p| self.eval_performances(&p.d, &p.s_hat, &p.theta))
            .collect()
    }

    /// Evaluates constraints at every design point, in input order.
    fn eval_constraints_batch(&self, designs: &[DVec]) -> Vec<Result<DVec, CktError>> {
        self.warm_commit();
        designs.iter().map(|d| self.eval_constraints(d)).collect()
    }

    /// Publishes pending warm-start state (see
    /// [`CircuitEnv::warm_commit`]). Batch entry points call this exactly
    /// once before running, so every point in a batch is seeded from the
    /// same committed snapshot regardless of worker count or completion
    /// order — keeping Newton iteration counts (and therefore simulation
    /// counts) bitwise-deterministic under parallel evaluation.
    fn warm_commit(&self) {}

    /// Number of simulator invocations so far.
    fn sim_count(&self) -> u64;

    /// Resets the simulation counter.
    fn reset_sim_count(&self);

    /// Selects the [`SimPhase`] subsequent simulations are charged to.
    fn set_sim_phase(&self, phase: SimPhase);

    /// Per-phase simulation counts.
    fn sim_phase_counts(&self) -> [u64; SimPhase::COUNT];

    /// Evaluates the margin vector at `(d, ŝ, θ)` plus a set of perturbed
    /// `(d′, ŝ′)` points via the environment's sensitivity shortcut (see
    /// [`CircuitEnv::eval_margins_perturbed`]). `Ok(None)` means no
    /// shortcut applies: callers fall back to finite differences through
    /// the ordinary batch path.
    ///
    /// # Errors
    ///
    /// Propagates base-point simulation failures.
    fn eval_margins_perturbed(
        &self,
        _d: &DVec,
        _s_hat: &DVec,
        _theta: &OperatingPoint,
        _directions: &[(DVec, DVec)],
    ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
        Ok(None)
    }

    /// Evaluates margins at many `(ŝ, θ)` sample points for a fixed design
    /// — the Monte-Carlo shape. [`EvalService`] runs them as one worker-pool
    /// batch that bypasses the memo cache. `None` (the default) means no
    /// such path: callers use [`Evaluator::eval_margins_batch`].
    fn eval_margins_samples(
        &self,
        _d: &DVec,
        _points: &[(DVec, OperatingPoint)],
    ) -> Option<Vec<Result<DVec, CktError>>> {
        None
    }

    /// Adjoint/sensitivity solves recorded so far. Not part of
    /// [`Evaluator::sim_count`].
    fn adjoint_solve_count(&self) -> u64 {
        0
    }

    /// Finite-difference simulator calls avoided by the sensitivity path.
    fn fd_sims_avoided(&self) -> u64 {
        0
    }

    /// Execution statistics, when the evaluator collects them
    /// ([`EvalService`] does; plain environments return `None`).
    fn exec_report(&self) -> Option<ExecReport> {
        None
    }
}

impl<T: CircuitEnv + Sync + ?Sized> Evaluator for T {
    fn name(&self) -> &str {
        CircuitEnv::name(self)
    }

    fn design_space(&self) -> &DesignSpace {
        CircuitEnv::design_space(self)
    }

    fn stat_space(&self) -> &StatSpace {
        CircuitEnv::stat_space(self)
    }

    fn stat_dim(&self) -> usize {
        CircuitEnv::stat_dim(self)
    }

    fn specs(&self) -> &[Spec] {
        CircuitEnv::specs(self)
    }

    fn operating_range(&self) -> &OperatingRange {
        CircuitEnv::operating_range(self)
    }

    fn constraint_names(&self) -> Vec<String> {
        CircuitEnv::constraint_names(self)
    }

    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        CircuitEnv::eval_performances(self, d, s_hat, theta)
    }

    fn eval_margins(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        CircuitEnv::eval_margins(self, d, s_hat, theta)
    }

    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
        CircuitEnv::eval_constraints(self, d)
    }

    fn sim_count(&self) -> u64 {
        CircuitEnv::sim_count(self)
    }

    fn reset_sim_count(&self) {
        CircuitEnv::reset_sim_count(self)
    }

    fn set_sim_phase(&self, phase: SimPhase) {
        CircuitEnv::set_sim_phase(self, phase)
    }

    fn sim_phase_counts(&self) -> [u64; SimPhase::COUNT] {
        CircuitEnv::sim_phase_counts(self)
    }

    fn warm_commit(&self) {
        CircuitEnv::warm_commit(self)
    }

    fn eval_margins_perturbed(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        directions: &[(DVec, DVec)],
    ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
        CircuitEnv::eval_margins_perturbed(self, d, s_hat, theta, directions)
    }

    fn adjoint_solve_count(&self) -> u64 {
        CircuitEnv::adjoint_solve_count(self)
    }

    fn fd_sims_avoided(&self) -> u64 {
        CircuitEnv::fd_sims_avoided(self)
    }
}

/// Snapshot of an [`EvalService`]'s execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Configured worker-pool size.
    pub workers: usize,
    /// Cache lookups answered from memory (simulations saved).
    pub cache_hits: u64,
    /// Cache lookups that fell through to the environment.
    pub cache_misses: u64,
    /// Retry attempts issued for failed simulations.
    pub retries: u64,
    /// Evaluations that failed at first but succeeded on a retry.
    pub recovered: u64,
    /// Evaluations that exhausted retries with a simulation failure.
    pub sim_failures: u64,
    /// Worker panics isolated by `catch_unwind` and degraded to
    /// [`CktError::WorkerPanic`] instead of aborting the process.
    pub panics_caught: u64,
    /// Batch calls served.
    pub batches: u64,
    /// Total points across all batch calls.
    pub batch_points: u64,
    /// Simulations charged to each phase (indexed by [`SimPhase::index`]).
    pub phase_sims: [u64; SimPhase::COUNT],
    /// Wall-clock evaluation time charged to each phase.
    pub phase_wall: [Duration; SimPhase::COUNT],
    /// Total simulations the wrapped environment performed.
    pub total_sims: u64,
    /// Wall-clock time since the service was created (or last reset).
    pub wall: Duration,
}

impl ExecReport {
    /// Cache lookups: hits plus misses. Monte-Carlo samples bypass the
    /// cache, so this is usually far below [`ExecReport::total_sims`].
    pub fn cache_lookups(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// Cache hits as a share of cache lookups, in `[0, 1]` (`0` when the
    /// cache was never consulted). Not a share of all simulations.
    pub fn hit_rate(&self) -> f64 {
        match self.cache_lookups() {
            0 => 0.0,
            lookups => self.cache_hits as f64 / lookups as f64,
        }
    }

    /// Wall-clock time spent evaluating, summed over phases.
    pub fn eval_wall(&self) -> Duration {
        self.phase_wall.iter().sum()
    }

    /// Per-phase rows `(label, simulations, wall time)` for effort tables,
    /// in [`SimPhase::ALL`] order, zero-simulation phases omitted.
    pub fn phase_rows(&self) -> Vec<(String, u64, Duration)> {
        SimPhase::ALL
            .iter()
            .filter(|p| self.phase_sims[p.index()] > 0)
            .map(|p| {
                (
                    p.label().to_string(),
                    self.phase_sims[p.index()],
                    self.phase_wall[p.index()],
                )
            })
            .collect()
    }
}

impl std::fmt::Display for ExecReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "exec: {} sims, {} workers, wall {}",
            self.total_sims,
            self.workers,
            fmt_duration(self.wall)
        )?;
        writeln!(
            f,
            "cache: {} hits of {} lookups ({:.1}% of lookups; {} sims in all)",
            self.cache_hits,
            self.cache_lookups(),
            100.0 * self.hit_rate(),
            self.total_sims
        )?;
        writeln!(
            f,
            "robustness: {} retries, {} recovered, {} failures, {} panics caught",
            self.retries, self.recovered, self.sim_failures, self.panics_caught
        )?;
        for (label, sims, wall) in self.phase_rows() {
            writeln!(f, "  {label:<14} {sims:>8} sims  {:>9}", fmt_duration(wall))?;
        }
        Ok(())
    }
}

/// Renders a vector for error context: up to four components, then an
/// ellipsis with the total length, so annotated errors stay one line even
/// for high-dimensional statistical spaces.
fn summarize_vec(v: &DVec) -> String {
    const SHOWN: usize = 4;
    let mut out = String::from("[");
    for (i, x) in v.iter().take(SHOWN).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{x:.6}"));
    }
    if v.len() > SHOWN {
        out.push_str(&format!(", … ({} total)", v.len()));
    }
    out.push(']');
    out
}

/// The evaluation engine: wraps a [`CircuitEnv`] and serves all
/// simulator-driven loops with parallel batches, memoization, retries,
/// and per-phase accounting. See the [crate docs](crate) for an overview.
pub struct EvalService<'e, E: CircuitEnv + Sync + ?Sized> {
    env: &'e E,
    config: ExecConfig,
    cache: Mutex<Cache>,
    hits: AtomicU64,
    misses: AtomicU64,
    retries: AtomicU64,
    recovered: AtomicU64,
    sim_failures: AtomicU64,
    panics_caught: AtomicU64,
    batches: AtomicU64,
    batch_points: AtomicU64,
    phase: AtomicUsize,
    phase_wall_ns: [AtomicU64; SimPhase::COUNT],
    started: Instant,
    tracer: Tracer,
}

impl<E: CircuitEnv + Sync + ?Sized> std::fmt::Debug for EvalService<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalService")
            .field("env", &CircuitEnv::name(self.env))
            .field("config", &self.config)
            .finish()
    }
}

impl<'e, E: CircuitEnv + Sync + ?Sized> EvalService<'e, E> {
    /// Wraps `env` with the given configuration.
    pub fn new(env: &'e E, config: ExecConfig) -> Self {
        EvalService {
            env,
            cache: Mutex::new(Cache::new(config.cache_capacity)),
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            sim_failures: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_points: AtomicU64::new(0),
            phase: AtomicUsize::new(SimPhase::Other.index()),
            phase_wall_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            started: Instant::now(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a [`Tracer`]: every batch fan-out emits a `batch` event
    /// (point count + active phase) into the journal. With the default
    /// disabled tracer the emission is a single branch per batch.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Wraps `env` with configuration from the process environment
    /// ([`ExecConfig::from_env`]).
    pub fn from_env(env: &'e E) -> Self {
        EvalService::new(env, ExecConfig::from_env())
    }

    /// The active configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The wrapped environment.
    pub fn env(&self) -> &'e E {
        self.env
    }

    /// Number of memoized evaluations currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("exec cache poisoned").len()
    }

    fn charge_wall(&self, elapsed: Duration) {
        let idx = self.phase.load(Ordering::Relaxed).min(SimPhase::COUNT - 1);
        self.phase_wall_ns[idx].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Performance evaluation with cache and retry, *without* wall-clock
    /// accounting — timed by the public entry points so batch items are
    /// not double-counted.
    fn performances_inner(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        if self.config.cache_capacity > 0 {
            if let Some(hit) = self
                .cache
                .lock()
                .expect("exec cache poisoned")
                .get(d, s_hat, theta)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let result = self.evaluate_with_retry(d, s_hat, theta);
        if let Ok(value) = &result {
            if self.config.cache_capacity > 0 {
                self.cache
                    .lock()
                    .expect("exec cache poisoned")
                    .put(d, s_hat, theta, value);
            }
        }
        result
    }

    /// Runs one raw environment call with panic isolation: a panicking
    /// simulation degrades to [`CktError::WorkerPanic`] instead of
    /// unwinding through the worker pool and aborting the process.
    fn call_isolated<T>(&self, f: impl FnOnce() -> Result<T, CktError>) -> Result<T, CktError> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(result) => result,
            Err(payload) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(CktError::WorkerPanic { message })
            }
        }
    }

    fn active_phase(&self) -> SimPhase {
        SimPhase::ALL[self.phase.load(Ordering::Relaxed).min(SimPhase::COUNT - 1)]
    }

    /// Annotates an escaping simulation failure with where it happened, so
    /// a failed run names the offending point instead of a bare
    /// [`CktError::Simulation`]. Non-simulation errors (dimension
    /// mismatches, configuration problems) keep their exact variant —
    /// callers match on those.
    fn annotate_failure(&self, e: CktError, point: String) -> CktError {
        if e.is_simulation_failure() {
            self.sim_failures.fetch_add(1, Ordering::Relaxed);
            e.with_context(format!(
                "evaluation in phase '{}' at {point}",
                self.active_phase().label()
            ))
        } else {
            e
        }
    }

    fn evaluate_with_retry(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        let mut attempt: u32 = 0;
        loop {
            let result = if attempt == 0 {
                self.call_isolated(|| CircuitEnv::eval_performances(self.env, d, s_hat, theta))
            } else {
                // Deterministic nudge off the failing point; see
                // `RetryPolicy` for the rationale and magnitude.
                let mut nudged = s_hat.clone();
                for v in nudged.iter_mut() {
                    *v += self.config.retry.perturb * attempt as f64;
                }
                self.call_isolated(|| CircuitEnv::eval_performances(self.env, d, &nudged, theta))
            };
            match result {
                Err(e) if e.is_simulation_failure() && attempt < self.config.retry.max_retries => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                }
                Err(e) => {
                    return Err(self.annotate_failure(
                        e,
                        format!(
                            "d={} ŝ={} θ=({} °C, {} V)",
                            summarize_vec(d),
                            summarize_vec(s_hat),
                            theta.temp_c,
                            theta.vdd
                        ),
                    ));
                }
                Ok(value) => {
                    if attempt > 0 {
                        self.recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(value);
                }
            }
        }
    }

    /// Constraint evaluation with panic isolation and same-point retries
    /// (constraints are d-only; a ŝ-perturbing retry does not apply).
    fn constraints_with_retry(&self, d: &DVec) -> Result<DVec, CktError> {
        let mut attempt: u32 = 0;
        loop {
            let result = self.call_isolated(|| CircuitEnv::eval_constraints(self.env, d));
            match result {
                Err(e) if e.is_simulation_failure() && attempt < self.config.retry.max_retries => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                }
                Err(e) => {
                    return Err(
                        self.annotate_failure(e, format!("constraints at d={}", summarize_vec(d)))
                    );
                }
                Ok(value) => {
                    if attempt > 0 {
                        self.recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(value);
                }
            }
        }
    }

    fn margins_from_performances(&self, perf: DVec) -> DVec {
        CircuitEnv::specs(self.env)
            .iter()
            .zip(perf.iter())
            .map(|(spec, &f)| spec.margin(f))
            .collect()
    }

    /// Fans `points` out over the worker pool, writing each result into its
    /// input slot. `op` must be safe to call concurrently (it is: the env is
    /// `Sync` and the service's shared state is atomics + a mutex).
    fn run_batch<In, Out>(&self, points: &[In], op: impl Fn(&In) -> Out + Sync) -> Vec<Out>
    where
        In: Sync,
        Out: Send,
    {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_points
            .fetch_add(points.len() as u64, Ordering::Relaxed);
        if self.tracer.is_enabled() {
            self.tracer.event(
                "batch",
                &[
                    ("points", points.len().into()),
                    ("phase", self.active_phase().label().into()),
                ],
            );
        }
        // Publish the warm-start snapshot exactly once, before fan-out:
        // every point of this batch seeds from the same committed state, so
        // Newton iteration counts do not depend on worker count or
        // completion order.
        CircuitEnv::warm_commit(self.env);
        let t0 = Instant::now();
        let workers = self.config.workers.clamp(1, points.len().max(1));
        let result = if workers <= 1 || points.len() < self.config.min_parallel_batch {
            points.iter().map(&op).collect()
        } else {
            let mut slots: Vec<Option<Out>> = Vec::with_capacity(points.len());
            slots.resize_with(points.len(), || None);
            let chunk = points.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (ins, outs) in points.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    scope.spawn(|| {
                        for (p, slot) in ins.iter().zip(outs.iter_mut()) {
                            *slot = Some(op(p));
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("worker filled every slot"))
                .collect()
        };
        self.charge_wall(t0.elapsed());
        result
    }

    /// Snapshot of the execution statistics.
    pub fn report(&self) -> ExecReport {
        ExecReport {
            workers: self.config.workers,
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            sim_failures: self.sim_failures.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_points: self.batch_points.load(Ordering::Relaxed),
            phase_sims: CircuitEnv::sim_phase_counts(self.env),
            phase_wall: std::array::from_fn(|i| {
                Duration::from_nanos(self.phase_wall_ns[i].load(Ordering::Relaxed))
            }),
            total_sims: CircuitEnv::sim_count(self.env),
            wall: self.started.elapsed(),
        }
    }
}

impl<E: CircuitEnv + Sync + ?Sized> Evaluator for EvalService<'_, E> {
    fn name(&self) -> &str {
        CircuitEnv::name(self.env)
    }

    fn design_space(&self) -> &DesignSpace {
        CircuitEnv::design_space(self.env)
    }

    fn stat_space(&self) -> &StatSpace {
        CircuitEnv::stat_space(self.env)
    }

    fn stat_dim(&self) -> usize {
        CircuitEnv::stat_dim(self.env)
    }

    fn specs(&self) -> &[Spec] {
        CircuitEnv::specs(self.env)
    }

    fn operating_range(&self) -> &OperatingRange {
        CircuitEnv::operating_range(self.env)
    }

    fn constraint_names(&self) -> Vec<String> {
        CircuitEnv::constraint_names(self.env)
    }

    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        let t0 = Instant::now();
        let result = self.performances_inner(d, s_hat, theta);
        self.charge_wall(t0.elapsed());
        result
    }

    fn eval_margins(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        let t0 = Instant::now();
        let result = self
            .performances_inner(d, s_hat, theta)
            .map(|p| self.margins_from_performances(p));
        self.charge_wall(t0.elapsed());
        result
    }

    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
        let t0 = Instant::now();
        let result = self.constraints_with_retry(d);
        self.charge_wall(t0.elapsed());
        result
    }

    fn eval_margins_batch(&self, points: &[EvalPoint]) -> Vec<Result<DVec, CktError>> {
        self.run_batch(points, |p| {
            self.performances_inner(&p.d, &p.s_hat, &p.theta)
                .map(|perf| self.margins_from_performances(perf))
        })
    }

    fn eval_performances_batch(&self, points: &[EvalPoint]) -> Vec<Result<DVec, CktError>> {
        self.run_batch(points, |p| {
            self.performances_inner(&p.d, &p.s_hat, &p.theta)
        })
    }

    fn eval_constraints_batch(&self, designs: &[DVec]) -> Vec<Result<DVec, CktError>> {
        self.run_batch(designs, |d| self.constraints_with_retry(d))
    }

    fn sim_count(&self) -> u64 {
        CircuitEnv::sim_count(self.env)
    }

    fn reset_sim_count(&self) {
        CircuitEnv::reset_sim_count(self.env)
    }

    fn set_sim_phase(&self, phase: SimPhase) {
        self.phase.store(phase.index(), Ordering::Relaxed);
        CircuitEnv::set_sim_phase(self.env, phase);
    }

    fn sim_phase_counts(&self) -> [u64; SimPhase::COUNT] {
        CircuitEnv::sim_phase_counts(self.env)
    }

    fn warm_commit(&self) {
        CircuitEnv::warm_commit(self.env)
    }

    fn eval_margins_perturbed(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        directions: &[(DVec, DVec)],
    ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
        // Commit first for parity with the finite-difference batch path:
        // the base point seeds from the same snapshot either way.
        CircuitEnv::warm_commit(self.env);
        let t0 = Instant::now();
        let result = self.call_isolated(|| {
            CircuitEnv::eval_margins_perturbed(self.env, d, s_hat, theta, directions)
        });
        self.charge_wall(t0.elapsed());
        result.map_err(|e| {
            self.annotate_failure(
                e,
                format!(
                    "sensitivity base d={} ŝ={}",
                    summarize_vec(d),
                    summarize_vec(s_hat)
                ),
            )
        })
    }

    fn eval_margins_samples(
        &self,
        d: &DVec,
        points: &[(DVec, OperatingPoint)],
    ) -> Option<Vec<Result<DVec, CktError>>> {
        // Monte-Carlo samples are unique, so they skip the memo cache but
        // keep the worker pool, retries and panic isolation.
        Some(self.run_batch(points, |(s_hat, theta)| {
            self.evaluate_with_retry(d, s_hat, theta)
                .map(|perf| self.margins_from_performances(perf))
        }))
    }

    fn adjoint_solve_count(&self) -> u64 {
        CircuitEnv::adjoint_solve_count(self.env)
    }

    fn fd_sims_avoided(&self) -> u64 {
        CircuitEnv::fd_sims_avoided(self.env)
    }

    fn exec_report(&self) -> Option<ExecReport> {
        Some(self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetryPolicy;
    use specwise_ckt::{AnalyticEnv, DesignParam, SpecKind};

    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, th| {
                DVec::from_slice(&[d[0] + 0.5 * s[0] - 0.25 * s[1] * s[1] + 1e-3 * th.vdd])
            })
            .build()
            .unwrap()
    }

    fn points(n: usize) -> Vec<EvalPoint> {
        let theta = OperatingPoint::new(27.0, 3.3);
        (0..n)
            .map(|i| {
                EvalPoint::new(
                    DVec::from_slice(&[0.1 * i as f64]),
                    DVec::from_slice(&[0.01 * i as f64, -0.02 * i as f64]),
                    theta,
                )
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_bit_for_bit_across_worker_counts() {
        let e = env();
        let pts = points(23);
        // Reference: the blanket (serial) implementation on the raw env.
        let reference = Evaluator::eval_margins_batch(&e, &pts);
        for workers in [1usize, 2, 8] {
            let service = EvalService::new(
                &e,
                ExecConfig::serial()
                    .with_workers(workers)
                    .with_cache_capacity(0),
            );
            let got = service.eval_margins_batch(&pts);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(reference.iter()) {
                let (g, r) = (g.as_ref().unwrap(), r.as_ref().unwrap());
                assert_eq!(g.as_slice(), r.as_slice(), "workers={workers} diverged");
            }
        }
    }

    #[test]
    fn constraints_batch_matches_serial() {
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, _, _| DVec::from_slice(&[d[0]]))
            .constraints(vec!["c0".into()], |d| DVec::from_slice(&[d[0] - 1.0]))
            .build()
            .unwrap();
        let designs: Vec<DVec> = (0..11)
            .map(|i| DVec::from_slice(&[0.3 * i as f64]))
            .collect();
        let reference = Evaluator::eval_constraints_batch(&e, &designs);
        for workers in [1usize, 2, 8] {
            let service = EvalService::new(&e, ExecConfig::serial().with_workers(workers));
            let got = service.eval_constraints_batch(&designs);
            for (g, r) in got.iter().zip(reference.iter()) {
                assert_eq!(
                    g.as_ref().unwrap().as_slice(),
                    r.as_ref().unwrap().as_slice(),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn cache_saves_simulations_and_returns_identical_values() {
        let e = env();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(1));
        let p = points(1).remove(0);
        let first = service.eval_margins(&p.d, &p.s_hat, &p.theta).unwrap();
        let sims_after_first = Evaluator::sim_count(&service);
        let second = service.eval_margins(&p.d, &p.s_hat, &p.theta).unwrap();
        assert_eq!(
            Evaluator::sim_count(&service),
            sims_after_first,
            "hit must not simulate"
        );
        assert_eq!(first.as_slice(), second.as_slice());
        let report = service.report();
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cache_misses, 1);
    }

    #[test]
    fn nearby_but_distinct_points_never_alias_through_the_service() {
        let e = env();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(1));
        let theta = OperatingPoint::new(27.0, 3.3);
        let d = DVec::from_slice(&[1.0]);
        let s_a = DVec::from_slice(&[0.5, 0.0]);
        // One ulp away: same quantization bucket, different point.
        let s_b = DVec::from_slice(&[f64::from_bits(0.5f64.to_bits() + 1), 0.0]);
        let m_a = service.eval_margins(&d, &s_a, &theta).unwrap();
        let m_b = service.eval_margins(&d, &s_b, &theta).unwrap();
        let expect_a = CircuitEnv::eval_margins(&e, &d, &s_a, &theta).unwrap();
        let expect_b = CircuitEnv::eval_margins(&e, &d, &s_b, &theta).unwrap();
        assert_eq!(m_a.as_slice(), expect_a.as_slice());
        assert_eq!(m_b.as_slice(), expect_b.as_slice());
        assert_eq!(
            service.report().cache_misses,
            2,
            "both points must evaluate"
        );
    }

    /// Fails exactly at ŝ = (0.5, 0.5); a retry's perturbed point
    /// converges.
    fn flaky_env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
            .fail_when_stat(|_, s| s[0] == 0.5 && s[1] == 0.5)
            .build()
            .unwrap()
    }

    fn retrying_config(workers: usize) -> ExecConfig {
        ExecConfig::default()
            .with_workers(workers)
            .with_retry(RetryPolicy {
                max_retries: 2,
                perturb: 1e-9,
            })
    }

    /// Panics at ŝ[0] ≥ 0.75.
    fn panicking_env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| {
                assert!(s[0] < 0.75, "poisoned sample");
                DVec::from_slice(&[d[0] + s[0]])
            })
            .build()
            .unwrap()
    }

    /// Runs `f` with the default panic hook silenced, for intentional
    /// panics.
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev_hook);
        out
    }

    #[test]
    fn retry_recovers_from_point_failures() {
        let e = flaky_env();
        let service = EvalService::new(&e, retrying_config(1));
        let theta = OperatingPoint::new(27.0, 3.3);
        let m = service
            .eval_margins(
                &DVec::from_slice(&[1.0]),
                &DVec::from_slice(&[0.5, 0.5]),
                &theta,
            )
            .unwrap();
        assert!((m[0] - 1.5).abs() < 1e-6);
        let report = service.report();
        assert_eq!(report.retries, 1);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.sim_failures, 0);
    }

    #[test]
    fn exhausted_retries_surface_the_error_without_poisoning_the_batch() {
        // The whole band s[0] ∈ [0.4, 0.6] fails — retries cannot escape.
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
            .fail_when_stat(|_, s| (0.4..=0.6).contains(&s[0]))
            .build()
            .unwrap();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(2));
        let theta = OperatingPoint::new(27.0, 3.3);
        let pts: Vec<EvalPoint> = [0.0, 0.5, 1.0, 0.45, 2.0]
            .iter()
            .map(|&s| EvalPoint::new(DVec::from_slice(&[1.0]), DVec::from_slice(&[s]), theta))
            .collect();
        let results = service.eval_margins_batch(&pts);
        assert!(results[0].is_ok());
        assert!(results[2].is_ok());
        assert!(results[4].is_ok());
        for idx in [1usize, 3] {
            let err = results[idx].as_ref().unwrap_err();
            assert!(err.is_simulation_failure(), "slot {idx}: {err}");
            assert!(matches!(err.root(), CktError::Simulation(_)));
            // The escaping error names the phase and the offending point.
            let msg = err.to_string();
            assert!(msg.contains("phase 'other'"), "{msg}");
            assert!(msg.contains("ŝ="), "{msg}");
        }
        let report = service.report();
        assert_eq!(report.sim_failures, 2);
        assert!(report.retries >= 2);
    }

    #[test]
    fn worker_panic_is_isolated_and_degrades_to_an_error() {
        let e = panicking_env();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(2));
        let theta = OperatingPoint::new(27.0, 3.3);
        let pts: Vec<EvalPoint> = [0.0, 0.9, 0.5]
            .iter()
            .map(|&s| EvalPoint::new(DVec::from_slice(&[1.0]), DVec::from_slice(&[s]), theta))
            .collect();
        let results = quietly(|| service.eval_margins_batch(&pts));
        assert!(results[0].is_ok());
        assert!(results[2].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert!(matches!(err.root(), CktError::WorkerPanic { .. }), "{err}");
        assert!(err.to_string().contains("poisoned sample"), "{err}");
        let report = service.report();
        assert!(report.panics_caught >= 1);
        assert_eq!(report.sim_failures, 1);
    }

    #[test]
    fn sample_path_retries_and_isolates_panics() {
        let theta = OperatingPoint::new(27.0, 3.3);
        let d = DVec::from_slice(&[1.0]);

        let e = flaky_env();
        let service = EvalService::new(&e, retrying_config(2));
        let points: Vec<(DVec, OperatingPoint)> = [[0.0, 0.0], [0.5, 0.5], [1.0, -1.0]]
            .iter()
            .map(|s| (DVec::from_slice(s), theta))
            .collect();
        let results = service
            .eval_margins_samples(&d, &points)
            .expect("the service runs the sample path");
        let m = results[1].as_ref().expect("the retry recovers the sample");
        assert!((m[0] - 1.5).abs() < 1e-6);
        assert!(results[0].is_ok() && results[2].is_ok());
        let report = service.report();
        assert_eq!(report.retries, 1);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.sim_failures, 0);
        assert_eq!(report.cache_hits + report.cache_misses, 0);

        let e = panicking_env();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(2));
        let points: Vec<(DVec, OperatingPoint)> = [0.0, 0.9, 0.5]
            .iter()
            .map(|&s| (DVec::from_slice(&[s]), theta))
            .collect();
        let results = quietly(|| service.eval_margins_samples(&d, &points))
            .expect("the service runs the sample path");
        assert!(results[0].is_ok());
        assert!(results[2].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert!(matches!(err.root(), CktError::WorkerPanic { .. }), "{err}");
        assert!(err.to_string().contains("poisoned sample"), "{err}");
        assert!(service.report().panics_caught >= 1);
    }

    #[test]
    fn report_tracks_batches_and_phases() {
        let e = env();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(2));
        Evaluator::set_sim_phase(&service, SimPhase::Verification);
        let pts = points(6);
        let _ = service.eval_margins_batch(&pts);
        let report = service.report();
        assert_eq!(report.batches, 1);
        assert_eq!(report.batch_points, 6);
        assert_eq!(report.phase_sims[SimPhase::Verification.index()], 6);
        assert!(report.phase_wall[SimPhase::Verification.index()] > Duration::ZERO);
        assert_eq!(report.total_sims, 6);
        assert!(report
            .phase_rows()
            .iter()
            .any(|(l, n, _)| l == "verification" && *n == 6));
    }
}
