//! Tracing from outside the program: an in-memory span recorder and a
//! timing decorator over any [`Evaluator`].
//!
//! The decorator forwards every `Evaluator` method, the optional ones
//! included. Declining one would silently change the program under test:
//! a missing `eval_margins_perturbed` turns adjoint gradients back into
//! finite differences, a missing `eval_margins_samples` moves lockstep
//! verification onto the worker pool.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use specwise_ckt::{
    CktError, DesignSpace, OperatingPoint, OperatingRange, SimPhase, Spec, StatSpace,
};
use specwise_exec::{EvalPoint, Evaluator, ExecReport};
use specwise_linalg::DVec;

/// Which `Evaluator` entry point a call span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `eval_margins` / `eval_performances`: one point.
    Single,
    /// `eval_margins_batch` / `eval_performances_batch`.
    Batch,
    /// `eval_margins_samples`: the lockstep sample path.
    Samples,
    /// `eval_margins_perturbed`: the sensitivity (adjoint) path.
    Perturbed,
    /// `eval_constraints` / `eval_constraints_batch`.
    Constraints,
}

impl Entry {
    /// Every entry, in report order.
    pub const ALL: [Entry; 5] = [
        Entry::Single,
        Entry::Batch,
        Entry::Samples,
        Entry::Perturbed,
        Entry::Constraints,
    ];

    /// Metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            Entry::Single => "single",
            Entry::Batch => "batch",
            Entry::Samples => "samples",
            Entry::Perturbed => "perturbed",
            Entry::Constraints => "constraints",
        }
    }
}

/// Metric-name suffix of a simulation phase.
pub fn phase_label(phase: SimPhase) -> &'static str {
    match phase {
        SimPhase::Feasibility => "feasibility",
        SimPhase::Wcd => "wcd",
        SimPhase::Linearization => "linearization",
        SimPhase::LineSearch => "line_search",
        SimPhase::Verification => "verification",
        SimPhase::Other => "other",
    }
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole job (`YieldOptimizer::run`).
    Job,
    /// A probe call into one layer, named by the metric it feeds.
    Probe(&'static str),
    /// One call into the evaluator, charged to the phase the caller had
    /// selected.
    Call(Entry, SimPhase),
}

/// One recorded interval. Spans of one job share `job`; `parent` indexes
/// the enclosing span in the recorder.
#[derive(Debug, Clone)]
pub struct Span {
    pub kind: Kind,
    pub job: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Keeps spans in memory; [`Recorder::write_jsonl`] writes them out once
/// the run is over.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder poisoned")
    }

    /// Opens a span that [`Recorder::close`] ends; returns its index.
    pub fn open(&self, kind: Kind, job: u64, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        let mut spans = self.lock();
        spans.push(Span {
            kind,
            job,
            parent,
            start: now,
            end: now,
        });
        spans.len() - 1
    }

    /// Ends the span `id`.
    pub fn close(&self, id: usize) {
        let now = self.origin.elapsed();
        self.lock()[id].end = now;
    }

    /// Runs `f` inside a fresh span and returns its result.
    pub fn time<R>(&self, kind: Kind, job: u64, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(kind, job, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let (name, phase) = match s.kind {
                Kind::Job => ("job".to_owned(), None),
                Kind::Probe(metric) => (metric.to_owned(), None),
                Kind::Call(entry, phase) => (format!("exec.{}", entry.label()), Some(phase)),
            };
            write!(out, "{{\"id\":{id},\"name\":\"{name}\",\"job\":{}", s.job)?;
            if let Some(parent) = s.parent {
                write!(out, ",\"parent\":{parent}")?;
            }
            if let Some(phase) = phase {
                write!(out, ",\"phase\":\"{}\"", phase_label(phase))?;
            }
            writeln!(
                out,
                ",\"start_us\":{},\"end_us\":{}}}",
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` (overlaps counted once).
pub fn covered(mut intervals: Vec<(Duration, Duration)>) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut open: Option<(Duration, Duration)> = None;
    for (s, e) in intervals {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((os, oe)) = open {
        total += oe - os;
    }
    total
}

/// Timing decorator: one [`Kind::Call`] span per evaluator call, parented
/// to the job span it was created for.
pub struct Timed<'a, E: Evaluator + ?Sized> {
    inner: &'a E,
    recorder: &'a Recorder,
    job: u64,
    parent: usize,
    phase: AtomicUsize,
}

impl<'a, E: Evaluator + ?Sized> Timed<'a, E> {
    /// Wraps `inner`; spans go to `recorder` under `parent` with id `job`.
    pub fn new(inner: &'a E, recorder: &'a Recorder, job: u64, parent: usize) -> Self {
        Timed {
            inner,
            recorder,
            job,
            parent,
            phase: AtomicUsize::new(SimPhase::Other.index()),
        }
    }

    fn call<R>(&self, entry: Entry, f: impl FnOnce() -> R) -> R {
        let phase = SimPhase::ALL[self.phase.load(Ordering::Relaxed)];
        self.recorder
            .time(Kind::Call(entry, phase), self.job, Some(self.parent), f)
    }
}

impl<E: Evaluator + ?Sized> Evaluator for Timed<'_, E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn design_space(&self) -> &DesignSpace {
        self.inner.design_space()
    }

    fn stat_space(&self) -> &StatSpace {
        self.inner.stat_space()
    }

    fn stat_dim(&self) -> usize {
        self.inner.stat_dim()
    }

    fn specs(&self) -> &[Spec] {
        self.inner.specs()
    }

    fn operating_range(&self) -> &OperatingRange {
        self.inner.operating_range()
    }

    fn constraint_names(&self) -> Vec<String> {
        self.inner.constraint_names()
    }

    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        self.call(Entry::Single, || {
            self.inner.eval_performances(d, s_hat, theta)
        })
    }

    fn eval_margins(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        self.call(Entry::Single, || self.inner.eval_margins(d, s_hat, theta))
    }

    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
        self.call(Entry::Constraints, || self.inner.eval_constraints(d))
    }

    fn eval_margins_batch(&self, points: &[EvalPoint]) -> Vec<Result<DVec, CktError>> {
        self.call(Entry::Batch, || self.inner.eval_margins_batch(points))
    }

    fn eval_performances_batch(&self, points: &[EvalPoint]) -> Vec<Result<DVec, CktError>> {
        self.call(Entry::Batch, || self.inner.eval_performances_batch(points))
    }

    fn eval_constraints_batch(&self, designs: &[DVec]) -> Vec<Result<DVec, CktError>> {
        self.call(Entry::Constraints, || {
            self.inner.eval_constraints_batch(designs)
        })
    }

    fn warm_commit(&self) {
        self.inner.warm_commit()
    }

    fn sim_count(&self) -> u64 {
        self.inner.sim_count()
    }

    fn reset_sim_count(&self) {
        self.inner.reset_sim_count()
    }

    fn set_sim_phase(&self, phase: SimPhase) {
        self.phase.store(phase.index(), Ordering::Relaxed);
        self.inner.set_sim_phase(phase)
    }

    fn sim_phase_counts(&self) -> [u64; SimPhase::COUNT] {
        self.inner.sim_phase_counts()
    }

    fn eval_margins_perturbed(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        directions: &[(DVec, DVec)],
    ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
        self.call(Entry::Perturbed, || {
            self.inner
                .eval_margins_perturbed(d, s_hat, theta, directions)
        })
    }

    fn eval_margins_samples(
        &self,
        d: &DVec,
        points: &[(DVec, OperatingPoint)],
    ) -> Option<Vec<Result<DVec, CktError>>> {
        self.call(Entry::Samples, || {
            self.inner.eval_margins_samples(d, points)
        })
    }

    fn adjoint_solve_count(&self) -> u64 {
        self.inner.adjoint_solve_count()
    }

    fn fd_sims_avoided(&self) -> u64 {
        self.inner.fd_sims_avoided()
    }

    fn exec_report(&self) -> Option<ExecReport> {
        self.inner.exec_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_counts_overlaps_once() {
        let ms = Duration::from_millis;
        assert_eq!(
            covered(vec![
                (ms(5), ms(9)),
                (ms(0), ms(2)),
                (ms(1), ms(3)),
                (ms(8), ms(10))
            ]),
            ms(8)
        );
        assert_eq!(covered(Vec::new()), Duration::ZERO);
    }
}
