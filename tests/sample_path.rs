//! Monte-Carlo sample path: `EvalService::eval_margins_samples` must
//! reproduce the per-sample scalar `eval_margins` loop bit-for-bit at any
//! worker count, without touching the memo cache.

use specwise_ckt::CktError;
use specwise_exec::{EvalService, Evaluator, ExecConfig};
use specwise_linalg::DVec;

/// Raw `CircuitEnv` access lives in its own module: importing both
/// `CircuitEnv` and `Evaluator` into one scope makes every method call on
/// an environment ambiguous (the blanket `Evaluator` impl mirrors the
/// `CircuitEnv` method names).
mod raw {
    use rand::{Rng, SeedableRng};
    use specwise_ckt::{CircuitEnv, CktError, MillerOpamp, OperatingPoint};
    use specwise_linalg::DVec;

    pub(super) fn fresh() -> MillerOpamp {
        MillerOpamp::paper_setup()
    }

    pub(super) fn design(env: &MillerOpamp) -> DVec {
        env.design_space().initial()
    }

    pub(super) fn nominal(env: &MillerOpamp) -> (DVec, OperatingPoint) {
        (DVec::zeros(env.stat_dim()), env.operating_range().nominal())
    }

    /// Seeded `(ŝ, θ)` Monte-Carlo-style sample points: |ŝ| ≤ 2, θ ∈ Θ.
    pub(super) fn sample_points(
        env: &MillerOpamp,
        n: usize,
        seed: u64,
    ) -> Vec<(DVec, OperatingPoint)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (t_lo, t_hi) = env.operating_range().temp_bounds();
        let (v_lo, v_hi) = env.operating_range().vdd_bounds();
        (0..n)
            .map(|_| {
                let s: DVec = (0..env.stat_dim())
                    .map(|_| rng.gen_range(-2.0..2.0))
                    .collect();
                let theta =
                    OperatingPoint::new(rng.gen_range(t_lo..t_hi), rng.gen_range(v_lo..v_hi));
                (s, theta)
            })
            .collect()
    }

    /// The flow's state when verification starts: the design was just
    /// evaluated at the nominal point and committed, then every sample is
    /// evaluated one by one.
    pub(super) fn scalar_loop(
        env: &MillerOpamp,
        d: &DVec,
        points: &[(DVec, OperatingPoint)],
    ) -> Vec<Result<DVec, CktError>> {
        let (s0, theta0) = nominal(env);
        env.eval_margins(d, &s0, &theta0).expect("nominal point");
        env.warm_commit();
        points
            .iter()
            .map(|(s, theta)| env.eval_margins(d, s, theta))
            .collect()
    }
}

fn assert_bits_equal(got: &[Result<DVec, CktError>], want: &[Result<DVec, CktError>], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: result count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let (a, b) = match (g, w) {
            (Ok(a), Ok(b)) => (a, b),
            _ => panic!("{label}: sample {i}: {g:?} vs {w:?}"),
        };
        assert_eq!(a.len(), b.len(), "{label}: sample {i} margin count");
        for (j, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: sample {i} margin {j}: {x} vs {y}"
            );
        }
    }
}

/// One worker-pool batch per call: identical bits to the scalar loop at 1
/// and 4 workers, no cache lookup, no cache insert.
#[test]
fn service_samples_match_scalar_loop_at_any_worker_count() {
    let env = raw::fresh();
    let d = raw::design(&env);
    let points = raw::sample_points(&env, 16, 0x10C5);
    let reference = raw::scalar_loop(&env, &d, &points);

    for workers in [1usize, 4] {
        let env = raw::fresh();
        let svc = EvalService::new(&env, ExecConfig::default().with_workers(workers));
        let (s0, theta0) = raw::nominal(&env);
        svc.eval_margins(&d, &s0, &theta0).expect("nominal point");
        let before = svc.report();
        let cached = svc.cache_len();

        let got = svc
            .eval_margins_samples(&d, &points)
            .expect("the service always runs the sample path");
        assert_bits_equal(&got, &reference, &format!("{workers} workers"));

        let after = svc.report();
        assert_eq!(
            after.cache_hits + after.cache_misses,
            before.cache_hits + before.cache_misses,
            "{workers} workers: samples must not consult the cache"
        );
        assert_eq!(
            svc.cache_len(),
            cached,
            "{workers} workers: samples must not fill the cache"
        );
        assert_eq!(after.batches, before.batches + 1, "one batch per call");
        assert_eq!(
            after.batch_points,
            before.batch_points + points.len() as u64
        );
    }
}
