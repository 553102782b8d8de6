//! Benchmarks of the linearized-model yield estimator: the Eq. 20
//! incremental coordinate update versus full re-evaluation, scaling with
//! the Monte-Carlo sample count, and one coordinate scan of the search
//! counted value by value versus in one interval pass — the design choices
//! DESIGN.md §5 calls out.
//!
//! Quick mode: set `SPECWISE_BENCH_QUICK=1` to drop the 100,000-sample
//! point (used by the CI smoke job). Gate mode: set `SPECWISE_BENCH_GATE=1`
//! to assert that the interval scan counts a 32-value grid on 10,000
//! samples at least 4x faster than 32 `estimate_coord` calls.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use specwise::LinearizedYield;
use specwise_ckt::OperatingPoint;
use specwise_linalg::DVec;
use specwise_wcd::SpecLinearization;

fn quick() -> bool {
    std::env::var("SPECWISE_BENCH_QUICK").is_ok()
}

/// A synthetic model set shaped like the folded-cascode problem: 7 models
/// (5 specs + 2 mirrored), 27 statistical dimensions, 10 design dimensions.
fn models() -> Vec<SpecLinearization> {
    let n_s = 27;
    let n_d = 10;
    let mut out = Vec::new();
    for spec in 0..5 {
        let grad_s = DVec::from_fn(n_s, |j| ((spec * 7 + j) as f64 * 0.37).sin() * 0.5);
        let grad_d = DVec::from_fn(n_d, |k| ((spec * 3 + k) as f64 * 0.53).cos());
        let s_wc = grad_s.scaled(-1.2);
        let lin = SpecLinearization {
            spec,
            mirrored: false,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc,
            d_f: DVec::zeros(n_d),
            margin_at_anchor: 0.0,
            grad_s,
            grad_d,
        };
        if spec == 2 {
            out.push(lin.to_mirrored());
        }
        out.push(lin);
    }
    out
}

fn bench_estimate_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("linearized_yield_estimate");
    let sizes: &[usize] = if quick() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &n in sizes {
        let model = LinearizedYield::new(models(), 5, n, 7).unwrap();
        let d = DVec::filled(10, 0.3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| model.estimate(&d).unwrap())
        });
    }
    group.finish();
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let model = LinearizedYield::new(models(), 5, 10_000, 7).unwrap();
    let d0 = DVec::zeros(10);

    // Naive baseline: evaluate every full linear model (27-dim statistical
    // dot product) for every sample — what Eq. 20 avoids by storing the
    // per-sample constant parts.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use specwise_stat::StandardNormal;
    let naive_models = models();
    c.bench_function("coord_probe_naive_per_sample_models", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let normal = StandardNormal::new();
            let mut d = d0.clone();
            d[3] = 0.7;
            let mut s = DVec::zeros(27);
            let mut pass = 0usize;
            for _ in 0..10_000 {
                normal.fill(&mut rng, s.as_mut_slice());
                if naive_models.iter().all(|m| m.eval(&d, &s) >= 0.0) {
                    pass += 1;
                }
            }
            pass
        })
    });

    // Eq. 20 path A: precomputed sample parts, design shifts rebuilt per
    // candidate (n_d-length dot products).
    c.bench_function("coord_probe_precomputed_parts", |b| {
        b.iter(|| {
            let mut d = d0.clone();
            d[3] = 0.7;
            model.estimate(&d).unwrap()
        })
    });

    // Eq. 20 path B: additionally update only the moved coordinate's term.
    let tracker = model.tracker(&d0).unwrap();
    c.bench_function("coord_probe_incremental", |b| {
        b.iter(|| tracker.estimate_coord(3, 0.7))
    });
}

/// One coordinate scan as the search runs it: the pass count at each of 32
/// ascending values of one coordinate, on 10,000 samples.
fn bench_coord_scan(c: &mut Criterion) {
    let model = LinearizedYield::new(models(), 5, 10_000, 7).unwrap();
    let tracker = model.tracker(&DVec::zeros(10)).unwrap();
    let k = 3;
    let values: Vec<f64> = (0..32).map(|g| -1.5 + 3.0 * g as f64 / 31.0).collect();
    let per_value = || -> Vec<usize> {
        values
            .iter()
            .map(|&v| tracker.estimate_coord(k, v).passed())
            .collect()
    };
    let interval = || tracker.grid_counts(k, &values);
    assert_eq!(per_value(), interval(), "the two scans must agree");

    let mut group = c.benchmark_group("coord_scan_grid32");
    group.bench_function("per_value", |b| b.iter(per_value));
    group.bench_function("interval", |b| b.iter(interval));
    group.finish();

    // Acceptance gate: the interval scan >= 4x faster than the per-value
    // loop. Opt-in so a loaded CI box only pays for it in the smoke step.
    if std::env::var("SPECWISE_BENCH_GATE").is_ok() {
        let best_of = |f: &dyn Fn() -> Vec<usize>| {
            (0..7)
                .map(|_| {
                    let t0 = Instant::now();
                    criterion::black_box(f());
                    t0.elapsed()
                })
                .min()
                .unwrap_or(Duration::MAX)
        };
        let slow = best_of(&per_value);
        let fast = best_of(&interval);
        let speedup = slow.as_secs_f64() / fast.as_secs_f64();
        println!("gate: per-value {slow:?} / interval {fast:?} = {speedup:.1}x");
        assert!(
            speedup >= 4.0,
            "interval scan must be >= 4x faster than 32 estimate_coord calls, got {speedup:.1}x"
        );
    }
}

fn bench_model_construction(c: &mut Criterion) {
    c.bench_function("model_construction_10k_samples", |b| {
        b.iter(|| LinearizedYield::new(models(), 5, 10_000, 7).unwrap())
    });
}

criterion_group!(
    benches,
    bench_estimate_scaling,
    bench_incremental_vs_full,
    bench_coord_scan,
    bench_model_construction
);
criterion_main!(benches);
