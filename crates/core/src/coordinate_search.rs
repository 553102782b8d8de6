//! Constrained coordinate search maximizing the linearized yield estimate
//! (paper Eq. 19 and Sec. 5.3).
//!
//! The paper motivates coordinate search over gradient methods because the
//! Monte-Carlo yield estimate is piecewise constant (non-continuous), often
//! exactly 0 over large regions, and strongly non-monotonic (Fig. 5). Each
//! coordinate move scans a grid of candidate values inside the
//! linearized-feasible interval and keeps the best; sweeps repeat until no
//! coordinate improves the estimate.
//!
//! A scan counts all grid values in one pass over the samples
//! ([`crate::ShiftTracker::grid_counts`]): along one coordinate every
//! linearized margin is affine in the value (Eq. 20), so on the ascending
//! grid each sample passes on one contiguous run of grid indices, found by
//! binary search per model and intersected across models. The counts are
//! exactly those of one [`crate::ShiftTracker::estimate_coord`] per value,
//! so the accept rule below sees the same numbers and the search takes the
//! same steps.

use specwise_linalg::DVec;
use specwise_stat::YieldEstimate;

use crate::{LinearConstraints, LinearizedYield, SpecwiseError};

/// Options of the coordinate search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinateSearchOptions {
    /// Candidate values per coordinate scan.
    pub grid_points: usize,
    /// Maximum full sweeps over all coordinates.
    pub max_sweeps: usize,
    /// Minimum pass-count improvement to accept a move.
    pub min_gain: usize,
    /// Optional multiplicative trust region around positive coordinates of
    /// the *starting* point: coordinate `k` may only move within
    /// `[d_start[k]/f, d_start[k]·f]` (ignored for non-positive starts).
    /// The paper relies on the sizing rules alone to keep the
    /// linearizations trustworthy; this cap is an extra safety for
    /// environments with loose constraint sets. `None` disables it.
    pub trust_factor: Option<f64>,
}

impl Default for CoordinateSearchOptions {
    fn default() -> Self {
        CoordinateSearchOptions {
            grid_points: 32,
            max_sweeps: 10,
            min_gain: 1,
            trust_factor: None,
        }
    }
}

/// The coordinate-search optimizer over linearized models.
#[derive(Debug, Clone)]
pub struct CoordinateSearch {
    options: CoordinateSearchOptions,
}

impl CoordinateSearch {
    /// Creates a search with the given options.
    pub fn new(options: CoordinateSearchOptions) -> Self {
        CoordinateSearch { options }
    }

    /// Maximizes `Ȳ(d)` starting from `d_start` subject to the linearized
    /// constraints. Returns the best design found and its estimate.
    ///
    /// # Errors
    ///
    /// Returns [`SpecwiseError::InvalidConfig`] for a zero grid and
    /// propagates dimension errors.
    pub fn run(
        &self,
        model: &LinearizedYield,
        constraints: &LinearConstraints,
        d_start: &DVec,
    ) -> Result<(DVec, YieldEstimate), SpecwiseError> {
        if self.options.grid_points < 2 {
            return Err(SpecwiseError::InvalidConfig {
                reason: "grid_points must be >= 2",
            });
        }
        let n_d = d_start.len();
        let mut tracker = model.tracker(d_start)?;
        let mut best = tracker.estimate();

        for _sweep in 0..self.options.max_sweeps {
            let mut improved = false;
            for k in 0..n_d {
                let d_now = tracker.design().clone();
                let Some((mut lo, mut hi)) = constraints.coord_interval(&d_now, k) else {
                    continue;
                };
                if let Some(factor) = self.options.trust_factor {
                    if d_start[k] > 0.0 {
                        lo = lo.max(d_start[k] / factor);
                        hi = hi.min(d_start[k] * factor);
                    }
                }
                if hi - lo <= 0.0 {
                    continue;
                }
                let values: Vec<f64> = (0..self.options.grid_points)
                    .map(|g| lo + (hi - lo) * g as f64 / (self.options.grid_points - 1) as f64)
                    .collect();
                let counts = tracker.grid_counts(k, &values);
                let mut best_val = d_now[k];
                let mut best_here = best;
                for (&v, &passed) in values.iter().zip(&counts) {
                    let est = YieldEstimate::from_counts(passed, model.n_samples());
                    // Accept strictly better pass counts; on ties prefer the
                    // smaller move (stay near the anchor where the linear
                    // model is trustworthy).
                    let gain = est.passed() as isize - best_here.passed() as isize;
                    if gain >= self.options.min_gain as isize
                        || (gain >= 0 && (v - d_now[k]).abs() < (best_val - d_now[k]).abs() - 1e-15)
                    {
                        best_here = est;
                        best_val = v;
                    }
                }
                if best_val != d_now[k] {
                    tracker.set_coord(k, best_val);
                    if best_here.passed() > best.passed() {
                        improved = true;
                    }
                    best = best_here;
                }
            }
            if !improved {
                break;
            }
        }
        Ok((tracker.design().clone(), best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specwise_ckt::OperatingPoint;
    use specwise_linalg::DMat;
    use specwise_wcd::SpecLinearization;

    fn lin(spec: usize, anchor: f64, grad_s: &[f64], grad_d: &[f64]) -> SpecLinearization {
        SpecLinearization {
            spec,
            mirrored: false,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc: DVec::zeros(grad_s.len()),
            d_f: DVec::zeros(grad_d.len()),
            margin_at_anchor: anchor,
            grad_s: DVec::from_slice(grad_s),
            grad_d: DVec::from_slice(grad_d),
        }
    }

    fn box_constraints(n: usize, lo: f64, hi: f64) -> LinearConstraints {
        LinearConstraints::box_only(&DVec::zeros(n), DVec::filled(n, lo), DVec::filled(n, hi))
    }

    #[test]
    fn maximizes_single_margin() {
        // margin = s0 + d0 over d0 ∈ [−2, 2]: best at d0 = 2.
        let ly = LinearizedYield::new(vec![lin(0, 0.0, &[1.0], &[1.0])], 1, 20_000, 5).unwrap();
        let cs = CoordinateSearch::new(CoordinateSearchOptions::default());
        let (d, y) = cs
            .run(&ly, &box_constraints(1, -2.0, 2.0), &DVec::zeros(1))
            .unwrap();
        assert!((d[0] - 2.0).abs() < 1e-9, "d = {d}");
        assert!(y.value() > 0.97);
    }

    #[test]
    fn balances_competing_specs() {
        // Spec 0: margin = s0 + d0; spec 1: margin = s1 − d0.
        // Symmetric → optimum at d0 = 0 with Ȳ ≈ Φ(0)… the joint optimum of
        // P(Z1 > −d)·P(Z2 > d) is at d = 0.
        let ly = LinearizedYield::new(
            vec![
                lin(0, 1.0, &[1.0, 0.0], &[1.0]),
                lin(1, 1.0, &[0.0, 1.0], &[-1.0]),
            ],
            2,
            40_000,
            7,
        )
        .unwrap();
        let cs = CoordinateSearch::new(CoordinateSearchOptions::default());
        let (d, _) = cs
            .run(&ly, &box_constraints(1, -3.0, 3.0), &DVec::zeros(1))
            .unwrap();
        assert!(d[0].abs() < 0.35, "d = {d}");
    }

    #[test]
    fn respects_linear_constraints() {
        // Yield increases with d0, but constraint caps d0 ≤ 1.
        let ly = LinearizedYield::new(vec![lin(0, 0.0, &[1.0], &[1.0])], 1, 10_000, 3).unwrap();
        let lc = LinearConstraints::new(
            DVec::from_slice(&[1.0]),
            DMat::from_rows(&[&[-1.0]]).unwrap(),
            DVec::zeros(1),
            DVec::filled(1, -5.0),
            DVec::filled(1, 5.0),
        )
        .unwrap();
        let cs = CoordinateSearch::new(CoordinateSearchOptions::default());
        let (d, _) = cs.run(&ly, &lc, &DVec::zeros(1)).unwrap();
        assert!(d[0] <= 1.0 + 1e-9, "d = {d}");
        assert!(d[0] > 0.9, "should push to the constraint boundary: {d}");
    }

    #[test]
    fn two_dimensional_search_converges() {
        // margins: s0 + (d0 − 1), s1 + (d1 + 2)·0.5 — optimum at corner-ish
        // (max both shifts): d0 → hi, d1 → hi.
        let ly = LinearizedYield::new(
            vec![
                lin(0, -1.0, &[1.0, 0.0], &[1.0, 0.0]),
                lin(1, 1.0, &[0.0, 1.0], &[0.0, 0.5]),
            ],
            2,
            20_000,
            9,
        )
        .unwrap();
        let cs = CoordinateSearch::new(CoordinateSearchOptions::default());
        let (d, y) = cs
            .run(&ly, &box_constraints(2, -3.0, 3.0), &DVec::zeros(2))
            .unwrap();
        assert!((d[0] - 3.0).abs() < 1e-9);
        assert!((d[1] - 3.0).abs() < 1e-9);
        // Joint pass probability ≈ Φ(2)·Φ(2.5) ≈ 0.971.
        assert!(y.value() > 0.95, "y = {}", y.value());
    }

    #[test]
    fn zero_yield_plateau_does_not_move() {
        // Hopelessly violated spec that d cannot fix (zero design gradient):
        // the search must terminate and return the start.
        let ly = LinearizedYield::new(vec![lin(0, -100.0, &[1.0], &[0.0])], 1, 5_000, 1).unwrap();
        let cs = CoordinateSearch::new(CoordinateSearchOptions::default());
        let (d, y) = cs
            .run(&ly, &box_constraints(1, -2.0, 2.0), &DVec::zeros(1))
            .unwrap();
        assert_eq!(d[0], 0.0);
        assert_eq!(y.passed(), 0);
    }

    /// The per-value search the interval scan replaced: one
    /// [`ShiftTracker::estimate_coord`] per grid value. Along the way it
    /// checks that [`ShiftTracker::grid_counts`] agrees with that loop at
    /// every coordinate the search visits.
    fn reference_run(
        options: CoordinateSearchOptions,
        model: &LinearizedYield,
        constraints: &LinearConstraints,
        d_start: &DVec,
    ) -> Result<(DVec, YieldEstimate), TestCaseError> {
        let mut tracker = model.tracker(d_start).unwrap();
        let mut best = tracker.estimate();
        for _sweep in 0..options.max_sweeps {
            let mut improved = false;
            for k in 0..d_start.len() {
                let d_now = tracker.design().clone();
                let Some((mut lo, mut hi)) = constraints.coord_interval(&d_now, k) else {
                    continue;
                };
                if let Some(factor) = options.trust_factor {
                    if d_start[k] > 0.0 {
                        lo = lo.max(d_start[k] / factor);
                        hi = hi.min(d_start[k] * factor);
                    }
                }
                if hi - lo <= 0.0 {
                    continue;
                }
                let values: Vec<f64> = (0..options.grid_points)
                    .map(|g| lo + (hi - lo) * g as f64 / (options.grid_points - 1) as f64)
                    .collect();
                let per_value: Vec<usize> = values
                    .iter()
                    .map(|&v| tracker.estimate_coord(k, v).passed())
                    .collect();
                prop_assert_eq!(tracker.grid_counts(k, &values), per_value.clone());
                let mut best_val = d_now[k];
                let mut best_here = best;
                for &v in &values {
                    let est = tracker.estimate_coord(k, v);
                    let gain = est.passed() as isize - best_here.passed() as isize;
                    if gain >= options.min_gain as isize
                        || (gain >= 0 && (v - d_now[k]).abs() < (best_val - d_now[k]).abs() - 1e-15)
                    {
                        best_here = est;
                        best_val = v;
                    }
                }
                if best_val != d_now[k] {
                    tracker.set_coord(k, best_val);
                    if best_here.passed() > best.passed() {
                        improved = true;
                    }
                    best = best_here;
                }
            }
            if !improved {
                break;
            }
        }
        Ok((tracker.design().clone(), best))
    }

    /// A seeded random problem: 1–4 specs over 3 statistical dimensions,
    /// some with a mirrored twin; design-gradient entries drawn from
    /// {0, −0, negative, positive}; with `poison`, one entry non-finite.
    fn random_problem(
        seed: u64,
        n_d: usize,
        poison: bool,
    ) -> (LinearizedYield, LinearConstraints, DVec) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n_s = 3;
        let n_specs = rng.gen_range(1..5usize);
        let d_f = DVec::from_fn(n_d, |_| rng.gen_range(0.5..2.0));
        let mut models = Vec::new();
        for spec in 0..n_specs {
            let grad_s = DVec::from_fn(n_s, |_| rng.gen_range(-1.0..1.0));
            let grad_d = DVec::from_fn(n_d, |_| match rng.gen_range(0..4u32) {
                0 => 0.0,
                1 => -0.0,
                2 => -rng.gen_range(0.1..3.0),
                _ => rng.gen_range(0.1..3.0),
            });
            let m = SpecLinearization {
                spec,
                mirrored: false,
                theta_wc: OperatingPoint::new(25.0, 3.3),
                s_wc: DVec::from_fn(n_s, |_| rng.gen_range(-1.5..1.5)),
                d_f: d_f.clone(),
                margin_at_anchor: rng.gen_range(-1.0..1.0),
                grad_s,
                grad_d,
            };
            if rng.gen_bool(0.4) {
                models.push(m.to_mirrored());
            }
            models.push(m);
        }
        if poison {
            let mi = rng.gen_range(0..models.len());
            let k = rng.gen_range(0..n_d);
            models[mi].grad_d[k] =
                [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
        }
        let model = LinearizedYield::new(models, n_specs, 300, seed).unwrap();
        // Start off the anchor so the starting shifts are non-zero.
        let d_start = DVec::from_fn(n_d, |k| d_f[k] * rng.gen_range(0.8..1.25));
        let n_c = rng.gen_range(0..3usize);
        let constraints = LinearConstraints::new(
            DVec::from_fn(n_c, |_| rng.gen_range(0.0..1.0)),
            DMat::from_fn(n_c, n_d, |_, _| rng.gen_range(-1.0..1.0)),
            d_start.clone(),
            DVec::filled(n_d, 0.1),
            DVec::filled(n_d, 4.0),
        )
        .unwrap();
        (model, constraints, d_start)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn interval_scan_matches_per_value_search(
            seed in 0u64..1_000_000,
            n_d in 1usize..4,
            grid_points in 2usize..40,
            trust in 0u32..3,
            poison in 0u32..4,
        ) {
            let (model, constraints, d_start) = random_problem(seed, n_d, poison == 0);
            let options = CoordinateSearchOptions {
                grid_points,
                trust_factor: [None, Some(1.5), Some(3.0)][trust as usize],
                ..CoordinateSearchOptions::default()
            };
            let (d_ref, y_ref) = reference_run(options, &model, &constraints, &d_start)?;
            let (d, y) = CoordinateSearch::new(options)
                .run(&model, &constraints, &d_start)
                .unwrap();
            let bits = |v: &DVec| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&d), bits(&d_ref));
            prop_assert_eq!(y, y_ref);

            // Descending and unsorted value lists take the other branch and
            // the direct fallback; the counts still match value by value.
            let tracker = model.tracker(&d_start).unwrap();
            let ascending: Vec<f64> = (0..grid_points)
                .map(|g| 0.1 + 3.9 * g as f64 / (grid_points - 1) as f64)
                .collect();
            let descending: Vec<f64> = ascending.iter().rev().copied().collect();
            let unsorted: Vec<f64> = (0..grid_points)
                .map(|g| ascending[(g * 7 + 3) % grid_points])
                .collect();
            for values in [&ascending, &descending, &unsorted] {
                for k in 0..n_d {
                    let per_value: Vec<usize> = values
                        .iter()
                        .map(|&v| tracker.estimate_coord(k, v).passed())
                        .collect();
                    prop_assert_eq!(tracker.grid_counts(k, values), per_value);
                }
            }
        }
    }

    #[test]
    fn non_finite_shift_tables_fall_back_to_direct_tests() {
        // Sample-independent margins (zero statistical gradient), so every
        // sample passes or fails together: counts are 0 or N.
        let n = 200;
        let poisoned = lin(0, 1.0, &[0.0], &[1.0, -f64::INFINITY]);
        let ly = LinearizedYield::new(vec![poisoned, lin(1, 5.0, &[0.0], &[0.5, 0.5])], 2, n, 3)
            .unwrap();
        // d₁ − d_f₁ = 1 puts the poisoned model's shift at −∞.
        let tracker = ly.tracker(&DVec::from_slice(&[0.0, 1.0])).unwrap();
        let check = |k: usize, values: &[f64], want: &[usize]| {
            let per_value: Vec<usize> = values
                .iter()
                .map(|&v| tracker.estimate_coord(k, v).passed())
                .collect();
            assert_eq!(per_value, want, "oracle, coordinate {k}");
            assert_eq!(tracker.grid_counts(k, values), want, "scan, coordinate {k}");
        };
        // Along d₀ the table is −∞ throughout: every value fails.
        check(0, &[-1.0, 0.0, 1.0], &[0, 0, 0]);
        // Along d₁ it is [−∞ + ∞, −∞ + NaN, −∞ − ∞] = [NaN, NaN, −∞]: the
        // NaN entries pass (NaN < 0 is false) and the last one fails.
        check(1, &[0.0, 1.0, 2.0], &[n, n, 0]);
        // An unsorted finite grid gives a non-interval pass set: margin
        // −1 + v passes at v ≥ 1 only.
        let ly = LinearizedYield::new(vec![lin(0, -1.0, &[0.0], &[1.0])], 1, n, 3).unwrap();
        let tracker = ly.tracker(&DVec::zeros(1)).unwrap();
        let values = [2.0, 0.0, 1.0, -3.0, 5.0];
        let per_value: Vec<usize> = values
            .iter()
            .map(|&v| tracker.estimate_coord(0, v).passed())
            .collect();
        assert_eq!(per_value, [n, 0, n, 0, n]);
        assert_eq!(tracker.grid_counts(0, &values), per_value);
    }

    #[test]
    fn rejects_degenerate_grid() {
        let ly = LinearizedYield::new(vec![lin(0, 0.0, &[1.0], &[1.0])], 1, 100, 1).unwrap();
        let mut opts = CoordinateSearchOptions::default();
        opts.grid_points = 1;
        let cs = CoordinateSearch::new(opts);
        assert!(cs
            .run(&ly, &box_constraints(1, -1.0, 1.0), &DVec::zeros(1))
            .is_err());
    }
}
