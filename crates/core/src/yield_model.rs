//! Monte-Carlo yield estimation over the spec-wise linear models
//! (paper Eqs. 17–20).
//!
//! A fixed set of `N` standardized samples is drawn once; for each sample
//! and each linear model the *sample part* (everything except the design
//! shift) is precomputed. The parts are stored once, sample-major: row `j`
//! holds sample `j`'s parts of all `m` models contiguously, so every
//! pass/fail count walks memory in order. During the coordinate search only
//! the scalar design shift of each model changes, and for a
//! single-coordinate move only one product is recomputed (Eq. 20).
//!
//! Along one coordinate `k` each model's shift is affine in the value `v`,
//! so over an ascending grid of values a sample's test `part + shift < 0`
//! flips at most once per model: the grid points where a sample passes form
//! one index interval. [`ShiftTracker::grid_counts`] uses this to count a
//! whole coordinate scan in one pass over the samples.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specwise_linalg::DVec;
use specwise_stat::{StandardNormal, YieldEstimate};
use specwise_wcd::SpecLinearization;

use crate::SpecwiseError;

/// A reusable linearized-model yield estimator.
///
/// # Example
///
/// ```
/// use specwise::LinearizedYield;
/// use specwise_ckt::OperatingPoint;
/// use specwise_linalg::DVec;
/// use specwise_wcd::SpecLinearization;
///
/// # fn main() -> Result<(), specwise::SpecwiseError> {
/// // margin = 1 + s0 (one spec, no design dependence): Ȳ = Φ(1) ≈ 84 %.
/// let lin = SpecLinearization {
///     spec: 0,
///     mirrored: false,
///     theta_wc: OperatingPoint::new(25.0, 3.3),
///     s_wc: DVec::from_slice(&[-1.0]),
///     d_f: DVec::from_slice(&[0.0]),
///     margin_at_anchor: 0.0,
///     grad_s: DVec::from_slice(&[1.0]),
///     grad_d: DVec::from_slice(&[0.0]),
/// };
/// let model = LinearizedYield::new(vec![lin], 1, 20_000, 42)?;
/// let y = model.estimate(&DVec::from_slice(&[0.0]))?;
/// assert!((y.value() - 0.8413).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinearizedYield {
    models: Vec<SpecLinearization>,
    /// Sample-major parts: `parts[j * models.len() + m]` is the sample part
    /// of model `m` at sample `j`.
    parts: Vec<f64>,
    n_samples: usize,
    n_specs: usize,
    d_f: DVec,
}

impl LinearizedYield {
    /// Draws `n_samples` standardized samples (seeded) and precomputes the
    /// per-sample constants of every model.
    ///
    /// `n_specs` is the number of distinct specifications (mirrored models
    /// share their spec's index).
    ///
    /// # Errors
    ///
    /// Returns [`SpecwiseError::InvalidConfig`] for an empty model list or
    /// zero samples.
    pub fn new(
        models: Vec<SpecLinearization>,
        n_specs: usize,
        n_samples: usize,
        seed: u64,
    ) -> Result<Self, SpecwiseError> {
        if models.is_empty() {
            return Err(SpecwiseError::InvalidConfig {
                reason: "no linear models supplied",
            });
        }
        if n_samples == 0 {
            return Err(SpecwiseError::InvalidConfig {
                reason: "need at least one sample",
            });
        }
        let n_s = models[0].s_wc.len();
        for m in &models {
            if m.s_wc.len() != n_s || m.grad_s.len() != n_s {
                return Err(SpecwiseError::DimensionMismatch {
                    what: "stat",
                    expected: n_s,
                    found: m.s_wc.len(),
                });
            }
            if m.spec >= n_specs {
                return Err(SpecwiseError::InvalidConfig {
                    reason: "model spec index exceeds n_specs",
                });
            }
        }
        let d_f = models[0].d_f.clone();

        let mut rng = StdRng::seed_from_u64(seed);
        let normal = StandardNormal::new();
        let mut parts = vec![0.0; models.len() * n_samples];
        let mut sample = vec![0.0; n_s];
        let mut scratch = vec![0.0; n_s];
        for row in parts.chunks_exact_mut(models.len()) {
            normal.fill(&mut rng, &mut sample);
            for (part, m) in row.iter_mut().zip(&models) {
                *part = m.sample_part_with(&sample, &mut scratch);
            }
        }
        Ok(LinearizedYield {
            models,
            parts,
            n_samples,
            n_specs,
            d_f,
        })
    }

    /// Like [`LinearizedYield::new`] but with Latin-hypercube stratified
    /// samples (variance reduction; see
    /// [`specwise_stat::latin_hypercube_normal`]).
    ///
    /// # Errors
    ///
    /// Same as [`LinearizedYield::new`].
    pub fn new_lhs(
        models: Vec<SpecLinearization>,
        n_specs: usize,
        n_samples: usize,
        seed: u64,
    ) -> Result<Self, SpecwiseError> {
        // Validate via the standard constructor with a single throwaway
        // sample, then replace the parts with the stratified set.
        let mut base = LinearizedYield::new(models, n_specs, 1, seed)?;
        let n_s = base.models[0].s_wc.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = specwise_stat::latin_hypercube_normal(&mut rng, n_samples, n_s);
        let mut parts = vec![0.0; base.models.len() * n_samples];
        let mut scratch = vec![0.0; n_s];
        for (row, sample) in parts
            .chunks_exact_mut(base.models.len())
            .zip(flat.chunks_exact(n_s))
        {
            for (part, m) in row.iter_mut().zip(&base.models) {
                *part = m.sample_part_with(sample, &mut scratch);
            }
        }
        base.parts = parts;
        base.n_samples = n_samples;
        Ok(base)
    }

    /// Number of Monte-Carlo samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// The linear models in use.
    pub fn models(&self) -> &[SpecLinearization] {
        &self.models
    }

    /// The anchor design point `d_f` shared by all models.
    pub fn anchor(&self) -> &DVec {
        &self.d_f
    }

    /// Design shifts of every model at `d`.
    fn shifts(&self, d: &DVec) -> Result<DVec, SpecwiseError> {
        if d.len() != self.d_f.len() {
            return Err(SpecwiseError::DimensionMismatch {
                what: "design",
                expected: self.d_f.len(),
                found: d.len(),
            });
        }
        Ok(self.models.iter().map(|m| m.design_shift(d)).collect())
    }

    /// Yield estimate `Ȳ(d)` (paper Eq. 17): the fraction of samples whose
    /// linearized margins are all non-negative.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `d` has the wrong length.
    pub fn estimate(&self, d: &DVec) -> Result<YieldEstimate, SpecwiseError> {
        let shifts = self.shifts(d)?;
        Ok(YieldEstimate::from_counts(
            self.count_passing(&shifts),
            self.n_samples,
        ))
    }

    /// Yield estimate from precomputed shifts (used by the coordinate
    /// search's incremental path).
    pub(crate) fn estimate_with_shifts(&self, shifts: &DVec) -> YieldEstimate {
        YieldEstimate::from_counts(self.count_passing(shifts), self.n_samples)
    }

    /// Sample-major rows of parts, one row of all models per sample.
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.parts.chunks_exact(self.models.len())
    }

    pub(crate) fn count_passing(&self, shifts: &DVec) -> usize {
        self.rows()
            .filter(|row| row.iter().zip(shifts.iter()).all(|(p, s)| !(p + s < 0.0)))
            .count()
    }

    /// Per-spec failing ("bad") sample counts at `d` — a sample is bad for
    /// spec `i` when *any* model of spec `i` (the primary or a mirrored
    /// twin) is negative. This is the "bad samples \[‰\]" row of the
    /// paper's tables.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `d` has the wrong length.
    pub fn bad_samples_per_spec(&self, d: &DVec) -> Result<Vec<usize>, SpecwiseError> {
        let shifts = self.shifts(d)?;
        let mut bad = vec![0usize; self.n_specs];
        let mut fails = vec![false; self.n_specs];
        for row in self.rows() {
            fails.fill(false);
            for ((p, s), m) in row.iter().zip(shifts.iter()).zip(&self.models) {
                if p + s < 0.0 {
                    fails[m.spec] = true;
                }
            }
            for (count, &f) in bad.iter_mut().zip(&fails) {
                *count += usize::from(f);
            }
        }
        Ok(bad)
    }

    /// Per-spec bad counts expressed per mille.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `d` has the wrong length.
    pub fn bad_per_mille(&self, d: &DVec) -> Result<Vec<f64>, SpecwiseError> {
        Ok(self
            .bad_samples_per_spec(d)?
            .into_iter()
            .map(|b| 1000.0 * b as f64 / self.n_samples as f64)
            .collect())
    }

    /// Starts an incremental shift tracker at design `d` (usually `d_f`).
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `d` has the wrong length.
    pub fn tracker(&self, d: &DVec) -> Result<ShiftTracker<'_>, SpecwiseError> {
        let shifts = self.shifts(d)?;
        Ok(ShiftTracker {
            model: self,
            d: d.clone(),
            shifts,
        })
    }
}

/// Incremental design-shift state for the coordinate search: moving one
/// coordinate updates each model's shift with a single multiply-add
/// (paper Eq. 20).
#[derive(Debug, Clone)]
pub struct ShiftTracker<'m> {
    model: &'m LinearizedYield,
    d: DVec,
    shifts: DVec,
}

impl ShiftTracker<'_> {
    /// Current design point.
    pub fn design(&self) -> &DVec {
        &self.d
    }

    /// Yield estimate at the current design point.
    pub fn estimate(&self) -> YieldEstimate {
        self.model.estimate_with_shifts(&self.shifts)
    }

    /// Yield estimate if coordinate `k` were moved to `value` (does not
    /// commit the move).
    pub fn estimate_coord(&self, k: usize, value: f64) -> YieldEstimate {
        let mut shifts = self.shifts.clone();
        for (mi, m) in self.model.models.iter().enumerate() {
            shifts[mi] += m.grad_d[k] * (value - self.d[k]);
        }
        self.model.estimate_with_shifts(&shifts)
    }

    /// Pass counts if coordinate `k` were moved to each of `values` (does
    /// not commit a move): `counts[g]` equals
    /// `self.estimate_coord(k, values[g]).passed()` exactly.
    ///
    /// Each model's shift at every value is computed with the same float
    /// expression as [`ShiftTracker::estimate_coord`]. When that shift
    /// table is finite and monotone — the case for an ascending grid and a
    /// finite gradient — the values where a sample passes the model form one
    /// contiguous index range, found by binary search. A sample's ranges are
    /// intersected model by model (stopping once empty) and accumulated in a
    /// difference array, so a scan costs at most about `N·m·log₂(values)`
    /// tests instead of `N·m·values`. A model whose table is not monotone (a
    /// non-finite gradient or shift, or an unsorted `values`) is tested
    /// directly at every value left in the sample's range.
    pub fn grid_counts(&self, k: usize, values: &[f64]) -> Vec<usize> {
        let n_g = values.len();
        if n_g == 0 {
            return Vec::new();
        }
        let mut tables = Vec::with_capacity(self.model.models.len() * n_g);
        // Per model: `Some(true)` pass range is a suffix (table ascending),
        // `Some(false)` a prefix (descending), `None` test every value.
        let mut order = Vec::with_capacity(self.model.models.len());
        for (mi, m) in self.model.models.iter().enumerate() {
            let start = tables.len();
            tables.extend(
                values
                    .iter()
                    .map(|&v| self.shifts[mi] + m.grad_d[k] * (v - self.d[k])),
            );
            let t = &tables[start..];
            order.push(if t.iter().any(|x| !x.is_finite()) {
                None
            } else if t.windows(2).all(|w| w[0] <= w[1]) {
                Some(true)
            } else if t.windows(2).all(|w| w[0] >= w[1]) {
                Some(false)
            } else {
                None
            });
        }
        let direct: Vec<usize> = (0..order.len()).filter(|&mi| order[mi].is_none()).collect();
        let mut diff = vec![0isize; n_g + 1];
        for row in self.model.rows() {
            let (mut lo, mut hi) = (0, n_g);
            for ((&p, t), ascending) in row.iter().zip(tables.chunks_exact(n_g)).zip(&order) {
                // Most samples pass a model over the whole remaining range,
                // so test the range's weakest end before searching.
                match ascending {
                    Some(true) if p + t[lo] < 0.0 => {
                        lo += 1 + t[lo + 1..hi].partition_point(|&x| p + x < 0.0);
                    }
                    Some(false) if p + t[hi - 1] < 0.0 => {
                        hi = lo + t[lo..hi - 1].partition_point(|&x| !(p + x < 0.0));
                    }
                    _ => continue,
                }
                if lo >= hi {
                    break;
                }
            }
            if direct.is_empty() {
                if lo < hi {
                    diff[lo] += 1;
                    diff[hi] -= 1;
                }
                continue;
            }
            for g in lo..hi {
                if direct
                    .iter()
                    .all(|&mi| !(row[mi] + tables[mi * n_g + g] < 0.0))
                {
                    diff[g] += 1;
                    diff[g + 1] -= 1;
                }
            }
        }
        let mut running = 0isize;
        diff[..n_g]
            .iter()
            .map(|&d| {
                running += d;
                running as usize
            })
            .collect()
    }

    /// Commits a coordinate move.
    pub fn set_coord(&mut self, k: usize, value: f64) {
        for (mi, m) in self.model.models.iter().enumerate() {
            self.shifts[mi] += m.grad_d[k] * (value - self.d[k]);
        }
        self.d[k] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::OperatingPoint;

    fn lin(
        spec: usize,
        anchor: f64,
        grad_s: &[f64],
        grad_d: &[f64],
        s_wc: &[f64],
    ) -> SpecLinearization {
        SpecLinearization {
            spec,
            mirrored: false,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc: DVec::from_slice(s_wc),
            d_f: DVec::from_slice(&[0.0; 2][..grad_d.len()]),
            margin_at_anchor: anchor,
            grad_s: DVec::from_slice(grad_s),
            grad_d: DVec::from_slice(grad_d),
        }
    }

    #[test]
    fn matches_analytic_gaussian_probability() {
        // margin = 2 + s0 → pass prob Φ(2) ≈ 0.97725.
        let m = lin(0, 0.0, &[1.0], &[0.0], &[-2.0]);
        let ly = LinearizedYield::new(vec![m], 1, 50_000, 7).unwrap();
        let y = ly.estimate(&DVec::from_slice(&[0.0])).unwrap();
        assert!((y.value() - 0.97725).abs() < 0.005, "y = {}", y.value());
    }

    #[test]
    fn design_shift_moves_yield() {
        // margin = s0 + d0: at d0 = 0 yield 50 %, at d0 = 3 yield ≈ 99.9 %.
        let m = lin(0, 0.0, &[1.0], &[1.0], &[0.0]);
        let ly = LinearizedYield::new(vec![m], 1, 50_000, 3).unwrap();
        let y0 = ly.estimate(&DVec::from_slice(&[0.0])).unwrap().value();
        let y3 = ly.estimate(&DVec::from_slice(&[3.0])).unwrap().value();
        assert!((y0 - 0.5).abs() < 0.01);
        assert!(y3 > 0.99);
    }

    #[test]
    fn tracker_matches_direct_estimate() {
        let m0 = lin(0, 0.5, &[1.0, 0.0], &[1.0, -0.5], &[0.0, 0.0]);
        let m1 = lin(1, 1.0, &[0.3, -0.8], &[0.0, 2.0], &[0.0, 0.0]);
        let ly = LinearizedYield::new(vec![m0, m1], 2, 20_000, 11).unwrap();
        let mut tr = ly.tracker(&DVec::from_slice(&[0.0, 0.0])).unwrap();
        let d_target = DVec::from_slice(&[1.5, -0.7]);
        // Probe without committing.
        let probe = tr.estimate_coord(0, 1.5);
        tr.set_coord(0, 1.5);
        assert_eq!(probe.value(), tr.estimate().value());
        tr.set_coord(1, -0.7);
        let direct = ly.estimate(&d_target).unwrap();
        assert_eq!(tr.estimate().value(), direct.value());
    }

    #[test]
    fn mirrored_pair_models_joint_failure() {
        // Quadratic-like margin modeled by two opposing hyperplanes: pass
        // region |s0| ≤ 1. Yield ≈ P(|Z| ≤ 1) ≈ 0.6827.
        let a = lin(0, 0.0, &[-1.0], &[0.0], &[1.0]);
        let b = a.to_mirrored();
        let ly = LinearizedYield::new(vec![a, b], 1, 50_000, 19).unwrap();
        let y = ly.estimate(&DVec::from_slice(&[0.0])).unwrap().value();
        assert!((y - 0.6827).abs() < 0.01, "y = {y}");
    }

    #[test]
    fn bad_sample_counting_per_spec() {
        // Spec 0 always passes, spec 1 passes half the time.
        let m0 = lin(0, 100.0, &[1.0], &[0.0], &[0.0]);
        let m1 = lin(1, 0.0, &[1.0], &[0.0], &[0.0]);
        let ly = LinearizedYield::new(vec![m0, m1], 2, 20_000, 23).unwrap();
        let bad = ly.bad_per_mille(&DVec::from_slice(&[0.0])).unwrap();
        assert!(bad[0] < 1e-9);
        assert!((bad[1] - 500.0).abs() < 20.0, "bad1 = {}", bad[1]);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(LinearizedYield::new(vec![], 0, 100, 1).is_err());
        let m = lin(0, 0.0, &[1.0], &[0.0], &[0.0]);
        assert!(LinearizedYield::new(vec![m.clone()], 1, 0, 1).is_err());
        let ly = LinearizedYield::new(vec![m], 1, 100, 1).unwrap();
        assert!(ly.estimate(&DVec::zeros(3)).is_err());
    }

    #[test]
    fn lhs_estimate_is_tighter_across_seeds() {
        // margin = 1 + s0: yield Φ(1). Compare the spread of the estimate
        // over seeds for iid vs Latin-hypercube sampling.
        let m = lin(0, 0.0, &[1.0], &[0.0], &[-1.0]);
        let spread = |lhs: bool| -> f64 {
            let trials = 25;
            let vals: Vec<f64> = (0..trials)
                .map(|seed| {
                    let ly = if lhs {
                        LinearizedYield::new_lhs(vec![m.clone()], 1, 400, seed).unwrap()
                    } else {
                        LinearizedYield::new(vec![m.clone()], 1, 400, seed).unwrap()
                    };
                    ly.estimate(&DVec::from_slice(&[0.0])).unwrap().value()
                })
                .collect();
            let mean = vals.iter().sum::<f64>() / trials as f64;
            (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / trials as f64).sqrt()
        };
        let sd_lhs = spread(true);
        let sd_iid = spread(false);
        assert!(
            sd_lhs < 0.5 * sd_iid,
            "LHS spread {sd_lhs} should clearly beat iid spread {sd_iid}"
        );
    }

    #[test]
    fn lhs_matches_analytic_probability() {
        let m = lin(0, 0.0, &[1.0], &[0.0], &[-2.0]);
        let ly = LinearizedYield::new_lhs(vec![m], 1, 20_000, 7).unwrap();
        let y = ly.estimate(&DVec::from_slice(&[0.0])).unwrap();
        assert!((y.value() - 0.97725).abs() < 0.003, "y = {}", y.value());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = lin(0, 0.0, &[1.0], &[0.5], &[-1.0]);
        let a = LinearizedYield::new(vec![m.clone()], 1, 5_000, 99).unwrap();
        let b = LinearizedYield::new(vec![m], 1, 5_000, 99).unwrap();
        let d = DVec::from_slice(&[0.3]);
        assert_eq!(a.estimate(&d).unwrap(), b.estimate(&d).unwrap());
    }
}
