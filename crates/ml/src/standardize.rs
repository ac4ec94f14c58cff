//! Per-feature standardization (zero mean, unit variance).
//!
//! Logistic regression trained with SGD converges far faster on
//! standardized features; the standardizer is fit on the training set and
//! reapplied verbatim at prediction time.

use serde::{Deserialize, Serialize};

/// Affine per-feature transform `x' = (x - mean) / std`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit on a set of feature vectors (walked twice: means, then
    /// variances).
    ///
    /// Constant features get `std = 1` so they pass through centered but
    /// unscaled. An empty input yields an identity transform of dimension 0.
    pub fn fit<'a>(rows: impl Iterator<Item = &'a [f64]> + Clone) -> Self {
        let dim = rows.clone().next().map_or(0, <[f64]>::len);
        let mut count = 0usize;
        let mut means = vec![0.0; dim];
        for r in rows.clone() {
            count += 1;
            for (m, x) in means.iter_mut().zip(r) {
                *m += x;
            }
        }
        let n = count.max(1) as f64;
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; dim];
        for r in rows {
            for ((v, m), x) in vars.iter_mut().zip(&means).zip(r) {
                let d = x - m;
                *v += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Self { means, stds }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// The transformed components of `x`, one at a time — for a caller that
    /// folds them or lays them into a buffer of its own.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn transformed<'a>(&'a self, x: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        assert_eq!(x.len(), self.dim(), "dimension mismatch");
        x.iter().zip(&self.means).zip(&self.stds).map(|((x, m), s)| (x - m) / s)
    }

    /// Transform one vector, returning a new one.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.transformed(x).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_variance() {
        let rows = [vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let s = Standardizer::fit(rows.iter().map(Vec::as_slice));
        let t: Vec<Vec<f64>> = rows.iter().map(|r| s.apply(r)).collect();
        let mean0: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        let var0: f64 = t.iter().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        assert!((var0 - 1.0).abs() < 1e-12);
        // Constant feature: centered, not scaled.
        assert!(t.iter().all(|r| r[1].abs() < 1e-12));
    }

    #[test]
    fn empty_fit_is_dimension_zero() {
        let s = Standardizer::fit(std::iter::empty());
        assert_eq!(s.dim(), 0);
        assert!(s.apply(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let s = Standardizer::fit([&[1.0][..]].into_iter());
        s.apply(&[1.0, 2.0]);
    }
}
