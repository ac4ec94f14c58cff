//! Binary logistic regression trained with mini-batch SGD and L2
//! regularization.
//!
//! This is the classifier of Section 3.2 of the paper: it consumes the six
//! distributional-similarity features of Table 1 and predicts whether a
//! candidate `⟨Ap, Ao, M, C⟩` tuple is a valid attribute correspondence.
//! The predicted probability doubles as the score θ used for the
//! precision-at-coverage evaluation of Section 5.2.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::standardize::Standardizer;

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Initial learning rate; decays as `lr / (1 + epoch * decay)`.
    pub learning_rate: f64,
    /// Learning-rate decay factor per epoch.
    pub decay: f64,
    /// L2 regularization strength (applied to weights, not the intercept).
    pub l2: f64,
    /// Seed for the per-epoch shuffle.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 60, learning_rate: 0.3, decay: 0.05, l2: 1e-4, seed: 0xC0FFEE }
    }
}

/// A trained binary logistic-regression model with built-in feature
/// standardization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    intercept: f64,
    standardizer: Standardizer,
}

impl LogisticRegression {
    /// Train on a dataset.
    ///
    /// The standardized rows sit in one buffer of stride `dim` and the
    /// labels in a `Vec<f64>`: an epoch visits the examples in shuffled
    /// order, so with a `Vec` per row every update would start with a cache
    /// miss on a pointer. The update itself is the textbook one, operation
    /// for operation (`tests/properties.rs` holds it to that by bits).
    ///
    /// # Panics
    /// Panics when the dataset is empty.
    pub fn train(data: &Dataset, config: &TrainConfig) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let standardizer = Standardizer::fit(data.rows());
        let dim = data.dim();
        let mut rows: Vec<f64> = Vec::with_capacity(data.len() * dim);
        for r in data.rows() {
            rows.extend(standardizer.transformed(r));
        }
        let labels: Vec<f64> = data.labels().iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        let mut weights = vec![0.0f64; dim];
        let mut intercept = 0.0f64;
        let n = labels.len() as f64;

        for epoch in 0..config.epochs {
            let lr = config.learning_rate / (1.0 + epoch as f64 * config.decay);
            let order = data.shuffled_indices(config.seed.wrapping_add(epoch as u64));
            for i in order {
                let x = &rows[i * dim..(i + 1) * dim];
                let p = sigmoid(dot(&weights, x) + intercept);
                let err = p - labels[i];
                for (w, xi) in weights.iter_mut().zip(x) {
                    *w -= lr * (err * xi + config.l2 * *w / n);
                }
                intercept -= lr * err;
            }
        }
        Self { weights, intercept, standardizer }
    }

    /// Predicted probability that `features` is a positive example.
    ///
    /// # Panics
    /// Panics on feature-dimension mismatch.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        let x = self.standardizer.transformed(features);
        sigmoid(self.weights.iter().zip(x).map(|(w, x)| w * x).sum::<f64>() + self.intercept)
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= 0.5
    }

    /// Learned weights (in standardized feature space).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Mean log-loss over a dataset.
    pub fn log_loss(&self, data: &Dataset) -> f64 {
        let eps = 1e-12;
        let mut sum = 0.0;
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            let p = self.predict_proba(x).clamp(eps, 1.0 - eps);
            sum -= if y { p.ln() } else { (1.0 - p).ln() };
        }
        sum / data.len().max(1) as f64
    }

    /// Accuracy over a dataset at threshold 0.5.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = (0..data.len())
            .filter(|&i| {
                let (x, y) = data.example(i);
                self.predict(x) == y
            })
            .count();
        correct as f64 / data.len() as f64
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn linearly_separable(n: usize, seed: u64) -> Dataset {
        // y = 1 iff x0 + x1 > 1.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x0: f64 = rng.random();
            let x1: f64 = rng.random();
            d.push(&[x0, x1], x0 + x1 > 1.0);
        }
        d
    }

    #[test]
    fn learns_linearly_separable_data() {
        let train = linearly_separable(500, 1);
        let test = linearly_separable(200, 2);
        let model = LogisticRegression::train(&train, &TrainConfig::default());
        assert!(model.accuracy(&test) > 0.95, "accuracy={}", model.accuracy(&test));
    }

    #[test]
    fn probabilities_are_calibrated_ordering() {
        let train = linearly_separable(500, 3);
        let model = LogisticRegression::train(&train, &TrainConfig::default());
        // Deep in the positive region > boundary > deep negative.
        let hi = model.predict_proba(&[0.9, 0.9]);
        let mid = model.predict_proba(&[0.5, 0.5]);
        let lo = model.predict_proba(&[0.1, 0.1]);
        assert!(hi > mid && mid > lo, "hi={hi} mid={mid} lo={lo}");
        assert!(hi > 0.9);
        assert!(lo < 0.1);
    }

    #[test]
    fn more_epochs_do_not_hurt_loss() {
        let data = linearly_separable(300, 4);
        let short =
            LogisticRegression::train(&data, &TrainConfig { epochs: 2, ..TrainConfig::default() });
        let long =
            LogisticRegression::train(&data, &TrainConfig { epochs: 80, ..TrainConfig::default() });
        assert!(long.log_loss(&data) <= short.log_loss(&data) + 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn handles_single_class_gracefully() {
        let mut d = Dataset::new();
        for i in 0..20 {
            d.push(&[i as f64], true);
        }
        let model = LogisticRegression::train(&d, &TrainConfig::default());
        assert!(model.predict_proba(&[5.0]) > 0.9);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        LogisticRegression::train(&Dataset::new(), &TrainConfig::default());
    }
}
