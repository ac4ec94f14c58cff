//! Labeled feature-vector datasets.

use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A dense dataset of feature vectors with binary labels. The vectors sit
/// back to back in one buffer of stride [`Dataset::dim`], so building a
/// set of a hundred thousand examples is not a hundred thousand
/// allocations.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    features: Vec<f64>,
    dim: usize,
    labels: Vec<bool>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one example.
    ///
    /// # Panics
    /// Panics when the feature dimension differs from previous examples.
    pub fn push(&mut self, features: &[f64], label: bool) {
        if self.labels.is_empty() {
            self.dim = features.len();
        }
        assert_eq!(self.dim, features.len(), "inconsistent feature dimension");
        self.features.extend_from_slice(features);
        self.labels.push(label);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension (0 for an empty dataset).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of positive examples.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|l| **l).count()
    }

    /// Example accessors.
    pub fn example(&self, i: usize) -> (&[f64], bool) {
        (&self.features[i * self.dim..(i + 1) * self.dim], self.labels[i])
    }

    /// All feature vectors, in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> + Clone {
        (0..self.len()).map(|i| self.example(i).0)
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Deterministically shuffled index order for SGD epochs.
    pub fn shuffled_indices(&self, seed: u64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        idx
    }

    /// Split into `(train, test)` with the given test fraction, shuffling
    /// deterministically by `seed`.
    pub fn split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        let idx = self.shuffled_indices(seed);
        let n_test = ((self.len() as f64) * test_fraction.clamp(0.0, 1.0)).round() as usize;
        let mut train = Dataset::new();
        let mut test = Dataset::new();
        for (k, &i) in idx.iter().enumerate() {
            let (f, l) = self.example(i);
            if k < n_test {
                test.push(f, l);
            } else {
                train.push(f, l);
            }
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(&[i as f64, 1.0], i % 2 == 0);
        }
        d
    }

    #[test]
    fn basic_accessors() {
        let d = sample();
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.positives(), 5);
        assert_eq!(d.example(1), (&[1.0, 1.0][..], false));
    }

    #[test]
    fn split_partitions_examples() {
        let d = sample();
        let (train, test) = d.split(0.3, 1);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.dim(), 2);
    }

    #[test]
    fn shuffle_is_deterministic() {
        let d = sample();
        assert_eq!(d.shuffled_indices(9), d.shuffled_indices(9));
        assert_ne!(d.shuffled_indices(9), d.shuffled_indices(10));
    }

    #[test]
    #[should_panic(expected = "inconsistent feature dimension")]
    fn dimension_mismatch_panics() {
        let mut d = sample();
        d.push(&[1.0], true);
    }
}
