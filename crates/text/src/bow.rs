//! Bags of words over attribute values, keyed by token text. Reference
//! only — production code counts interned symbols
//! ([`crate::sparse::SparseCounts`]); the tests listed in the crate docs pin
//! the two together.
//!
//! Section 3.1 of the paper: *"We use a bag of words to collect the values of
//! each attribute in catalog products as well as for merchant offer
//! specifications."* A bag records how often each token occurs; dividing by
//! the total yields the empirical distribution `p_A(t)` that feeds the
//! Jensen–Shannon divergence feature.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::tokenize::tokens;

/// A multiset of tokens with cheap insertion and total-count tracking.
///
/// Backed by a `BTreeMap` so iteration is in sorted token order: the
/// floating-point sums computed over bags (JS divergence, TF-IDF cosines)
/// accumulate in a fixed order, which makes every score bit-reproducible
/// across runs and thread counts. A `HashMap` would randomize summation
/// order per bag instance and leak last-bit differences into scores.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BagOfWords {
    counts: BTreeMap<String, u64>,
    total: u64,
}

impl BagOfWords {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a bag from an iterator of raw (untokenized) values.
    pub fn from_values<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut bag = Self::new();
        for v in values {
            bag.add_value(v.as_ref());
        }
        bag
    }

    /// Tokenize `value` and add every token to the bag.
    pub fn add_value(&mut self, value: &str) {
        for t in tokens(value) {
            self.add_token(t);
        }
    }

    /// Add a single (already-normalized) token.
    pub fn add_token(&mut self, token: String) {
        *self.counts.entry(token).or_insert(0) += 1;
        self.total += 1;
    }

    /// Merge another bag into this one.
    pub fn merge(&mut self, other: &BagOfWords) {
        for (t, c) in &other.counts {
            *self.counts.entry(t.clone()).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Number of occurrences of `token`.
    pub fn count(&self, token: &str) -> u64 {
        self.counts.get(token).copied().unwrap_or(0)
    }

    /// Total number of token occurrences (with multiplicity).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct tokens.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Whether the bag holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Empirical probability of `token`: count / total. Zero for an empty bag.
    pub fn probability(&self, token: &str) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(token) as f64 / self.total as f64
        }
    }

    /// Iterate over `(token, count)` pairs in sorted token order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(t, c)| (t.as_str(), *c))
    }

    /// The set of distinct tokens, for Jaccard-style comparisons.
    pub fn token_set(&self) -> impl Iterator<Item = &str> {
        self.counts.keys().map(|s| s.as_str())
    }
}

impl<S: AsRef<str>> FromIterator<S> for BagOfWords {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        Self::from_values(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_totals() {
        let bag = BagOfWords::from_values(["ATA 100", "IDE 133", "IDE 133", "ATA 133"]);
        assert_eq!(bag.count("ata"), 2);
        assert_eq!(bag.count("ide"), 2);
        assert_eq!(bag.count("133"), 3);
        assert_eq!(bag.count("100"), 1);
        assert_eq!(bag.total(), 8);
        assert_eq!(bag.distinct(), 4);
    }

    #[test]
    fn probability_sums_to_one() {
        let bag = BagOfWords::from_values(["5400", "7200", "5400", "7200"]);
        let sum: f64 = bag.iter().map(|(t, _)| bag.probability(t)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bag_probability_is_zero() {
        let bag = BagOfWords::new();
        assert!(bag.is_empty());
        assert_eq!(bag.probability("x"), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = BagOfWords::from_values(["x y"]);
        let b = BagOfWords::from_values(["y z"]);
        a.merge(&b);
        assert_eq!(a.count("x"), 1);
        assert_eq!(a.count("y"), 2);
        assert_eq!(a.count("z"), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn from_iterator_collects() {
        let bag: BagOfWords = ["a", "b", "a"].into_iter().collect();
        assert_eq!(bag.count("a"), 2);
    }
}
