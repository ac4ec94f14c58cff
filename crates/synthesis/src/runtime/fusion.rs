//! Value Fusion (Section 4 and Appendix A): pick one representative value
//! per catalog attribute from a cluster of offers.
//!
//! Plain majority voting fails on multi-token textual values ("Windows
//! Vista" vs "Microsoft Windows Vista" vs "Microsoft Vista" — three-way
//! tie). The paper generalizes voting to the term level: build a term
//! vector per value, compute the centroid, and choose the value closest to
//! the centroid in Euclidean distance. In the example, "Microsoft Windows
//! Vista" wins because it contains the terms shared by the other values.
//!
//! [`FusionAccumulator`] is the one fusion kernel: values are pushed in
//! member order and [`FusionAccumulator::finish`] reads the fused value
//! off. A one-shot cluster fusion ([`crate::fuse_cluster`]) and the
//! store's incremental re-fusion both run it. The Appendix A batch
//! formulation (tokenize every value, average the vectors, scan for the
//! nearest) lives on as the reference in `tests/properties.rs`, which
//! holds the accumulator to it bit for bit.

use std::collections::HashMap;

use pse_text::tokenize::for_each_token;
use serde::{Deserialize, Serialize};

/// Which fusion rule the pipeline applies per attribute (the paper uses
/// [`FusionStrategy::CentroidVote`]; the others are ablation baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FusionStrategy {
    /// Appendix A's generalization of majority voting: term-vector
    /// centroid, pick the member value closest to it.
    #[default]
    CentroidVote,
    /// Plain majority voting over exact (surface) values; ties break
    /// lexicographically.
    MajorityExact,
    /// Pick the longest value (a common heuristic: "most informative").
    LongestValue,
    /// Pick the first value encountered (no fusion at all).
    FirstSeen,
}

/// The outcome of fusing one attribute's values.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedValue {
    /// The representative value (one of the inputs, surface form).
    pub value: String,
    /// Number of cluster members that carried this attribute.
    pub support: usize,
    /// Euclidean distance of the chosen value to the term centroid (0 when
    /// all members agree).
    pub distance: f64,
}

/// Term-level generalized majority voting over a value sequence pushed
/// one value at a time (in member order); read the fused result off at
/// any point with [`FusionAccumulator::finish`].
///
/// `finish` returns exactly — value, support, and the f64 `distance` —
/// what the Appendix A batch formulation returns over the pushed
/// sequence (pinned by the `incremental_fusion_matches_batch` proptest).
/// The accumulator keeps per-term containment counts, the distinct
/// surfaces with their multiplicities, and the occurrence sequence as
/// distinct-indices; `finish` computes each distinct value's distance
/// once (`O(distinct × terms)`) and runs the selection loop in
/// occurrence order (`O(values)` float compares, no tokenization). A
/// `pse-store` re-fusion after an ingest batch therefore costs the new
/// members' tokens, not the whole cluster's.
#[derive(Debug, Clone, Default)]
pub struct FusionAccumulator {
    /// First-seen term ids over the pushed sequence.
    term_index: HashMap<String, usize>,
    /// Number of pushed values containing term `d` (duplicates of a
    /// surface each count, so frequency weights the centroid).
    counts: Vec<usize>,
    /// Distinct surfaces in first-seen order, with multiplicity and the
    /// deduplicated term dims any one occurrence vectorizes to.
    distinct: Vec<DistinctValue>,
    /// Surface → index into `distinct`.
    by_value: HashMap<String, usize>,
    /// The occurrence sequence, as indices into `distinct`. Kept so the
    /// selection loop in `finish` visits candidates in occurrence order —
    /// the 1e-12 distance epsilon makes "better than the running best"
    /// order-sensitive in principle, and bit-identity with the reference
    /// is the whole contract.
    seq: Vec<u32>,
}

#[derive(Debug, Clone)]
struct DistinctValue {
    value: String,
    count: usize,
    dims: Vec<usize>,
}

impl FusionAccumulator {
    /// Fold one value occurrence in. Order matters: push in member order.
    pub fn push(&mut self, v: &str) {
        if let Some(&i) = self.by_value.get(v) {
            let d = &mut self.distinct[i];
            d.count += 1;
            // A repeated surface tokenizes to the same dims (term ids are
            // stable once assigned), so skip the tokenizer and bump the
            // containment counts directly.
            for &t in &d.dims {
                self.counts[t] += 1;
            }
            self.seq.push(i as u32);
            return;
        }
        let mut dims = Vec::new();
        let term_index = &mut self.term_index;
        for_each_token(v, |t| {
            let idx = match term_index.get(t) {
                Some(&idx) => idx,
                None => {
                    let next = term_index.len();
                    term_index.insert(t.to_string(), next);
                    next
                }
            };
            if !dims.contains(&idx) {
                dims.push(idx);
            }
        });
        self.counts.resize(self.term_index.len(), 0);
        for &t in &dims {
            self.counts[t] += 1;
        }
        let i = self.distinct.len();
        self.by_value.insert(v.to_string(), i);
        self.distinct.push(DistinctValue { value: v.to_string(), count: 1, dims });
        self.seq.push(i as u32);
    }

    /// Number of values pushed so far (= the `support` `finish` reports).
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether no value has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// The fused value of everything pushed so far under `strategy`, or
    /// `None` before the first push. Centroid-vote ties on distance break
    /// toward the more frequent value, then lexicographically (for
    /// determinism).
    pub fn finish(&self, strategy: FusionStrategy) -> Option<FusedValue> {
        let support = self.seq.len();
        if support == 0 {
            return None;
        }
        match strategy {
            FusionStrategy::CentroidVote => self.finish_centroid(),
            // The three ablation baselines order candidates totally
            // (count/length, then reverse-lexicographic), so the unique
            // maximum over distinct surfaces is the maximum over
            // occurrences.
            FusionStrategy::MajorityExact => self
                .distinct
                .iter()
                .max_by(|a, b| a.count.cmp(&b.count).then(b.value.cmp(&a.value)))
                .map(|d| FusedValue { value: d.value.clone(), support, distance: 0.0 }),
            FusionStrategy::LongestValue => self
                .distinct
                .iter()
                .map(|d| d.value.as_str())
                .max_by(|a, b| a.len().cmp(&b.len()).then(b.cmp(a)))
                .map(|v| FusedValue { value: v.to_string(), support, distance: 0.0 }),
            FusionStrategy::FirstSeen => self.distinct.first().map(|d| FusedValue {
                value: d.value.clone(),
                support,
                distance: 0.0,
            }),
        }
    }

    fn finish_centroid(&self) -> Option<FusedValue> {
        let dim = self.counts.len();
        let n = self.seq.len() as f64;
        // `counts[d]` values are exact in f64 (integers well below 2^53),
        // so `counts[d] / n` is bit-identical to summing one 1.0 per
        // containing value and dividing by n, as Appendix A states it.
        let centroid: Vec<f64> = self.counts.iter().map(|&c| c as f64 / n).collect();
        // One distance per distinct surface, summed in term-id order;
        // duplicate occurrences would recompute the same bits, so sharing
        // is lossless. The membership bitmap is set before and cleared
        // after each distance, so it costs O(1) per probe.
        let mut member = vec![false; dim];
        let dists: Vec<f64> = self
            .distinct
            .iter()
            .map(|dv| {
                for &d in &dv.dims {
                    member[d] = true;
                }
                let mut dist2 = 0.0;
                for (d, c) in centroid.iter().enumerate() {
                    let x = if member[d] { 1.0 } else { 0.0 };
                    dist2 += (x - c) * (x - c);
                }
                for &d in &dv.dims {
                    member[d] = false;
                }
                dist2.sqrt()
            })
            .collect();
        // Select in occurrence order.
        let mut best: Option<(f64, usize, &str)> = None;
        for &i in &self.seq {
            let dv = &self.distinct[i as usize];
            let (dist, count, v) = (dists[i as usize], dv.count, dv.value.as_str());
            let better = match &best {
                None => true,
                Some((bd, bc, bv)) => {
                    dist < bd - 1e-12
                        || ((dist - bd).abs() <= 1e-12
                            && (count > *bc || (count == *bc && v < *bv)))
                }
            };
            if better {
                best = Some((dist, count, v));
            }
        }
        best.map(|(distance, _, value)| FusedValue {
            value: value.to_string(),
            support: self.seq.len(),
            distance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fuse(values: &[&str], strategy: FusionStrategy) -> Option<FusedValue> {
        let mut accum = FusionAccumulator::default();
        for v in values {
            accum.push(v);
        }
        accum.finish(strategy)
    }

    fn vote(values: &[&str]) -> FusedValue {
        fuse(values, FusionStrategy::CentroidVote).expect("non-empty input fuses")
    }

    #[test]
    fn paper_appendix_a_example() {
        // v1 = "Windows Vista", v2 = "Microsoft Windows Vista",
        // v3 = "Microsoft Vista" → centroid (2/3, 2/3, 1), v2 closest.
        let fused = vote(&["Windows Vista", "Microsoft Windows Vista", "Microsoft Vista"]);
        assert_eq!(fused.value, "Microsoft Windows Vista");
        assert!((fused.distance - 0.47).abs() < 0.01, "distance {}", fused.distance);
        assert_eq!(fused.support, 3);
    }

    #[test]
    fn plain_majority_single_token() {
        // Four votes for 1024, one for 2048 (the paper's first example).
        let fused = vote(&["1024", "1024", "1024", "1024", "2048"]);
        assert_eq!(fused.value, "1024");
    }

    #[test]
    fn unanimous_values_have_zero_distance() {
        let fused = vote(&["7200 rpm", "7200 rpm"]);
        assert_eq!(fused.value, "7200 rpm");
        assert!(fused.distance < 1e-12);
    }

    #[test]
    fn single_value_is_returned() {
        let fused = vote(&["500 GB"]);
        assert_eq!(fused.value, "500 GB");
        assert_eq!(fused.support, 1);
    }

    #[test]
    fn empty_input_is_none() {
        assert!(fuse(&[], FusionStrategy::CentroidVote).is_none());
    }

    #[test]
    fn equivalent_tokenizations_vote_together() {
        // "500GB" and "500 GB" have identical token vectors, so together
        // they outvote "250 GB".
        let fused = vote(&["500GB", "500 GB", "250 GB"]);
        assert!(fused.value.contains("500"));
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        let a = vote(&["alpha", "beta"]);
        let b = vote(&["beta", "alpha"]);
        assert_eq!(a.value, b.value);
        assert_eq!(a.value, "alpha", "lexicographic tie-break");
    }

    #[test]
    fn frequency_beats_lexicographic_on_ties() {
        let fused = vote(&["zeta", "zeta", "alpha"]);
        assert_eq!(fused.value, "zeta");
    }

    #[test]
    fn strategies_differ_on_multi_token_values() {
        let values = ["Windows Vista", "Microsoft Windows Vista", "Microsoft Vista"];
        let centroid = fuse(&values, FusionStrategy::CentroidVote).unwrap();
        assert_eq!(centroid.value, "Microsoft Windows Vista");
        // Exact majority has a 3-way tie; lexicographic pick.
        let exact = fuse(&values, FusionStrategy::MajorityExact).unwrap();
        assert_eq!(exact.value, "Microsoft Vista");
        let longest = fuse(&values, FusionStrategy::LongestValue).unwrap();
        assert_eq!(longest.value, "Microsoft Windows Vista");
        let first = fuse(&values, FusionStrategy::FirstSeen).unwrap();
        assert_eq!(first.value, "Windows Vista");
    }

    #[test]
    fn strategies_agree_on_unanimous_values() {
        for strategy in [
            FusionStrategy::CentroidVote,
            FusionStrategy::MajorityExact,
            FusionStrategy::LongestValue,
            FusionStrategy::FirstSeen,
        ] {
            let fused = fuse(&["500 GB", "500 GB"], strategy).unwrap();
            assert_eq!(fused.value, "500 GB", "{strategy:?}");
        }
    }

    #[test]
    fn strategies_handle_empty_input() {
        for strategy in [
            FusionStrategy::CentroidVote,
            FusionStrategy::MajorityExact,
            FusionStrategy::LongestValue,
            FusionStrategy::FirstSeen,
        ] {
            assert!(fuse(&[], strategy).is_none());
        }
    }
}
