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

use std::hash::{BuildHasher, RandomState};

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
/// `finish` computes each distinct value's distance once
/// (`O(distinct × terms)`) and runs the selection loop in occurrence
/// order (`O(values)` float compares, no tokenization). A `pse-store`
/// re-fusion after an ingest batch therefore costs the new members'
/// tokens, not the whole cluster's.
///
/// The store keeps one accumulator per attribute of every cluster it
/// holds, so the layout is compact: three buffers and no per-value
/// allocation.
///
/// - `text` holds the bytes of every distinct surface and every term,
///   each once; everything else addresses it by `u32` spans.
/// - `terms` is indexed by term id (first-seen order over the pushed
///   sequence): the term's span and how many pushed values contain it
///   (a repeated surface counts each time, so frequency weights the
///   centroid).
/// - `log` is the pushed sequence itself, in `u32` words. The first
///   occurrence of a surface writes its record, `[ndims, start, len,
///   count, dims…]`: its span, its multiplicity so far, and the term ids
///   it vectorizes to, sorted and deduplicated. A repeat writes one
///   word: the record's offset with the top bit set. Keeping the
///   sequence lets the selection loop in `finish` visit candidates in
///   occurrence order: the 1e-12 distance epsilon makes "better than the
///   running best" order-sensitive in principle, and bit-identity with
///   the reference is the whole contract.
///
/// Lookups (surface → record, token → term id) probe linearly while the
/// state is small, which serves the common attribute (the benchmark
/// world averages 1.5 distinct surfaces and 2.3 terms) with no table at
/// all. Past 16 terms or 64 log words a hash index over both takes over,
/// so a push costs `O(k log k)` in its `k` tokens however long an
/// attribute's tail grows.
#[derive(Debug, Clone, Default)]
pub struct FusionAccumulator {
    text: String,
    terms: Vec<Term>,
    log: Vec<u32>,
    index: Option<Box<Index>>,
}

/// Terms past which lookups leave the linear probe for the hash index.
const LINEAR_TERMS: usize = 16;
/// Log words past which the same happens (the surface probe walks the
/// log, repeats included).
const LINEAR_LOG_WORDS: usize = 64;
/// Tag bit of a log word that repeats an earlier surface.
const REPEAT: u32 = 1 << 31;
/// Words of a surface record before its term ids.
const HEADER: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Term {
    start: u32,
    len: u32,
    /// Pushed values containing this term.
    count: u32,
}

/// One distinct surface, read out of its log record.
struct Surface<'a> {
    text: &'a str,
    count: u32,
    dims: &'a [u32],
}

/// A length or offset as a log word; the tag bit stays clear.
fn word(n: usize) -> u32 {
    u32::try_from(n).ok().filter(|&w| w < REPEAT).expect("fusion state past 2^31 words or bytes")
}

/// `(record offset, first occurrence?)` for each push, in push order.
fn walk(log: &[u32]) -> impl Iterator<Item = (usize, bool)> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let w = *log.get(at)?;
        Some(if w & REPEAT != 0 {
            at += 1;
            ((w & !REPEAT) as usize, false)
        } else {
            let record = at;
            at += HEADER + w as usize;
            (record, true)
        })
    })
}

/// The distinct surfaces' record offsets, in first-seen order.
fn records(log: &[u32]) -> impl Iterator<Item = u32> + '_ {
    walk(log).filter(|&(_, first)| first).map(|(rec, _)| rec as u32)
}

fn span(text: &str, start: u32, len: u32) -> &str {
    &text[start as usize..(start + len) as usize]
}

fn term_text<'a>(text: &'a str, terms: &[Term], id: u32) -> &'a str {
    let t = terms[id as usize];
    span(text, t.start, t.len)
}

fn surface_text<'a>(text: &'a str, log: &[u32], record: u32) -> &'a str {
    let r = record as usize;
    span(text, log[r + 1], log[r + 2])
}

impl FusionAccumulator {
    /// Fold one value occurrence in. Order matters: push in member order.
    pub fn push(&mut self, v: &str) {
        if let Some(record) = self.find_surface(v) {
            // A repeated surface tokenizes to the same dims (term ids are
            // stable once assigned), so skip the tokenizer and bump the
            // containment counts directly.
            let r = record as usize;
            self.log[r + 3] += 1;
            let ndims = self.log[r] as usize;
            for &t in &self.log[r + HEADER..r + HEADER + ndims] {
                self.terms[t as usize].count += 1;
            }
            self.log.push(REPEAT | record);
        } else {
            let record = word(self.log.len());
            let r = record as usize;
            let start = word(self.text.len());
            self.text.push_str(v);
            self.log.extend_from_slice(&[0, start, word(v.len()), 1]);
            let Self { text, log, index, .. } = self;
            if let Some(index) = index {
                index.surfaces.insert(record, |rec| surface_text(text, log, rec));
            }
            // `ndims` counts every appended id, so the log stays walkable
            // when a new term builds the index mid-value; the ids are
            // then sorted and deduplicated in place (their order is never
            // read), which keeps a many-token value `O(k log k)`.
            for_each_token(v, |t| {
                let id = self.find_term(t).unwrap_or_else(|| self.add_term(t));
                self.log.push(id);
                self.log[r] += 1;
            });
            let dims = &mut self.log[r + HEADER..];
            dims.sort_unstable();
            let mut kept = 0;
            for i in 0..dims.len() {
                if kept == 0 || dims[i] != dims[kept - 1] {
                    dims[kept] = dims[i];
                    kept += 1;
                }
            }
            self.log.truncate(r + HEADER + kept);
            self.log[r] = word(kept);
            for &t in &self.log[r + HEADER..] {
                self.terms[t as usize].count += 1;
            }
        }
        self.index_if_outgrown();
    }

    fn find_term(&self, t: &str) -> Option<u32> {
        let (text, terms) = (&self.text, &self.terms);
        match &self.index {
            Some(index) => index.terms.get(t, |id| term_text(text, terms, id)),
            None => (0..word(terms.len())).find(|&id| term_text(text, terms, id) == t),
        }
    }

    fn find_surface(&self, v: &str) -> Option<u32> {
        let (text, log) = (&self.text, &self.log);
        match &self.index {
            Some(index) => index.surfaces.get(v, |rec| surface_text(text, log, rec)),
            None => records(log).find(|&rec| surface_text(text, log, rec) == v),
        }
    }

    fn add_term(&mut self, t: &str) -> u32 {
        let id = word(self.terms.len());
        let start = word(self.text.len());
        self.text.push_str(t);
        self.terms.push(Term { start, len: word(t.len()), count: 0 });
        let Self { text, terms, index, .. } = self;
        match index {
            Some(index) => index.terms.insert(id, |id| term_text(text, terms, id)),
            None => self.index_if_outgrown(),
        }
        id
    }

    /// Build the hash index once the linear probe has outgrown its
    /// bounds; afterwards every addition inserts into it.
    fn index_if_outgrown(&mut self) {
        if self.index.is_some()
            || (self.terms.len() <= LINEAR_TERMS && self.log.len() <= LINEAR_LOG_WORDS)
        {
            return;
        }
        let Self { text, terms, log, .. } = self;
        let mut index = Index::default();
        for id in 0..word(terms.len()) {
            index.terms.insert(id, |id| term_text(text, terms, id));
        }
        for rec in records(log) {
            index.surfaces.insert(rec, |rec| surface_text(text, log, rec));
        }
        self.index = Some(Box::new(index));
    }

    /// The distinct surfaces, in first-seen order, each with its log
    /// record's offset.
    fn surfaces(&self) -> impl Iterator<Item = (usize, Surface<'_>)> {
        records(&self.log).map(|rec| (rec as usize, self.surface(rec as usize)))
    }

    fn surface(&self, record: usize) -> Surface<'_> {
        let r = &self.log[record..];
        let ndims = r[0] as usize;
        Surface {
            text: span(&self.text, r[1], r[2]),
            count: r[3],
            dims: &r[HEADER..HEADER + ndims],
        }
    }

    /// Number of values pushed so far (= the `support` `finish` reports).
    pub fn len(&self) -> usize {
        walk(&self.log).count()
    }

    /// Whether no value has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The fused value of everything pushed so far under `strategy`, or
    /// `None` before the first push. Centroid-vote ties on distance break
    /// toward the more frequent value, then lexicographically (for
    /// determinism).
    pub fn finish(&self, strategy: FusionStrategy) -> Option<FusedValue> {
        let support = self.len();
        if support == 0 {
            return None;
        }
        let fused = |value: &str| FusedValue { value: value.to_string(), support, distance: 0.0 };
        match strategy {
            FusionStrategy::CentroidVote => self.finish_centroid(support),
            // The three ablation baselines order candidates totally
            // (count/length, then reverse-lexicographic), so the unique
            // maximum over distinct surfaces is the maximum over
            // occurrences.
            FusionStrategy::MajorityExact => self
                .surfaces()
                .map(|(_, s)| s)
                .max_by(|a, b| a.count.cmp(&b.count).then(b.text.cmp(a.text)))
                .map(|s| fused(s.text)),
            FusionStrategy::LongestValue => self
                .surfaces()
                .map(|(_, s)| s.text)
                .max_by(|a, b| a.len().cmp(&b.len()).then(b.cmp(a)))
                .map(fused),
            FusionStrategy::FirstSeen => self.surfaces().next().map(|(_, s)| fused(s.text)),
        }
    }

    fn finish_centroid(&self, support: usize) -> Option<FusedValue> {
        let n = support as f64;
        // `count / n` is bit-identical to summing one 1.0 per containing
        // value and dividing by n, as Appendix A states it (the counts
        // are exact in f64).
        let centroid: Vec<f64> = self.terms.iter().map(|t| t.count as f64 / n).collect();
        // One distance per distinct surface (indexed by record offset),
        // summed in term-id order; duplicate occurrences would recompute
        // the same bits, so sharing is lossless. The membership bitmap is
        // set before and cleared after each distance, so it costs O(1)
        // per probe.
        let mut member = vec![false; centroid.len()];
        let mut dists = vec![0.0; self.log.len()];
        for (rec, s) in self.surfaces() {
            for &d in s.dims {
                member[d as usize] = true;
            }
            let mut dist2 = 0.0;
            for (d, c) in centroid.iter().enumerate() {
                let x = if member[d] { 1.0 } else { 0.0 };
                dist2 += (x - c) * (x - c);
            }
            for &d in s.dims {
                member[d as usize] = false;
            }
            dists[rec] = f64::sqrt(dist2);
        }
        // Select in occurrence order.
        let mut best: Option<(f64, u32, &str)> = None;
        for (rec, _) in walk(&self.log) {
            let s = self.surface(rec);
            let (dist, count, v) = (dists[rec], s.count, s.text);
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
        best.map(|(distance, _, value)| FusedValue { value: value.to_string(), support, distance })
    }
}

/// Hash indexes over an accumulator's terms and distinct surfaces, built
/// once it outgrows the linear probe. Surfaces come from merchant feeds,
/// so the hash is std's keyed one.
#[derive(Debug, Clone, Default)]
struct Index {
    terms: Table,
    surfaces: Table,
}

/// An open-addressing set of `u32` handles whose string keys live in the
/// accumulator (a slot holds handle + 1; 0 is empty), kept at most half
/// full.
#[derive(Debug, Clone, Default)]
struct Table {
    hasher: RandomState,
    slots: Vec<u32>,
    len: usize,
}

impl Table {
    /// The slot holding `key`, or the empty slot where it would go.
    fn slot<'k>(&self, key: &str, key_of: impl Fn(u32) -> &'k str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(key) as usize & mask;
        while self.slots[i] != 0 && key_of(self.slots[i] - 1) != key {
            i = (i + 1) & mask;
        }
        i
    }

    fn get<'k>(&self, key: &str, key_of: impl Fn(u32) -> &'k str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.slot(key, key_of)].checked_sub(1)
    }

    /// Add a handle whose key is not yet present.
    fn insert<'k>(&mut self, handle: u32, key_of: impl Fn(u32) -> &'k str + Copy) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![0; (2 * self.slots.len()).max(32)];
            let old = std::mem::replace(&mut self.slots, grown);
            for h in old.into_iter().filter_map(|s| s.checked_sub(1)) {
                let i = self.slot(key_of(h), key_of);
                self.slots[i] = h + 1;
            }
        }
        let i = self.slot(key_of(handle), key_of);
        self.slots[i] = handle + 1;
        self.len += 1;
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

    const STRATEGIES: [FusionStrategy; 4] = [
        FusionStrategy::CentroidVote,
        FusionStrategy::MajorityExact,
        FusionStrategy::LongestValue,
        FusionStrategy::FirstSeen,
    ];

    proptest::proptest! {
        /// The hash index answers every lookup as the linear probe does:
        /// an accumulator that indexes from its first push fuses exactly
        /// like one that probes (these inputs stay small enough to).
        #[test]
        fn the_index_and_the_linear_probe_agree(
            values in proptest::collection::vec("[ab 1]{0,5}", 0..12),
        ) {
            let mut probed = FusionAccumulator::default();
            let mut indexed =
                FusionAccumulator { index: Some(Box::default()), ..FusionAccumulator::default() };
            for v in &values {
                probed.push(v);
                indexed.push(v);
            }
            proptest::prop_assert!(probed.index.is_none());
            proptest::prop_assert_eq!(indexed.len(), values.len());
            for strategy in STRATEGIES {
                proptest::prop_assert_eq!(indexed.finish(strategy), probed.finish(strategy));
            }
        }
    }

    #[test]
    fn a_long_tail_builds_the_index_and_still_counts_repeats() {
        let mut accum = FusionAccumulator::default();
        for i in 0..100 {
            accum.push(&format!("common x{i}"));
        }
        for _ in 0..150 {
            accum.push("common");
        }
        accum.push("common x7");
        assert!(accum.index.is_some(), "101 terms outgrow the linear probe");
        assert_eq!(accum.len(), 251);
        assert_eq!(accum.surfaces().count(), 101);
        assert_eq!(accum.terms.len(), 102, "common, x and 100 numbers");
        let fused = accum.finish(FusionStrategy::CentroidVote).unwrap();
        assert_eq!((fused.value.as_str(), fused.support), ("common", 251));
        assert_eq!(accum.finish(FusionStrategy::MajorityExact).unwrap().value, "common");
        assert_eq!(accum.finish(FusionStrategy::FirstSeen).unwrap().value, "common x0");
        assert_eq!(accum.finish(FusionStrategy::LongestValue).unwrap().value, "common x10");
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
