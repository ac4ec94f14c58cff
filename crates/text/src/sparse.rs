//! Sparse symbol-indexed vectors and the merge-join similarity kernels.
//!
//! These are the interned counterparts of [`crate::bow::BagOfWords`] +
//! [`crate::divergence`] / [`crate::tfidf::cosine_of`]. Because [`Sym`]
//! numeric order equals lexicographic token order (see [`crate::intern`]),
//! iterating the sorted entry vectors visits tokens in exactly the order a
//! `BTreeMap<String, _>` iteration would — every floating-point sum below
//! accumulates its terms in the same sequence as the string-based reference
//! implementation and therefore produces bit-identical scores. The string
//! path stays available precisely so tests can pin that equivalence.

use crate::divergence::MAX_JS;
use crate::intern::{Sym, TokenDoc};

/// A sparse multiset of symbols: entries sorted by [`Sym`] ascending, plus
/// the total count. The interned counterpart of a `BagOfWords`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseCounts {
    entries: Vec<(Sym, u64)>,
    total: u64,
}

impl SparseCounts {
    /// An empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count the tokens of one document.
    pub fn from_doc(doc: &TokenDoc) -> Self {
        Self::from_syms(doc.syms().to_vec())
    }

    /// Count a multiset given as its occurrences, one entry per occurrence
    /// in any order (e.g. the concatenated tokens of many documents).
    pub fn from_syms(mut syms: Vec<Sym>) -> Self {
        syms.sort_unstable();
        let runs = || syms.chunk_by(|a, b| a == b);
        let mut entries: Vec<(Sym, u64)> = Vec::with_capacity(runs().count());
        entries.extend(runs().map(|run| (run[0], run.len() as u64)));
        Self { total: syms.len() as u64, entries }
    }

    /// Build from unordered `(Sym, count)` pairs (e.g. drained from a
    /// `HashMap` accumulator). Entries are sorted here, so the result is
    /// independent of the input order. Zero counts are dropped.
    pub fn from_unsorted(mut pairs: Vec<(Sym, u64)>) -> Self {
        pairs.retain(|&(_, c)| c > 0);
        pairs.sort_unstable_by_key(|&(s, _)| s);
        let total = pairs.iter().map(|&(_, c)| c).sum();
        Self { entries: pairs, total }
    }

    /// Add every token of `doc` to the multiset.
    pub fn add_doc(&mut self, doc: &TokenDoc) {
        if doc.is_empty() {
            return;
        }
        let other = Self::from_doc(doc);
        self.merge(&other);
    }

    /// Merge another multiset into this one.
    pub fn merge(&mut self, other: &SparseCounts) {
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.entries = merged;
        self.total += other.total;
    }

    /// Occurrences of a symbol.
    pub fn count(&self, s: Sym) -> u64 {
        match self.entries.binary_search_by_key(&s, |&(t, _)| t) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Total occurrences (with multiplicity).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct symbols.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Whether the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Empirical probability of a symbol; zero for an empty multiset.
    pub fn probability(&self, s: Sym) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(s) as f64 / self.total as f64
        }
    }

    /// `(Sym, count)` entries, sorted by symbol ascending.
    pub fn entries(&self) -> &[(Sym, u64)] {
        &self.entries
    }
}

/// A sparse `f64` vector: entries sorted by [`Sym`] ascending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    entries: Vec<(Sym, f64)>,
}

impl SparseVec {
    /// A vector from entries already sorted by symbol ascending (debug-
    /// asserted).
    pub fn from_sorted(entries: Vec<(Sym, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries must be sorted");
        Self { entries }
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(Sym, weight)` entries, sorted by symbol ascending.
    pub fn entries(&self) -> &[(Sym, f64)] {
        &self.entries
    }
}

/// Dot product over the shared symbols of two sorted vectors, accumulated in
/// ascending symbol order — the same term sequence as
/// [`crate::tfidf::cosine_of`]'s sorted-probe loop.
///
/// The accumulator starts at `-0.0`, the identity `Iterator::sum::<f64>()`
/// folds from: vectors with no shared symbols must yield the same `-0.0`
/// bit pattern `cosine_of` has always produced for disjoint inputs.
pub fn dot_sparse(a: &SparseVec, b: &SparseVec) -> f64 {
    let (mut i, mut j) = (0, 0);
    let mut dot = -0.0f64;
    while i < a.entries.len() && j < b.entries.len() {
        match a.entries[i].0.cmp(&b.entries[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += a.entries[i].1 * b.entries[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

/// Cosine similarity of two already-normalized sparse vectors, in `[0, 1]`.
/// Bit-identical to [`crate::tfidf::cosine_of`] on equivalent inputs.
pub fn cosine_sparse(a: &SparseVec, b: &SparseVec) -> f64 {
    dot_sparse(a, b).clamp(0.0, 1.0)
}

/// Jensen–Shannon divergence between two count multisets, in `[0, ln 2]`.
/// Bit-identical to [`crate::divergence::jensen_shannon`]: the same two
/// passes (all of `a`'s support, then all of `b`'s), each in ascending token
/// order, with the same per-term expressions.
///
/// A token the other bag lacks costs no `ln`. Its count there is 0, so the
/// reference computes `pm = 0.5 * (p + 0.0)`: `p + 0.0` is `p`, halving a
/// normal `f64` only lowers its exponent (and `p >= 2^-64` is nowhere near
/// subnormal), so `pm` is exactly `p / 2` and the correctly rounded
/// quotient `p / pm` is exactly `2.0`. The reference's term is therefore
/// `0.5 * p * ln(2.0)`, and so is this one, with `ln(2.0)` taken once per
/// call from the same `f64::ln` rather than written as a constant.
pub fn jensen_shannon_counts(a: &SparseCounts, b: &SparseCounts) -> f64 {
    if a.is_empty() || b.is_empty() {
        return MAX_JS;
    }
    let ln_two = 2.0_f64.ln();
    let mut js = 0.0;
    let mut j = 0usize;
    for &(s, ca) in &a.entries {
        while j < b.entries.len() && b.entries[j].0 < s {
            j += 1;
        }
        let pa = ca as f64 / a.total as f64;
        if j < b.entries.len() && b.entries[j].0 == s {
            let pm = 0.5 * (pa + b.entries[j].1 as f64 / b.total as f64);
            js += 0.5 * pa * (pa / pm).ln();
        } else {
            js += 0.5 * pa * ln_two;
        }
    }
    let mut i = 0usize;
    for &(s, cb) in &b.entries {
        while i < a.entries.len() && a.entries[i].0 < s {
            i += 1;
        }
        let pb = cb as f64 / b.total as f64;
        if i < a.entries.len() && a.entries[i].0 == s {
            let pm = 0.5 * (a.entries[i].1 as f64 / a.total as f64 + pb);
            js += 0.5 * pb * (pb / pm).ln();
        } else {
            js += 0.5 * pb * ln_two;
        }
    }
    js.clamp(0.0, MAX_JS)
}

/// Jaccard coefficient over distinct symbol sets, matching
/// [`crate::divergence::jaccard_bags`] (integer intersection/union, so only
/// the final division is floating point).
pub fn jaccard_counts(a: &SparseCounts, b: &SparseCounts) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j) = (0, 0);
    let mut intersection = 0usize;
    while i < a.entries.len() && j < b.entries.len() {
        match a.entries[i].0.cmp(&b.entries[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.distinct() + b.distinct() - intersection;
    intersection as f64 / union as f64
}

/// L1 distance between empirical distributions, in `[0, 2]`. Bit-identical
/// to [`crate::divergence::l1_distance`]: a pass over `a`'s support, then
/// `b`'s tokens missing from `a`, both ascending.
pub fn l1_counts(a: &SparseCounts, b: &SparseCounts) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 2.0;
    }
    let mut sum = 0.0;
    let mut j = 0usize;
    for &(s, ca) in &a.entries {
        while j < b.entries.len() && b.entries[j].0 < s {
            j += 1;
        }
        let cb = if j < b.entries.len() && b.entries[j].0 == s { b.entries[j].1 } else { 0 };
        sum += (ca as f64 / a.total as f64 - cb as f64 / b.total as f64).abs();
    }
    let mut i = 0usize;
    for &(s, cb) in &b.entries {
        while i < a.entries.len() && a.entries[i].0 < s {
            i += 1;
        }
        let present = i < a.entries.len() && a.entries[i].0 == s;
        if !present {
            sum += cb as f64 / b.total as f64;
        }
    }
    sum.clamp(0.0, 2.0)
}

/// Cosine similarity between empirical probability vectors, in `[0, 1]`.
/// Bit-identical to [`crate::divergence::cosine_bags`]: the dot walks the
/// smaller support ascending (absent tokens contribute an exact `0.0`, which
/// the merge-join simply skips — `x + 0.0 == x` for the non-negative sums
/// here), and each norm sums that bag's own support ascending.
pub fn cosine_counts(a: &SparseCounts, b: &SparseCounts) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (small, large) = if a.distinct() <= b.distinct() { (a, b) } else { (b, a) };
    let mut dot = 0.0;
    let mut j = 0usize;
    for &(s, cs) in &small.entries {
        while j < large.entries.len() && large.entries[j].0 < s {
            j += 1;
        }
        if j < large.entries.len() && large.entries[j].0 == s {
            dot +=
                cs as f64 / small.total as f64 * (large.entries[j].1 as f64 / large.total as f64);
        }
    }
    let norm = |x: &SparseCounts| {
        x.entries.iter().map(|&(_, c)| (c as f64 / x.total as f64).powi(2)).sum::<f64>().sqrt()
    };
    (dot / (norm(a) * norm(b))).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bow::BagOfWords;
    use crate::divergence::{cosine_bags, jaccard_bags, jensen_shannon, l1_distance};
    use crate::intern::InternerBuilder;

    /// Build interned counts + reference bags for value lists.
    fn both(values: &[&str]) -> (SparseCounts, BagOfWords) {
        let mut b = InternerBuilder::new();
        let raws: Vec<Vec<u32>> = values.iter().map(|v| b.tokenize(v)).collect();
        let interner = b.finalize();
        let mut counts = SparseCounts::new();
        for raw in &raws {
            counts.add_doc(&interner.doc(raw));
        }
        (counts, BagOfWords::from_values(values.iter().copied()))
    }

    /// A shared-vocabulary pair (both sides interned into one table).
    fn pair(a: &[&str], b: &[&str]) -> (SparseCounts, SparseCounts, BagOfWords, BagOfWords) {
        let mut ib = InternerBuilder::new();
        let ra: Vec<Vec<u32>> = a.iter().map(|v| ib.tokenize(v)).collect();
        let rb: Vec<Vec<u32>> = b.iter().map(|v| ib.tokenize(v)).collect();
        let interner = ib.finalize();
        let mut ca = SparseCounts::new();
        for r in &ra {
            ca.add_doc(&interner.doc(r));
        }
        let mut cb = SparseCounts::new();
        for r in &rb {
            cb.add_doc(&interner.doc(r));
        }
        (
            ca,
            cb,
            BagOfWords::from_values(a.iter().copied()),
            BagOfWords::from_values(b.iter().copied()),
        )
    }

    const CASES: &[(&[&str], &[&str])] = &[
        (&["ata 100", "ide 133", "ide 133", "ata 133"], &["ata 100 mb s", "ide 133 mb s"]),
        (&["5400", "7200", "5400"], &["5400", "7200", "5400"]),
        (&["alpha beta"], &["gamma delta"]),
        (&["größe 42µ écran"], &["écran 42", "größe"]),
        (&["x"], &[]),
        (&[], &[]),
    ];

    #[test]
    fn counts_match_bags() {
        let (counts, bag) = both(&["ATA 100", "IDE 133", "IDE 133", "ATA 133"]);
        assert_eq!(counts.total(), bag.total());
        assert_eq!(counts.distinct(), bag.distinct());
    }

    #[test]
    fn js_bits_match_reference() {
        for &(a, b) in CASES {
            let (ca, cb, ba, bb) = pair(a, b);
            assert_eq!(
                jensen_shannon_counts(&ca, &cb).to_bits(),
                jensen_shannon(&ba, &bb).to_bits(),
                "a={a:?} b={b:?}"
            );
        }
    }

    /// The unshared-token shortcut multiplies by a hoisted `ln(2.0)` and the
    /// result is clamped to `MAX_JS`; a platform where the two disagree
    /// must fail here, loudly, not in a score's last bit. `black_box` keeps
    /// the call a run-time one, as it is in the reference's loop.
    #[test]
    fn runtime_ln_two_is_the_clamp_bound() {
        assert_eq!(std::hint::black_box(2.0_f64).ln().to_bits(), MAX_JS.to_bits());
        assert_eq!(2.0_f64.ln().to_bits(), MAX_JS.to_bits());
        // x / (0.5 * x) is exactly 2 across the range of token probabilities.
        for x in [1.0, 1.0 / 3.0, 0.1, 7.0 / 11.0, 1.0 / u64::MAX as f64, f64::MIN_POSITIVE * 4.0] {
            assert_eq!((x / (0.5 * (x + 0.0_f64))).to_bits(), 2.0_f64.to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn jaccard_bits_match_reference() {
        for &(a, b) in CASES {
            let (ca, cb, ba, bb) = pair(a, b);
            assert_eq!(
                jaccard_counts(&ca, &cb).to_bits(),
                jaccard_bags(&ba, &bb).to_bits(),
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn l1_bits_match_reference() {
        for &(a, b) in CASES {
            let (ca, cb, ba, bb) = pair(a, b);
            assert_eq!(
                l1_counts(&ca, &cb).to_bits(),
                l1_distance(&ba, &bb).to_bits(),
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn cosine_bits_match_reference() {
        for &(a, b) in CASES {
            let (ca, cb, ba, bb) = pair(a, b);
            assert_eq!(
                cosine_counts(&ca, &cb).to_bits(),
                cosine_bags(&ba, &bb).to_bits(),
                "a={a:?} b={b:?}"
            );
        }
    }

    #[test]
    fn from_unsorted_sorts_and_drops_zeros() {
        let c = SparseCounts::from_unsorted(vec![(Sym(5), 2), (Sym(1), 0), (Sym(2), 3)]);
        assert_eq!(c.entries(), &[(Sym(2), 3), (Sym(5), 2)]);
        assert_eq!(c.total(), 5);
        assert_eq!(c.count(Sym(5)), 2);
        assert_eq!(c.count(Sym(1)), 0);
    }

    #[test]
    fn sparse_vec_lookup() {
        let v = SparseVec::from_sorted(vec![(Sym(1), 0.5), (Sym(4), 0.25)]);
        assert_eq!(dot_sparse(&v, &v), 0.5 * 0.5 + 0.25 * 0.25);
    }
}
