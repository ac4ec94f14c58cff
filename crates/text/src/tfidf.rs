//! TF-IDF weighting and cosine similarity.
//!
//! [`InternedCorpus`] is the production kernel: the COMA++-style instance
//! matcher, the bootstrap title matcher, the search index and
//! [`crate::softtfidf`] all weight through it. [`TfIdfCorpus`] /
//! [`cosine_of`] are the string-keyed reference the tests pin it to.

use std::collections::{BTreeMap, HashMap};

use crate::bow::BagOfWords;
use crate::intern::{Interner, Sym};
use crate::sparse::{SparseCounts, SparseVec};
use crate::tokenize::for_each_token;

/// Corpus-level document-frequency statistics for IDF computation, keyed by
/// token text. Reference only — production code uses [`InternedCorpus`];
/// `tests/interned_equivalence.rs` pins the two bit-for-bit.
///
/// A "document" is whatever unit the caller chooses — for attribute matching
/// it is the full value corpus of one attribute.
#[derive(Debug, Clone, Default)]
pub struct TfIdfCorpus {
    doc_freq: HashMap<String, u32>,
    num_docs: u32,
}

impl TfIdfCorpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one document given as a bag of tokens. Each distinct token
    /// increments its document frequency once.
    pub fn add_document(&mut self, bag: &BagOfWords) {
        self.num_docs += 1;
        for t in bag.token_set() {
            *self.doc_freq.entry(t.to_string()).or_insert(0) += 1;
        }
    }

    /// Number of registered documents.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Smoothed inverse document frequency:
    /// `ln((1 + N) / (1 + df)) + 1`, always positive.
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.doc_freq.get(token).copied().unwrap_or(0);
        (((1 + self.num_docs) as f64) / ((1 + df) as f64)).ln() + 1.0
    }

    /// TF-IDF vector of a bag, as a token → weight map (tf is the raw count,
    /// i.e. classic `tf·idf`), L2-normalized. Empty bags yield empty vectors.
    ///
    /// The map is a `BTreeMap` so the norm and dot-product sums below always
    /// accumulate in sorted token order — similarity scores are
    /// bit-reproducible across runs and thread counts.
    pub fn weight_vector(&self, bag: &BagOfWords) -> BTreeMap<String, f64> {
        let mut v: BTreeMap<String, f64> =
            bag.iter().map(|(t, c)| (t.to_string(), c as f64 * self.idf(t))).collect();
        let norm = v.values().map(|w| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for w in v.values_mut() {
                *w /= norm;
            }
        }
        v
    }

    /// Cosine similarity between the TF-IDF vectors of two bags, in `[0, 1]`.
    pub fn cosine(&self, a: &BagOfWords, b: &BagOfWords) -> f64 {
        let va = self.weight_vector(a);
        let vb = self.weight_vector(b);
        cosine_of(&va, &vb)
    }
}

/// Cosine similarity of two sparse, already-normalized vectors.
pub fn cosine_of(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let dot: f64 = small.iter().filter_map(|(t, wa)| large.get(t).map(|wb| wa * wb)).sum();
    dot.clamp(0.0, 1.0)
}

/// Document-frequency accumulator for an [`InternedCorpus`].
///
/// Works on *provisional* ids from an [`crate::intern::InternerBuilder`], so
/// documents can be registered while the vocabulary is still growing;
/// [`InternedCorpusBuilder::finalize`] remaps the statistics onto the frozen
/// symbol table.
#[derive(Debug, Default)]
pub struct InternedCorpusBuilder {
    doc_freq: Vec<u32>,
    num_docs: u32,
    scratch: Vec<u32>,
}

impl InternedCorpusBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one document given as provisional token ids (duplicates
    /// allowed; each distinct token counts once, like
    /// [`TfIdfCorpus::add_document`] over a bag's token set).
    pub fn add_document(&mut self, provisional: impl IntoIterator<Item = u32>) {
        self.num_docs += 1;
        self.scratch.clear();
        self.scratch.extend(provisional);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        for &id in &self.scratch {
            if self.doc_freq.len() <= id as usize {
                self.doc_freq.resize(id as usize + 1, 0);
            }
            self.doc_freq[id as usize] += 1;
        }
    }

    /// Remap the accumulated statistics onto the finalized symbol table.
    pub fn finalize(self, interner: &Interner) -> InternedCorpus {
        let mut doc_freq = vec![0u32; interner.len()];
        for (prov, &df) in self.doc_freq.iter().enumerate() {
            doc_freq[interner.sym(prov as u32).0 as usize] = df;
        }
        InternedCorpus::from_doc_freq(doc_freq, self.num_docs)
    }
}

/// Interned counterpart of [`TfIdfCorpus`]: document frequencies indexed by
/// [`Sym`]. Weight vectors computed here are bit-identical to
/// [`TfIdfCorpus::weight_vector`] over the same documents, because sorted
/// symbol order equals sorted token order (see [`crate::intern`]).
#[derive(Debug, Clone, Default)]
pub struct InternedCorpus {
    doc_freq: Vec<u32>,
    num_docs: u32,
    /// IDF indexed by document frequency. `df` never exceeds `num_docs`, so
    /// this table (`num_docs + 1` entries) replaces a `ln` call per token
    /// with a lookup — the table entry is computed by the exact expression
    /// `idf_of_df` falls back to, so weights are unchanged.
    idf_by_df: Vec<f64>,
}

impl InternedCorpus {
    /// Build directly from document frequencies indexed by final [`Sym`]
    /// (callers that tally `df` over already-finalized bags, e.g. one corpus
    /// per scoring group over a shared category vocabulary).
    pub fn from_doc_freq(doc_freq: Vec<u32>, num_docs: u32) -> Self {
        let idf_by_df = (0..=num_docs)
            .map(|df| (((1 + num_docs) as f64) / ((1 + df) as f64)).ln() + 1.0)
            .collect();
        Self { doc_freq, num_docs, idf_by_df }
    }

    /// Number of registered documents.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Document frequency of a symbol.
    pub fn doc_freq(&self, s: Sym) -> u32 {
        self.doc_freq.get(s.0 as usize).copied().unwrap_or(0)
    }

    /// Smoothed IDF of a symbol — the same formula as [`TfIdfCorpus::idf`].
    pub fn idf(&self, s: Sym) -> f64 {
        self.idf_of_df(self.doc_freq(s))
    }

    /// IDF for an explicit document frequency (`df = 0` for a token outside
    /// the vocabulary).
    fn idf_of_df(&self, df: u32) -> f64 {
        match self.idf_by_df.get(df as usize) {
            Some(&idf) => idf,
            None => (((1 + self.num_docs) as f64) / ((1 + df) as f64)).ln() + 1.0,
        }
    }

    /// L2-normalized TF-IDF vector of a count multiset. The norm accumulates
    /// over entries in ascending symbol (= token) order, matching
    /// [`TfIdfCorpus::weight_vector`]'s sorted-map iteration bit-for-bit.
    pub fn weight_counts(&self, counts: &SparseCounts) -> SparseVec {
        let mut entries: Vec<(Sym, f64)> =
            counts.entries().iter().map(|&(s, c)| (s, c as f64 * self.idf(s))).collect();
        let norm = entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, w) in &mut entries {
                *w /= norm;
            }
        }
        SparseVec::from_sorted(entries)
    }

    /// L2-normalized TF-IDF weights of free text that may leave the
    /// vocabulary: every text is tokenized, tokens `interner` knows weigh in
    /// by their document frequency, unknown ones by `df = 0`, and the norm
    /// accumulates over *all* of them in ascending token order — so the
    /// result is entry-wise bit-identical to [`TfIdfCorpus::weight_vector`]
    /// of the same tokens' bag, which it returns in the same order.
    /// `interner` must be the symbol table this corpus is indexed by.
    pub fn weight_query<'t>(
        &self,
        interner: &Interner,
        texts: impl IntoIterator<Item = &'t str>,
    ) -> Vec<(QueryTerm, f64)> {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for text in texts {
            for_each_token(text, |t| match counts.get_mut(t) {
                Some(c) => *c += 1,
                None => {
                    counts.insert(t.to_string(), 1);
                }
            });
        }
        let mut terms: Vec<(QueryTerm, f64)> = counts
            .into_iter()
            .map(|(t, c)| match interner.lookup(&t) {
                Some(s) => (QueryTerm::Known(s), c as f64 * self.idf(s)),
                None => (QueryTerm::Unknown(t), c as f64 * self.idf_of_df(0)),
            })
            .collect();
        let norm = terms.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, w) in &mut terms {
                *w /= norm;
            }
        }
        terms
    }
}

/// One token of an [`InternedCorpus::weight_query`] result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryTerm {
    /// In the vocabulary.
    Known(Sym),
    /// Out of the vocabulary, kept as text: it still took its share of the
    /// norm, and a fuzzy scorer can still compare it to vocabulary tokens.
    Unknown(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(s: &str) -> BagOfWords {
        BagOfWords::from_values([s])
    }

    #[test]
    fn idf_decreases_with_frequency() {
        let mut corpus = TfIdfCorpus::new();
        corpus.add_document(&bag("common rare1"));
        corpus.add_document(&bag("common rare2"));
        corpus.add_document(&bag("common rare3"));
        assert!(corpus.idf("common") < corpus.idf("rare1"));
        assert!(corpus.idf("unseen") >= corpus.idf("rare1"));
    }

    #[test]
    fn cosine_identity_and_disjoint() {
        let mut corpus = TfIdfCorpus::new();
        let a = bag("seagate barracuda 5400");
        let b = bag("western digital raptor");
        corpus.add_document(&a);
        corpus.add_document(&b);
        assert!((corpus.cosine(&a, &a) - 1.0).abs() < 1e-9);
        assert_eq!(corpus.cosine(&a, &b), 0.0);
    }

    #[test]
    fn cosine_partial_overlap_between_zero_and_one() {
        let mut corpus = TfIdfCorpus::new();
        let a = bag("ata 100 ide 133");
        let b = bag("ata 100 mb s");
        corpus.add_document(&a);
        corpus.add_document(&b);
        let c = corpus.cosine(&a, &b);
        assert!(c > 0.0 && c < 1.0, "c={c}");
    }

    #[test]
    fn empty_bags_have_zero_cosine() {
        let corpus = TfIdfCorpus::new();
        assert_eq!(corpus.cosine(&BagOfWords::new(), &bag("x")), 0.0);
    }
}
