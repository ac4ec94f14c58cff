//! Text primitives used throughout the product-synthesis pipeline.
//!
//! The schema-reconciliation approach of Nguyen et al. (VLDB 2011) reduces
//! attribute matching to comparing *value distributions*: every attribute is
//! summarized as a bag of word-level tokens, bags are turned into probability
//! distributions, and distributions are compared with Jensen–Shannon
//! divergence and the Jaccard coefficient (Section 3.1 of the paper).
//!
//! This crate provides those primitives, plus the classical string-similarity
//! measures required by the baseline matchers of Section 5 / Appendix C
//! (edit distance and trigram similarity for COMA++-style name matching,
//! Jaro–Winkler and SoftTFIDF for DUMAS).
//!
//! Everything here is implemented from scratch on `std` only.
//!
//! # One kernel per computation
//!
//! Every computation has one production implementation, on interned
//! [`Sym`]s, and at most one reference: the paper-literal version on token
//! text, which only tests (and the named oracles `score_candidates_reference`
//! / `match_offer_naive`) call. Production and reference agree bit for bit.
//!
//! | computation | production | reference | pinned by |
//! |---|---|---|---|
//! | value bag | [`SparseCounts`] | [`BagOfWords`] | `sparse::tests::counts_match_bags` |
//! | JS / Jaccard / L1 / cosine of bags | [`jensen_shannon_counts`], [`jaccard_counts`], [`l1_counts`], [`cosine_counts`] | [`jensen_shannon`], [`jaccard_bags`], [`l1_distance`], [`cosine_bags`] | `interned_equivalence::divergences_bit_match_string_path` |
//! | TF-IDF weights, cosine | [`InternedCorpus::weight_counts`], [`cosine_sparse`] | [`tfidf::TfIdfCorpus::weight_vector`], [`tfidf::cosine_of`] | `interned_equivalence::tfidf_cosine_bit_matches_string_path`; COMA `indexed_scores_match_string_reference` |
//! | TF-IDF weights of out-of-vocabulary text | [`InternedCorpus::weight_query`] | [`tfidf::TfIdfCorpus::weight_vector`] | same test; `matcher_equivalence` (title matcher) |
//! | SoftTFIDF | [`InternedSoftTfIdf::similarity`] | [`SoftTfIdf::similarity`] | `interned_equivalence::softtfidf_bit_matches_string_path`; `matcher_equivalence` (DUMAS); `pse-query`'s `fuzzy_reference` |
//! | tokens that can give SoftTFIDF > 0 | [`InternedSoftTfIdf::close_tokens`] over a [`TokenProbe`] | a Jaro–Winkler scan of the vocabulary (in the test) | `softtfidf::tests::close_tokens_is_the_brute_force_set`, `pair_gate_never_rejects_a_close_pair` |

pub mod bow;
pub mod divergence;
pub mod intern;
pub mod normalize;
pub mod softtfidf;
pub mod sparse;
pub mod strsim;
pub mod tfidf;
pub mod tokenize;

pub use bow::BagOfWords;
pub use divergence::{cosine_bags, jaccard_bags, jensen_shannon, l1_distance};
pub use intern::{Interner, InternerBuilder, Sym, TokenDoc};
pub use normalize::{normalize_attribute_name, normalize_value};
pub use softtfidf::{InternedSoftTfIdf, JwMemo, SoftDoc, SoftTfIdf, TokenProbe};
pub use sparse::{
    cosine_counts, cosine_sparse, dot_sparse, jaccard_counts, jensen_shannon_counts, l1_counts,
    SparseCounts, SparseVec,
};
pub use tfidf::{InternedCorpus, InternedCorpusBuilder};
pub use tokenize::tokens;
