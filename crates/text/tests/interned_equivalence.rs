//! Old-vs-new equivalence for the interned text fast path.
//!
//! Every interned kernel (sparse divergences, TF-IDF weighting and cosine,
//! SoftTFIDF) must reproduce its string-path reference **bit-for-bit** on
//! arbitrary inputs — including non-ASCII values and values that tokenize
//! to nothing. The scoring pipeline's outputs are compared as exact `f64`
//! bit patterns, never with tolerances: the fast path is an optimization,
//! not an approximation.

use proptest::prelude::*;
use pse_text::divergence::{cosine_bags, jaccard_bags, jensen_shannon, l1_distance};
use pse_text::sparse::{
    cosine_counts, cosine_sparse, jaccard_counts, jensen_shannon_counts, l1_counts, SparseCounts,
};
use pse_text::tfidf::{cosine_of, InternedCorpusBuilder, QueryTerm, TfIdfCorpus};
use pse_text::tokenize::tokens;
use pse_text::{BagOfWords, InternedSoftTfIdf, Interner, InternerBuilder, JwMemo, SoftTfIdf};

/// Attribute-value-ish strings: alphanumerics, separators, some non-ASCII
/// (including uppercase forms that lowercase to multi-char sequences), and
/// symbol-only values that tokenize to nothing.
fn value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9éÉßµü /\\-\\.]{0,14}"
}

fn values() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(value(), 0..6)
}

/// Pairs of value lists whose supports relate in every way the divergence
/// kernels branch on: unrelated, disjoint by construction (two alphabets
/// no token can straddle), one nested in the other (either way round),
/// identical, and heavily repeated tokens shared with a few unshared ones.
fn value_lists() -> impl Strategy<Value = (Vec<String>, Vec<String>)> {
    let low = prop::collection::vec("[a-mA-M0-4é /\\-]{0,14}", 0..6);
    let high = prop::collection::vec("[n-zN-Z5-9ßµü \\.]{0,14}", 0..6);
    (0usize..7, values(), values(), low, high, (1usize..40, 1usize..40)).prop_map(
        |(shape, a, b, low, high, (times_a, times_b))| {
            let repeat = |v: &[String], times: usize| -> Vec<String> {
                v.iter().cycle().take(v.len() * times).cloned().collect()
            };
            let with = |mut v: Vec<String>, extra: &[String]| {
                v.extend_from_slice(extra);
                v
            };
            match shape {
                0 => (a, b),
                1 => (low, high),
                2 => (a.clone(), with(a, &b)),
                3 => (with(b.clone(), &a), b),
                4 => (a.clone(), a.into_iter().rev().collect()),
                5 => (repeat(&a, times_a), with(repeat(&a, times_b), &b)),
                _ => (with(repeat(&low, times_a), &b), with(repeat(&high, times_b), &b)),
            }
        },
    )
}

/// Intern both value lists under one vocabulary; return the interned counts
/// and the reference bags.
fn counts_pair(
    a: &[String],
    b: &[String],
) -> (Interner, SparseCounts, SparseCounts, BagOfWords, BagOfWords) {
    let mut builder = InternerBuilder::new();
    let ra: Vec<Vec<u32>> = a.iter().map(|v| builder.tokenize(v)).collect();
    let rb: Vec<Vec<u32>> = b.iter().map(|v| builder.tokenize(v)).collect();
    let interner = builder.finalize();
    let mut ca = SparseCounts::new();
    for r in &ra {
        ca.add_doc(&interner.doc(r));
    }
    let mut cb = SparseCounts::new();
    for r in &rb {
        cb.add_doc(&interner.doc(r));
    }
    let ba = BagOfWords::from_values(a.iter().map(String::as_str));
    let bb = BagOfWords::from_values(b.iter().map(String::as_str));
    (interner, ca, cb, ba, bb)
}

proptest! {
    /// The divergence kernels over interned counts are bit-identical to the
    /// string-bag references.
    #[test]
    fn divergences_bit_match_string_path((a, b) in value_lists()) {
        let (_, ca, cb, ba, bb) = counts_pair(&a, &b);
        prop_assert_eq!(
            jensen_shannon_counts(&ca, &cb).to_bits(),
            jensen_shannon(&ba, &bb).to_bits()
        );
        prop_assert_eq!(jaccard_counts(&ca, &cb).to_bits(), jaccard_bags(&ba, &bb).to_bits());
        prop_assert_eq!(l1_counts(&ca, &cb).to_bits(), l1_distance(&ba, &bb).to_bits());
        prop_assert_eq!(cosine_counts(&ca, &cb).to_bits(), cosine_bags(&ba, &bb).to_bits());
    }

    /// Interned TF-IDF weighting + sparse cosine are bit-identical to the
    /// `BTreeMap<String, f64>` path, with the same corpus statistics — and
    /// so is the weighting of a query `q` whose tokens were never interned.
    #[test]
    fn tfidf_cosine_bit_matches_string_path(
        docs in prop::collection::vec(values(), 0..4),
        a in values(),
        b in values(),
        q in values(),
    ) {
        // String side.
        let mut corpus = TfIdfCorpus::new();
        for d in &docs {
            corpus.add_document(&BagOfWords::from_values(d.iter().map(String::as_str)));
        }
        let ba = BagOfWords::from_values(a.iter().map(String::as_str));
        let bb = BagOfWords::from_values(b.iter().map(String::as_str));
        // Interned side, same documents.
        let mut builder = InternerBuilder::new();
        let mut cb = InternedCorpusBuilder::new();
        for d in &docs {
            let mut doc_ids = Vec::new();
            for v in d {
                doc_ids.extend(builder.tokenize(v));
            }
            cb.add_document(doc_ids);
        }
        let ra: Vec<Vec<u32>> = a.iter().map(|v| builder.tokenize(v)).collect();
        let rb: Vec<Vec<u32>> = b.iter().map(|v| builder.tokenize(v)).collect();
        let interner = builder.finalize();
        let icorpus = cb.finalize(&interner);
        let mut counts_a = SparseCounts::new();
        for r in &ra {
            counts_a.add_doc(&interner.doc(r));
        }
        let mut counts_b = SparseCounts::new();
        for r in &rb {
            counts_b.add_doc(&interner.doc(r));
        }
        let va = icorpus.weight_counts(&counts_a);
        let vb = icorpus.weight_counts(&counts_b);
        // The weight vectors are entry-wise bit-identical...
        let sva = corpus.weight_vector(&ba);
        prop_assert_eq!(va.len(), sva.len());
        for (&(s, w), (t, sw)) in va.entries().iter().zip(sva.iter()) {
            prop_assert_eq!(interner.resolve(s), t.as_str());
            prop_assert_eq!(w.to_bits(), sw.to_bits());
        }
        // ...and so is the cosine.
        let l = cosine_sparse(&va, &vb);
        let r = cosine_of(&sva, &corpus.weight_vector(&bb));
        if l.to_bits() != r.to_bits() {
            eprintln!("DOCS={:?} A={:?} B={:?} l={} r={}", docs, a, b, l, r);
        }
        prop_assert_eq!(l.to_bits(), r.to_bits());
        // Out-of-vocabulary-aware weighting: `q` mixes unknown tokens with
        // `a`'s known ones; both kinds share one norm, in token order.
        let query: Vec<&str> = q.iter().chain(&a).map(String::as_str).collect();
        let svq = corpus.weight_vector(&BagOfWords::from_values(query.iter().copied()));
        let vq = icorpus.weight_query(&interner, query);
        prop_assert_eq!(vq.len(), svq.len());
        for ((term, w), (t, sw)) in vq.iter().zip(svq.iter()) {
            match term {
                QueryTerm::Known(s) => prop_assert_eq!(interner.resolve(*s), t.as_str()),
                QueryTerm::Unknown(u) => {
                    prop_assert_eq!(u, t);
                    prop_assert_eq!(interner.lookup(u), None);
                }
            }
            prop_assert_eq!(w.to_bits(), sw.to_bits());
        }
    }

    /// Interned SoftTFIDF (pre-weighted docs + Jaro–Winkler memo) is
    /// bit-identical to the per-call string implementation, for vocabulary
    /// values and for a query `q` whose tokens were never interned.
    #[test]
    fn softtfidf_bit_matches_string_path(
        docs in prop::collection::vec(value(), 0..5),
        a in value(),
        b in value(),
        q in value(),
        theta_idx in 0usize..4,
    ) {
        let theta = [0.0f64, 0.8, 0.9, 1.0][theta_idx];
        let mut corpus = TfIdfCorpus::new();
        for d in &docs {
            corpus.add_document(&BagOfWords::from_values([d.as_str()]));
        }
        let soft = SoftTfIdf::with_theta(corpus, theta);

        let mut builder = InternerBuilder::new();
        let mut cb = InternedCorpusBuilder::new();
        for d in &docs {
            cb.add_document(builder.tokenize(d));
        }
        let ra = builder.tokenize(&a);
        let rb = builder.tokenize(&b);
        let interner = builder.finalize();
        let icorpus = cb.finalize(&interner);
        let isoft = InternedSoftTfIdf::new(&interner, &icorpus, theta);
        let da = isoft.doc(&ra);
        let db = isoft.doc(&rb);
        let mut memo = JwMemo::new();
        // Twice: the second call answers from the memo and must not drift.
        let first = isoft.similarity(&da, &db, &mut memo);
        let second = isoft.similarity(&da, &db, &mut memo);
        prop_assert_eq!(first.to_bits(), soft.similarity(&a, &b).to_bits());
        prop_assert_eq!(first.to_bits(), second.to_bits());
        // A query is weighted and scored like the same text on the string
        // path, whether its tokens are known (`a`), unknown (`q`) or mixed.
        for query in [a.clone(), q.clone(), format!("{q} {a} {q}")] {
            let mut memo = JwMemo::new();
            let dq = isoft.query_doc(&query);
            let got = isoft.similarity(&dq, &db, &mut memo);
            prop_assert_eq!(got.to_bits(), soft.similarity(&query, &b).to_bits(), "{:?}", query);
            prop_assert_eq!(got.to_bits(), isoft.similarity(&dq, &db, &mut memo).to_bits());
        }
    }

    /// Interning then resolving is the identity on token streams, and the
    /// finalized symbol order is the lexicographic token order regardless of
    /// insertion order.
    #[test]
    fn interner_is_order_independent(a in values(), b in values()) {
        let mut fwd = InternerBuilder::new();
        let fwd_raw: Vec<Vec<u32>> = a.iter().chain(&b).map(|v| fwd.tokenize(v)).collect();
        let fwd_interner = fwd.finalize();
        let mut rev = InternerBuilder::new();
        let rev_raw: Vec<Vec<u32>> = b.iter().chain(&a).map(|v| rev.tokenize(v)).collect();
        let rev_interner = rev.finalize();
        // Same vocabulary, same Sym numbering, despite reversed insertion.
        prop_assert_eq!(fwd_interner.len(), rev_interner.len());
        // Round-trip: resolve(doc(tokenize(v))) == tokens(v), in order.
        for (v, raw) in a.iter().chain(&b).zip(&fwd_raw) {
            let doc = fwd_interner.doc(raw);
            let resolved: Vec<&str> =
                doc.syms().iter().map(|&s| fwd_interner.resolve(s)).collect();
            let expect = tokens(v);
            let expect: Vec<&str> = expect.iter().map(String::as_str).collect();
            prop_assert_eq!(resolved, expect);
        }
        // The reversed-insertion interner assigns the same Sym to the same
        // token text.
        for (v, raw) in b.iter().chain(&a).zip(&rev_raw) {
            let doc = rev_interner.doc(raw);
            for &s in doc.syms() {
                let text = rev_interner.resolve(s);
                prop_assert_eq!(fwd_interner.lookup(text), Some(s), "token {}", text);
            }
            let _ = v;
        }
    }
}
