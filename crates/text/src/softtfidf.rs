//! SoftTFIDF hybrid similarity (Cohen, Ravikumar & Fienberg, 2003).
//!
//! DUMAS (Bilke & Naumann, ICDE 2005) compares field values with SoftTFIDF:
//! a TF-IDF cosine where tokens need not match exactly — two tokens are
//! considered "close" when their Jaro–Winkler similarity exceeds a threshold
//! θ (0.9 in the original work), and the contribution of a close pair is
//! scaled by that similarity.

use std::collections::{BTreeMap, HashMap};

use crate::bow::BagOfWords;
use crate::intern::{Interner, Sym};
use crate::sparse::SparseCounts;
use crate::strsim::{jaro_winkler, jaro_winkler_with, JaroScratch};
use crate::tfidf::{InternedCorpus, QueryTerm, TfIdfCorpus};
use crate::tokenize::tokens;

/// SoftTFIDF similarity with a shared IDF corpus, on token text — the
/// paper-literal reference. Production code uses [`InternedSoftTfIdf`];
/// `tests/interned_equivalence.rs`, `pse-query`'s `fuzzy_reference` and the
/// DUMAS equivalence test pin the two bit-for-bit.
#[derive(Debug, Clone)]
pub struct SoftTfIdf {
    corpus: TfIdfCorpus,
    /// Inner-similarity threshold θ; token pairs below it are ignored.
    theta: f64,
}

impl SoftTfIdf {
    /// Standard configuration: θ = 0.9 as in the original SoftTFIDF paper.
    pub fn new(corpus: TfIdfCorpus) -> Self {
        Self::with_theta(corpus, 0.9)
    }

    /// Custom inner-similarity threshold. `theta` is clamped to `[0, 1]`.
    pub fn with_theta(corpus: TfIdfCorpus, theta: f64) -> Self {
        Self { corpus, theta: theta.clamp(0.0, 1.0) }
    }

    /// Access the underlying IDF corpus.
    pub fn corpus(&self) -> &TfIdfCorpus {
        &self.corpus
    }

    /// SoftTFIDF similarity of two raw strings, in `[0, 1]`.
    ///
    /// `CLOSE(θ, S, T)` is the set of tokens in `S` that have some token in
    /// `T` with inner similarity ≥ θ; each contributes
    /// `w(t, S) · w(closest, T) · sim(t, closest)`.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        let ta = tokens(a);
        let tb = tokens(b);
        if ta.is_empty() || tb.is_empty() {
            return if ta.is_empty() && tb.is_empty() { 1.0 } else { 0.0 };
        }
        let va = self.normalized_weights(&ta);
        let vb = self.normalized_weights(&tb);
        let mut sum = 0.0;
        for (t, wa) in &va {
            // Exact matches short-circuit the O(|T|) scan.
            if let Some(wb) = vb.get(t) {
                sum += wa * wb;
                continue;
            }
            let mut best = 0.0f64;
            let mut best_w = 0.0f64;
            for (u, wb) in &vb {
                let s = jaro_winkler(t, u);
                if s >= self.theta && s > best {
                    best = s;
                    best_w = *wb;
                }
            }
            if best > 0.0 {
                sum += wa * best_w * best;
            }
        }
        sum.clamp(0.0, 1.0)
    }

    fn normalized_weights(&self, toks: &[String]) -> BTreeMap<String, f64> {
        let mut bag = BagOfWords::new();
        for t in toks {
            bag.add_token(t.clone());
        }
        self.corpus.weight_vector(&bag)
    }
}

/// A pre-weighted value under an [`InternedSoftTfIdf`]: the L2-normalized
/// TF-IDF weights of its tokens. Empty iff the value tokenizes to nothing
/// (TF-IDF weights are strictly positive, so a non-empty token list always
/// yields a non-empty vector).
#[derive(Debug, Clone, Default)]
pub struct SoftDoc {
    /// `(token, weight)` ascending by token *text* — the order the string
    /// reference sums in. For a vocabulary value ([`InternedSoftTfIdf::doc`])
    /// that is ascending [`Sym`]; a query ([`InternedSoftTfIdf::query_doc`])
    /// interleaves its out-of-vocabulary tokens, numbered
    /// `Sym(vocabulary size + i)` for `oov[i]`.
    entries: Vec<(Sym, f64)>,
    /// Character count of each token, parallel to `entries` — feeds the
    /// length-based θ-prefilter in [`InternedSoftTfIdf::similarity`].
    lens: Vec<u32>,
    /// Text of a query's out-of-vocabulary tokens; empty for a vocabulary
    /// value. The ids above mean something inside this document only.
    oov: Vec<String>,
}

impl SoftDoc {
    /// Whether the underlying value had no tokens.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A multiply–xorshift hasher for the memo's packed `u64` keys. The memo is
/// only ever probed by key (its iteration order is never observed), so a
/// fast non-SipHash hasher cannot affect any output — it only removes the
/// hashing cost from the innermost token-pair loop.
#[derive(Debug, Default)]
struct PairHasher(u64);

impl std::hash::Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Default, Clone)]
struct PairHasherBuilder;

impl std::hash::BuildHasher for PairHasherBuilder {
    type Hasher = PairHasher;

    fn build_hasher(&self) -> PairHasher {
        PairHasher::default()
    }
}

/// The memo's metric names, each written once.
pub mod metrics {
    pse_obs::metric_set! {
        /// What a dropped [`JwMemo`](super::JwMemo) flushes. Both may
        /// stay at zero (exact-match-only cells), so a caller that wants
        /// them in every report seeds the set — DUMAS does.
        METRICS {
            counters {
                JW_MEMO_HIT = "softtfidf.jw_memo_hit",
                JW_MEMO_MISS = "softtfidf.jw_memo_miss",
            }
            histograms {}
        }
    }
}
pub use metrics::METRICS;

/// Memo of Jaro–Winkler scores per `(Sym, Sym)` pair.
///
/// Scoped to one matrix build (e.g. one DUMAS (merchant, category) group)
/// or one query: within that scope the token vocabulary is fixed, so each
/// distinct token pair is scored once no matter how many cells compare
/// values containing it. A memo that has seen a query document must not
/// outlive it — the ids of out-of-vocabulary tokens are per document.
/// Dropping the memo flushes `softtfidf.jw_memo_hit` /
/// `softtfidf.jw_memo_miss` counters to pse-obs.
#[derive(Debug, Default)]
pub struct JwMemo {
    map: HashMap<u64, f64, PairHasherBuilder>,
    scratch: JaroScratch,
    hits: u64,
    misses: u64,
}

impl JwMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Jaro–Winkler similarity of tokens `a` and `b`, whose texts are `ta`
    /// and `tb`, memoized by id pair.
    fn jw(&mut self, a: Sym, b: Sym, ta: &str, tb: &str) -> f64 {
        let key = ((a.0 as u64) << 32) | b.0 as u64;
        if let Some(&s) = self.map.get(&key) {
            self.hits += 1;
            return s;
        }
        self.misses += 1;
        let s = jaro_winkler_with(&mut self.scratch, ta, tb);
        self.map.insert(key, s);
        s
    }
}

impl Drop for JwMemo {
    fn drop(&mut self) {
        pse_obs::add(metrics::JW_MEMO_HIT, self.hits);
        pse_obs::add(metrics::JW_MEMO_MISS, self.misses);
    }
}

/// Interned SoftTFIDF over a frozen vocabulary and corpus — the one
/// production SoftTFIDF kernel (DUMAS's similarity matrices, the search
/// index's fuzzy value resolver). It borrows both, so the owner of a
/// vocabulary scores against it without handing over a copy.
///
/// [`InternedSoftTfIdf::similarity`] is bit-identical to
/// [`SoftTfIdf::similarity`] on equivalent inputs: both iterate the first
/// value's tokens in sorted order, short-circuit exact matches, and
/// otherwise scan *all* of the second value's tokens in sorted order for the
/// best θ-close one.
///
/// Near-match blocking note: unlike exact-token cosine (see the inverted
/// index in `pse-synthesis`'s `TitleMatcher`), SoftTFIDF cannot be blocked
/// on shared exact tokens — a pair may score > 0 through θ-close tokens
/// only. Instead of a per-cell rescan, the θ-close search is amortized by
/// [`JwMemo`]: each distinct token pair of the group's vocabulary is scored
/// once per matrix build (equivalent to scanning the group's token list once
/// per distinct query token, rather than once per product cell).
#[derive(Debug)]
pub struct InternedSoftTfIdf<'a> {
    interner: &'a Interner,
    corpus: &'a InternedCorpus,
    theta: f64,
}

impl<'a> InternedSoftTfIdf<'a> {
    /// Score against a frozen vocabulary and the corpus statistics indexed
    /// by it. `theta` is clamped to `[0, 1]` like [`SoftTfIdf::with_theta`].
    pub fn new(interner: &'a Interner, corpus: &'a InternedCorpus, theta: f64) -> Self {
        Self { interner, corpus, theta: theta.clamp(0.0, 1.0) }
    }

    /// Pre-weight one vocabulary value given as provisional ids from the
    /// builder that produced this vocabulary.
    pub fn doc(&self, provisional: &[u32]) -> SoftDoc {
        let counts = SparseCounts::from_doc(&self.interner.doc(provisional));
        let entries = self.corpus.weight_counts(&counts).entries().to_vec();
        let lens = entries.iter().map(|&(s, _)| char_len(self.interner.resolve(s))).collect();
        SoftDoc { entries, lens, oov: Vec::new() }
    }

    /// Pre-weight free text that may leave the vocabulary — the first
    /// argument of [`Self::similarity`], never the second. Weights are
    /// [`InternedCorpus::weight_query`]'s: unknown tokens take their share
    /// of the norm, exactly as the string reference weighs them.
    pub fn query_doc(&self, text: &str) -> SoftDoc {
        let mut doc = SoftDoc::default();
        for (term, w) in self.corpus.weight_query(self.interner, [text]) {
            let sym = match term {
                QueryTerm::Known(s) => {
                    doc.lens.push(char_len(self.interner.resolve(s)));
                    s
                }
                QueryTerm::Unknown(t) => {
                    let s = Sym((self.interner.len() + doc.oov.len()) as u32);
                    doc.lens.push(char_len(&t));
                    doc.oov.push(t);
                    s
                }
            };
            doc.entries.push((sym, w));
        }
        doc
    }

    /// SoftTFIDF similarity of two pre-weighted values, in `[0, 1]`. `b`
    /// must be a vocabulary value ([`Self::doc`]); `a` may be a query.
    ///
    /// Token pairs that provably cannot reach θ are skipped before any
    /// Jaro–Winkler work. With `mn = min(|t|, |u|)`, `mx = max(|t|, |u|)`:
    /// at most `mn` characters match and transpositions only lower the
    /// score, so `jaro ≤ (mn/mx + 2) / 3`. The Winkler boost is
    /// `0.1·ℓ·(1 − jaro)` for the true common-prefix length `ℓ ≤ 4`, and is
    /// monotone in jaro for `ℓ ≤ 4`, so
    /// `jw ≤ jbound + 0.1·ℓ·(1 − jbound)` with `jbound = (mn/mx + 2) / 3`.
    /// A skipped pair therefore scores strictly below θ and could never have
    /// entered the `best` update; the result is bit-identical to the
    /// unfiltered scan. Both comparisons keep a `1e-6` slack so float
    /// rounding can only make the filter *less* aggressive, never unsound.
    pub fn similarity(&self, a: &SoftDoc, b: &SoftDoc, memo: &mut JwMemo) -> f64 {
        debug_assert!(b.oov.is_empty(), "the second value must be in vocabulary");
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() && b.is_empty() { 1.0 } else { 0.0 };
        }
        // Cheap pre-test without resolving strings: assume the maximal
        // prefix boost (ℓ = 4, i.e. jw ≤ 0.8 + 0.2·mn/mx) and skip iff
        // mn/mx < (θ − 0.8)·5. For θ ≤ 0.8 the cut is ≤ 0 and never fires.
        let cut = (self.theta - 0.8) * 5.0;
        let theta_gate = self.theta - 1e-6;
        let mut sum = 0.0;
        for (ai, &(t, wa)) in a.entries.iter().enumerate() {
            // Exact matches short-circuit the O(|T|) scan. (An
            // out-of-vocabulary `t` is above every id in `b`.)
            if let Ok(bi) = b.entries.binary_search_by_key(&t, |&(u, _)| u) {
                sum += wa * b.entries[bi].1;
                continue;
            }
            let la = a.lens[ai];
            let ta = match (t.0 as usize).checked_sub(self.interner.len()) {
                None => self.interner.resolve(t),
                Some(i) => a.oov[i].as_str(),
            };
            let mut best = 0.0f64;
            let mut best_w = 0.0f64;
            for (bi, &(u, wb)) in b.entries.iter().enumerate() {
                let lb = b.lens[bi];
                let (mn, mx) = if la <= lb { (la, lb) } else { (lb, la) };
                if (mn as f64) < cut * (mx as f64) - 1e-6 {
                    continue;
                }
                // Tighter test with the true prefix length.
                let tu = self.interner.resolve(u);
                let prefix = ta.chars().zip(tu.chars()).take(4).take_while(|(x, y)| x == y).count();
                let jbound = (mn as f64 / mx as f64 + 2.0) / 3.0;
                if jbound + 0.1 * prefix as f64 * (1.0 - jbound) < theta_gate {
                    continue;
                }
                let s = memo.jw(t, u, ta, tu);
                if s >= self.theta && s > best {
                    best = s;
                    best_w = wb;
                }
            }
            if best > 0.0 {
                sum += wa * best_w * best;
            }
        }
        sum.clamp(0.0, 1.0)
    }
}

fn char_len(token: &str) -> u32 {
    token.chars().count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_of(docs: &[&str]) -> TfIdfCorpus {
        let mut c = TfIdfCorpus::new();
        for d in docs {
            c.add_document(&BagOfWords::from_values([*d]));
        }
        c
    }

    #[test]
    fn identical_strings_are_fully_similar() {
        let s = SoftTfIdf::new(corpus_of(&["seagate barracuda", "hitachi deskstar"]));
        assert!((s.similarity("Seagate Barracuda", "seagate barracuda") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn near_token_matches_count() {
        let s = SoftTfIdf::new(corpus_of(&["seagate barracuda", "barracda drive"]));
        // "barracda" is a typo of "barracuda": JW ≈ 0.98 ≥ 0.9.
        let soft = s.similarity("seagate barracuda", "seagate barracda");
        assert!(soft > 0.9, "soft={soft}");
    }

    #[test]
    fn disjoint_strings_score_zero() {
        let s = SoftTfIdf::new(corpus_of(&["alpha beta", "gamma delta"]));
        assert_eq!(s.similarity("alpha beta", "gamma delta"), 0.0);
    }

    #[test]
    fn empty_inputs() {
        let s = SoftTfIdf::new(corpus_of(&["x"]));
        assert_eq!(s.similarity("", ""), 1.0);
        assert_eq!(s.similarity("", "x"), 0.0);
    }

    #[test]
    fn theta_gates_fuzzy_matches() {
        let strict = SoftTfIdf::with_theta(corpus_of(&["barracuda"]), 1.0);
        let lax = SoftTfIdf::with_theta(corpus_of(&["barracuda"]), 0.8);
        let a = "barracuda";
        let b = "barracda";
        assert_eq!(strict.similarity(a, b), 0.0);
        assert!(lax.similarity(a, b) > 0.8);
    }
}
