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
use crate::strsim::{jaro_winkler, jaro_winkler_with, winkler_prefix, JaroScratch};
use crate::tfidf::{InternedCorpus, QueryTerm, TfIdfCorpus};
use crate::tokenize::{for_each_token, tokens};

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
    /// Gate features of each token, parallel to `entries` — what
    /// [`InternedSoftTfIdf::similarity`]'s pair gate reads before any text.
    gates: Vec<TokenGate>,
    /// Text of a query's out-of-vocabulary tokens; empty for a vocabulary
    /// value. The ids above mean something inside this document only.
    oov: Vec<String>,
}

impl SoftDoc {
    /// Whether the underlying value had no tokens.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The distinct tokens, ascending by text (for a vocabulary value:
    /// ascending [`Sym`]).
    pub fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.entries.iter().map(|&(s, _)| s)
    }
}

/// What the pair gate knows of a token without reading its text: the
/// character count, and one bit per character class present. Any map from
/// characters to 64 classes is sound (equal characters share a class);
/// this one keeps the tokenizer's common output — `a–z`, `0–9` — collision
/// free.
#[derive(Debug, Clone, Copy, Default)]
struct TokenGate {
    len: u32,
    mask: u64,
}

impl TokenGate {
    fn of(token: &str) -> Self {
        let mut gate = Self::default();
        for c in token.chars() {
            let class = match c {
                'a'..='z' => c as u32 - 'a' as u32,
                '0'..='9' => 26 + (c as u32 - '0' as u32),
                _ => 36 + c as u32 % 28,
            };
            gate.len += 1;
            gate.mask |= 1 << class;
        }
        gate
    }

    /// Upper bound on the match count `m` of `jaro(t, u)`. A character
    /// class of `t` absent from `u` holds at least one character of `t` that
    /// equals no character of `u` and so cannot be matched: `m` is at most
    /// `|t|` minus the number of such classes, symmetrically for `u` — and
    /// so never above `min(|t|, |u|)`.
    fn match_bound(self, other: Self) -> u32 {
        (self.len - (self.mask & !other.mask).count_ones())
            .min(other.len - (other.mask & !self.mask).count_ones())
    }
}

/// Gate features of a set of vocabulary tokens, sliced by length — what
/// [`InternedSoftTfIdf::close_tokens`] scans instead of the values that
/// contain them.
#[derive(Debug, Clone, Default)]
pub struct TokenProbe {
    /// `(character-class mask, token)`, ascending by (length, token).
    tokens: Vec<(u64, Sym)>,
    /// `tokens[len_start[l]..len_start[l + 1]]` are the tokens of `l`
    /// characters.
    len_start: Vec<u32>,
}

impl TokenProbe {
    /// Index `syms` (duplicates allowed), which `interner` must know.
    pub fn new(interner: &Interner, syms: impl IntoIterator<Item = Sym>) -> Self {
        let mut keyed: Vec<(u32, Sym, u64)> = syms
            .into_iter()
            .map(|s| {
                let gate = TokenGate::of(interner.resolve(s));
                (gate.len, s, gate.mask)
            })
            .collect();
        keyed.sort_unstable();
        keyed.dedup();
        let longest = keyed.last().map_or(0, |&(len, ..)| len as usize);
        let mut len_start = vec![0u32; longest + 2];
        for &(len, ..) in &keyed {
            len_start[len as usize + 1] += 1;
        }
        for l in 1..len_start.len() {
            len_start[l] += len_start[l - 1];
        }
        Self { tokens: keyed.into_iter().map(|(_, s, mask)| (mask, s)).collect(), len_start }
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
/// only. It is blocked one level down, on tokens: a value scores above zero
/// only if it holds a token equal or θ-close to a query token, so a caller
/// with many values per query ([`Self::close_tokens`] over a
/// [`TokenProbe`], then a posting list — the search index's fuzzy resolver)
/// scores only those. Within a matrix build the θ-close search is amortized
/// by [`JwMemo`]: each distinct token pair of the group's vocabulary is
/// scored once (equivalent to scanning the group's token list once per
/// distinct query token, rather than once per product cell).
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
        let gates = entries.iter().map(|&(s, _)| TokenGate::of(self.interner.resolve(s))).collect();
        SoftDoc { entries, gates, oov: Vec::new() }
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
                    doc.gates.push(TokenGate::of(self.interner.resolve(s)));
                    s
                }
                QueryTerm::Unknown(t) => {
                    let s = Sym((self.interner.len() + doc.oov.len()) as u32);
                    doc.gates.push(TokenGate::of(&t));
                    doc.oov.push(t);
                    s
                }
            };
            doc.entries.push((sym, w));
        }
        doc
    }

    /// The pair gate's one inequality: whether two tokens of `la` and `lb`
    /// characters with at most `m` matched characters and a common prefix
    /// of `prefix ≤ 4` can reach Jaro–Winkler θ. `false` proves `jw < θ`.
    ///
    /// Transpositions only lower the score, so `jaro = (m/la + m/lb +
    /// (m − tr)/m) / 3 ≤ jbound = (m/la + m/lb + 1) / 3`, increasing in `m`
    /// (at `m = 0`, `jaro = 0` and the `1/3` is merely loose). The Winkler
    /// boost is `0.1·ℓ·(1 − jaro)` for the true common-prefix length `ℓ`,
    /// and `jaro + 0.1·ℓ·(1 − jaro)` is increasing in `jaro` and in `ℓ` for
    /// `ℓ ≤ 4`, so `jw ≤ jbound + 0.1·prefix·(1 − jbound)` whenever `m` and
    /// `prefix` are upper bounds. With `prefix = 4`, `jw ≥ θ` needs `jaro ≥
    /// (θ − 0.4) / 0.6`; on lengths alone (`m = min(la, lb)`) that is the
    /// cut `mn/mx ≥ 5·(θ − 0.8)`, which never fires for θ ≤ 0.8. The `1e-6`
    /// slack means float rounding can only make the gate *less* aggressive,
    /// never unsound.
    fn bound_reaches_theta(&self, m: u32, la: u32, lb: u32, prefix: usize) -> bool {
        let m = m as f64;
        let jbound = (m / la as f64 + m / lb as f64 + 1.0) / 3.0;
        jbound + 0.1 * prefix as f64 * (1.0 - jbound) >= self.theta - 1e-6
    }

    /// The pair gate: whether `jaro_winkler(t, u)` can reach θ, for a token
    /// `t` (text `ta`, features `ga`) and a vocabulary token `u`. A rejected
    /// pair could never have entered a `best` update or a probe result, so
    /// every caller's output is bit-identical to the ungated computation.
    /// [`TokenGate::match_bound`] bounds the matches; the prefix is first
    /// taken as 4, before any text is read, then as it is.
    fn may_reach_theta(&self, ta: &str, ga: TokenGate, u: Sym, gu: TokenGate) -> bool {
        let m = ga.match_bound(gu);
        self.bound_reaches_theta(m, ga.len, gu.len, 4)
            && self.bound_reaches_theta(
                m,
                ga.len,
                gu.len,
                winkler_prefix(ta, self.interner.resolve(u)),
            )
    }

    /// Every token of `probe` that equals, or is Jaro–Winkler ≥ θ to, some
    /// token of `text` — ascending, each once. `text` is tokenized as
    /// [`Self::query_doc`] tokenizes it, and `probe` must index tokens of
    /// this vocabulary.
    ///
    /// This is the candidate side of [`Self::similarity`]: `similarity(
    /// query_doc(text), v)` sums one non-negative term per query token, and
    /// a term is non-zero only through a token of `v` that is equal (the
    /// short-circuit) or θ-close (the `best` scan) to it. A non-empty `v`
    /// holding none of the returned tokens therefore scores exactly `0.0`.
    pub fn close_tokens(&self, probe: &TokenProbe, text: &str) -> Vec<Sym> {
        let mut out = Vec::new();
        let mut scratch = JaroScratch::default();
        for_each_token(text, |t| {
            let gt = TokenGate::of(t);
            for (len, slice) in probe.len_start.windows(2).enumerate() {
                let len = len as u32;
                // The pair gate, split so the scan compares integers: the
                // inequality is monotone in `m`, so per length it becomes
                // "at least `need` matches", found from the top; a length
                // that fails with every character matched is skipped whole.
                let reaches = |m| self.bound_reaches_theta(m, gt.len, len, 4);
                let mut need = gt.len.min(len);
                if slice[0] == slice[1] || !reaches(need) {
                    continue;
                }
                while need > 0 && reaches(need - 1) {
                    need -= 1;
                }
                for &(mask, u) in &probe.tokens[slice[0] as usize..slice[1] as usize] {
                    let m = gt.match_bound(TokenGate { len, mask });
                    if m < need {
                        continue;
                    }
                    let tu = self.interner.resolve(u);
                    if self.bound_reaches_theta(m, gt.len, len, winkler_prefix(t, tu))
                        && (tu == t || jaro_winkler_with(&mut scratch, t, tu) >= self.theta)
                    {
                        out.push(u);
                    }
                }
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// SoftTFIDF similarity of two pre-weighted values, in `[0, 1]`. `b`
    /// must be a vocabulary value ([`Self::doc`]); `a` may be a query.
    ///
    /// Token pairs that provably cannot reach θ are skipped by the pair
    /// gate before any Jaro–Winkler work; the result is bit-identical
    /// to the unfiltered scan.
    pub fn similarity(&self, a: &SoftDoc, b: &SoftDoc, memo: &mut JwMemo) -> f64 {
        debug_assert!(b.oov.is_empty(), "the second value must be in vocabulary");
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() && b.is_empty() { 1.0 } else { 0.0 };
        }
        let mut sum = 0.0;
        for (ai, &(t, wa)) in a.entries.iter().enumerate() {
            // Exact matches short-circuit the O(|T|) scan. (An
            // out-of-vocabulary `t` is above every id in `b`.)
            if let Ok(bi) = b.entries.binary_search_by_key(&t, |&(u, _)| u) {
                sum += wa * b.entries[bi].1;
                continue;
            }
            let ga = a.gates[ai];
            let ta = match (t.0 as usize).checked_sub(self.interner.len()) {
                None => self.interner.resolve(t),
                Some(i) => a.oov[i].as_str(),
            };
            let mut best = 0.0f64;
            let mut best_w = 0.0f64;
            for (bi, &(u, wb)) in b.entries.iter().enumerate() {
                if !self.may_reach_theta(ta, ga, u, b.gates[bi]) {
                    continue;
                }
                let s = memo.jw(t, u, ta, self.interner.resolve(u));
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::intern::InternerBuilder;

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

    /// Lowercase alphanumeric tokens over an alphabet small enough that
    /// repeats and near-collisions are the norm, with every kind of
    /// character class: letters, digits, and two-byte `é`/`ß`.
    fn token() -> impl Strategy<Value = String> {
        "[abcdeéß12]{1,9}"
    }

    /// `token` with one edit at `pos`: transpose, delete, substitute,
    /// insert or double a character — what keeps Jaro–Winkler near θ.
    fn edited(token: &str, edit: usize, pos: usize) -> String {
        let mut chars: Vec<char> = token.chars().collect();
        let pos = pos % chars.len();
        match edit {
            0 if pos + 1 < chars.len() => chars.swap(pos, pos + 1),
            1 if chars.len() > 1 => drop(chars.remove(pos)),
            2 => chars[pos] = 'é',
            3 => chars.insert(pos, 'b'),
            _ => chars.insert(pos, chars[pos]),
        }
        chars.into_iter().collect()
    }

    const THETAS: [f64; 3] = [0.8, 0.9, 1.0];

    proptest! {
        /// The pair gate is sound: it passes every pair that reaches θ.
        #[test]
        fn pair_gate_never_rejects_a_close_pair(
            t in token(),
            other in token(),
            edits in prop::collection::vec((0usize..5, 0usize..9), 0..3),
            theta_idx in 0..THETAS.len(),
        ) {
            // No edits: an unrelated token; otherwise `t`, edited once or twice.
            let u = match edits.as_slice() {
                [] => other,
                edits => edits.iter().fold(t.clone(), |u, &(e, p)| edited(&u, e, p)),
            };
            let mut builder = InternerBuilder::new();
            let raw = builder.intern(&u);
            let interner = builder.finalize();
            let corpus = InternedCorpus::default();
            let soft = InternedSoftTfIdf::new(&interner, &corpus, THETAS[theta_idx]);
            let passed =
                soft.may_reach_theta(&t, TokenGate::of(&t), interner.sym(raw), TokenGate::of(&u));
            let jw = jaro_winkler(&t, &u);
            prop_assert!(passed || jw < soft.theta, "{:?} / {:?}: jw {} rejected", t, u, jw);
        }

        /// The probe returns exactly the tokens a scan of the vocabulary
        /// would: equal or θ-close to some token of the text.
        #[test]
        fn close_tokens_is_the_brute_force_set(
            vocab in prop::collection::vec(token(), 1..16),
            t in token(),
            t2 in token(),
            edits in prop::collection::vec((0usize..5, 0usize..9), 0..8),
            theta_idx in 0..THETAS.len(),
        ) {
            let theta = THETAS[theta_idx];
            let mut builder = InternerBuilder::new();
            for v in &vocab {
                builder.intern(v);
            }
            for &(e, p) in &edits {
                builder.intern(&edited(&t, e, p));
            }
            let interner = builder.finalize();
            let corpus = InternedCorpus::default();
            let soft = InternedSoftTfIdf::new(&interner, &corpus, theta);
            let all = || (0..interner.len() as u32).map(Sym);
            let probe = TokenProbe::new(&interner, all());
            for text in [t.clone(), format!("{t} {t2}"), String::new()] {
                let want: Vec<Sym> = all()
                    .filter(|&u| {
                        let tu = interner.resolve(u);
                        tokens(&text).iter().any(|t| tu == t || jaro_winkler(t, tu) >= theta)
                    })
                    .collect();
                prop_assert_eq!(soft.close_tokens(&probe, &text), want, "text {:?}", text);
            }
        }
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
