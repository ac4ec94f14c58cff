//! Query segmentation and constraint resolution.
//!
//! A free-text query is tokenized once with the shared [`pse_text`]
//! tokenizer and then scanned greedily left-to-right against one
//! category's index: at each position the longest phrase (up to
//! [`MAX_PHRASE_TOKENS`]) that names a known attribute or value wins.
//! Attribute-name phrases become *hints* that narrow the very next
//! value constraint; value phrases become [`Constraint`]s — resolved
//! exactly through the interned phrase maps, or through the SoftTFIDF
//! fallback at or above [`FUZZY_THETA`] when no exact phrase starts at
//! the position. Tokens that resolve to nothing stay free text and
//! still participate in TF-IDF ranking.

use pse_text::Sym;

use crate::index::CategoryIndex;

/// Inner SoftTFIDF threshold for the fuzzy value fallback, and the θ of
/// the scorer itself: only near-identical phrasings (token reorderings,
/// small typos) resolve fuzzily; everything else stays free text.
pub const FUZZY_THETA: f64 = 0.90;

/// Longest attribute or value phrase considered during segmentation.
/// Generated values are at most a few tokens; bounding the window keeps
/// segmentation linear in query length.
pub const MAX_PHRASE_TOKENS: usize = 4;

/// Extra category-election weight for each constraint bound through an
/// explicit attribute-name hint: a user who names an attribute that
/// really carries the value is strong evidence for the category, and the
/// bonus lets that interpretation beat an accidental bare-value
/// collision in another category.
pub const HINT_BONUS: f64 = 0.25;

/// Resolution confidence for a hint-scoped equivalent-value match —
/// below exact (the value phrasing differs) but well above the fuzzy
/// threshold (the named attribute plus equal digit content pins it).
const HINTED_EQUIVALENCE_SCORE: f64 = 0.95;

/// One resolved attribute-value constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The query phrase that produced the constraint (normalized
    /// tokens, space-joined).
    pub phrase: String,
    /// Normalized catalog attribute the constraint binds to, when the
    /// segmentation saw an attribute-name hint; empty means "any
    /// attribute with this value".
    pub attribute: String,
    /// The normalized value of the best-resolving entry.
    pub value: String,
    /// Every `(attr, value)` entry the phrase may denote, sorted — a
    /// document satisfies the constraint by matching any of them.
    pub candidates: Vec<(String, String)>,
    /// Resolution confidence: 1.0 for exact, the SoftTFIDF similarity
    /// for fuzzy.
    pub score: f64,
    /// Whether the phrase resolved through the exact interned lookup
    /// (or the equivalent separator-free concatenation — same normal
    /// form, different token boundaries).
    pub exact: bool,
    /// Whether an attribute-name hint narrowed this constraint — the
    /// user named the attribute and the value resolved under it.
    pub hinted: bool,
}

impl Constraint {
    /// Whether a document's sorted non-empty `(attr, value)` pairs
    /// satisfy this constraint: some candidate's attribute appears with
    /// an *equivalent* value (equality, containment, tight concat, or
    /// digit-sequence identity — merchant phrasings of one fact).
    pub fn satisfied_by(&self, pairs: &[(String, String)]) -> bool {
        self.candidates.iter().any(|(ca, cv)| {
            pairs.iter().any(|(da, dv)| {
                da == ca && !dv.is_empty() && pse_text::normalize::values_equivalent(dv, cv)
            })
        })
    }
}

/// The outcome of resolving one query against one category's index.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    /// Constraints in query order.
    pub constraints: Vec<Constraint>,
    /// The category's vote weight: the sum of constraint scores plus
    /// [`HINT_BONUS`] per hint-bound constraint.
    pub score: f64,
    /// Query tokens this interpretation explains: constraint phrase
    /// tokens plus the attribute-name phrases of consumed hints. The
    /// primary election criterion — "ide ata 133" read as one
    /// three-token interface beats a sibling category reading only
    /// "133" as a screen size, whatever the scores.
    pub covered: usize,
}

impl Resolution {
    /// Resolve the already-tokenized query `toks` against `index`.
    /// Deterministic: greedy longest-match left-to-right, exact before
    /// fuzzy, ties broken by entry order.
    pub fn resolve(index: &CategoryIndex, toks: &[String]) -> Self {
        let mut constraints = Vec::new();
        let mut covered = 0usize;
        // Attribute hint from the most recent attribute-name phrase
        // (attributes it may name, token length of the naming phrase),
        // consumed by the next value constraint.
        let mut hint: Option<(Vec<String>, usize)> = None;
        // `CategoryIndex::fuzzy_probe` rows, one per query token.
        let mut probe: Option<Vec<Vec<Sym>>> = None;
        let mut i = 0;
        while i < toks.len() {
            let max_len = MAX_PHRASE_TOKENS.min(toks.len() - i);
            let mut advanced = false;
            // Exact phrases first, longest first: attribute names act
            // as hints, values become constraints. Within one window
            // length: attribute name, exact value, concatenation-equal
            // value, then hint-scoped equivalent value.
            for len in (1..=max_len).rev() {
                let window = &toks[i..i + len];
                if let Some(syms) = index.phrase_syms(window) {
                    if let Some(attrs) = index.exact_attrs(&syms) {
                        hint = Some((attrs.to_vec(), len));
                        i += len;
                        advanced = true;
                        break;
                    }
                    if let Some(ids) = index.exact_values(&syms) {
                        constraints.push(make_constraint(
                            index,
                            window,
                            ids,
                            1.0,
                            true,
                            &mut hint,
                            &mut covered,
                        ));
                        i += len;
                        advanced = true;
                        break;
                    }
                }
                if let Some(ids) = index.concat_values(window) {
                    constraints.push(make_constraint(
                        index,
                        window,
                        ids,
                        1.0,
                        true,
                        &mut hint,
                        &mut covered,
                    ));
                    i += len;
                    advanced = true;
                    break;
                }
            }
            if advanced {
                continue;
            }
            // Hint-scoped equivalence next (after *every* exact window
            // length, so a long near-match can never shadow a shorter
            // exact one): a pending attribute-name hint plus a
            // digit-bearing phrase resolves through magnitude identity
            // with compatible units.
            if let Some((attrs, _)) = hint.clone() {
                for len in (1..=max_len).rev() {
                    let window = &toks[i..i + len];
                    let ids = index.hinted_equivalent_values(&attrs, window);
                    if !ids.is_empty() {
                        constraints.push(make_constraint(
                            index,
                            window,
                            &ids,
                            HINTED_EQUIVALENCE_SCORE,
                            false,
                            &mut hint,
                            &mut covered,
                        ));
                        i += len;
                        advanced = true;
                        break;
                    }
                }
            }
            if advanced {
                continue;
            }
            // Fuzzy fallback, longest phrase first so "cannon" can still
            // bind a multi-token brand; single unresolvable tokens stay
            // free text. The first position to get here probes the index
            // for every token of the query; each window then scores only
            // what its own tokens' rows point at.
            let rows = probe.get_or_insert_with(|| index.fuzzy_probe(toks));
            for len in (1..=max_len).rev() {
                let window = &toks[i..i + len];
                if let Some((id, sim)) = index.fuzzy_window(window, &rows[i..i + len]) {
                    constraints.push(make_constraint(
                        index,
                        window,
                        &[id],
                        sim,
                        false,
                        &mut hint,
                        &mut covered,
                    ));
                    i += len;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                i += 1;
            }
        }
        let score =
            constraints.iter().map(|c| c.score + if c.hinted { HINT_BONUS } else { 0.0 }).sum();
        Self { constraints, score, covered }
    }
}

/// Turn resolved value-entry ids into a [`Constraint`], applying (and
/// consuming) a pending attribute hint: when the hint intersects the
/// candidate attributes the candidates narrow to the intersection,
/// otherwise the hint is dropped — a mismatched hint must not veto an
/// exact value match. `covered` accumulates the query tokens this
/// constraint explains — its phrase, plus the attribute-name phrase of
/// a hint it consumed.
fn make_constraint(
    index: &CategoryIndex,
    window: &[String],
    ids: &[u32],
    score: f64,
    exact: bool,
    hint: &mut Option<(Vec<String>, usize)>,
    covered: &mut usize,
) -> Constraint {
    let mut candidates: Vec<(String, String)> = ids
        .iter()
        .map(|&id| {
            let e = index.value_entry(id);
            (e.attr.clone(), e.value.clone())
        })
        .collect();
    candidates.sort();
    candidates.dedup();
    let mut attribute = String::new();
    let mut hinted = false;
    *covered += window.len();
    if let Some((attrs, hint_len)) = hint.take() {
        let narrowed: Vec<(String, String)> =
            candidates.iter().filter(|(a, _)| attrs.contains(a)).cloned().collect();
        if !narrowed.is_empty() {
            candidates = narrowed;
            hinted = true;
            *covered += hint_len;
            if candidates.iter().all(|(a, _)| *a == candidates[0].0) {
                attribute = candidates[0].0.clone();
            }
        }
    } else if candidates.iter().all(|(a, _)| *a == candidates[0].0) {
        // Unambiguous even without a hint — echo the attribute.
        attribute = candidates[0].0.clone();
    }
    Constraint {
        phrase: window.join(" "),
        attribute,
        value: candidates[0].1.clone(),
        candidates,
        score,
        exact,
        hinted,
    }
}
