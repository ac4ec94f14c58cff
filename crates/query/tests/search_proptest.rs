//! Property pin: the inverted-index search is byte-identical to the
//! naive full-scan reference over arbitrary small catalogs and queries.
//!
//! The generator draws tokens from a tiny alphabet on purpose — heavy
//! collisions between attribute names, values, and query tokens are
//! exactly where an unsound candidate set (a document the scan keeps
//! but the postings miss) would show up. Values mixing digit and word
//! tokens exercise the `values_equivalent` digit-sequence rule, the one
//! case where a satisfying document can share no literal token with the
//! resolved constraint.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use pse_core::{CategoryId, CorrespondenceSet, Spec};
use pse_query::{search, search_scan, CategoryIndex, SearchIndex};
use pse_synthesis::SynthesizedProduct;
use pse_text::normalize::values_equivalent;
use pse_text::tokens;

// Word and digit tokens in one alphabet: digit-heavy values exercise
// the `values_equivalent` magnitude rule.
const ALPHABET: &[&str] =
    &["canon", "nikon", "silver", "black", "gb", "mp", "pro", "mini", "12", "500", "7200", "8"];
const ATTRS: &[&str] = &["brand", "color", "capacity", "resolution"];

fn token() -> impl Strategy<Value = String> {
    (0..ALPHABET.len()).prop_map(|i| ALPHABET[i].to_string())
}

fn value() -> impl Strategy<Value = String> {
    proptest::collection::vec(token(), 1..3).prop_map(|t| t.join(" "))
}

fn spec() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(((0..ATTRS.len()).prop_map(|i| ATTRS[i].to_string()), value()), 1..4)
}

fn products() -> impl Strategy<Value = Vec<SynthesizedProduct>> {
    proptest::collection::vec((0u32..3, value(), spec()), 1..12).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (cat, key, pairs))| SynthesizedProduct {
                category: CategoryId(cat),
                key_attribute: "MPN".into(),
                // Distinct keys: the serving layer's cluster merge
                // guarantees uniqueness per (category, attr, key).
                key_value: format!("{key} {i}"),
                spec: Spec::from_pairs(pairs),
                offers: Vec::new(),
            })
            .collect()
    })
}

fn query() -> impl Strategy<Value = String> {
    proptest::collection::vec(token(), 0..6).prop_map(|t| t.join(" "))
}

fn build(products: &[SynthesizedProduct]) -> SearchIndex {
    let mut by_cat: BTreeMap<CategoryId, Vec<&SynthesizedProduct>> = BTreeMap::new();
    for p in products {
        by_cat.entry(p.category).or_default().push(p);
    }
    let cs = CorrespondenceSet::new();
    by_cat
        .into_iter()
        .map(|(cat, mut ps)| {
            ps.sort_by(|a, b| {
                (&a.key_attribute, &a.key_value).cmp(&(&b.key_attribute, &b.key_value))
            });
            (cat, Arc::new(CategoryIndex::build(cat, &ps, &cs)))
        })
        .collect()
}

/// Unit spellings that prefix-align with the alphabet's (`"gbit"`/`"gb"`,
/// `"min"`/`"mini"`), a single-character leftover, and magnitudes no
/// value carries — for hinted phrases only.
const PHRASE_EXTRA: &[&str] = &["gbit", "min", "g", "5", "50"];

fn phrase() -> impl Strategy<Value = Vec<String>> {
    let n = ALPHABET.len() + PHRASE_EXTRA.len();
    proptest::collection::vec(0..n, 0..5).prop_map(|ix| {
        ix.into_iter()
            .map(|i| ALPHABET.iter().chain(PHRASE_EXTRA).nth(i).unwrap().to_string())
            .collect()
    })
}

fn is_digits(t: &str) -> bool {
    t.bytes().all(|b| b.is_ascii_digit())
}

/// The string definition of the hinted magnitude match, as
/// `hinted_equivalent_values` applied it to every re-tokenized entry
/// before it compared interned tokens.
fn hinted_value_match(phrase: &[String], value: &[String]) -> bool {
    let pd: Vec<&String> = phrase.iter().filter(|t| is_digits(t)).collect();
    let vd: Vec<&String> = value.iter().filter(|t| is_digits(t)).collect();
    if pd.is_empty() || pd != vd {
        return false;
    }
    let prefix_align = |a: &str, b: &str| {
        a == b || (a.len() >= 2 && b.len() >= 2 && (a.starts_with(b) || b.starts_with(a)))
    };
    phrase
        .iter()
        .filter(|t| !is_digits(t) && t.len() >= 2)
        .all(|p| value.iter().filter(|t| !is_digits(t)).any(|v| prefix_align(p, v)))
}

proptest! {
    /// The interned value equivalences equal the string scans they
    /// replaced (`search_scan` still runs the string one per document).
    #[test]
    fn value_equivalence_equals_the_string_scan(
        ps in products(),
        q in phrase(),
        attrs in proptest::collection::vec((0..ATTRS.len()).prop_map(|i| ATTRS[i].to_string()), 0..3),
    ) {
        for ci in build(&ps).values() {
            // Entry ids are ranks in (attr, value) order.
            let entries: BTreeSet<&(String, String)> =
                ci.docs().iter().flat_map(|d| &d.pairs).collect();
            let scan = |keep: &dyn Fn(&str, &str) -> bool| -> Vec<u32> {
                let hits = entries.iter().enumerate().filter(|(_, (a, v))| keep(a, v));
                hits.map(|(i, _)| i as u32).collect()
            };
            for value in entries.iter().map(|(_, v)| v.clone()).chain([q.join(" ")]) {
                let want = scan(&|_, v| values_equivalent(v, &value));
                prop_assert_eq!(ci.equivalent_values(&value), want, "value {:?}", value);
            }
            // Hinted phrases: every prefix of `q`, and every indexed value
            // with its unit tokens swapped for `q`'s — same magnitudes,
            // units that align, clash or vanish.
            let mut phrases: Vec<Vec<String>> = (0..=q.len()).map(|len| q[..len].to_vec()).collect();
            for (_, v) in entries.iter().filter(|_| !q.is_empty()) {
                let mut units = q.iter().cycle().cloned();
                let swap = |t: String| if is_digits(&t) { t } else { units.next().unwrap() };
                phrases.push(tokens(v).into_iter().map(swap).collect());
            }
            for phrase in &phrases {
                let want = scan(&|a, v| {
                    attrs.iter().any(|h| h == a)
                        && (hinted_value_match(phrase, &tokens(v))
                            || (!phrase.iter().any(|t| is_digits(t))
                                && values_equivalent(&phrase.join(" "), v)))
                });
                let got = ci.hinted_equivalent_values(&attrs, phrase);
                prop_assert_eq!(got, want, "attrs {:?} phrase {:?}", attrs, phrase);
            }
        }
    }

    #[test]
    fn index_search_equals_full_scan(ps in products(), q in query(), k in 1usize..8) {
        let idx = build(&ps);
        prop_assert_eq!(search(&idx, &q, k), search_scan(&idx, &q, k));
    }

    #[test]
    fn search_is_deterministic(ps in products(), q in query()) {
        let idx = build(&ps);
        let a = search(&idx, &q, 10);
        let b = search(&build(&ps), &q, 10);
        prop_assert_eq!(a, b);
    }
}
