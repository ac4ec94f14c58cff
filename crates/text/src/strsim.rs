//! Classical string-similarity measures.
//!
//! These back the baseline matchers of Section 5: COMA++'s name matchers use
//! normalized edit distance and trigram similarity; DUMAS's SoftTFIDF uses
//! Jaro–Winkler as its inner character-level measure.

/// Levenshtein edit distance between two strings (unit costs), computed over
/// Unicode scalar values with a single rolling row — O(|a|·|b|) time,
/// O(min(|a|,|b|)) space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    if short.is_empty() {
        return long.len();
    }
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[short.len()]
}

/// Normalized edit-distance similarity in `[0, 1]`:
/// `1 - lev(a, b) / max(|a|, |b|)`. Two empty strings are fully similar.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Reusable buffers for [`jaro`] / [`jaro_winkler`] in hot loops. A fresh
/// computation needs four heap allocations; callers scoring many pairs (e.g.
/// the SoftTFIDF memo) hold one scratch and amortize them away.
#[derive(Debug, Default)]
pub struct JaroScratch {
    a: Vec<char>,
    b: Vec<char>,
    b_matched: Vec<bool>,
    a_match_idx: Vec<usize>,
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_with(&mut JaroScratch::default(), a, b)
}

/// [`jaro`] with caller-provided scratch buffers.
pub fn jaro_with(s: &mut JaroScratch, a: &str, b: &str) -> f64 {
    s.a.clear();
    s.a.extend(a.chars());
    s.b.clear();
    s.b.extend(b.chars());
    let (a, b) = (&s.a, &s.b);
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    s.b_matched.clear();
    s.b_matched.resize(b.len(), false);
    let b_matched = &mut s.b_matched;
    let mut matches = 0usize;
    s.a_match_idx.clear();
    let a_match_idx = &mut s.a_match_idx;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                b_matched[j] = true;
                a_match_idx.push(j);
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions between the matched sequences: a_match_idx holds
    // the matched b-positions in a-order; walking b_matched's set positions
    // yields the same positions in ascending (b-) order. Half-transpositions
    // are indices where the two orders differ.
    let mut transpositions = 0usize;
    let mut in_b_order = b_matched.iter().enumerate().filter(|&(_, &m)| m).map(|(j, _)| j);
    for &j in a_match_idx.iter() {
        if in_b_order.next() != Some(j) {
            transpositions += 1;
        }
    }
    let t = transpositions as f64 / 2.0;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro–Winkler similarity with the standard scaling factor 0.1 and prefix
/// length capped at 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(&mut JaroScratch::default(), a, b)
}

/// [`jaro_winkler`] with caller-provided scratch buffers.
pub fn jaro_winkler_with(s: &mut JaroScratch, a: &str, b: &str) -> f64 {
    let j = jaro_with(s, a, b);
    j + winkler_prefix(a, b) as f64 * 0.1 * (1.0 - j)
}

/// Length of the common prefix, counted up to Winkler's cap of 4.
pub(crate) fn winkler_prefix(a: &str, b: &str) -> usize {
    a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count()
}

/// The multiset of character `n`-grams of `s` (over a lowercased, padded
/// form). Padding with `n - 1` boundary markers gives edge grams weight,
/// matching common schema-matcher implementations.
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram size must be positive");
    if s.is_empty() {
        return Vec::new();
    }
    let padded: Vec<char> = std::iter::repeat_n('\u{1}', n - 1)
        .chain(s.to_lowercase().chars())
        .chain(std::iter::repeat_n('\u{1}', n - 1))
        .collect();
    if padded.len() < n {
        return Vec::new();
    }
    padded.windows(n).map(|w| w.iter().collect()).collect()
}

/// Dice coefficient over character trigram multisets — COMA++'s "Trigram"
/// name matcher. Returns a value in `[0, 1]`.
pub fn trigram_dice(a: &str, b: &str) -> f64 {
    let ga = char_ngrams(a, 3);
    let gb = char_ngrams(b, 3);
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let mut counts = std::collections::HashMap::new();
    for g in &ga {
        *counts.entry(g.as_str()).or_insert(0i64) += 1;
    }
    let mut shared = 0i64;
    for g in &gb {
        if let Some(c) = counts.get_mut(g.as_str()) {
            if *c > 0 {
                *c -= 1;
                shared += 1;
            }
        }
    }
    2.0 * shared as f64 / (ga.len() + gb.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_similarity_bounds() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("a", "b"), 0.0);
        let s = levenshtein_similarity("capacity", "capacities");
        assert!((s - 0.7).abs() < 1e-12, "lev(capacity, capacities)=3, max len 10");
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.944_444).abs() < 1e-5);
        assert!((jaro("dixon", "dicksonx") - 0.766_667).abs() < 1e-5);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro_winkler("martha", "marhta") - 0.961_111).abs() < 1e-5);
        assert!((jaro_winkler("dixon", "dicksonx") - 0.813_333).abs() < 1e-5);
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn jaro_winkler_is_at_least_jaro() {
        for (a, b) in [("speed", "spend"), ("rpm", "rotation"), ("x", "y")] {
            assert!(jaro_winkler(a, b) >= jaro(a, b) - 1e-12);
        }
    }

    #[test]
    fn trigram_dice_basics() {
        assert_eq!(trigram_dice("", ""), 1.0);
        assert_eq!(trigram_dice("abc", ""), 0.0);
        assert!((trigram_dice("night", "night") - 1.0).abs() < 1e-12);
        let s = trigram_dice("memory technology", "graphic technology");
        assert!(s > 0.3 && s < 0.9, "s={s}");
    }

    #[test]
    fn ngrams_padding() {
        let g = char_ngrams("ab", 3);
        // padded: # # a b # # -> 4 trigrams
        assert_eq!(g.len(), 4);
        assert!(char_ngrams("", 3).is_empty());
    }
}
