//! Normalization of attribute names and values.
//!
//! Attribute names arrive in many surface forms (`"Mfr. Part #"`,
//! `"MPN:"`, `"  Capacity "`); values likewise (`"500 GB"` vs `"500GB"`).
//! The pipeline compares names and values through these canonical forms.

use crate::tokenize::{for_each_token, tokens};

/// Canonical form of an attribute name: lowercase tokens joined by a single
/// space, with trailing separators (`:` etc.) removed by tokenization.
///
/// ```
/// use pse_text::normalize::normalize_attribute_name;
/// assert_eq!(normalize_attribute_name("  Hard Disk Size: "), "hard disk size");
/// assert_eq!(normalize_attribute_name("MPN"), "mpn");
/// ```
pub fn normalize_attribute_name(name: &str) -> String {
    joined_tokens(name)
}

/// Whether `name` is already its own [`normalize_attribute_name`], so a
/// caller that owns it can keep it instead of normalizing a copy. ASCII
/// input is checked without allocating: lowercase letters and digits in
/// single-space-separated runs, with no letter next to a digit.
///
/// ```
/// use pse_text::normalize::is_normalized_attribute_name;
/// assert!(is_normalized_attribute_name("hard disk size"));
/// assert!(!is_normalized_attribute_name("Hard Disk Size"));
/// assert!(!is_normalized_attribute_name("500gb"));
/// ```
pub fn is_normalized_attribute_name(name: &str) -> bool {
    if !name.is_ascii() {
        return normalize_attribute_name(name) == name;
    }
    let bytes = name.as_bytes();
    let token_byte = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit();
    !name.starts_with(' ')
        && !name.ends_with(' ')
        && bytes.iter().all(|&b| b == b' ' || token_byte(b))
        && bytes.windows(2).all(|w| match (w[0], w[1]) {
            (b' ', b' ') => false,
            (b' ', _) | (_, b' ') => true,
            (x, y) => x.is_ascii_digit() == y.is_ascii_digit(),
        })
}

/// Canonical form of an attribute value: lowercase tokens joined by a single
/// space. Letter/digit splitting makes `"500GB"` and `"500 gb"` equal.
///
/// ```
/// use pse_text::normalize::normalize_value;
/// assert_eq!(normalize_value("500GB"), normalize_value("500 Gb"));
/// ```
pub fn normalize_value(value: &str) -> String {
    joined_tokens(value)
}

/// `tokens(input).join(" ")`, written into one string as the tokens come
/// (tokens are never empty) instead of allocating each token first.
fn joined_tokens(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for_each_token(input, |token| {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(token);
    });
    out
}

/// Whether two attribute names are the same after normalization.
pub fn names_equal(a: &str, b: &str) -> bool {
    normalize_attribute_name(a) == normalize_attribute_name(b)
}

/// Loose value equivalence used when labeling synthesized specifications
/// against ground truth: equal normal forms, one token sequence containing
/// the other (so `"windows vista"` is accepted against
/// `"microsoft windows vista"`), or equal separator-free concatenations
/// (so `"SerialATA300"` matches `"Serial ATA 300"`) — mirroring how the
/// paper's human labelers treated manufacturer specifications.
pub fn values_equivalent(a: &str, b: &str) -> bool {
    let ta = tokens(a);
    let tb = tokens(b);
    if ta.is_empty() || tb.is_empty() {
        return ta == tb;
    }
    ta == tb
        || ta.concat() == tb.concat()
        || contains_subsequence(&ta, &tb)
        || contains_subsequence(&tb, &ta)
        || digit_sequences_equal(&ta, &tb)
}

/// For values carrying numbers, a labeler checks the magnitudes: `"500
/// gigabytes"` and `"500 GB"` describe the same capacity even though no
/// token-level relation holds. True when both token sequences contain at
/// least one digit token and their digit subsequences are identical.
fn digit_sequences_equal(ta: &[String], tb: &[String]) -> bool {
    let da: Vec<&String> = ta.iter().filter(|t| t.bytes().all(|b| b.is_ascii_digit())).collect();
    let db: Vec<&String> = tb.iter().filter(|t| t.bytes().all(|b| b.is_ascii_digit())).collect();
    !da.is_empty() && da == db
}

/// True when `needle` appears in `haystack` as a contiguous subsequence.
fn contains_subsequence(haystack: &[String], needle: &[String]) -> bool {
    if needle.is_empty() || needle.len() > haystack.len() {
        return false;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Writing the tokens into one string is the join of the tokens,
        /// on ASCII and non-ASCII input (`İ` lowercases to two chars).
        #[test]
        fn joined_tokens_is_the_join_of_the_tokens(input in "[aB3 .:_#éÉİß7]{0,24}") {
            prop_assert_eq!(joined_tokens(&input), tokens(&input).join(" "));
        }

        #[test]
        fn is_normalized_means_normalizing_changes_nothing(input in "[ab3 B.:éİ7]{0,12}") {
            let normalized = normalize_attribute_name(&input);
            prop_assert_eq!(is_normalized_attribute_name(&input), normalized == input);
            // Idempotent on every input, `İ` (which lowercases to `i`
            // and a combining dot) included.
            prop_assert!(is_normalized_attribute_name(&normalized));
        }
    }

    #[test]
    fn attribute_names_normalize() {
        assert_eq!(normalize_attribute_name("Mfr. Part #"), "mfr part");
        assert!(names_equal("Hard-Disk  Size", "hard disk size"));
        assert!(!names_equal("Speed", "RPM"));
    }

    #[test]
    fn values_normalize() {
        assert_eq!(normalize_value("7200 RPM"), normalize_value("7200rpm"));
        assert_eq!(normalize_value("Serial ATA-300"), normalize_value("serial ata 300"));
        assert_ne!(normalize_value("500"), normalize_value("5000"));
    }

    #[test]
    fn equivalence_accepts_containment() {
        assert!(values_equivalent("Windows Vista", "Microsoft Windows Vista"));
        assert!(values_equivalent("Microsoft Windows Vista", "Windows Vista"));
        assert!(!values_equivalent("Microsoft Vista", "Windows Vista"));
    }

    #[test]
    fn equivalence_accepts_equal_magnitudes() {
        assert!(values_equivalent("500 gigabytes", "500 GB"));
        assert!(values_equivalent("7200", "7200 rpm"));
        assert!(!values_equivalent("250 GB", "500 GB"));
        assert!(!values_equivalent("18-55 mm", "70-300 mm"));
        // No digits on either side: the magnitude rule never fires.
        assert!(!values_equivalent("W Digital", "Western Digital"));
    }

    #[test]
    fn equivalence_on_empties() {
        assert!(values_equivalent("", "  "));
        assert!(!values_equivalent("", "x"));
        assert!(!values_equivalent("x", "--"));
    }

    #[test]
    fn subsequence_edges() {
        let h: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let n: Vec<String> = ["b", "c"].iter().map(|s| s.to_string()).collect();
        assert!(contains_subsequence(&h, &n));
        assert!(!contains_subsequence(&n, &h));
        assert!(!contains_subsequence(&h, &[]));
    }
}
