//! Word-level tokenization of attribute values and titles.
//!
//! The paper collects "bags of words" over attribute values (Section 3.1,
//! Figure 5c): a value such as `"ATA 100 mb/s"` contributes the tokens
//! `ata`, `100`, `mb`, `s`. We tokenize on any non-alphanumeric boundary,
//! lowercase everything, and additionally split at letter/digit boundaries so
//! that merchant-formatted values like `"500GB"` and catalog values like
//! `"500 GB"` produce comparable token streams.

/// Visit every token of `input` without allocating a `Vec<String>`.
///
/// Tokens are produced in input order, each borrowed from one scratch
/// `String` that is reused between tokens — callers that only need to look
/// at each token (interners, counters, hash lookups) avoid the per-token
/// allocation of [`tokens`].
///
/// ASCII input takes a byte-level fast path (`is_ascii_alphanumeric` /
/// `to_ascii_lowercase`); any non-ASCII byte falls back to the full Unicode
/// path (`char::is_alphanumeric`, and the alphanumeric chars of the
/// `char::to_lowercase` iterator, so a token tokenizes to itself). Both
/// paths produce identical tokens for ASCII text, since the ASCII subsets of
/// the Unicode predicates coincide with their `ascii` counterparts.
pub fn for_each_token<F: FnMut(&str)>(input: &str, mut f: F) {
    let mut cur = String::new();
    let mut cur_is_digit = false;
    if input.is_ascii() {
        for &b in input.as_bytes() {
            if b.is_ascii_alphanumeric() {
                let is_digit = b.is_ascii_digit();
                if !cur.is_empty() && is_digit != cur_is_digit {
                    f(&cur);
                    cur.clear();
                }
                cur_is_digit = is_digit;
                cur.push(b.to_ascii_lowercase() as char);
            } else if !cur.is_empty() {
                f(&cur);
                cur.clear();
            }
        }
    } else {
        for ch in input.chars() {
            if ch.is_alphanumeric() {
                let is_digit = ch.is_ascii_digit();
                if !cur.is_empty() && is_digit != cur_is_digit {
                    f(&cur);
                    cur.clear();
                }
                cur_is_digit = is_digit;
                // A lowercase mapping can add a combining mark (`İ` →
                // `i` + U+0307); it is not alphanumeric, so keeping it
                // would make the token split on a second pass.
                cur.extend(ch.to_lowercase().filter(|lc| lc.is_alphanumeric()));
            } else if !cur.is_empty() {
                f(&cur);
                cur.clear();
            }
        }
    }
    if !cur.is_empty() {
        f(&cur);
    }
}

/// Tokenize `input` into lowercase alphanumeric tokens.
///
/// Splitting happens at every non-alphanumeric character and at every
/// transition between letters and digits. Empty tokens are never produced.
///
/// ```
/// use pse_text::tokenize::tokens;
/// assert_eq!(tokens("ATA 100 mb/s"), ["ata", "100", "mb", "s"]);
/// assert_eq!(tokens("500GB"), ["500", "gb"]);
/// assert_eq!(tokens("  "), Vec::<String>::new());
/// ```
pub fn tokens(input: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(input, |t| out.push(t.to_string()));
    out
}

/// Tokenize without splitting at letter/digit boundaries.
///
/// Useful when the caller wants tokens that stay closer to the surface form
/// (e.g. model numbers such as `hdt725050vla360` must remain one token when
/// clustering offers by key attribute).
///
/// ```
/// use pse_text::tokenize::surface_tokens;
/// assert_eq!(surface_tokens("MPN: HDT725050VLA360"), ["mpn", "hdt725050vla360"]);
/// ```
pub fn surface_tokens(input: &str) -> Vec<String> {
    input
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-fast-path implementation, kept as the reference the ASCII
    /// byte loop must agree with on every input.
    fn tokens_reference(input: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut cur_is_digit = false;
        for ch in input.chars() {
            if ch.is_alphanumeric() {
                let is_digit = ch.is_ascii_digit();
                if !cur.is_empty() && is_digit != cur_is_digit {
                    out.push(std::mem::take(&mut cur));
                }
                cur_is_digit = is_digit;
                for lc in ch.to_lowercase() {
                    cur.push(lc);
                }
            } else if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(tokens("Serial ATA-300"), ["serial", "ata", "300"]);
        assert_eq!(tokens("3.5\" x 1/3H"), ["3", "5", "x", "1", "3", "h"]);
    }

    #[test]
    fn splits_letter_digit_boundaries() {
        assert_eq!(tokens("7200rpm"), ["7200", "rpm"]);
        assert_eq!(tokens("HDT725050VLA360"), ["hdt", "725050", "vla", "360"]);
    }

    #[test]
    fn surface_tokens_keep_mixed_tokens_whole() {
        assert_eq!(surface_tokens("HDT725050VLA360"), ["hdt725050vla360"]);
        assert_eq!(surface_tokens("a--b"), ["a", "b"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokens("").is_empty());
        assert!(tokens("--- / ---").is_empty());
        assert!(surface_tokens("!!!").is_empty());
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(tokens("Größe"), ["größe"]);
        assert_eq!(tokens("ÉCRAN"), ["écran"]);
    }

    #[test]
    fn unicode_digits_do_not_split_like_ascii_digits() {
        // U+0661 ARABIC-INDIC ONE is alphanumeric but not an ASCII digit:
        // both paths must agree it glues to letters.
        assert_eq!(tokens("ab٣cd"), tokens_reference("ab٣cd"));
        // German sharp s uppercases/lowercases asymmetrically.
        assert_eq!(tokens("GROẞE Straße 22"), tokens_reference("GROẞE Straße 22"));
    }

    #[test]
    fn ascii_fast_path_matches_reference() {
        for s in [
            "",
            "Serial ATA-300",
            "3.5\" x 1/3H",
            "HDT725050VLA360",
            "500GB SATA 7200rpm",
            "--- / ---",
            "a1b2c3",
            "MiXeD CaSe 42X",
        ] {
            assert!(s.is_ascii());
            assert_eq!(tokens(s), tokens_reference(s), "input {s:?}");
        }
    }

    #[test]
    fn mixed_ascii_unicode_boundaries() {
        // Non-ASCII input exercises the Unicode path; the split points around
        // the multi-byte chars must not shift.
        assert_eq!(tokens("écran500GB"), tokens_reference("écran500GB"));
        assert_eq!(tokens("größe-42µm"), tokens_reference("größe-42µm"));
        assert_eq!(tokens("日本語 500GB"), tokens_reference("日本語 500GB"));
    }

    #[test]
    fn for_each_token_matches_tokens() {
        for s in ["", "a b c", "500GB SATA", "Größe 42µ", "x9y"] {
            let mut seen = Vec::new();
            for_each_token(s, |t| seen.push(t.to_string()));
            assert_eq!(seen, tokens(s));
        }
    }
}
