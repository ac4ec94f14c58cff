//! Deterministic string interning for the fast text kernels.
//!
//! Every scorer in the pipeline repeatedly compares the same small token
//! vocabulary (a category's product values, a merchant's offer values).
//! Interning maps each distinct token to a [`Sym`] once, so similarity
//! kernels operate on integer ids instead of `String` keys.
//!
//! Determinism contract: after [`InternerBuilder::finalize`], symbols are
//! assigned in **lexicographic string order** — `Sym(a) < Sym(b)` iff
//! `resolve(a) < resolve(b)`. Two consequences:
//!
//! * the final symbol table depends only on the *set* of interned strings,
//!   never on insertion order (parallel builds can't perturb it);
//! * iterating a symbol-sorted structure visits tokens in exactly the order
//!   a `BTreeMap<String, _>` would, so floating-point sums over
//!   [`crate::sparse::SparseVec`] merge-joins reproduce the historical
//!   `BTreeMap` summation order bit-for-bit.

use std::collections::HashMap;

/// An interned token. Ordering matches the lexicographic ordering of the
/// underlying strings (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

/// Accumulates the token vocabulary. Tokens get *provisional* ids in first-
/// seen order; [`InternerBuilder::finalize`] re-numbers them into sorted
/// order and returns the read-only [`Interner`].
#[derive(Debug, Default)]
pub struct InternerBuilder {
    map: HashMap<String, u32>,
    strings: Vec<String>,
}

impl InternerBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern one token, returning its provisional id (stable within this
    /// builder; remapped to a [`Sym`] by the finalized [`Interner`]).
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.map.get(token) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.map.insert(token.to_string(), id);
        self.strings.push(token.to_string());
        id
    }

    /// Tokenize a raw value (same rules as [`crate::tokenize::tokens`]) and
    /// intern every token, returning provisional ids in token order.
    pub fn tokenize(&mut self, value: &str) -> Vec<u32> {
        let mut out = Vec::new();
        crate::tokenize::for_each_token(value, |t| out.push(self.intern(t)));
        out
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no token has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Sort the vocabulary and freeze it. Records the vocabulary size on the
    /// `text.intern.symbols` counter (pse-obs; no-op when disabled).
    pub fn finalize(self) -> Interner {
        let InternerBuilder { strings, .. } = self;
        let mut order: Vec<u32> = (0..strings.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| strings[a as usize].cmp(&strings[b as usize]));
        let mut remap = vec![0u32; strings.len()];
        for (rank, &prov) in order.iter().enumerate() {
            remap[prov as usize] = rank as u32;
        }
        let mut sorted = vec![String::new(); strings.len()];
        for (prov, s) in strings.into_iter().enumerate() {
            sorted[remap[prov] as usize] = s;
        }
        pse_obs::add("text.intern.symbols", sorted.len() as u64);
        Interner { strings: sorted, remap }
    }
}

/// A frozen, sorted symbol table. See the module docs for the ordering
/// guarantee.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Lexicographically sorted: `strings[s.0]` is the text of `Sym(s.0)`.
    strings: Vec<String>,
    /// Provisional id (from the builder) → final symbol index.
    remap: Vec<u32>,
}

impl Interner {
    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The text of a symbol.
    pub fn resolve(&self, s: Sym) -> &str {
        &self.strings[s.0 as usize]
    }

    /// Find the symbol of an exact token, if interned.
    pub fn lookup(&self, token: &str) -> Option<Sym> {
        self.strings.binary_search_by(|s| s.as_str().cmp(token)).ok().map(|i| Sym(i as u32))
    }

    /// Final symbol of a provisional id handed out by the builder.
    pub fn sym(&self, provisional: u32) -> Sym {
        Sym(self.remap[provisional as usize])
    }

    /// Remap a provisional token sequence into a [`TokenDoc`].
    pub fn doc(&self, provisional: &[u32]) -> TokenDoc {
        TokenDoc { syms: provisional.iter().map(|&p| self.sym(p)).collect() }
    }
}

/// An interned token sequence (tokens in original order, duplicates kept).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenDoc {
    syms: Vec<Sym>,
}

impl TokenDoc {
    /// Number of tokens (with multiplicity).
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether the document has no tokens.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// The symbols in token order.
    pub fn syms(&self) -> &[Sym] {
        &self.syms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_sorted_lexicographically() {
        let mut b = InternerBuilder::new();
        for t in ["zeta", "alpha", "mu", "alpha"] {
            b.intern(t);
        }
        let i = b.finalize();
        assert_eq!(i.len(), 3);
        assert_eq!(i.resolve(Sym(0)), "alpha");
        assert_eq!(i.resolve(Sym(1)), "mu");
        assert_eq!(i.resolve(Sym(2)), "zeta");
    }

    #[test]
    fn final_ids_are_insertion_order_independent() {
        let mut a = InternerBuilder::new();
        let mut b = InternerBuilder::new();
        for t in ["x", "a", "m"] {
            a.intern(t);
        }
        for t in ["m", "x", "a", "x"] {
            b.intern(t);
        }
        let (ia, ib) = (a.finalize(), b.finalize());
        for t in ["x", "a", "m"] {
            assert_eq!(ia.lookup(t), ib.lookup(t), "token {t}");
        }
    }

    #[test]
    fn provisional_ids_remap_to_final_symbols() {
        let mut b = InternerBuilder::new();
        let raw = b.tokenize("Beta alpha BETA");
        let i = b.finalize();
        let doc = i.doc(&raw);
        assert_eq!(doc.len(), 3);
        let texts: Vec<&str> = doc.syms().iter().map(|&s| i.resolve(s)).collect();
        assert_eq!(texts, ["beta", "alpha", "beta"]);
    }

    #[test]
    fn lookup_misses_unseen_tokens() {
        let mut b = InternerBuilder::new();
        b.intern("present");
        let i = b.finalize();
        assert_eq!(i.lookup("present"), Some(Sym(0)));
        assert_eq!(i.lookup("absent"), None);
        assert!(Interner::default().lookup("x").is_none());
    }

    #[test]
    fn sym_order_matches_string_order() {
        let mut b = InternerBuilder::new();
        for t in ["100", "gb", "ata", "z9"] {
            b.intern(t);
        }
        let i = b.finalize();
        let mut syms: Vec<Sym> = (0..i.len() as u32).map(Sym).collect();
        syms.sort();
        let texts: Vec<&str> = syms.iter().map(|&s| i.resolve(s)).collect();
        let mut expect = texts.clone();
        expect.sort();
        assert_eq!(texts, expect);
    }
}
