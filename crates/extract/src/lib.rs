//! Web-page attribute extraction (Section 4 of the paper).
//!
//! The extractor "parses the DOM tree of the Web page and returns all tables
//! on the page. It also selects the attribute-value pairs from the tables,
//! i.e., rows with two columns, where we consider the first column to be the
//! attribute name and the second column to be the attribute value."
//!
//! Deliberately simple: offers whose specifications are *not* formatted as
//! two-column table rows (bulleted lists, free text) are missed, and noisy
//! rows (marketing copy, review snippets) are extracted as bogus pairs. The
//! downstream Schema Reconciliation component is responsible for filtering
//! that noise — a key claim of the paper validated in the evaluation.

pub mod extractor;

pub use extractor::{extract_pairs, PageExtractor};
