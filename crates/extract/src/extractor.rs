//! The table-based attribute extractor.

use pse_core::Spec;
use pse_html::{extract_tables, parse, Table};

/// Longest attribute *name* cell, in characters; longer first cells are
/// prose, not attribute names. With [`MAX_VALUE_CHARS`], the sanity limits
/// that keep a page-wide layout table from flooding the pipeline with
/// kilobyte-long "values".
pub const MAX_NAME_CHARS: usize = 80;

/// Longest value cell, in characters.
pub const MAX_VALUE_CHARS: usize = 400;

/// The paper's "simple extractor". Rows whose two cells are both `<th>`
/// headers ("Specifications" banners) are skipped.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageExtractor;

impl PageExtractor {
    /// The extractor.
    pub fn new() -> Self {
        Self
    }

    /// Extract attribute–value pairs from a landing page.
    ///
    /// Every table on the page contributes its two-column rows; the first
    /// column is the attribute name, the second the value. Rows failing the
    /// sanity limits are dropped.
    pub fn extract(&self, html: &str) -> Spec {
        let _obs = pse_obs::span("extract.page");
        let doc = parse(html);
        let mut spec = Spec::new();
        for table in extract_tables(&doc) {
            self.extract_from_table(&table, &mut spec);
        }
        pse_obs::incr("extract.pages");
        pse_obs::add("extract.pairs_extracted", spec.len() as u64);
        pse_obs::observe("extract.pairs_per_page", spec.len() as u64);
        spec
    }

    fn extract_from_table(&self, table: &Table, spec: &mut Spec) {
        for row in &table.rows {
            // "Rows with two columns": exactly two cells, neither spanning.
            if row.len() != 2 {
                continue;
            }
            let (name_cell, value_cell) = (&row[0], &row[1]);
            if name_cell.colspan != 1 || value_cell.colspan != 1 {
                continue;
            }
            if name_cell.is_header && value_cell.is_header {
                continue;
            }
            let name = name_cell.text.trim().trim_end_matches(':').trim();
            let value = value_cell.text.trim();
            if name.is_empty() || value.is_empty() {
                continue;
            }
            if exceeds_chars(name, MAX_NAME_CHARS) || exceeds_chars(value, MAX_VALUE_CHARS) {
                continue;
            }
            spec.push(name, value);
        }
    }
}

/// Length limit in *characters*, not bytes — multi-byte UTF-8 text
/// ("Diagonale d'écran") must not hit the limit earlier than ASCII. The
/// byte length is a cheap upper bound on the char count, so most cells
/// skip the char walk entirely.
fn exceeds_chars(s: &str, max: usize) -> bool {
    s.len() > max && s.chars().count() > max
}

/// One-shot convenience: [`PageExtractor::extract`].
pub fn extract_pairs(html: &str) -> Spec {
    PageExtractor::new().extract(html)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_two_column_rows() {
        let html = "\
            <html><body><h1>Hitachi Deskstar</h1>\
            <table>\
              <tr><td>Brand</td><td>Hitachi</td></tr>\
              <tr><td>Capacity:</td><td>500 GB</td></tr>\
              <tr><td>RPM</td><td>7200 rpm</td></tr>\
            </table></body></html>";
        let spec = extract_pairs(html);
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.get("Brand"), Some("Hitachi"));
        assert_eq!(spec.get("Capacity"), Some("500 GB")); // ':' stripped
        assert_eq!(spec.get("rpm"), Some("7200 rpm"));
    }

    #[test]
    fn ignores_three_column_and_merged_rows() {
        let html = "\
            <table>\
              <tr><td>A</td><td>B</td><td>C</td></tr>\
              <tr><td colspan=2>Free shipping on all orders!</td></tr>\
              <tr><td>Interface</td><td>SATA</td></tr>\
            </table>";
        let spec = extract_pairs(html);
        assert_eq!(spec.len(), 1);
        assert_eq!(spec.get("Interface"), Some("SATA"));
    }

    #[test]
    fn misses_bullet_list_specs() {
        // The paper's extractor only handles tables; lists are missed.
        let html = "<ul><li>Brand: Hitachi</li><li>Capacity: 500 GB</li></ul>";
        assert!(extract_pairs(html).is_empty());
    }

    #[test]
    fn collects_from_multiple_tables() {
        let html = "\
            <table><tr><td>Brand</td><td>Sony</td></tr></table>\
            <div>reviews</div>\
            <table><tr><td>Zoom</td><td>10x</td></tr></table>";
        let spec = extract_pairs(html);
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.get("Zoom"), Some("10x"));
    }

    #[test]
    fn extracts_noise_from_non_spec_tables() {
        // Navigation / review tables with a two-column shape produce bogus
        // pairs — by design; schema reconciliation filters them later.
        let html = "\
            <table>\
              <tr><td>John D.</td><td>Great drive, works perfectly</td></tr>\
            </table>";
        let spec = extract_pairs(html);
        assert_eq!(spec.len(), 1);
        assert_eq!(spec.get("John D."), Some("Great drive, works perfectly"));
    }

    #[test]
    fn header_banner_rows_are_skipped() {
        let html = "\
            <table>\
              <tr><th>Specification</th><th>Value</th></tr>\
              <tr><td>Speed</td><td>7200</td></tr>\
            </table>";
        let spec = extract_pairs(html);
        assert_eq!(spec.len(), 1);
        assert_eq!(spec.get("Speed"), Some("7200"));
    }

    #[test]
    fn length_limits_drop_prose() {
        let long = "x".repeat(500);
        let html = format!(
            "<table><tr><td>Description</td><td>{long}</td></tr>\
             <tr><td>Speed</td><td>7200</td></tr></table>"
        );
        let spec = extract_pairs(&html);
        assert_eq!(spec.len(), 1);
    }

    #[test]
    fn length_limits_count_chars_not_bytes() {
        // "é" is 2 bytes in UTF-8. Pin char semantics: a cell of exactly
        // the limit in chars passes even though its byte length is twice
        // the limit.
        let name = "é".repeat(MAX_NAME_CHARS);
        let value = "é".repeat(MAX_VALUE_CHARS);
        let html = format!("<table><tr><td>{name}</td><td>{value}</td></tr></table>");
        let spec = extract_pairs(&html);
        assert_eq!(spec.len(), 1, "multi-byte cells within the char limit must survive");
        assert_eq!(spec.get(&name), Some(value.as_str()));

        // One char over either limit is still rejected.
        let over = "é".repeat(MAX_NAME_CHARS + 1);
        let html = format!("<table><tr><td>{over}</td><td>ok</td></tr></table>");
        assert!(extract_pairs(&html).is_empty());
        let over = "é".repeat(MAX_VALUE_CHARS + 1);
        let html = format!("<table><tr><td>Name</td><td>{over}</td></tr></table>");
        assert!(extract_pairs(&html).is_empty());
    }

    #[test]
    fn empty_cells_dropped() {
        let html =
            "<table><tr><td></td><td>orphan</td></tr><tr><td>Name</td><td> </td></tr></table>";
        assert!(extract_pairs(html).is_empty());
    }

    #[test]
    fn nested_spec_table_inside_layout_table() {
        let html = "\
            <table><tr><td>\
              <table>\
                <tr><td>Brand</td><td>Hitachi</td></tr>\
                <tr><td>Capacity</td><td>500 GB</td></tr>\
              </table>\
            </td><td>sidebar</td></tr></table>";
        let spec = extract_pairs(html);
        // Outer table's single row has 2 cells but the first is empty
        // (nested-table text excluded), so only the inner rows survive.
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.get("Brand"), Some("Hitachi"));
    }

    #[test]
    fn never_panics_on_garbage() {
        for html in ["", "<table>", "<table><tr><td>", "<<<", "<table><tr><td>a<td>b"] {
            let _ = extract_pairs(html);
        }
    }
}
