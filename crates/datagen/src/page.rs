//! Landing-page rendering.
//!
//! Every offer gets a merchant landing page with the structure real product
//! pages have: navigation chrome (layout tables), a title block, the
//! specification block — usually a two-column table, sometimes a bulleted
//! list the table extractor misses — and, with configurable probability, a
//! noisy two-column table (customer reviews, shipping details) that the
//! extractor *will* pick up, producing exactly the kind of bogus pairs the
//! paper's Schema Reconciliation step has to filter out.

use pse_core::Spec;
use rand::RngExt;

/// Style decisions for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageStyle {
    /// Render specs as a bulleted list instead of a table.
    pub bullet_specs: bool,
    /// Include a noisy two-column review/shipping table.
    pub noise_table: bool,
    /// Include a `Specifications` banner row (`<th colspan=2>`).
    pub banner_row: bool,
}

/// Render a landing page for an offer.
///
/// `spec` is the merchant-formatted offer specification (the information a
/// scraper could in principle recover); `style` controls the page shape and
/// `rng` draws the noise content.
pub fn render_landing_page<R: rand::Rng + ?Sized>(
    title: &str,
    merchant_name: &str,
    price_cents: u64,
    spec: &Spec,
    style: PageStyle,
    rng: &mut R,
) -> String {
    let mut html = String::with_capacity(2048);
    html.push_str("<!DOCTYPE html><html><head><title>");
    html.push_str(&escape(title));
    html.push_str(
        "</title><style>.nav{width:100%}</style>\
        <script>var tracking = '<table>';</script></head><body>",
    );

    // Navigation chrome: a three-column layout table (ignored by the
    // extractor because its rows are not two-column).
    html.push_str(
        "<table class=\"nav\"><tr>\
         <td>Home</td><td>Departments</td><td>Cart (0)</td>\
         </tr></table>",
    );

    html.push_str("<h1>");
    html.push_str(&escape(title));
    html.push_str("</h1><div class=\"seller\">Sold by ");
    html.push_str(&escape(merchant_name));
    html.push_str(&format!(
        "</div><div class=\"price\">${}.{:02}</div>",
        price_cents / 100,
        price_cents % 100
    ));

    if style.bullet_specs {
        html.push_str("<h2>Product Details</h2><ul>");
        for pair in spec.iter() {
            html.push_str("<li>");
            html.push_str(&escape(&pair.name));
            html.push_str(": ");
            html.push_str(&escape(&pair.value));
            html.push_str("</li>");
        }
        html.push_str("</ul>");
    } else {
        html.push_str("<h2>Specifications</h2><table class=\"specs\">");
        if style.banner_row {
            html.push_str("<tr><th colspan=\"2\">Technical Specifications</th></tr>");
        }
        for pair in spec.iter() {
            html.push_str("<tr><td>");
            html.push_str(&escape(&pair.name));
            html.push_str("</td><td>");
            html.push_str(&escape(&pair.value));
            html.push_str("</td></tr>");
        }
        // Occasional merged marketing row inside the spec table.
        if rng.random_bool(0.3) {
            html.push_str("<tr><td colspan=\"2\">Free shipping on orders over $25!</td></tr>");
        }
        html.push_str("</table>");
    }

    if style.noise_table {
        html.push_str("<h2>Customer Reviews</h2><table class=\"reviews\">");
        let reviewers = ["John D.", "Mary S.", "Alex P.", "Chris W."];
        let blurbs = [
            "Works great, very happy",
            "Arrived quickly, well packaged",
            "Would buy again",
            "Exactly as described",
        ];
        for _ in 0..rng.random_range(1..=3usize) {
            let who = reviewers[rng.random_range(0..reviewers.len())];
            let what = blurbs[rng.random_range(0..blurbs.len())];
            html.push_str(&format!("<tr><td>{who}</td><td>{what}</td></tr>"));
        }
        html.push_str("</table>");
    }

    html.push_str("<table class=\"footer\"><tr><td>About Us</td><td>Contact</td><td>Privacy</td></tr></table>");
    html.push_str("</body></html>");
    html
}

/// Minimal HTML escaping for text content.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spec() -> Spec {
        Spec::from_pairs([("Brand", "Hitachi"), ("Hard Disk Size", "500"), ("RPM", "7200 rpm")])
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn table_page_round_trips_through_extractor() {
        let style = PageStyle { bullet_specs: false, noise_table: false, banner_row: true };
        let html = render_landing_page(
            "Hitachi 500GB",
            "Microwarehouse",
            8999,
            &spec(),
            style,
            &mut rng(),
        );
        let extracted = pse_extract::extract_pairs(&html);
        assert_eq!(extracted.get("Brand"), Some("Hitachi"));
        assert_eq!(extracted.get("Hard Disk Size"), Some("500"));
        assert_eq!(extracted.get("RPM"), Some("7200 rpm"));
    }

    #[test]
    fn bullet_page_yields_no_table_pairs() {
        let style = PageStyle { bullet_specs: true, noise_table: false, banner_row: false };
        let html = render_landing_page("X", "M", 100, &spec(), style, &mut rng());
        let extracted = pse_extract::extract_pairs(&html);
        assert_eq!(extracted.get("Brand"), None);
    }

    #[test]
    fn noise_table_produces_bogus_pairs() {
        let style = PageStyle { bullet_specs: false, noise_table: true, banner_row: false };
        let html = render_landing_page("X", "M", 100, &spec(), style, &mut rng());
        let extracted = pse_extract::extract_pairs(&html);
        // Review rows are two-column, so at least one bogus pair appears.
        assert!(extracted.len() > spec().len(), "extracted {:?}", extracted);
    }

    #[test]
    fn titles_are_escaped() {
        let style = PageStyle { bullet_specs: false, noise_table: false, banner_row: false };
        let html =
            render_landing_page("3.5\" <Drive> & Co", "M", 100, &Spec::new(), style, &mut rng());
        assert!(html.contains("3.5&quot; &lt;Drive&gt; &amp; Co"));
    }
}
