//! Offer-specification providers.
//!
//! The pipeline needs attribute–value pairs for an offer. Where they come
//! from varies: the offline phase and the run-time phase both extract them
//! from landing pages ("Web-page Attribute Extraction" in Figure 4), tests
//! inject them directly, and ablations bypass extraction noise. The
//! [`SpecProvider`] trait abstracts the source.

use pse_core::{Offer, Spec};
use pse_extract::PageExtractor;

/// Source of offer specifications.
///
/// `Sync` is a supertrait: the offline bag builder and the run-time
/// pipeline extract specifications from worker threads (see `pse-par`),
/// sharing the provider by reference. Providers must therefore be
/// deterministic per offer — the pipeline's byte-identical-output
/// guarantee at any `PSE_THREADS` assumes `spec` is a pure function of
/// the offer.
pub trait SpecProvider: Sync {
    /// The specification (attribute–value pairs) of `offer`.
    fn spec(&self, offer: &Offer) -> Spec;
}

/// Provider that fetches the offer's landing page (via a caller-supplied
/// fetcher closure standing in for an HTTP client) and runs the table
/// extractor on it — the honest end-to-end path.
pub struct ExtractingProvider<F> {
    fetch: F,
    extractor: PageExtractor,
}

impl<F: Fn(&Offer) -> String> ExtractingProvider<F> {
    /// Build from a page fetcher.
    pub fn new(fetch: F) -> Self {
        Self { fetch, extractor: PageExtractor::new() }
    }
}

impl<F: Fn(&Offer) -> String + Sync> SpecProvider for ExtractingProvider<F> {
    fn spec(&self, offer: &Offer) -> Spec {
        let html = (self.fetch)(offer);
        let mut spec = self.extractor.extract(&html);
        // The feed specification, when present, contributes too (Section 2:
        // pairs may come from feeds or landing pages).
        for pair in offer.spec.iter() {
            spec.push(pair.name.clone(), pair.value.clone());
        }
        spec
    }
}

/// Provider backed by an arbitrary closure (tests, cached corpora,
/// noise-free ablations).
pub struct FnProvider<F>(pub F);

impl<F: Fn(&Offer) -> Spec + Sync> SpecProvider for FnProvider<F> {
    fn spec(&self, offer: &Offer) -> Spec {
        (self.0)(offer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_core::{MerchantId, OfferId};

    fn offer_with_feed_spec() -> Offer {
        Offer {
            id: OfferId(0),
            merchant: MerchantId(0),
            price_cents: 100,
            image_url: None,
            category: None,
            url: "https://m.example.com/1".into(),
            title: "t".into(),
            spec: Spec::from_pairs([("Brand", "Hitachi")]),
        }
    }

    #[test]
    fn extracting_provider_merges_page_and_feed() {
        let provider = ExtractingProvider::new(|_: &Offer| {
            "<table><tr><td>RPM</td><td>7200</td></tr></table>".to_string()
        });
        let spec = provider.spec(&offer_with_feed_spec());
        assert_eq!(spec.get("RPM"), Some("7200"));
        assert_eq!(spec.get("Brand"), Some("Hitachi"));
    }

    #[test]
    fn fn_provider_passes_through() {
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let spec = provider.spec(&offer_with_feed_spec());
        assert_eq!(spec.len(), 1);
    }
}
