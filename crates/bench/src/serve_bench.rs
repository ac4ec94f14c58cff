//! Corpus and client-side plumbing for the `experiments serve` smoke
//! target and the `wal-replay` crash-drill oracle. (Serving load and
//! latency are measured by `benchmark/`, not here.)

use pse_core::{CorrespondenceSet, Offer, Spec};
use pse_datagen::World;
use pse_serve::ShardedStore;
use pse_synthesis::{FnProvider, OfflineLearner, SpecProvider};

/// Offers left unmatched by history with their extracted specifications
/// materialized into `offer.spec` — the wire format `POST /ingest` uses
/// (the server's provider reads the embedded spec, since landing pages
/// are not available on the other side of an HTTP boundary).
pub struct ServeCorpus {
    /// Correspondences learned from the world's historical matches.
    pub correspondences: CorrespondenceSet,
    /// Unmatched offers with embedded specs, in world order.
    pub corpus: Vec<Offer>,
}

/// Build the serving corpus via the honest HTML extraction path.
pub fn serve_corpus(world: &World) -> ServeCorpus {
    let provider = crate::html_provider(world);
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let corpus = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .map(|o| Offer { spec: provider.spec(o), ..o.clone() })
        .collect();
    ServeCorpus { correspondences: offline.correspondences, corpus }
}

/// The provider paired with embedded-spec offers on the serving side.
pub fn embedded_spec_provider() -> FnProvider<impl Fn(&Offer) -> Spec + Sync> {
    FnProvider(|o: &Offer| o.spec.clone())
}

/// A point-lookup path for every product currently served, in store
/// order — the request mix for the serving smoke.
pub fn query_paths(store: &ShardedStore) -> Vec<String> {
    store
        .products()
        .iter()
        .map(|p| {
            format!(
                "/product?category={}&attr={}&key={}",
                p.category.0,
                encode_query_value(&p.key_attribute),
                encode_query_value(&p.key_value)
            )
        })
        .collect()
}

/// Percent-encode one query value (everything but unreserved characters).
fn encode_query_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push(char::from_digit((b >> 4) as u32, 16).unwrap().to_ascii_uppercase());
                out.push(char::from_digit((b & 0xf) as u32, 16).unwrap().to_ascii_uppercase());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_values_are_percent_encoded() {
        assert_eq!(encode_query_value("abc-123"), "abc-123");
        assert_eq!(encode_query_value("a b&c=d"), "a%20b%26c%3Dd");
    }
}
