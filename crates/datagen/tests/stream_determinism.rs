//! OfferStream determinism pins: the streaming generator is
//! byte-identical to the materialized `World::generate` on the same
//! config, and the offer sequence is invariant under batch size.

use std::sync::OnceLock;

use proptest::prelude::*;
use pse_datagen::{StreamedOffer, World, WorldBase, WorldConfig};

fn tiny_base() -> &'static WorldBase {
    static BASE: OnceLock<WorldBase> = OnceLock::new();
    BASE.get_or_init(|| WorldBase::generate(WorldConfig::tiny()))
}

fn drain(base: &WorldBase, total: usize, batch: usize) -> Vec<StreamedOffer> {
    let mut stream = base.stream(total);
    let mut out = Vec::with_capacity(total);
    while let Some(b) = stream.next_batch(batch) {
        out.extend(b.offers);
    }
    out
}

proptest! {
    /// Chaining `next_batch(k)` for any k yields the same offer
    /// sequence as one `next_batch(total)` — batching is presentation,
    /// not distribution.
    #[test]
    fn batch_size_invariance(batch in 1usize..97, total in 1usize..240) {
        let base = tiny_base();
        let chunked = drain(base, total, batch);
        let whole = drain(base, total, total);
        prop_assert_eq!(chunked, whole);
    }

    /// Streaming `num_offers` offers from a `WorldBase` reproduces the
    /// materialized `World` exactly — offers, true products, historical
    /// matches, and bullet-page flags — at any seed.
    #[test]
    fn stream_equals_materialized_world(seed in 0u64..1_000) {
        let cfg = WorldConfig { seed, ..WorldConfig::tiny() };
        let world = World::generate(cfg.clone());
        let base = WorldBase::generate(cfg);
        let streamed = drain(&base, world.offers.len(), 64);
        prop_assert_eq!(streamed.len(), world.offers.len());
        for (so, offer) in streamed.iter().zip(&world.offers) {
            prop_assert_eq!(&so.offer, offer);
            prop_assert_eq!(so.product, world.truth.product_of(offer.id));
            prop_assert_eq!(so.historical, world.historical.product_of(offer.id));
            prop_assert_eq!(so.bullet, world.truth.is_bullet_page(offer.id));
        }
    }
}
