//! Constant-memory offer streaming for paper-scale ingest.
//!
//! [`World::generate`] materializes every offer in `Vec`s — fine at
//! test scale, hopeless at the paper's 856,781 offers and beyond. An
//! [`OfferStream`] walks the same per-offer RNG sequence the
//! materializer uses, yielding offers in batches without retaining any
//! of them: memory is the [`WorldBase`] scaffold plus one batch,
//! independent of how many offers the stream produces.
//!
//! Determinism contract (pinned by `tests/stream_determinism.rs`):
//!
//! * a drained stream of `config.num_offers` offers equals
//!   [`World::generate`]'s `offers` byte for byte — `generate` *is* a
//!   drained stream, so this holds by construction;
//! * batch size never changes the sequence — `next_batch(1)` chained
//!   and `next_batch(10_000)` chained concatenate to the same offers;
//! * a stream may run past `config.num_offers` (the offer count feeds
//!   no setup decision), so million-offer runs reuse small-world
//!   configs and stay prefix-compatible with them.
//!
//! [`World::generate`]: crate::world::World::generate

use pse_core::{MerchantId, Offer, OfferId, ProductId, Spec};
use rand::{rngs::StdRng, RngExt};

use crate::value::weighted_index;
use crate::world::{offer_price, offer_title, slug, WorldBase};

/// One streamed offer plus the ground truth the materializer would have
/// recorded for it: the true product, the (possibly erroneous)
/// historical match, and whether its landing page renders as bullets.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedOffer {
    /// The offer, byte-identical to the materializer's.
    pub offer: Offer,
    /// The true product (what `truth.offer_product` would record).
    pub product: ProductId,
    /// The historical match, if the offer carries one.
    pub historical: Option<ProductId>,
    /// Whether the landing page renders specs as bullets.
    pub bullet: bool,
}

/// One batch from an [`OfferStream`].
#[derive(Debug, Clone, Default)]
pub struct StreamBatch {
    /// Offers in stream order.
    pub offers: Vec<StreamedOffer>,
}

/// A constant-memory iterator over the offers of a [`WorldBase`]. See
/// the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct OfferStream<'a> {
    base: &'a WorldBase,
    rng: StdRng,
    next: usize,
    limit: usize,
}

impl<'a> OfferStream<'a> {
    pub(crate) fn new(base: &'a WorldBase, total: usize) -> Self {
        Self { base, rng: base.offer_loop_rng(), next: 0, limit: total }
    }

    /// Offers emitted so far (also the id of the next offer).
    pub fn position(&self) -> usize {
        self.next
    }

    /// Total offers this stream will emit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Offers still to come.
    pub fn remaining(&self) -> usize {
        self.limit - self.next
    }

    /// Emit up to `max` offers, or `None` once the stream is exhausted.
    /// The offer sequence is invariant under `max`.
    pub fn next_batch(&mut self, max: usize) -> Option<StreamBatch> {
        if self.next >= self.limit {
            return None;
        }
        let count = max.max(1).min(self.limit - self.next);
        Some(StreamBatch { offers: (0..count).map(|_| self.next_offer()).collect() })
    }

    /// The per-offer draws, in exactly the order the materializer makes
    /// them: category → merchant → product → price → title → feed spec
    /// → historical match → bullet flag.
    fn next_offer(&mut self) -> StreamedOffer {
        let base = self.base;
        let oi = self.next;
        self.next += 1;

        let ci = weighted_index(&base.cat_weights, &mut self.rng);
        let info = &base.categories[ci];
        let ms = &base.merchants_of_cat[ci];
        let mi = ms[self.rng.random_range(0..ms.len())];
        let merchant = MerchantId::from_index(mi);

        // Pick a product from the merchant's assortment, with zipf-ish
        // popularity by catalog rank.
        let eligible = &base.assortments[&(merchant, info.id)];
        let w: Vec<f64> = eligible
            .iter()
            .map(|pid| {
                let rank = pid.index() % base.config.products_per_category;
                base.product_weights.get(rank).copied().unwrap_or(1e-3)
            })
            .collect();
        let pid = eligible[weighted_index(&w, &mut self.rng)];
        let product = base.catalog.product(pid);

        let offer_id = OfferId::from_index(oi);
        let price_cents = offer_price(pid, mi, &mut self.rng);
        let title = offer_title(&product.title, &mut self.rng);

        // Feeds carry little structured data (paper Fig. 3): usually no
        // specification at all, occasionally one or two pairs.
        let vocab = &base.vocabs[&(merchant, info.id)];
        let mut feed_spec = Spec::new();
        if self.rng.random_bool(0.2) {
            if let Some(surface) = vocab.merchant_name("Brand") {
                if let Some(v) = product.spec.get("Brand") {
                    feed_spec.push(surface, v);
                }
            }
        }

        let offer = Offer {
            id: offer_id,
            merchant,
            price_cents,
            image_url: Some(format!("https://img.example.com/{oi}.jpg")),
            category: Some(info.id),
            url: format!("https://www.{}.example.com/product/{oi}", slug(&base.merchants[mi].name)),
            title,
            spec: feed_spec,
        };

        let historical = if self.rng.random_bool(base.config.historical_fraction) {
            let in_cat = &base.cat_products[ci];
            let matched = if self.rng.random_bool(base.config.match_error_rate) && in_cat.len() > 1
            {
                // Wrong product in the same category.
                loop {
                    let wrong = in_cat[self.rng.random_range(0..in_cat.len())];
                    if wrong != pid {
                        break wrong;
                    }
                }
            } else {
                pid
            };
            Some(matched)
        } else {
            None
        };
        let bullet = self.rng.random_bool(base.config.bullet_page_probability);

        StreamedOffer { offer, product: pid, historical, bullet }
    }
}

/// Per-offer iteration, the same sequence [`OfferStream::next_batch`]
/// chunks.
impl Iterator for OfferStream<'_> {
    type Item = StreamedOffer;

    fn next(&mut self) -> Option<StreamedOffer> {
        if self.next >= self.limit {
            return None;
        }
        Some(self.next_offer())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::world::World;

    fn base() -> WorldBase {
        WorldBase::generate(WorldConfig::tiny())
    }

    #[test]
    fn stream_equals_materialized_world() {
        let b = base();
        let w = World::generate(WorldConfig::tiny());
        let streamed: Vec<StreamedOffer> = b.stream(w.offers.len()).collect();
        assert_eq!(streamed.len(), w.offers.len());
        for (so, o) in streamed.iter().zip(&w.offers) {
            assert_eq!(&so.offer, o);
            assert_eq!(so.product, w.truth.product_of(o.id));
            assert_eq!(so.historical, w.historical.product_of(o.id));
            assert_eq!(so.bullet, w.truth.is_bullet_page(o.id));
        }
    }

    #[test]
    fn batch_size_does_not_change_the_sequence() {
        let b = base();
        let mut small = b.stream(100);
        let mut big = b.stream(100);
        let mut from_small = Vec::new();
        while let Some(batch) = small.next_batch(7) {
            from_small.extend(batch.offers);
        }
        let from_big = big.next_batch(100).expect("non-empty").offers;
        assert_eq!(from_small, from_big);
    }

    #[test]
    fn stream_extends_past_config_num_offers() {
        let b = base();
        let n = b.config().num_offers;
        let extended: Vec<StreamedOffer> = b.stream(n + 50).collect();
        assert_eq!(extended.len(), n + 50);
        let prefix: Vec<StreamedOffer> = b.stream(n).collect();
        assert_eq!(&extended[..n], &prefix[..]);
        assert_eq!(extended[n].offer.id, OfferId::from_index(n));
    }

    #[test]
    fn page_spec_for_matches_world_page_spec() {
        let b = base();
        let w = World::generate(WorldConfig::tiny());
        for so in b.stream(20) {
            assert_eq!(b.page_spec_for(&so.offer, so.product), w.page_spec(so.offer.id));
        }
    }
}
