//! The one fixture the serve integration tests share: a tiny world, the
//! correspondences learned from it, and its "Table-2" corpus.

#![allow(dead_code)] // each test binary uses its own subset

use std::collections::HashMap;
use std::sync::OnceLock;

use pse_core::{CorrespondenceSet, Offer, Spec};
use pse_datagen::{World, WorldConfig};
use pse_synthesis::{ExtractingProvider, FnProvider, OfflineLearner, SpecProvider};

pub struct Fixture {
    pub world: World,
    pub correspondences: CorrespondenceSet,
    /// Offers that match no historical product, with their extracted
    /// specs materialized INTO the offers: the HTTP ingest path
    /// serializes offers as JSON and the server's provider reads
    /// `offer.spec`.
    pub corpus: Vec<Offer>,
    /// The same specs by offer id, for providers that look them up.
    pub specs: HashMap<u64, Spec>,
}

pub fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny());
        let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
        let offline = OfflineLearner::new().learn(
            &world.catalog,
            &world.offers,
            &world.historical,
            &provider,
        );
        let corpus: Vec<Offer> = world
            .offers
            .iter()
            .filter(|o| world.historical.product_of(o.id).is_none())
            .map(|o| Offer { spec: provider.spec(o), ..o.clone() })
            .collect();
        assert!(corpus.len() >= 20, "tiny world must leave a usable unmatched corpus");
        let specs = corpus.iter().map(|o| (o.id.0, o.spec.clone())).collect();
        Fixture { world, correspondences: offline.correspondences, corpus, specs }
    })
}

/// The provider paired with embedded-spec offers on the serving side.
pub fn spec_provider() -> FnProvider<impl Fn(&Offer) -> Spec + Sync> {
    FnProvider(|o: &Offer| o.spec.clone())
}
