//! Golden digests of the offline phase: every scored candidate (names,
//! ids, score bits, identity flag, in enumeration order) and the sorted
//! correspondence set of fixed worlds, at 1 and 4 worker threads.
//!
//! The values were taken from the commit before the offline stage was
//! re-arranged for speed (features by table, no `ln` for unshared tokens,
//! SGD over one flat buffer). A kernel or learner change that moves one
//! bit of one score anywhere fails here — Tables 2–4 and Figs. 6–9 hang
//! off these numbers. FNV-1a, not `DefaultHasher`: the digest must mean
//! the same thing on every toolchain.

use product_synthesis::core::Offer;
use product_synthesis::datagen::{World, WorldConfig};
use product_synthesis::synthesis::{
    ExtractingProvider, OfflineConfig, OfflineLearner, OfflineOutcome,
};

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A string, length-prefixed so adjacent fields cannot run together.
    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }
}

fn digest(outcome: &OfflineOutcome) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(&(outcome.scored.len() as u64).to_le_bytes());
    for c in &outcome.scored {
        h.str(&c.catalog_attribute);
        h.str(&c.merchant_attribute);
        h.bytes(&c.merchant.0.to_le_bytes());
        h.bytes(&c.category.0.to_le_bytes());
        h.bytes(&c.score.to_bits().to_le_bytes());
        h.bytes(&[u8::from(c.is_name_identity)]);
    }
    let mut accepted: Vec<_> = outcome
        .correspondences
        .iter()
        .map(|c| {
            (c.merchant, c.category, c.merchant_attribute, c.catalog_attribute, c.score.to_bits())
        })
        .collect();
    accepted.sort();
    h.bytes(&(accepted.len() as u64).to_le_bytes());
    for (merchant, category, ao, ap, score) in accepted {
        h.bytes(&merchant.0.to_le_bytes());
        h.bytes(&category.0.to_le_bytes());
        h.str(&ao);
        h.str(&ap);
        h.bytes(&score.to_le_bytes());
    }
    h.0
}

fn learn(world: &World, config: OfflineConfig, threads: usize) -> u64 {
    let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
    let outcome = pse_par::with_threads(threads, || {
        OfflineLearner::with_config(config).learn(
            &world.catalog,
            &world.offers,
            &world.historical,
            &provider,
        )
    });
    assert!(outcome.model.is_some(), "the golden worlds must train a classifier");
    digest(&outcome)
}

#[test]
fn scored_candidates_and_correspondences_match_the_golden_digest() {
    // Noisy historical matches, so wrong products pollute the bags.
    let world = World::generate(WorldConfig {
        num_offers: 3_000,
        num_merchants: 30,
        match_error_rate: 0.08,
        ..WorldConfig::default()
    });
    for threads in [1, 4] {
        assert_eq!(
            learn(&world, OfflineConfig::default(), threads),
            GOLDEN_DEFAULT,
            "default config at {threads} threads"
        );
    }
}

#[test]
fn every_learner_configuration_matches_its_golden_digest() {
    let world = World::generate(WorldConfig::tiny());
    let unconditioned = OfflineConfig { match_conditioning: false, ..OfflineConfig::default() };
    for (name, config, golden) in [
        ("unconditioned", unconditioned, GOLDEN_TINY_UNCONDITIONED),
        ("name features", OfflineConfig::with_name_features(), GOLDEN_TINY_NAME_FEATURES),
        ("no category grouping", OfflineConfig::without_grouping(1), GOLDEN_TINY_NO_CATEGORY),
    ] {
        for threads in [1, 4] {
            assert_eq!(learn(&world, config.clone(), threads), golden, "{name}, {threads} threads");
        }
    }
}

const GOLDEN_DEFAULT: u64 = 18_209_012_606_986_404_126;
const GOLDEN_TINY_UNCONDITIONED: u64 = 252_020_094_244_523_305;
const GOLDEN_TINY_NAME_FEATURES: u64 = 6_475_760_554_393_577_201;
const GOLDEN_TINY_NO_CATEGORY: u64 = 15_187_250_442_427_520_236;
