//! Golden digests of everything the store persists: the `snapshot_json`
//! text, each shard's binary snapshot segment and one write-ahead-log
//! record payload, for a fixed small world ingested in two batches and
//! then partly retracted.
//!
//! These bytes are the on-disk contract: a directory written by one
//! build must recover under the next. Any change to how the store holds
//! its clusters in memory must leave every digest here unedited. FNV-1a
//! (`pse_wal::codec::fnv1a`), not `DefaultHasher`: the digest must mean
//! the same thing on every toolchain.

use product_synthesis::core::{Offer, OfferId};
use product_synthesis::datagen::{World, WorldConfig};
use product_synthesis::serve::shard_of;
use product_synthesis::store::ProductStore;
use product_synthesis::synthesis::runtime::reconcile_batch;
use product_synthesis::synthesis::{
    ExtractingProvider, FnProvider, OfflineLearner, RuntimeConfig, SpecProvider,
};
use product_synthesis::wal::codec::{encode_to_vec, fnv1a};
use product_synthesis::wal::WalRecord;

/// The persisted bytes of one store, digested.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    snapshot_json: u64,
    segments: [u64; 4],
}

fn digests(store: &ProductStore) -> Digests {
    Digests {
        snapshot_json: fnv1a(store.snapshot_json().as_bytes()),
        segments: std::array::from_fn(|i| {
            fnv1a(&encode_to_vec(&store.clusters_value_where(|k| shard_of(k, 4) == i)))
        }),
    }
}

#[test]
fn snapshot_segments_and_wal_record_match_the_golden_digests() {
    let world = World::generate(WorldConfig::tiny());
    let extracting = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
    let correspondences = OfflineLearner::new()
        .learn(&world.catalog, &world.offers, &world.historical, &extracting)
        .correspondences;
    let corpus: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    let specs: Vec<_> = corpus.iter().map(|o| (o.id, extracting.spec(o))).collect();
    let provider = FnProvider(|o: &Offer| {
        specs.iter().find(|(id, _)| *id == o.id).expect("a corpus offer").1.clone()
    });
    // Every seventh offer of the first batch goes again, so some clusters
    // shrink and singletons vanish.
    let (first, second) = corpus.split_at(corpus.len() / 2);
    let retracted: Vec<OfferId> = first.iter().step_by(7).map(|o| o.id).collect();

    // At the default minimum every cluster is visible; at 2, singletons
    // persist with `fused: null`.
    let mut got = Vec::new();
    for min_cluster_size in [1, 2] {
        let config = RuntimeConfig { min_cluster_size, ..RuntimeConfig::default() };
        let mut store = ProductStore::with_config(correspondences.clone(), config);
        store.ingest(&world.catalog, first, &provider);
        store.ingest(&world.catalog, second, &provider);
        let delta = store.retract(&world.catalog, &retracted);
        assert!(delta.dirty.len() > delta.stats.clusters_dirty, "the retract empties a cluster");
        let json = store.snapshot_json();
        assert_eq!(json.contains("\"fused\": null"), min_cluster_size > 1);
        got.push(digests(&store));
    }
    let record = WalRecord::Ingest(reconcile_batch(&corpus[..8], &correspondences, &provider));
    let payload = fnv1a(&record.payload());

    assert_eq!(got, [GOLDEN_MIN_1, GOLDEN_MIN_2], "persisted store bytes moved");
    assert_eq!(payload, GOLDEN_WAL_PAYLOAD, "WAL record payload moved");
}

const GOLDEN_MIN_1: Digests = Digests {
    snapshot_json: 16_694_173_396_275_998_896,
    segments: [
        16_105_508_709_008_415_910,
        10_488_177_675_436_095_173,
        9_658_974_112_880_993_745,
        12_094_385_593_938_169_081,
    ],
};
const GOLDEN_MIN_2: Digests = Digests {
    snapshot_json: 16_929_550_438_113_631_020,
    segments: [
        16_725_482_581_944_629_937,
        17_527_234_547_647_167_769,
        7_550_188_350_344_832_697,
        5_303_381_383_973_437_648,
    ],
};
const GOLDEN_WAL_PAYLOAD: u64 = 4_383_076_927_103_588_617;
