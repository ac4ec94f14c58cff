//! End-to-end durability on a small fixed catalog: log-then-apply
//! ingest/retract, incremental snapshots, WAL compaction, and recovery
//! — each compared byte-for-byte (via `snapshot_json`) against a plain
//! sequential [`ProductStore`] fed the same operations.

use std::path::{Path, PathBuf};

use pse_core::{
    AttributeCorrespondence, AttributeDef, AttributeKind, Catalog, CategorySchema,
    CorrespondenceSet, MerchantId, Offer, OfferId, Spec, Taxonomy,
};
use pse_store::ProductStore;
use pse_synthesis::runtime::reconcile_batch;
use pse_synthesis::FnProvider;
use pse_wal::{read_wal, recover, Durability, DurabilityConfig, WalRecord};

fn setup() -> (Catalog, CorrespondenceSet, Vec<Offer>) {
    let mut tax = Taxonomy::new();
    let top = tax.add_top_level("Computing");
    let cat = tax.add_leaf(
        top,
        "Hard Drives",
        CategorySchema::from_attributes([
            AttributeDef::key("MPN", AttributeKind::Identifier),
            AttributeDef::key("UPC", AttributeKind::Identifier),
            AttributeDef::new("Speed", AttributeKind::Numeric),
            AttributeDef::new("Capacity", AttributeKind::Numeric),
        ]),
    );
    let catalog = Catalog::new(tax);
    let corr = |ap: &str, ao: &str, m: u32| AttributeCorrespondence {
        catalog_attribute: ap.into(),
        merchant_attribute: ao.into(),
        merchant: MerchantId(m),
        category: cat,
        score: 0.9,
    };
    let set = CorrespondenceSet::from_correspondences([
        corr("MPN", "mpn", 0),
        corr("UPC", "upc", 0),
        corr("Speed", "rpm", 0),
        corr("Capacity", "capacity", 0),
        corr("MPN", "mfr part", 1),
        corr("Speed", "speed", 1),
    ]);
    let mk = |id: u64, merchant: u32, pairs: &[(&str, &str)]| Offer {
        id: OfferId(id),
        merchant: MerchantId(merchant),
        price_cents: 100,
        image_url: None,
        category: Some(cat),
        url: String::new(),
        title: String::new(),
        spec: Spec::from_pairs(pairs.iter().copied()),
    };
    let offers = vec![
        mk(0, 0, &[("MPN", "ABC123"), ("RPM", "7200 rpm"), ("Capacity", "500 GB")]),
        mk(1, 1, &[("Mfr. Part #", "abc-123"), ("Speed", "7200")]),
        mk(2, 1, &[("Mfr. Part #", "XYZ999"), ("Speed", "5400")]),
        mk(3, 0, &[("MPN", "—"), ("UPC", "0001112223334"), ("RPM", "5400 rpm")]),
        mk(4, 0, &[("MPN", "abc123"), ("RPM", "10000 rpm")]),
    ];
    (catalog, set, offers)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pse-wal-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dcfg(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        wal_path: dir.join("wal.log"),
        snapshot_dir: dir.join("segments"),
        compaction_threshold_bytes: 1 << 20,
        group: Default::default(),
    }
}

/// Stage one record and wait for its fsync: durable when this returns.
fn log(dur: &mut Durability, record: &WalRecord) {
    dur.stage_payload(&record.payload()).unwrap();
    dur.sync_handle().unwrap().sync_data().unwrap();
}

/// The serving layer's write protocol, single-shard edition: reconcile,
/// log + fsync, then apply.
fn durable_ingest(
    dur: &mut Durability,
    store: &mut ProductStore,
    catalog: &Catalog,
    offers: &[Offer],
) {
    let provider = FnProvider(|o: &Offer| o.spec.clone());
    let reconciled = reconcile_batch(offers, store.correspondences(), &provider);
    log(dur, &WalRecord::Ingest(reconciled.clone()));
    store.ingest_reconciled(catalog, reconciled);
    dur.mark_dirty([0]);
}

fn durable_retract(
    dur: &mut Durability,
    store: &mut ProductStore,
    catalog: &Catalog,
    ids: &[OfferId],
) {
    log(dur, &WalRecord::Retract(ids.to_vec()));
    store.retract(catalog, ids);
    dur.mark_dirty([0]);
}

fn snapshot(dur: &mut Durability, store: &ProductStore) {
    dur.write_snapshot(1, store.config(), store.correspondences(), |_| {
        store.clusters_value_where(|_| true)
    })
    .unwrap();
}

/// Sequential oracle: a plain store fed the same raw offers.
fn oracle(catalog: &Catalog, set: &CorrespondenceSet, batches: &[&[Offer]]) -> ProductStore {
    let provider = FnProvider(|o: &Offer| o.spec.clone());
    let mut store = ProductStore::new(set.clone());
    for batch in batches {
        store.ingest(catalog, batch, &provider);
    }
    store
}

#[test]
fn log_only_recovery_matches_sequential_replay() {
    let (catalog, set, offers) = setup();
    let dir = tmp("log-only");
    let cfg = dcfg(&dir);
    {
        let (recovered, mut dur, _) =
            Durability::open(cfg.clone(), &catalog, || ProductStore::new(set.clone())).unwrap();
        assert!(recovered.is_none(), "fresh directory has nothing to recover");
        assert!(dur.needs_initial_snapshot());
        let mut store = ProductStore::new(set.clone());
        snapshot(&mut dur, &store); // initial (empty) snapshot
        durable_ingest(&mut dur, &mut store, &catalog, &offers[..2]);
        durable_ingest(&mut dur, &mut store, &catalog, &offers[2..]);
        // Crash here: no snapshot since the initial one.
    }
    let (recovered, stats) =
        recover(&cfg, &catalog, || ProductStore::new(set.clone())).unwrap().unwrap();
    assert_eq!(stats.wal_records_replayed, 2);
    let expect = oracle(&catalog, &set, &[&offers[..2], &offers[2..]]);
    assert_eq!(recovered.snapshot_json(), expect.snapshot_json());
    // The JSON oracle agrees with itself through restore_json.
    let via_json = ProductStore::restore_json(&expect.snapshot_json()).unwrap();
    assert_eq!(recovered.snapshot_json(), via_json.snapshot_json());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_folds_the_log_and_recovery_replays_only_the_tail() {
    let (catalog, set, offers) = setup();
    let dir = tmp("compact");
    let cfg = dcfg(&dir);
    {
        let (_, mut dur, _) =
            Durability::open(cfg.clone(), &catalog, || ProductStore::new(set.clone())).unwrap();
        let mut store = ProductStore::new(set.clone());
        snapshot(&mut dur, &store);
        durable_ingest(&mut dur, &mut store, &catalog, &offers[..3]);
        snapshot(&mut dur, &store); // fold: rotates the WAL
        assert_eq!(dur.wal_len(), pse_wal::WAL_HEADER_LEN, "snapshot rotated the log");
        durable_ingest(&mut dur, &mut store, &catalog, &offers[3..]);
        durable_retract(&mut dur, &mut store, &catalog, &[OfferId(2)]);
    }
    let (recovered, stats) =
        recover(&cfg, &catalog, || ProductStore::new(set.clone())).unwrap().unwrap();
    assert_eq!(stats.wal_records_replayed, 2, "only the post-snapshot tail replays");
    let mut expect = oracle(&catalog, &set, &[&offers[..3], &offers[3..]]);
    expect.retract(&catalog, &[OfferId(2)]);
    assert_eq!(recovered.snapshot_json(), expect.snapshot_json());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_generation_tail_is_never_replayed_twice() {
    let (catalog, set, offers) = setup();
    let dir = tmp("stale-gen");
    let cfg = dcfg(&dir);
    let expect;
    {
        let (_, mut dur, _) =
            Durability::open(cfg.clone(), &catalog, || ProductStore::new(set.clone())).unwrap();
        let mut store = ProductStore::new(set.clone());
        snapshot(&mut dur, &store);
        durable_ingest(&mut dur, &mut store, &catalog, &offers[..]);
        // Simulate a crash between manifest commit and WAL rotation: the
        // snapshot folds the ingest record into segments, then we put
        // the pre-rotation log (old generation, same record) back.
        let pre_rotation = std::fs::read(&cfg.wal_path).unwrap();
        snapshot(&mut dur, &store);
        std::fs::write(&cfg.wal_path, &pre_rotation).unwrap();
        expect = store.snapshot_json();
    }
    let (recovered, stats) =
        recover(&cfg, &catalog, || ProductStore::new(set.clone())).unwrap().unwrap();
    assert_eq!(stats.wal_records_replayed, 0, "stale-generation records are already folded");
    assert_eq!(recovered.snapshot_json(), expect, "no double replay");
    // Reopening heals the log: fresh file at the manifest's generation.
    let manifest_gen = {
        let (_, dur, _) =
            Durability::open(cfg.clone(), &catalog, || ProductStore::new(set.clone())).unwrap();
        drop(dur);
        read_wal(&cfg.wal_path, 0).unwrap().unwrap()
    };
    assert!(manifest_gen.records.is_empty(), "healed log starts empty");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_recovers_the_durable_prefix_and_reopen_truncates() {
    let (catalog, set, offers) = setup();
    let dir = tmp("torn-tail");
    let cfg = dcfg(&dir);
    {
        let (_, mut dur, _) =
            Durability::open(cfg.clone(), &catalog, || ProductStore::new(set.clone())).unwrap();
        let mut store = ProductStore::new(set.clone());
        snapshot(&mut dur, &store);
        durable_ingest(&mut dur, &mut store, &catalog, &offers[..3]);
        durable_ingest(&mut dur, &mut store, &catalog, &offers[3..]);
    }
    // Tear the last record mid-frame.
    let bytes = std::fs::read(&cfg.wal_path).unwrap();
    std::fs::write(&cfg.wal_path, &bytes[..bytes.len() - 7]).unwrap();
    let (recovered, stats) =
        recover(&cfg, &catalog, || ProductStore::new(set.clone())).unwrap().unwrap();
    assert_eq!(stats.wal_records_replayed, 1, "torn second record dropped");
    assert!(stats.torn_bytes > 0);
    let expect = oracle(&catalog, &set, &[&offers[..3]]);
    assert_eq!(recovered.snapshot_json(), expect.snapshot_json());
    // Reopen for serving: the torn bytes are physically gone and the
    // store continues from the durable prefix.
    let (reopened, dur, _) =
        Durability::open(cfg.clone(), &catalog, || ProductStore::new(set.clone())).unwrap();
    drop(dur);
    assert_eq!(reopened.unwrap().snapshot_json(), expect.snapshot_json());
    let tail = read_wal(&cfg.wal_path, 0).unwrap().unwrap();
    assert_eq!(tail.torn_bytes, 0, "reopen truncated the torn tail");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn incremental_snapshot_rewrites_only_dirty_shards() {
    let (catalog, set, offers) = setup();
    let dir = tmp("incremental");
    let cfg = dcfg(&dir);
    let (_, mut dur, _) =
        Durability::open(cfg.clone(), &catalog, || ProductStore::new(set.clone())).unwrap();
    // Two "shards": split the store's clusters by key length parity.
    let provider = FnProvider(|o: &Offer| o.spec.clone());
    let mut store = ProductStore::new(set.clone());
    store.ingest(&catalog, &offers, &provider);
    let shard = |i: usize| store.clusters_value_where(|key| key.2.len() % 2 == i);
    let full = dur.write_snapshot(2, store.config(), store.correspondences(), shard).unwrap();
    assert_eq!(full.segments_written, 2, "first snapshot writes everything");
    // Nothing dirty: everything is skipped, nothing hits the disk.
    let noop = dur.write_snapshot(2, store.config(), store.correspondences(), shard).unwrap();
    assert_eq!((noop.segments_written, noop.segments_skipped), (0, 2));
    assert_eq!(noop.bytes_written, 0);
    // One dirty shard: exactly one segment is rewritten.
    log(&mut dur, &WalRecord::Retract(vec![OfferId(999)])); // no-op op, but logged
    dur.mark_dirty([1]);
    let incr = dur.write_snapshot(2, store.config(), store.correspondences(), shard).unwrap();
    assert_eq!((incr.segments_written, incr.segments_skipped), (1, 1));
    // Recovery reads the mixed-generation segment set cleanly.
    drop(dur);
    let (recovered, _) =
        recover(&cfg, &catalog, || ProductStore::new(set.clone())).unwrap().unwrap();
    assert_eq!(recovered.snapshot_json(), store.snapshot_json());
    std::fs::remove_dir_all(&dir).unwrap();
}
