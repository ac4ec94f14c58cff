//! Crash-point durability (ISSUE 8 tentpole): an arbitrary stream of
//! durable ingests, retracts, and compaction folds, crashed by truncating
//! the WAL at an arbitrary byte, must recover to exactly the
//! durably-committed prefix — byte-identical (via `snapshot_json`) to a
//! plain sequential [`ProductStore`] fed the same committed operations.
//!
//! The corpus is the same "Table-2" set the experiment drivers use: the
//! offers of a generated world that match no historical product.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use std::time::{Duration, Instant};

use product_synthesis::core::{CorrespondenceSet, Offer, OfferId, Spec};
use product_synthesis::datagen::{World, WorldConfig};
use product_synthesis::serve::{durable_ingest, durable_retract, open_durable, ShardedStore};
use product_synthesis::store::ProductStore;
use product_synthesis::synthesis::runtime::reconcile_batch;
use product_synthesis::synthesis::{ExtractingProvider, FnProvider, OfflineLearner, SpecProvider};
use product_synthesis::wal::{
    read_wal, recover, Durability, DurabilityConfig, GroupCommitConfig, WalRecord, WAL_HEADER_LEN,
};
use proptest::prelude::*;

struct Fixture {
    world: World,
    correspondences: CorrespondenceSet,
    corpus: Vec<Offer>,
    specs: HashMap<u64, Spec>,
}

fn fixture() -> &'static Fixture {
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
            .cloned()
            .collect();
        assert!(corpus.len() >= 20, "tiny world must leave a usable unmatched corpus");
        let specs = corpus.iter().map(|o| (o.id.0, provider.spec(o))).collect();
        Fixture { world, correspondences: offline.correspondences, corpus, specs }
    })
}

fn provider(f: &Fixture) -> FnProvider<impl Fn(&Offer) -> Spec + Sync + '_> {
    FnProvider(move |o: &Offer| f.specs[&o.id.0].clone())
}

/// A fresh directory per proptest case, so truncations never interfere.
fn case_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pse-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dcfg(dir: &std::path::Path) -> DurabilityConfig {
    dcfg_group(dir, GroupCommitConfig::default())
}

fn dcfg_group(dir: &std::path::Path, group: GroupCommitConfig) -> DurabilityConfig {
    DurabilityConfig {
        wal_path: dir.join("wal.log"),
        snapshot_dir: dir.join("segments"),
        compaction_threshold_bytes: 1 << 20,
        group,
    }
}

/// Stage one record and wait for its fsync: durable when this returns.
fn log(dur: &mut Durability, record: &WalRecord) {
    dur.stage_payload(&record.payload()).unwrap();
    dur.sync_handle().unwrap().sync_data().unwrap();
}

/// One committed operation, replayable against a plain store.
#[derive(Clone)]
enum AppliedOp {
    Ingest(Vec<Offer>),
    Retract(Vec<OfferId>),
}

/// Run raw op codes through the durable single-shard write protocol
/// (reconcile → log + fsync → apply → mark dirty; folds via
/// `write_snapshot`). Returns the ops folded into segments, the current
/// WAL generation's tail ops with their exact record end offsets, and
/// the final WAL length.
fn apply_ops(
    f: &Fixture,
    dir: &std::path::Path,
    raw_ops: &[(u8, usize)],
) -> (Vec<AppliedOp>, Vec<(AppliedOp, u64)>, u64) {
    let (_, mut dur, _) = Durability::open(dcfg(dir), &f.world.catalog, || {
        ProductStore::new(f.correspondences.clone())
    })
    .unwrap();
    let mut store = ProductStore::new(f.correspondences.clone());
    let p = provider(f);

    let mut folded: Vec<AppliedOp> = Vec::new();
    let mut tail: Vec<(AppliedOp, u64)> = Vec::new();
    let mut cursor = 0usize;
    let mut live: Vec<OfferId> = Vec::new();
    for &(kind, param) in raw_ops {
        match kind % 3 {
            0 => {
                // Ingest the next 1–7 corpus offers.
                let take = (1 + param % 7).min(f.corpus.len() - cursor);
                if take == 0 {
                    continue;
                }
                let batch = &f.corpus[cursor..cursor + take];
                cursor += take;
                let reconciled = reconcile_batch(batch, store.correspondences(), &p);
                log(&mut dur, &WalRecord::Ingest(reconciled.clone()));
                store.ingest_reconciled(&f.world.catalog, reconciled);
                dur.mark_dirty([0]);
                live.extend(batch.iter().map(|o| o.id));
                tail.push((AppliedOp::Ingest(batch.to_vec()), dur.wal_len()));
            }
            1 => {
                // Retract 1–3 of the earliest still-live offers.
                let take = (1 + param % 3).min(live.len());
                if take == 0 {
                    continue;
                }
                let ids: Vec<OfferId> = live.drain(..take).collect();
                log(&mut dur, &WalRecord::Retract(ids.clone()));
                store.retract(&f.world.catalog, &ids);
                dur.mark_dirty([0]);
                tail.push((AppliedOp::Retract(ids), dur.wal_len()));
            }
            _ => {
                // Fold the WAL into segments and rotate the log: every
                // tail op becomes segment-durable, immune to truncation.
                dur.write_snapshot(1, store.config(), store.correspondences(), |_| {
                    store.clusters_value()
                })
                .unwrap();
                folded.extend(tail.drain(..).map(|(op, _)| op));
            }
        }
    }
    let wal_len = dur.wal_len();
    (folded, tail, wal_len)
}

/// The sequential oracle: a plain store fed exactly the committed ops.
fn replay(f: &Fixture, ops: impl IntoIterator<Item = AppliedOp>) -> ProductStore {
    let mut store = ProductStore::new(f.correspondences.clone());
    let p = provider(f);
    for op in ops {
        match op {
            AppliedOp::Ingest(batch) => {
                store.ingest(&f.world.catalog, &batch, &p);
            }
            AppliedOp::Retract(ids) => {
                store.retract(&f.world.catalog, &ids);
            }
        }
    }
    store
}

proptest! {
    /// Arbitrary ops, arbitrary crash point: truncate the WAL anywhere
    /// at or past its header and recovery must produce exactly the state
    /// of the segment-durable ops plus the WAL-tail records that end at
    /// or before the cut — nothing more, nothing less, byte-identical.
    #[test]
    fn recovery_equals_the_durably_committed_prefix(
        raw_ops in prop::collection::vec((0u8..=255, 0usize..10_000), 1..10),
        raw_cut in 0u64..1_000_000,
    ) {
        let f = fixture();
        let dir = case_dir("prop");
        let (folded, tail, wal_len) = apply_ops(f, &dir, &raw_ops);

        // Crash: tear the log at an arbitrary byte.
        let cut = WAL_HEADER_LEN + raw_cut % (wal_len - WAL_HEADER_LEN + 1);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let committed: Vec<AppliedOp> = folded
            .into_iter()
            .chain(tail.iter().filter(|(_, end)| *end <= cut).map(|(op, _)| op.clone()))
            .collect();
        let expected_replayed =
            tail.iter().filter(|(_, end)| *end <= cut).count();
        let expected_torn =
            cut - tail.iter().map(|(_, end)| *end).filter(|end| *end <= cut)
                .max()
                .unwrap_or(WAL_HEADER_LEN);

        let (recovered, stats) = recover(&dcfg(&dir), &f.world.catalog, || {
            ProductStore::new(f.correspondences.clone())
        })
        .unwrap()
        .expect("an opened durable dir always recovers");
        prop_assert_eq!(stats.wal_records_replayed, expected_replayed, "cut {}", cut);
        prop_assert_eq!(stats.torn_bytes, expected_torn, "cut {}", cut);
        prop_assert_eq!(
            recovered.snapshot_json(),
            replay(f, committed).snapshot_json(),
            "cut {} of {} ({} tail records)", cut, wal_len, tail.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Deterministic fold-then-tear: ingest, fold into segments, ingest two
/// more batches, then tear the second one mid-record. The fold must keep
/// the pre-fold state segment-durable, and the tail must replay exactly
/// one record.
#[test]
fn fold_then_torn_tail_recovers_fold_plus_first_tail_record() {
    let f = fixture();
    let dir = case_dir("fold");
    let raw_ops = [
        (0u8, 6usize), // ingest 7
        (2, 0),        // fold
        (0, 2),        // ingest 3 (tail record 1)
        (0, 4),        // ingest 5 (tail record 2)
    ];
    let (folded, tail, wal_len) = apply_ops(f, &dir, &raw_ops);
    assert_eq!(folded.len(), 1);
    assert_eq!(tail.len(), 2);

    // Tear one byte into the second tail record's frame.
    let cut = tail[0].1 + 1;
    assert!(cut < wal_len);
    let file = std::fs::OpenOptions::new().write(true).open(dir.join("wal.log")).unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    let (recovered, stats) =
        recover(&dcfg(&dir), &f.world.catalog, || ProductStore::new(f.correspondences.clone()))
            .unwrap()
            .expect("durable state exists");
    assert_eq!(stats.segments_loaded, 1);
    assert_eq!(stats.wal_records_replayed, 1);
    assert_eq!(stats.torn_bytes, 1);
    let committed: Vec<AppliedOp> = folded.into_iter().chain([tail[0].0.clone()]).collect();
    assert_eq!(recovered.snapshot_json(), replay(f, committed).snapshot_json());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The concurrent oracle: replay WAL records exactly as `read_wal`
/// decoded them. With overlapping group commits the log itself is the
/// only authority on commit order, so the expected state is a plain
/// sequential store fed the decoded records — not any writer's idea of
/// what it submitted.
fn replay_records(f: &Fixture, records: impl IntoIterator<Item = WalRecord>) -> ProductStore {
    let mut store = ProductStore::new(f.correspondences.clone());
    for record in records {
        match record {
            WalRecord::Ingest(reconciled) => {
                store.ingest_reconciled(&f.world.catalog, reconciled);
            }
            WalRecord::Retract(ids) => {
                store.retract(&f.world.catalog, &ids);
            }
        }
    }
    store
}

proptest! {
    /// PR 9's write path under crash-point fire: N writer threads push
    /// interleaved ingests and retracts through the pipelined
    /// group-commit protocol (`durable_ingest` / `durable_retract`),
    /// the WAL is torn at an arbitrary byte, and recovery must equal a
    /// sequential replay of exactly the records whose frames survived
    /// the cut — whatever group boundaries and thread interleavings the
    /// scheduler produced.
    #[test]
    fn concurrent_group_commits_recover_to_the_committed_log_prefix(
        writers in 2usize..5,
        batch in 1usize..4,
        group_size in 1usize..9,
        raw_cut in 0u64..100_000_000,
    ) {
        let f = fixture();
        let dir = case_dir("group");
        let dcfg = dcfg_group(
            &dir,
            GroupCommitConfig { group_size, group_wait: Duration::from_micros(300) },
        );
        let seed = ShardedStore::from_store(ProductStore::new(f.correspondences.clone()), 1);
        let (store, ctx, _) = open_durable(dcfg.clone(), &f.world.catalog, seed).unwrap();
        let p = provider(f);

        std::thread::scope(|s| {
            for w in 0..writers {
                let (store, ctx, p) = (&store, &ctx, &p);
                s.spawn(move || {
                    // Writer `w` owns the strided slice corpus[w],
                    // corpus[w + writers], …: disjoint across writers, so
                    // each retraction targets an offer its own earlier
                    // commit ingested (program order ⇒ log order per
                    // thread; cross-thread order is the scheduler's).
                    let mine: Vec<Offer> =
                        f.corpus.iter().skip(w).step_by(writers).cloned().collect();
                    let mut prev_first: Option<OfferId> = None;
                    for chunk in mine.chunks(batch).take(3) {
                        durable_ingest(store, ctx, &f.world.catalog, chunk, p).unwrap();
                        if let Some(id) = prev_first.take() {
                            durable_retract(store, ctx, &f.world.catalog, &[id]).unwrap();
                        }
                        prev_first = Some(chunk[0].id);
                    }
                });
            }
        });
        drop((store, ctx)); // crash: the WAL tail is never folded

        let full = read_wal(&dcfg.wal_path, 0).unwrap().expect("wal exists");
        prop_assert_eq!(full.torn_bytes, 0, "acknowledged commits must be intact on disk");
        let wal_len = full.durable_len;
        let cut = WAL_HEADER_LEN + raw_cut % (wal_len - WAL_HEADER_LEN + 1);
        let file = std::fs::OpenOptions::new().write(true).open(&dcfg.wal_path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let committed: Vec<WalRecord> = full
            .records
            .iter()
            .filter(|(_, end)| *end <= cut)
            .map(|(record, _)| record.clone())
            .collect();
        let expected_replayed = committed.len();

        let (recovered, stats) = recover(&dcfg, &f.world.catalog, || {
            ProductStore::new(f.correspondences.clone())
        })
        .unwrap()
        .expect("an opened durable dir always recovers");
        prop_assert_eq!(
            stats.wal_records_replayed, expected_replayed,
            "cut {} of {} ({} records logged)", cut, wal_len, full.records.len()
        );
        prop_assert_eq!(
            recovered.snapshot_json(),
            replay_records(f, committed).snapshot_json(),
            "cut {} of {} ({} writers, batch {}, group {})",
            cut, wal_len, writers, batch, group_size
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Integration-level lone-writer regression (the unit version lives in
/// `pse-wal`): with a huge group and a huge bounded wait, a single
/// thread's `durable_ingest` must commit through the self-clocking path
/// — every active writer has staged, so the group cannot grow — rather
/// than waiting out `group_wait` once per commit.
#[test]
fn lone_durable_ingest_does_not_wait_for_a_full_group() {
    let f = fixture();
    let dir = case_dir("lone");
    let dcfg =
        dcfg_group(&dir, GroupCommitConfig { group_size: 64, group_wait: Duration::from_secs(30) });
    let seed = ShardedStore::from_store(ProductStore::new(f.correspondences.clone()), 1);
    let (store, ctx, _) = open_durable(dcfg.clone(), &f.world.catalog, seed).unwrap();
    let p = provider(f);

    let started = Instant::now();
    for chunk in f.corpus.chunks(4).take(3) {
        durable_ingest(&store, &ctx, &f.world.catalog, chunk, &p).unwrap();
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "lone writer stalled {elapsed:?} — a 30s group_wait leaked into the commit path"
    );

    // Acknowledged means on disk, not merely staged.
    let tail = read_wal(&dcfg.wal_path, 0).unwrap().expect("wal exists");
    assert_eq!(tail.records.len(), 3);
    assert_eq!(tail.torn_bytes, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
