//! Failure is an end state of the write path, not a hang: what the
//! queue's two poisons look like from `durable_retract` and
//! `durable_snapshot` (the call `shutdown()` ends with). And the fold a
//! commit runs when its record takes the log past the compaction
//! threshold: it happens once, and a failed one costs the commit nothing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use super::*;
use pse_core::CorrespondenceSet;

fn open(tag: &str) -> (std::path::PathBuf, Catalog, ShardedStore, DurableCtx) {
    open_folding_past(tag, u64::MAX)
}

/// A fresh durable store over two shards whose log wants a fold once it
/// holds more than `threshold` record bytes.
fn open_folding_past(
    tag: &str,
    threshold: u64,
) -> (std::path::PathBuf, Catalog, ShardedStore, DurableCtx) {
    let dir = std::env::temp_dir().join(format!("pse-durable-fail-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dcfg = DurabilityConfig {
        wal_path: dir.join("wal.log"),
        snapshot_dir: dir.join("segments"),
        compaction_threshold_bytes: threshold,
        group: Default::default(),
    };
    let catalog = Catalog::default();
    let seed = ShardedStore::new(CorrespondenceSet::default(), 2);
    let (store, ctx, _) = open_durable(dcfg, &catalog, seed).unwrap();
    (dir, catalog, store, ctx)
}

fn retract_fails_fast(store: &ShardedStore, ctx: &DurableCtx, catalog: &Catalog, why: &str) {
    let started = Instant::now();
    let err = durable_retract(store, ctx, catalog, &[OfferId(7)]).unwrap_err();
    assert_eq!(err.code(), "durability_failed");
    assert!(err.to_string().contains(why), "{err}");
    assert!(started.elapsed() < Duration::from_secs(1), "an error, not a hang");
}

#[cfg(target_os = "linux")]
#[test]
fn a_failed_sync_fails_commits_until_the_next_fold_rotates_the_log() {
    let (dir, catalog, store, ctx) = open("sync");
    // `sync_data` on /dev/null is EINVAL: the first commit leads it.
    let null = std::fs::OpenOptions::new().write(true).open("/dev/null").unwrap();
    ctx.queue.reset(null, ctx.durability.lock().unwrap().wal_len());
    retract_fails_fast(&store, &ctx, &catalog, "Invalid argument");
    retract_fails_fast(&store, &ctx, &catalog, "poisoned until the log rotates");
    // The fold rotates the log and re-arms the queue on it.
    durable_snapshot(&store, &ctx).unwrap();
    durable_retract(&store, &ctx, &catalog, &[OfferId(7)]).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_panicking_apply_costs_one_panic_then_errors_and_no_fold() {
    let (dir, catalog, store, ctx) = open("apply");
    // One commit by hand, `commit()`'s steps with an apply that panics.
    let record = WalRecord::Retract(vec![OfferId(7)]);
    let writer = ctx.queue.writer();
    let lsn = {
        let mut dur = ctx.durability.lock().unwrap();
        let lsn = dur.stage_payload(&record.payload()).unwrap();
        ctx.queue.enqueue(writer, lsn, record);
        lsn
    };
    let panicked = catch_unwind(AssertUnwindSafe(|| ctx.queue.commit(lsn, |_| panic!("apply"))));
    assert!(panicked.is_err());
    retract_fails_fast(&store, &ctx, &catalog, "until a restart");
    // Shutdown's final fold returns — the gate is free — but refuses to
    // snapshot a store that may be half-applied; the log keeps the truth.
    let wal_len = ctx.durability.lock().unwrap().wal_len();
    assert_eq!(durable_snapshot(&store, &ctx).unwrap_err().code(), "durability_failed");
    assert_eq!(ctx.durability.lock().unwrap().wal_len(), wal_len, "log not rotated");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn snapshot_id(dir: &std::path::Path) -> u64 {
    pse_wal::segments::read_manifest(&dir.join("segments")).unwrap().unwrap().snapshot_id
}

#[test]
fn two_fold_steps_after_one_crossing_commit_fold_once() {
    // A ten-id retract frame (121 bytes) crosses 64; a one-id one (40)
    // does not.
    let (dir, catalog, store, ctx) = open_folding_past("recheck", 64);
    // One crossing commit by hand: `commit()`'s steps without its fold.
    let record = WalRecord::Retract((0..10).map(OfferId).collect());
    let writer = ctx.queue.writer();
    let lsn = {
        let mut dur = ctx.durability.lock().unwrap();
        let lsn = dur.stage_payload(&record.payload()).unwrap();
        ctx.queue.enqueue(writer, lsn, record);
        assert!(dur.wants_compaction());
        lsn
    };
    ctx.queue.commit(lsn, |batch| apply_batch(&store, &ctx, &catalog, batch)).unwrap();
    let before = snapshot_id(&dir);
    fold_if_due(&store, &ctx);
    assert_eq!(snapshot_id(&dir), before + 1);
    // A commit below the threshold lands between the two steps; the
    // second step re-checks and leaves its record in the log.
    durable_retract(&store, &ctx, &catalog, &[OfferId(7)]).unwrap();
    fold_if_due(&store, &ctx);
    assert_eq!(snapshot_id(&dir), before + 1, "the second step found nothing due");
    let tail = pse_wal::read_wal(&dir.join("wal.log"), pse_wal::WAL_HEADER_LEN).unwrap().unwrap();
    assert_eq!(tail.records.len(), 1, "the small commit is still unfolded");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_fold_is_counted_and_the_next_crossing_commit_folds() {
    let obs = pse_obs::Obs::new();
    let _on = obs.install();
    let (dir, catalog, store, ctx) = open_folding_past("fold-failed", 0);
    let before = snapshot_id(&dir);
    // A directory where the fold stages the next log generation.
    let squatter = dir.join("wal.log.next");
    std::fs::create_dir(&squatter).unwrap();
    durable_retract(&store, &ctx, &catalog, &[OfferId(7)]).unwrap();
    let tail = pse_wal::read_wal(&dir.join("wal.log"), pse_wal::WAL_HEADER_LEN).unwrap().unwrap();
    let logged: Vec<WalRecord> = tail.records.into_iter().map(|(r, _)| r).collect();
    assert_eq!(logged, [WalRecord::Retract(vec![OfferId(7)])], "the commit stands, logged");
    assert_eq!(obs.report().counter("serve.fold_failed"), Some(1));
    assert_eq!(snapshot_id(&dir), before, "no manifest committed");

    std::fs::remove_dir(&squatter).unwrap();
    durable_retract(&store, &ctx, &catalog, &[OfferId(8)]).unwrap();
    assert_eq!(snapshot_id(&dir), before + 1, "the next crossing commit folded");
    let tail = pse_wal::read_wal(&dir.join("wal.log"), pse_wal::WAL_HEADER_LEN).unwrap().unwrap();
    assert!(tail.records.is_empty(), "both records folded, the log rotated");
    assert_eq!(obs.report().counter("serve.fold_failed"), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}
