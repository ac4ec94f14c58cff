//! Where a write's rebuild tasks run: a durable 8-offer commit rebuilds
//! its categories on the committing thread — too small a batch to pay
//! for a `pse-par` spawn — while a preload-sized batch still fans out. Read off the
//! `pse-obs` timeline, where a call that ran inline records exactly one
//! chunk.

mod common;

use std::sync::Arc;

use common::{fixture, spec_provider};
use pse_core::{Offer, OfferId};
use pse_obs::Obs;
use pse_serve::{durable_ingest, open_durable, ShardedStore};
use pse_wal::DurabilityConfig;

/// Labels of the `pse-par` calls `work` made that ran on more than one
/// chunk, i.e. spawned workers.
fn fanned_out(work: impl FnOnce()) -> Vec<String> {
    let obs = Obs::new();
    let _on = obs.install();
    work();
    let timelines = obs.report().timelines.into_iter();
    timelines.filter(|t| t.chunks.len() as u64 > t.calls).map(|t| t.label).collect()
}

#[test]
fn a_durable_8_offer_commit_runs_its_shard_tasks_on_the_callers_thread() {
    let f = fixture();
    let dir = std::env::temp_dir().join(format!("pse-inline-apply-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dcfg = DurabilityConfig {
        wal_path: dir.join("wal.log"),
        snapshot_dir: dir.join("segments"),
        compaction_threshold_bytes: u64::MAX,
        group: Default::default(),
    };
    let seed = ShardedStore::new(f.correspondences.clone(), 4);
    let (store, ctx, _) = open_durable(dcfg, &f.world.catalog, seed).unwrap();
    let provider = spec_provider();
    // Two workers on this thread whatever the host has, so only the
    // batch size decides.
    pse_par::with_threads(2, || {
        let before = store.snapshot();
        let small = fanned_out(|| {
            durable_ingest(&store, &ctx, &f.world.catalog, &f.corpus[..8], &provider).unwrap();
        });
        let after = store.snapshot();
        let touched =
            after.shards.categories.iter().filter(|(c, a)| {
                before.shards.categories.get(c).is_none_or(|b| !Arc::ptr_eq(b, a))
            });
        assert!(touched.count() >= 2, "the batch must span categories to have tasks to spread");
        assert_eq!(small, Vec::<String>::new(), "an 8-offer commit spawned");

        // The same store, a 1,000-offer batch (fresh ids over the corpus):
        // its rebuild tasks go to the workers.
        let big: Vec<Offer> = (0..1_000)
            .map(|k| Offer { id: OfferId(1_000_000 + k), ..f.corpus[k as usize % 8].clone() })
            .collect();
        let reconciled = store.reconcile(&big, &provider);
        let big = fanned_out(|| {
            store.ingest_reconciled(&f.world.catalog, reconciled);
        });
        assert!(!big.is_empty(), "a 1,000-offer batch ran inline");
    });
    drop((store, ctx));
    std::fs::remove_dir_all(&dir).unwrap();
}
