//! The durable write path: `pse-wal` glued to [`ShardedStore`].
//!
//! Commits are pipelined so the disk and the cores stay busy at the
//! same time. One commit walks four stages, and a fifth when its frame
//! took the log past the compaction threshold:
//!
//! ```text
//! 1. reconcile           (CPU, no locks — overlaps other commits' IO;
//!                         the writer is registered with the queue, so
//!                         a commit staged meanwhile waits to share its
//!                         sync)
//! 2. stage + enqueue     (brief durability-mutex hold: the frame gets
//!                         its LSN and the record enters the commit
//!                         queue, so queue order is log order; the
//!                         writer's registration ends here)
//! 3. become durable      (group commit: one leader fsyncs the group)
//! 4. apply               (one commit at a time applies every durable
//!                         record at the front of the queue, in log
//!                         order — one snapshot publish and one
//!                         dirty-marking per pass — and hands each
//!                         owner its stats)
//! 5. fold, if due        (the commit whose frame crossed the threshold,
//!                         after dropping its read guard on the gate)
//! ```
//!
//! Stages 3 and 4 are [`pse_wal::CommitQueue::commit`], one state
//! machine behind one lock; this module supplies the records and
//! `apply_batch`. Ingest and retract share one routine (`commit`);
//! they differ only in the [`WalRecord`] they hand it. Two invariants
//! hold throughout: a record is fsynced *before* its effects are visible
//! to readers, and every *published* state equals a sequential replay of
//! a prefix of the log. A batch's intermediate store states are never
//! observable: the owners of every batched commit still hold the
//! snapshot gate for read, so no fold can run until the batch's publish
//! and dirty-marking land.
//!
//! Snapshots take the `gate` write lock, which excludes every in-flight
//! commit (commits hold it for read from stage through apply), so a
//! fold captures exactly the applied-and-durable state, the queue is
//! empty, and the WAL can rotate with nothing staged-but-unsynced. Every
//! fold runs on the thread that needs it (open, a crossing commit,
//! shutdown), so it shows in that request's trace as `wal.snapshot`.
//!
//! Lock order: snapshot gate → durability mutex → queue mutex, and
//! snapshot gate → durability mutex → the store's writer lock. An apply
//! pass starts with neither mutex held, takes the writer lock for
//! `ShardedStore::apply`, releases it, then takes the durability mutex
//! alone to mark dirty shards.

use std::sync::{Mutex, RwLock};

use pse_core::{Catalog, Offer, OfferId};
use pse_store::{IngestStats, ProductStore};
use pse_synthesis::SpecProvider;
use pse_wal::{
    CommitQueue, Durability, DurabilityConfig, RecoveryStats, SnapshotStats, WalRecord, WriterGuard,
};

use crate::error::ServeError;
use crate::metrics;
use crate::shard::ShardedStore;

/// Shared state of the durable write path (module docs for the
/// protocol): the [`Durability`] context, the commit queue armed on its
/// log, and the snapshot gate.
#[derive(Debug)]
pub struct DurableCtx {
    durability: Mutex<Durability>,
    /// Every staged, not yet collected commit: decides which are durable
    /// and which is applied next.
    queue: CommitQueue<WalRecord, IngestStats>,
    /// Commits hold this for read from stage through apply; snapshots
    /// hold it for write. Always acquired before the durability mutex.
    gate: RwLock<()>,
}

impl DurableCtx {
    /// The underlying durability context. Hold it briefly — a long hold
    /// stalls every commit at its staging step.
    pub fn durability(&self) -> &Mutex<Durability> {
        &self.durability
    }
}

/// One apply pass: the whole `batch` (durable, in log order) goes
/// through [`ShardedStore::apply`] — one publish — and then, with the
/// writer lock released, one dirty-shard marking. The queue never runs
/// two passes at once.
fn apply_batch(
    store: &ShardedStore,
    ctx: &DurableCtx,
    catalog: &Catalog,
    batch: Vec<WalRecord>,
) -> Vec<IngestStats> {
    pse_obs::observe(metrics::APPLY_BATCH, batch.len() as u64);
    let (stats, dirty) = store.apply(catalog, batch);
    if !dirty.is_empty() {
        ctx.durability.lock().expect("durability lock").mark_dirty(dirty);
    }
    stats
}

/// Open the durable state under `dcfg`, preferring disk over `seed`:
/// when the directory holds a previous incarnation's segments or WAL,
/// the recovered store wins and `seed` is dropped; a fresh directory
/// keeps `seed` and immediately writes a full snapshot of it, so
/// pre-loaded state survives a crash before the first ingest. A WAL
/// tail that had to be replayed is folded into fresh segments right
/// away, keeping startup state and disk state in lockstep.
pub fn open_durable(
    dcfg: DurabilityConfig,
    catalog: &Catalog,
    seed: ShardedStore,
) -> Result<(ShardedStore, DurableCtx, RecoveryStats), ServeError> {
    let n_shards = seed.n_shards();
    let empty = || ProductStore::with_config(seed.correspondences().clone(), seed.config().clone());
    let (recovered, dur, stats) = Durability::open(dcfg, catalog, empty)?;
    let store = match recovered {
        Some(disk) => ShardedStore::from_store(disk, n_shards),
        None => seed,
    };
    let fold_now = dur.needs_initial_snapshot() || stats.wal_records_replayed > 0;
    let queue = CommitQueue::new(dur.config().group.clone(), dur.sync_handle()?, dur.wal_len());
    let ctx = DurableCtx { durability: Mutex::new(dur), queue, gate: RwLock::new(()) };
    if fold_now {
        durable_snapshot(&store, &ctx)?;
    }
    Ok((store, ctx, stats))
}

/// Commit `writer`'s record: encode it, stage the frame and queue the
/// record under the durability mutex — which ends the writer's
/// registration — let the queue make it durable and applied, then fold
/// if the frame crossed the threshold (module docs). `offers_in` is the
/// raw request size, which the stats report in place of the count the
/// apply routed.
fn commit(
    store: &ShardedStore,
    ctx: &DurableCtx,
    catalog: &Catalog,
    writer: WriterGuard<'_, WalRecord, IngestStats>,
    record: WalRecord,
    offers_in: usize,
) -> Result<IngestStats, ServeError> {
    // Encode outside the durability lock: staging under the lock is the
    // write path's only serialized section, so it must stay at "append
    // the frame", not "serialize the batch".
    let payload = record.payload();
    let gate = ctx.gate.read().expect("snapshot gate");
    let (lsn, crossed) = {
        let mut dur = ctx.durability.lock().expect("durability lock");
        let lsn = dur.stage_payload(&payload)?;
        ctx.queue.enqueue(writer, lsn, record);
        (lsn, dur.wants_compaction())
    };
    let stats = ctx.queue.commit(lsn, |batch| apply_batch(store, ctx, catalog, batch))?;
    drop(gate);
    if crossed {
        fold_if_due(store, ctx);
    }
    Ok(IngestStats { offers_in, ..stats })
}

/// Ingest a batch durably: reconcile once (outside every lock) and
/// commit the *reconciled* offers, so replay needs no `SpecProvider`.
pub fn durable_ingest<P: SpecProvider>(
    store: &ShardedStore,
    ctx: &DurableCtx,
    catalog: &Catalog,
    offers: &[Offer],
    provider: &P,
) -> Result<IngestStats, ServeError> {
    let _span = pse_obs::span("store.ingest");
    pse_obs::add(pse_store::metrics::INGEST, offers.len() as u64);
    // Registered while reconciling: a commit staged meanwhile waits (up
    // to `group_wait`) to share this one's sync.
    let writer = ctx.queue.writer();
    let record = WalRecord::Ingest(store.reconcile(offers, provider));
    commit(store, ctx, catalog, writer, record, offers.len())
}

/// Retract offers durably.
pub fn durable_retract(
    store: &ShardedStore,
    ctx: &DurableCtx,
    catalog: &Catalog,
    ids: &[OfferId],
) -> Result<IngestStats, ServeError> {
    let record = WalRecord::Retract(ids.to_vec());
    commit(store, ctx, catalog, ctx.queue.writer(), record, ids.len())
}

/// Fold the log if it is still past its threshold. Re-checked under the
/// gate's write lock and the durability mutex, so two commits that both
/// crossed fold once. A failed fold is counted, not returned: the commit
/// is durable and the log keeps every record for the next crossing
/// commit or shutdown to fold.
fn fold_if_due(store: &ShardedStore, ctx: &DurableCtx) {
    let _gate = ctx.gate.write().expect("snapshot gate");
    let mut dur = ctx.durability.lock().expect("durability lock");
    if dur.wants_compaction() && fold(store, ctx, &mut dur).is_err() {
        pse_obs::incr(metrics::FOLD_FAILED);
    }
}

/// Fold the WAL into segments: write an incremental snapshot (dirty
/// shards only) and rotate the log. Takes the snapshot gate for write
/// first — excluding every in-flight commit, so the fold captures
/// exactly the applied-and-durable state — then the durability mutex,
/// and re-arms the (empty) queue on the log the fold rotated to. Refuses
/// once an apply has panicked: that store may be half-applied, and the
/// log it would rotate away is the only faithful copy.
pub fn durable_snapshot(
    store: &ShardedStore,
    ctx: &DurableCtx,
) -> Result<SnapshotStats, ServeError> {
    let _gate = ctx.gate.write().expect("snapshot gate");
    fold(store, ctx, &mut ctx.durability.lock().expect("durability lock"))
}

/// [`durable_snapshot`]'s body, run with the gate held for write and
/// `dur` locked.
fn fold(
    store: &ShardedStore,
    ctx: &DurableCtx,
    dur: &mut Durability,
) -> Result<SnapshotStats, ServeError> {
    ctx.queue.check_apply()?;
    let gen = dur.wal_gen();
    let folded =
        dur.write_snapshot(store.n_shards(), store.config(), store.correspondences(), |i| {
            store.shard_clusters_value(i)
        });
    if dur.wal_gen() != gen {
        ctx.queue.reset(dur.sync_handle()?, dur.wal_len());
    }
    Ok(folded?)
}

#[cfg(test)]
mod tests;
