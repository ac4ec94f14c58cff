//! The durable write path: `pse-wal` glued to [`ShardedStore`].
//!
//! Commits are pipelined so the disk and the cores stay busy at the
//! same time. One commit walks four stages:
//!
//! ```text
//! 1. reconcile           (CPU, no locks — overlaps other commits' IO)
//! 2. stage into the WAL  (brief durability-mutex hold; assigns the
//!                         commit LSN and the apply sequence number)
//! 3. wait_durable(lsn)   (group commit: one leader fsyncs the whole
//!                         group — see pse_wal::GroupCommitter)
//! 4. combine-apply       (the first committer out of the sync applies
//!                         every durable queued record in sequence
//!                         order and wakes the owners — one snapshot
//!                         publish and one dirty-marking per batch)
//! ```
//!
//! Ingest and retract share one routine ([`commit`]); they differ only
//! in the [`WalRecord`] they hand it. Two invariants hold throughout: a
//! record is fsynced *before* its effects are visible to readers (stage
//! → wait_durable → apply), and every *published* state equals a
//! sequential replay of a prefix of the log — step 4's combiner applies
//! strictly in sequence order, which keeps that true while commits
//! overlap. A batch's intermediate store states are never observable:
//! the owners of every batched commit still hold the snapshot gate for
//! read, so no fold can run until the batch's publish and dirty-marking
//! land.
//!
//! Snapshots take the `gate` write lock, which excludes every in-flight
//! commit (commits hold it for read from stage through apply), so a
//! fold captures exactly the applied-and-durable state and the WAL can
//! rotate with nothing staged-but-unsynced.
//!
//! Lock order: snapshot gate → durability mutex → shard locks, never
//! any other order, so the write path cannot deadlock against
//! compaction.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use pse_core::{Catalog, Offer, OfferId};
use pse_store::{IngestStats, ProductStore};
use pse_synthesis::SpecProvider;
use pse_wal::{Durability, DurabilityConfig, RecoveryStats, SnapshotStats, WalRecord};

use crate::error::ServeError;
use crate::metrics;
use crate::shard::ShardedStore;

/// The most commits one combiner applies before handing off. Bounds the
/// latency a helped commit adds to the combiner's own return; groups are
/// never larger than the writer count in practice, so the cap only binds
/// under a deep backlog.
const MAX_COMBINE: usize = 64;

/// Shared state of the durable write path (module docs for the
/// protocol). Wraps the [`Durability`] context with the snapshot gate
/// and the apply turnstile that keep overlapping commits safe.
#[derive(Debug)]
pub struct DurableCtx {
    durability: Mutex<Durability>,
    committer: std::sync::Arc<pse_wal::GroupCommitter>,
    /// Commits hold this for read from stage through apply; snapshots
    /// hold it for write. Always acquired before the durability mutex.
    gate: RwLock<()>,
    /// Next apply sequence number, assigned while staging (under the
    /// durability mutex, so sequence order equals log order). Never
    /// reset — LSNs restart at each WAL rotation, sequence numbers
    /// don't, which is why the turnstile tracks them instead of LSNs.
    seq: AtomicU64,
    /// Apply turnstile: highest completed sequence number, the staged
    /// work of every not-yet-applied commit, and the parked thread of
    /// each waiting committer. The first committer to come out of
    /// `wait_durable` and find itself next in sequence becomes the
    /// **combiner**: it applies every queued, durable, consecutive
    /// record in one pass — snapshot published once, dirty shards
    /// marked once — deposits each owner's stats, and wakes them. A
    /// helped commit never parks here at all, and the per-commit
    /// park/unpark handoff chain the old turnstile serialized after
    /// every group fsync disappears.
    turnstile: Mutex<Turnstile>,
}

#[derive(Debug, Default)]
struct Turnstile {
    /// Highest sequence number whose apply (or abandonment) completed.
    applied: u64,
    /// Staged-but-unapplied commits, keyed by sequence number.
    items: BTreeMap<u64, WorkItem>,
    /// Parked committers by the sequence number they wait on.
    waiting: BTreeMap<u64, std::thread::Thread>,
}

/// One staged commit's pending apply.
#[derive(Debug)]
struct WorkItem {
    /// The commit's LSN: a combiner may only apply items whose LSN the
    /// group committer reports durable.
    lsn: u64,
    /// The record to apply; taken by the combiner that applies it.
    record: Option<WalRecord>,
    /// The apply's stats, deposited by the combiner for the owner.
    done: Option<IngestStats>,
}

impl DurableCtx {
    /// Wrap an opened durability context for concurrent commits.
    pub fn new(durability: Durability) -> Self {
        let committer = durability.committer();
        Self {
            durability: Mutex::new(durability),
            committer,
            gate: RwLock::new(()),
            seq: AtomicU64::new(0),
            turnstile: Mutex::new(Turnstile::default()),
        }
    }

    /// The underlying durability context (e.g. for
    /// [`Durability::wants_compaction`] checks). Hold it briefly — a
    /// long hold stalls every commit at its staging step.
    pub fn durability(&self) -> &Mutex<Durability> {
        &self.durability
    }

    /// Queue a staged commit's record for apply. Called after the
    /// durability mutex is released (the turnstile is taken after it,
    /// never under it — the combiner takes them in the opposite order for
    /// `mark_dirty`). A combiner scanning past a sequence number whose
    /// item has not landed yet simply stops there; that owner finds
    /// itself next in line when it arrives and combines from its own
    /// sequence onward.
    fn enqueue(&self, seq: u64, lsn: u64, record: WalRecord) {
        let mut ts = self.turnstile.lock().expect("apply turnstile");
        ts.items.insert(seq, WorkItem { lsn, record: Some(record), done: None });
    }

    /// Finish a durable commit: return its apply stats, either applied
    /// here (this thread combined) or deposited by another combiner.
    fn complete(&self, seq: u64, store: &ShardedStore, catalog: &Catalog) -> IngestStats {
        loop {
            let mut ts = self.turnstile.lock().expect("apply turnstile");
            if let Some(stats) = ts.items.get_mut(&seq).and_then(|item| item.done.take()) {
                // A combiner applied this commit for us.
                ts.items.remove(&seq);
                ts.waiting.remove(&seq);
                return stats;
            }
            if ts.applied == seq - 1 {
                return self.combine(ts, seq, store, catalog);
            }
            // Not next and not helped yet: park until a combiner (or an
            // abandoning predecessor) wakes us. An unpark issued before
            // the park leaves a token, so the deposit-then-park race
            // falls straight through the next loop round.
            ts.waiting.insert(seq, std::thread::current());
            drop(ts);
            std::thread::park();
        }
    }

    /// Apply every queued, durable, consecutive record starting at `seq`
    /// (which must be next in sequence; `ts` is the held turnstile
    /// lock). One snapshot publish and one dirty-shard marking cover the
    /// whole batch; owners of helped commits get their stats deposited
    /// and are woken. Returns `seq`'s own stats.
    fn combine(
        &self,
        mut ts: std::sync::MutexGuard<'_, Turnstile>,
        seq: u64,
        store: &ShardedStore,
        catalog: &Catalog,
    ) -> IngestStats {
        let durable = self.committer.durable_lsn();
        let mut batch = Vec::new();
        let mut next = seq;
        while batch.len() < MAX_COMBINE {
            match ts.items.get_mut(&next) {
                Some(item) if item.lsn <= durable && item.record.is_some() => {
                    batch.push((next, item.record.take().expect("record present")));
                    next += 1;
                }
                _ => break,
            }
        }
        drop(ts);
        // `seq` itself is always batchable: its sync returned `Ok`, so
        // its LSN is durable, and only the owner ever takes its record.
        debug_assert!(!batch.is_empty(), "combiner's own commit must be in the batch");
        pse_obs::observe(metrics::APPLY_BATCH, batch.len() as u64);
        let mut updates = Vec::new();
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        let mut results = Vec::with_capacity(batch.len());
        for (s, record) in batch {
            let (write, shard_updates) = store.apply_unpublished(catalog, record);
            dirty.extend(write.dirty_shards);
            updates.extend(shard_updates);
            results.push((s, write.stats));
        }
        store.publish(updates);
        if !dirty.is_empty() {
            let mut dur = self.durability.lock().expect("durability lock");
            dur.mark_dirty(dirty);
        }
        let mut my_stats = None;
        let mut wake = Vec::new();
        let mut ts = self.turnstile.lock().expect("apply turnstile");
        for (s, stats) in results {
            debug_assert_eq!(ts.applied, s - 1, "combined applies advance in sequence order");
            ts.applied = s;
            if s == seq {
                ts.items.remove(&s);
                my_stats = Some(stats);
            } else {
                if let Some(item) = ts.items.get_mut(&s) {
                    item.done = Some(stats);
                }
                wake.extend(ts.waiting.remove(&s));
            }
        }
        // The next-in-line commit could not be batched (not yet queued,
        // or its group's sync still in flight); if its owner parked in
        // the meantime, hand it the turn.
        let next_seq = ts.applied + 1;
        wake.extend(ts.waiting.remove(&next_seq));
        drop(ts);
        for thread in wake {
            thread.unpark();
        }
        my_stats.expect("combiner's own commit was applied")
    }

    /// Complete a failed commit without applying it: once every
    /// predecessor finished, advance the turnstile past `seq` and wake
    /// the successor, so later commits — which must all fail the same
    /// poisoned sync — drain instead of hanging on a slot that will
    /// never turn.
    fn abandon(&self, seq: u64) {
        loop {
            let mut ts = self.turnstile.lock().expect("apply turnstile");
            if ts.applied == seq - 1 {
                ts.items.remove(&seq);
                ts.waiting.remove(&seq);
                ts.applied = seq;
                let next = ts.waiting.remove(&(seq + 1));
                drop(ts);
                if let Some(thread) = next {
                    thread.unpark();
                }
                return;
            }
            ts.waiting.insert(seq, std::thread::current());
            drop(ts);
            std::thread::park();
        }
    }
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
    let ctx = DurableCtx::new(dur);
    if fold_now {
        durable_snapshot(&store, &ctx)?;
    }
    Ok((store, ctx, stats))
}

/// Commit one record: encode it, stage the frame into the WAL, wait for
/// the group fsync, then apply in sequence order (module docs). The
/// caller registers as a group-commit writer first, so whatever work it
/// does to build `record` counts it as a group member already.
/// `offers_in` of the returned stats is whatever the apply routed; the
/// wrappers overwrite it with the raw request size.
fn commit(
    store: &ShardedStore,
    ctx: &DurableCtx,
    catalog: &Catalog,
    record: WalRecord,
) -> Result<IngestStats, ServeError> {
    // Encode outside the durability lock: staging under the lock is the
    // write path's only serialized section, so it must stay at "append
    // the frame", not "serialize the batch".
    let payload = record.payload();
    let _gate = ctx.gate.read().expect("snapshot gate");
    let (lsn, seq) = {
        let mut dur = ctx.durability.lock().expect("durability lock");
        let lsn = dur.stage_payload(&payload)?;
        (lsn, ctx.seq.fetch_add(1, Ordering::Relaxed) + 1)
    };
    ctx.enqueue(seq, lsn, record);
    match ctx.committer.wait_durable(lsn) {
        Ok(()) => Ok(ctx.complete(seq, store, catalog)),
        Err(e) => {
            ctx.abandon(seq);
            Err(e.into())
        }
    }
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
    let _writer = ctx.committer.writer();
    let record = WalRecord::Ingest(store.reconcile(offers, provider));
    let stats = commit(store, ctx, catalog, record)?;
    Ok(IngestStats { offers_in: offers.len(), ..stats })
}

/// Retract offers durably.
pub fn durable_retract(
    store: &ShardedStore,
    ctx: &DurableCtx,
    catalog: &Catalog,
    ids: &[OfferId],
) -> Result<IngestStats, ServeError> {
    let _writer = ctx.committer.writer();
    let stats = commit(store, ctx, catalog, WalRecord::Retract(ids.to_vec()))?;
    Ok(IngestStats { offers_in: ids.len(), ..stats })
}

/// Fold the WAL into segments: write an incremental snapshot (dirty
/// shards only) and rotate the log. Takes the snapshot gate for write
/// first — excluding every in-flight commit, so the fold captures
/// exactly the applied-and-durable state — then the durability mutex.
pub fn durable_snapshot(
    store: &ShardedStore,
    ctx: &DurableCtx,
) -> Result<SnapshotStats, ServeError> {
    let _gate = ctx.gate.write().expect("snapshot gate");
    let mut dur = ctx.durability.lock().expect("durability lock");
    Ok(dur.write_snapshot(store.n_shards(), store.config(), store.correspondences(), |i| {
        store.shard_clusters_value(i)
    })?)
}
