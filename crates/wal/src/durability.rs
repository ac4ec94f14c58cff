//! The durability protocol: log-then-apply writes, incremental
//! checkpoints, generation-fenced recovery.
//!
//! # Recovery algorithm
//!
//! ```text
//! 1. read manifest.json        (absent + absent WAL → nothing durable)
//! 2. load meta + segments      (checksummed; duplicate cluster keys or
//!    an offer in two clusters → CorruptSnapshot, not a healthy store)
//! 3. read the WAL              (absent → done)
//!    if its generation == manifest.wal_gen:
//!        replay records from manifest.wal_offset, stopping at the
//!        first torn frame; re-validate the offer index afterwards
//!    else: skip the tail — those records are already folded into the
//!        segments (the WAL rotation crashed between manifest commit
//!        and rename; see `write_snapshot` ordering below)
//! ```
//!
//! [`recover`] is strictly read-only so an oracle process can replay a
//! crashed directory before (and independently of) the server reopening
//! it; [`Durability::open`] additionally truncates the torn tail and
//! opens the log for appends.
//!
//! # Snapshot / compaction ordering
//!
//! [`Durability::write_snapshot`] makes the crash window at every step
//! safe:
//!
//! ```text
//! 1. write dirty shards' segments + meta   (new files; old ones untouched)
//! 2. stage wal.log.next, generation G+1    (inert until renamed)
//! 3. commit manifest {snapshot N+1, wal_gen G+1}  ← atomic commit point
//! 4. rename wal.log.next → wal.log         (old log's records now dead —
//!                                           the manifest already says so)
//! 5. gc unreferenced segment files
//! ```
//!
//! Crash before 3 → old manifest + old log: nothing lost. Crash between
//! 3 and 4 → new manifest, old log with generation G: recovery sees the
//! generation mismatch and ignores the stale records (they are inside
//! the new segments); open creates a fresh G+1 log. Crash after 4 → the
//! steady state, minus some garbage files the next gc sweeps.

use std::collections::BTreeSet;
use std::fs::File;
use std::path::PathBuf;

use pse_core::Catalog;
use pse_core::CorrespondenceSet;
use pse_store::ProductStore;
use pse_synthesis::RuntimeConfig;
use serde::{Deserialize, Serialize, Value};

use crate::group::GroupCommitConfig;
use crate::segments::{self, Manifest, SegmentEntry, SnapshotMeta};
use crate::wal::{self, Wal, WAL_HEADER_LEN};
use crate::{codec, metrics, WalError, FORMAT_VERSION, METRICS};

/// Where durable state lives and when to compact it.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The write-ahead log file.
    pub wal_path: PathBuf,
    /// Directory holding manifest + meta + segment files.
    pub snapshot_dir: PathBuf,
    /// When the WAL grows past this many record bytes, the serving layer
    /// should fold it into fresh segments ([`Durability::wants_compaction`]).
    pub compaction_threshold_bytes: u64,
    /// Group-commit knobs for the [`crate::CommitQueue`] the owner of the
    /// opened [`Durability`] builds over it.
    pub group: GroupCommitConfig,
}

/// What recovery found and replayed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Segment files loaded from the manifest.
    pub segments_loaded: usize,
    /// WAL records replayed on top of the segments.
    pub wal_records_replayed: usize,
    /// Bytes of torn final record discarded (0 on a clean shutdown).
    pub torn_bytes: u64,
}

/// What one snapshot wrote (and skipped).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Id of the committed snapshot.
    pub snapshot_id: u64,
    /// Segments rewritten because their shard was dirty.
    pub segments_written: usize,
    /// Clean segments reused from the previous manifest.
    pub segments_skipped: usize,
    /// Bytes written this snapshot (rewritten segments + meta).
    pub bytes_written: u64,
    /// Total bytes the committed snapshot references (all segments + meta).
    pub total_bytes: u64,
}

/// Rebuild a store from segments + WAL tail, read-only (no truncation,
/// no rotation — the on-disk state is untouched). Returns `Ok(None)`
/// when neither a manifest nor a WAL exists. `empty_store` supplies the
/// store to replay into when there is a WAL but no snapshot yet.
pub fn recover(
    config: &DurabilityConfig,
    catalog: &Catalog,
    empty_store: impl FnOnce() -> ProductStore,
) -> Result<Option<(ProductStore, RecoveryStats)>, WalError> {
    Ok(replay(config, catalog, empty_store)?.store)
}

/// What one read-only pass over a durable directory found: everything
/// [`recover`] returns and everything [`Durability::open`] needs to
/// reopen the log, so neither file is read twice.
struct Replayed {
    manifest: Option<Manifest>,
    /// The log's generation and durable length, when a log exists.
    log: Option<(u64, u64)>,
    store: Option<(ProductStore, RecoveryStats)>,
}

fn replay(
    config: &DurabilityConfig,
    catalog: &Catalog,
    empty_store: impl FnOnce() -> ProductStore,
) -> Result<Replayed, WalError> {
    let _span = pse_obs::span("wal.recover");
    METRICS.seed();
    let manifest = segments::read_manifest(&config.snapshot_dir)?;
    let mut stats = RecoveryStats::default();
    let (mut store, wal_from, manifest_gen) = match &manifest {
        Some(m) => {
            let meta_bytes =
                segments::read_blob(&config.snapshot_dir, &m.meta_file, m.meta_bytes, m.meta_fnv)?;
            let meta: SnapshotMeta = Deserialize::from_value(&codec::decode_value(&meta_bytes)?)
                .map_err(|e| WalError::Corrupt(format!("meta blob: {e}")))?;
            if meta.schema_version != FORMAT_VERSION {
                return Err(WalError::Corrupt(format!(
                    "meta version {} unsupported (expected {FORMAT_VERSION})",
                    meta.schema_version
                )));
            }
            let mut parts = Vec::with_capacity(m.segments.len());
            for seg in &m.segments {
                let bytes =
                    segments::read_blob(&config.snapshot_dir, &seg.file, seg.bytes, seg.fnv)?;
                parts.push(codec::decode_value(&bytes)?);
            }
            stats.segments_loaded = parts.len();
            let store = ProductStore::from_cluster_parts(meta.config, meta.correspondences, parts)?;
            (store, m.wal_offset, Some(m.wal_gen))
        }
        None => (empty_store(), WAL_HEADER_LEN, None),
    };
    let tail = wal::read_wal(&config.wal_path, wal_from)?;
    let log = tail.as_ref().map(|t| (t.gen, t.durable_len));
    let found = manifest.is_some() || tail.is_some();
    if let Some(tail) = tail {
        // A generation mismatch means the manifest superseded this log
        // (crash between manifest commit and log rotation): its records
        // are already inside the segments. Replay nothing.
        let generation_matches = manifest_gen.is_none_or(|g| tail.gen == g);
        if generation_matches {
            stats.torn_bytes = tail.torn_bytes;
            for (record, _) in tail.records {
                record.apply_to(&mut store, catalog);
                stats.wal_records_replayed += 1;
            }
            if stats.wal_records_replayed > 0 {
                // The same corruption screen `restore_json` applies.
                store.validate_offer_index()?;
            }
        }
    }
    Ok(Replayed { manifest, log, store: found.then_some((store, stats)) })
}

/// An open durability context: the WAL accepting appends, the last
/// committed manifest, and the dirty-shard set accumulated since it.
///
/// One stager at a time — callers serialize [`Self::stage_payload`]
/// behind a mutex and hand each staged record to a
/// [`crate::CommitQueue`] under that same mutex; the queue syncs and
/// applies in log order (the serving layer's `durable` module does this).
#[derive(Debug)]
pub struct Durability {
    config: DurabilityConfig,
    wal: Wal,
    manifest: Option<Manifest>,
    /// Shards whose segment must be rewritten at the next snapshot.
    dirty_shards: BTreeSet<usize>,
    /// Rewrite everything at the next snapshot: set on a fresh
    /// directory, after replaying a WAL tail (per-shard dirt unknown),
    /// or when the shard count changed.
    rewrite_all: bool,
    /// Whether the current WAL generation holds records not yet folded
    /// into segments.
    unfolded_records: bool,
}

impl Durability {
    /// Open (or initialize) the durable state under `config`, recovering
    /// any existing store. Creates directories as needed; truncates a
    /// torn WAL tail; heals a crashed rotation. Returns the recovered
    /// store (`None` for a fresh directory — the caller keeps its seed
    /// store and should write an initial snapshot), the open context,
    /// and recovery stats.
    pub fn open(
        config: DurabilityConfig,
        catalog: &Catalog,
        empty_store: impl FnOnce() -> ProductStore,
    ) -> Result<(Option<ProductStore>, Durability, RecoveryStats), WalError> {
        let _span = pse_obs::span("wal.open");
        std::fs::create_dir_all(&config.snapshot_dir)?;
        if let Some(parent) = config.wal_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let Replayed { manifest, log, store } = replay(&config, catalog, empty_store)?;
        let manifest_gen = manifest.as_ref().map(|m| m.wal_gen);
        let wal = match log.filter(|(gen, _)| manifest_gen.is_none_or(|m| m == *gen)) {
            // A log the manifest (if there is one) pairs with: truncate
            // the torn tail, keep appending.
            Some((gen, durable_len)) => Wal::open_for_append(&config.wal_path, gen, durable_len)?,
            // Fresh directory, missing log, or the stale log of a crashed
            // rotation: the manifest's generation wins; its records live
            // in the segments.
            None => Wal::create(&config.wal_path, manifest_gen.unwrap_or(1))?,
        };
        let (store, stats) = store.unzip();
        let unfolded = !wal.is_empty();
        let durability = Durability {
            config,
            wal,
            manifest,
            dirty_shards: BTreeSet::new(),
            rewrite_all: unfolded || store.is_none(),
            unfolded_records: unfolded,
        };
        Ok((store, durability, stats.unwrap_or_default()))
    }

    /// Whether no snapshot exists yet. Callers should write an initial
    /// full snapshot so pre-loaded (seed) state survives a crash that
    /// happens before the first ingest.
    pub fn needs_initial_snapshot(&self) -> bool {
        self.manifest.is_none()
    }

    /// Stage one pre-encoded record ([`crate::WalRecord::payload`]) into the
    /// log **without** waiting for durability, and return its commit LSN.
    /// The record is durable once a `sync_data` on [`Self::sync_handle`]
    /// covers that LSN; queue it ([`crate::CommitQueue::enqueue`]) under
    /// the lock that serialized this call and let the queue sync before
    /// it applies, so fsync-before-apply holds. Taking the encoded bytes
    /// lets concurrent writers encode outside that lock, shrinking the
    /// critical section to the frame write.
    pub fn stage_payload(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let lsn = self.wal.stage_payload(payload)?;
        self.unfolded_records = true;
        Ok(lsn)
    }

    /// A duplicate handle of the current log file ([`Wal::sync_handle`]).
    /// The owner arms its [`crate::CommitQueue`] with it after
    /// [`Self::open`] and again whenever [`Self::wal_gen`] has changed.
    pub fn sync_handle(&self) -> Result<File, WalError> {
        self.wal.sync_handle()
    }

    /// Generation of the log being appended to; every snapshot that
    /// rotates the log advances it.
    pub fn wal_gen(&self) -> u64 {
        self.wal.gen()
    }

    /// Record which shards a just-applied write touched, so the next
    /// incremental snapshot rewrites exactly those segments.
    pub fn mark_dirty(&mut self, shards: impl IntoIterator<Item = usize>) {
        self.dirty_shards.extend(shards);
    }

    /// Current WAL length (header + records), in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Whether the WAL has outgrown the configured threshold and should
    /// be folded into segments.
    pub fn wants_compaction(&self) -> bool {
        self.wal.len().saturating_sub(WAL_HEADER_LEN) > self.config.compaction_threshold_bytes
    }

    /// The configuration this context was opened with.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// Write a snapshot and rotate the WAL (the compaction step). Only
    /// segments whose shards are dirty are rewritten — clean shards keep
    /// their existing files via their manifest entries; `shard_clusters`
    /// is called once per rewritten shard to export its cluster map
    /// (`ProductStore::clusters_value`). Returns without touching disk
    /// when nothing changed since the last snapshot.
    pub fn write_snapshot(
        &mut self,
        n_shards: usize,
        config: &RuntimeConfig,
        correspondences: &CorrespondenceSet,
        shard_clusters: impl Fn(usize) -> Value,
    ) -> Result<SnapshotStats, WalError> {
        let _span = pse_obs::span("wal.snapshot");
        let shape_changed = self.manifest.as_ref().is_none_or(|m| m.segments.len() != n_shards);
        let rewrite_all = self.rewrite_all || shape_changed;
        if !rewrite_all && self.dirty_shards.is_empty() && !self.unfolded_records {
            // Nothing to fold; the committed snapshot already covers it.
            let m = self.manifest.as_ref().expect("manifest exists when not rewriting");
            pse_obs::add(metrics::SEGMENTS_SKIPPED, n_shards as u64);
            return Ok(SnapshotStats {
                snapshot_id: m.snapshot_id,
                segments_written: 0,
                segments_skipped: n_shards,
                bytes_written: 0,
                total_bytes: m.meta_bytes + m.segments.iter().map(|s| s.bytes).sum::<u64>(),
            });
        }
        let snapshot_id = self.manifest.as_ref().map_or(1, |m| m.snapshot_id + 1);
        let next_gen = self.wal.gen() + 1;
        let dir = self.config.snapshot_dir.clone();
        let mut entries = Vec::with_capacity(n_shards);
        let mut written = 0usize;
        let mut skipped = 0usize;
        let mut bytes_written = 0u64;
        for shard in 0..n_shards {
            if !rewrite_all && !self.dirty_shards.contains(&shard) {
                let prev = self
                    .manifest
                    .as_ref()
                    .and_then(|m| m.segments.iter().find(|s| s.shard == shard))
                    .expect("clean shard has a previous segment");
                entries.push(prev.clone());
                skipped += 1;
                continue;
            }
            let bytes = codec::encode_to_vec(&shard_clusters(shard));
            let file = segments::segment_file_name(shard, snapshot_id);
            let fnv = segments::write_blob(&dir, &file, &bytes)?;
            bytes_written += bytes.len() as u64;
            entries.push(SegmentEntry { shard, file, bytes: bytes.len() as u64, fnv });
            written += 1;
        }
        let meta = SnapshotMeta {
            schema_version: FORMAT_VERSION,
            config: config.clone(),
            correspondences: correspondences.clone(),
        };
        let meta_bytes = codec::encode_to_vec(&meta.to_value());
        let meta_file = segments::meta_file_name(snapshot_id);
        let meta_fnv = segments::write_blob(&dir, &meta_file, &meta_bytes)?;
        bytes_written += meta_bytes.len() as u64;
        // Stage the next log generation before the manifest that names
        // it commits; promote (rename) only after. See the module docs
        // for why every crash window in between is safe.
        Wal::stage_next(&self.config.wal_path, next_gen)?;
        let manifest = Manifest {
            schema_version: FORMAT_VERSION,
            snapshot_id,
            wal_gen: next_gen,
            wal_offset: WAL_HEADER_LEN,
            meta_file,
            meta_bytes: meta_bytes.len() as u64,
            meta_fnv,
            segments: entries,
        };
        segments::write_manifest(&dir, &manifest)?;
        self.wal = Wal::promote_staged(&self.config.wal_path, next_gen)?;
        segments::gc(&dir, &manifest)?;
        pse_obs::add(metrics::SEGMENTS_WRITTEN, written as u64);
        pse_obs::add(metrics::SEGMENTS_SKIPPED, skipped as u64);
        let total_bytes =
            manifest.meta_bytes + manifest.segments.iter().map(|s| s.bytes).sum::<u64>();
        self.manifest = Some(manifest);
        self.dirty_shards.clear();
        self.rewrite_all = false;
        self.unfolded_records = false;
        Ok(SnapshotStats {
            snapshot_id,
            segments_written: written,
            segments_skipped: skipped,
            bytes_written,
            total_bytes,
        })
    }
}
