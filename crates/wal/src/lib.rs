//! Durable catalog state for the product store.
//!
//! The one recovery format of the serving layer, in the classic log +
//! checkpoint design — a crash at any moment loses nothing that was
//! acknowledged:
//!
//! * **[`Wal`]** — a binary write-ahead log. Every `ingest`/`retract`
//!   batch is appended as one length-prefixed, FNV-1a-checksummed record
//!   and fsynced *before* it is applied to the in-memory store, so a
//!   batch the client saw acknowledged is on disk. Concurrent writers
//!   amortize that fsync through the [`CommitQueue`]: frames are staged
//!   unsynced and queued in log order, one leader `sync_data`s the whole
//!   group, and one commit at a time applies every durable record at the
//!   front of the queue — group commit and ordered apply behind one lock.
//! * **Segmented snapshots** ([`segments`]) — one binary segment per
//!   shard plus a small meta blob (config + correspondences), each
//!   written temp-file → fsync → rename, bound together by a JSON
//!   [`Manifest`] committed with the same atomic-rename protocol. The
//!   incremental mode rewrites only segments whose shards the
//!   dirty-cluster deltas touched since the last snapshot; clean shards
//!   keep their existing files.
//! * **Recovery** ([`recover`]) — load the manifest's segments, then
//!   replay the WAL tail the manifest points at, stopping at the first
//!   torn (short or checksum-failing) record. Recovery is strictly
//!   read-only, so a crashed directory can be inspected (and replayed by
//!   an oracle process) before the server reopens it; the physical
//!   truncation of a torn tail happens only when the WAL is reopened for
//!   appends.
//! * **Compaction** ([`Durability::write_snapshot`]) — folds a long WAL
//!   into fresh segments and rotates the log to a new generation. The
//!   manifest names the WAL generation it pairs with, so a tail from a
//!   previous generation (already folded into segments) is never
//!   replayed twice.
//!
//! The JSON snapshot ([`pse_store::ProductStore::snapshot_json`]) is
//! not a recovery path; it stays the equivalence oracle: restoring from
//! segments + WAL yields a store whose `snapshot_json` is byte-identical
//! to `restore_json` of the same logical state (pinned by the
//! crash-point proptests in `tests/durability.rs` at the workspace
//! root). That holds because the binary [`codec`] round-trips the serde
//! `Value` tree exactly — including `f64` bit patterns — so no
//! serialization detail can drift between the two paths.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use pse_store::StoreError;

pub mod codec;
pub mod durability;
pub mod group;
pub mod segments;
pub mod wal;

/// The durability layer's metric names, each written once.
pub mod metrics {
    pse_obs::metric_set! {
        /// Every counter and histogram the layer can emit. Both
        /// [`recover`](crate::recover) and [`Durability::open`](crate::Durability::open)
        /// seed the set, so a report shows all of it whenever the layer
        /// ran — a read-only recovery reports fsync latency and the
        /// group-commit distributions at zero samples.
        METRICS {
            counters {
                APPEND = "wal.append",
                BYTES = "wal.bytes",
                SEGMENTS_WRITTEN = "snapshot.segments_written",
                SEGMENTS_SKIPPED = "snapshot.segments_skipped",
            }
            histograms {
                FSYNC_US = "wal.fsync_us",
                GROUP_SIZE = "wal.group_size",
                GROUP_WAIT_US = "wal.group_wait_us",
            }
        }
    }
}
pub use metrics::METRICS;

pub use durability::{recover, Durability, DurabilityConfig, RecoveryStats, SnapshotStats};
pub use group::{CommitQueue, GroupCommitConfig, WriterGuard};
pub use segments::{Manifest, SegmentEntry, FORMAT_VERSION};
pub use wal::{read_wal, Wal, WalRecord, WalTail, WAL_HEADER_LEN, WAL_MAGIC};

/// Why a durability operation failed.
#[derive(Debug)]
pub enum WalError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes are not a valid log, segment, or manifest — a
    /// checksum mismatch, bad magic, or an undecodable payload past the
    /// checksum (which a torn write cannot produce).
    Corrupt(String),
    /// Recovered state failed store-level validation (e.g. one offer
    /// claimed by two clusters).
    Store(StoreError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Corrupt(msg) => write!(f, "corrupt durable state: {msg}"),
            Self::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Store(e) => Some(e),
            Self::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<StoreError> for WalError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

/// Write `bytes` to `path` atomically: a `.tmp` sibling in the same
/// directory is written and fsynced, then renamed over the target, then
/// the directory is fsynced so the rename itself is durable. A crash at
/// any point leaves either the old file or the new file — never a torn
/// mix, and never a missing target that previously existed.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// The `.tmp` sibling `atomic_write` stages into — exposed so tests can
/// simulate a crashed partial write at the exact path a real one uses.
pub fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsync the directory containing `path`, making a rename into it
/// durable. A no-op on platforms where directories cannot be opened.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pse-wal-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_and_cleans_tmp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("state.bin");
        atomic_write(&path, b"v1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v1");
        atomic_write(&path, b"v2-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v2-longer");
        assert!(!tmp_sibling(&path).exists(), "tmp staging file renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_staging_write_leaves_old_file_intact() {
        // The regression the shutdown-snapshot bugfix rides on: a crash
        // mid-write used to destroy the only copy. With the staging
        // protocol, a torn `.tmp` (simulated here by truncating a partial
        // write into place) never touches the committed file.
        let dir = tmp_dir("torn");
        let path = dir.join("snapshot.json");
        atomic_write(&path, b"the good snapshot").unwrap();
        // Simulate a crashed writer: partial bytes in the staging file,
        // process dies before rename.
        std::fs::write(tmp_sibling(&path), b"half-writ").unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"the good snapshot",
            "old snapshot survives the torn attempt"
        );
        // The next successful writer just overwrites the stale staging file.
        atomic_write(&path, b"the next snapshot").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"the next snapshot");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
