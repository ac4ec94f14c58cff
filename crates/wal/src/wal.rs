//! The write-ahead log file: framed, checksummed, generation-stamped.
//!
//! ```text
//! file    := header record*
//! header  := magic[8]="PSEWAL01" generation:u64   (16 bytes)
//! record  := len:u32 fnv1a(payload):u64 payload[len]
//! payload := codec::encode(Array[ kind:U64, body ])
//!            kind 0 = Ingest, body = Vec<ReconciledOffer>
//!            kind 1 = Retract, body = Array[U64 offer ids]
//! ```
//!
//! Ingest records carry *reconciled* offers, so replay needs no
//! [`pse_synthesis::SpecProvider`] — reconciliation already happened
//! (and is a pure function of the offer, so logging its output loses
//! nothing).
//!
//! Every snapshot rotates the log to a new generation (see
//! [`crate::Durability`]); the manifest records which generation its
//! segments pair with, so a stale log left by a crash between manifest
//! commit and log rotation is recognized by its generation stamp and
//! skipped — its records are already folded into the segments.
//!
//! A torn final record (short frame or checksum mismatch) marks the end
//! of the durable prefix. [`read_wal`] reports it without touching the
//! file; [`Wal::open_for_append`] physically truncates it.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use pse_core::{Catalog, OfferId};
use pse_store::{IngestDelta, ProductStore};
use pse_synthesis::ReconciledOffer;
use serde::{Deserialize, Serialize, Value};

use crate::{codec, metrics, WalError};

/// Magic bytes opening every WAL file (name + format version).
pub const WAL_MAGIC: [u8; 8] = *b"PSEWAL01";

/// Bytes of the file header (magic + generation); records start here.
pub const WAL_HEADER_LEN: u64 = 16;

/// Upper bound on one record's payload: anything larger in a length
/// prefix is garbage, not a batch (guards allocation during recovery).
const MAX_RECORD_BYTES: u32 = 1 << 30;

const KIND_INGEST: u64 = 0;
const KIND_RETRACT: u64 = 1;

/// One logged store mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An ingest batch, already reconciled into catalog vocabulary.
    Ingest(Vec<ReconciledOffer>),
    /// A retraction batch.
    Retract(Vec<OfferId>),
}

impl WalRecord {
    /// Encode this record's payload (the bytes the frame checksums).
    pub fn payload(&self) -> Vec<u8> {
        let value = match self {
            Self::Ingest(offers) => Value::Array(vec![Value::U64(KIND_INGEST), offers.to_value()]),
            Self::Retract(ids) => Value::Array(vec![
                Value::U64(KIND_RETRACT),
                Value::Array(ids.iter().map(|id| Value::U64(id.0)).collect()),
            ]),
        };
        codec::encode_to_vec(&value)
    }

    /// Run this record through `store`: the one place a logged mutation
    /// meets the store, shared by recovery's replay and the serving
    /// layer's apply pass. The delta names every cluster it touched.
    pub fn apply_to(self, store: &mut ProductStore, catalog: &Catalog) -> IngestDelta {
        match self {
            Self::Ingest(reconciled) => store.ingest_reconciled(catalog, reconciled),
            Self::Retract(ids) => store.retract(catalog, &ids),
        }
    }

    /// Decode a payload. Only called on checksum-verified bytes, so a
    /// failure here is real corruption, not a torn write.
    pub fn from_payload(bytes: &[u8]) -> Result<Self, WalError> {
        let value = codec::decode_value(bytes)?;
        let Value::Array(parts) = &value else {
            return Err(WalError::Corrupt("record payload is not an array".to_string()));
        };
        match parts.as_slice() {
            [Value::U64(KIND_INGEST), body] => {
                let offers: Vec<ReconciledOffer> = Deserialize::from_value(body)
                    .map_err(|e| WalError::Corrupt(format!("ingest record: {e}")))?;
                Ok(Self::Ingest(offers))
            }
            [Value::U64(KIND_RETRACT), Value::Array(ids)] => {
                let ids = ids
                    .iter()
                    .map(|v| match v {
                        Value::U64(n) => Ok(OfferId(*n)),
                        other => {
                            Err(WalError::Corrupt(format!("retract id is not a u64: {other:?}")))
                        }
                    })
                    .collect::<Result<Vec<OfferId>, WalError>>()?;
                Ok(Self::Retract(ids))
            }
            _ => Err(WalError::Corrupt("unknown record kind".to_string())),
        }
    }
}

/// What [`read_wal`] found: the file's generation, the decodable records
/// (each with the offset just past its frame), and where the durable
/// prefix ends.
#[derive(Debug)]
pub struct WalTail {
    /// Generation stamped in the file header.
    pub gen: u64,
    /// Records in append order, paired with their end offsets — the
    /// crash-point proptests use the offsets to predict exactly which
    /// records survive an arbitrary truncation.
    pub records: Vec<(WalRecord, u64)>,
    /// Offset just past the last intact record; everything after is torn.
    pub durable_len: u64,
    /// Bytes past `durable_len` (a torn final record, or zero).
    pub torn_bytes: u64,
}

/// Read a WAL file without modifying it, starting at `from` (clamped to
/// the header length). Returns `Ok(None)` when the file does not exist.
/// A short or checksum-failing frame ends the durable prefix; bytes
/// beyond it are reported as torn, never decoded.
pub fn read_wal(path: &Path, from: u64) -> Result<Option<WalTail>, WalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < WAL_HEADER_LEN as usize || bytes[..8] != WAL_MAGIC {
        return Err(WalError::Corrupt(format!(
            "{} is not a WAL file (bad header)",
            path.display()
        )));
    }
    let gen = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let mut at = (from.max(WAL_HEADER_LEN) as usize).min(bytes.len());
    let mut records = Vec::new();
    loop {
        // Frame header: len + checksum.
        if bytes.len() - at < 12 {
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD_BYTES || (len as usize) > bytes.len() - at - 12 {
            break; // torn or garbage length — durable prefix ends here
        }
        let sum = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
        let payload = &bytes[at + 12..at + 12 + len as usize];
        if codec::fnv1a(payload) != sum {
            break; // torn write caught by the checksum
        }
        let end = (at + 12 + len as usize) as u64;
        records.push((WalRecord::from_payload(payload)?, end));
        at = end as usize;
    }
    let durable_len = at as u64;
    Ok(Some(WalTail { gen, records, durable_len, torn_bytes: bytes.len() as u64 - durable_len }))
}

/// An open WAL file positioned for appends. One writer at a time — the
/// serving layer serializes appenders behind its durability mutex.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    gen: u64,
    len: u64,
}

impl Wal {
    /// Create a fresh WAL at `path` (atomically: staged, fsynced,
    /// renamed) and open it for appends.
    pub fn create(path: &Path, gen: u64) -> Result<Self, WalError> {
        crate::atomic_write(path, &header_bytes(gen))?;
        Self::open_for_append(path, gen, WAL_HEADER_LEN)
    }

    /// Open an existing WAL for appends, physically truncating the torn
    /// tail: everything past `durable_len` (as determined by
    /// [`read_wal`]) is cut, and the truncation is fsynced before the
    /// first append can land.
    pub fn open_for_append(path: &Path, gen: u64, durable_len: u64) -> Result<Self, WalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(durable_len)?;
        let started = Instant::now();
        file.sync_all()?;
        pse_obs::observe(metrics::FSYNC_US, started.elapsed().as_micros() as u64);
        file.seek(SeekFrom::End(0))?;
        Ok(Self { file, path: path.to_path_buf(), gen, len: durable_len })
    }

    /// Stage the next generation's (empty) WAL beside `path` without
    /// exposing it. Called before the manifest naming `gen` commits, so
    /// a crash in between leaves the old log intact and the staged file
    /// inert. [`Wal::promote_staged`] performs the rename.
    pub fn stage_next(path: &Path, gen: u64) -> Result<(), WalError> {
        let staged = staged_path(path);
        let mut f = File::create(&staged)?;
        f.write_all(&header_bytes(gen))?;
        f.sync_all()?;
        Ok(())
    }

    /// Rename the staged next-generation WAL over `path` and open it for
    /// appends. Called after the manifest referencing `gen` is durable;
    /// a crash before this rename is healed at open time (the manifest's
    /// generation wins, the stale log is discarded).
    pub fn promote_staged(path: &Path, gen: u64) -> Result<Self, WalError> {
        std::fs::rename(staged_path(path), path)?;
        crate::sync_parent_dir(path)?;
        Self::open_for_append(path, gen, WAL_HEADER_LEN)
    }

    /// Write one frame over a pre-encoded payload
    /// ([`WalRecord::payload`]) **without** syncing — the one way a frame
    /// enters the log. Returns the record's commit LSN (the file offset
    /// one past its frame); the record is durable only once a later
    /// `sync_data` covers that offset — the commit queue
    /// ([`crate::CommitQueue`]) owns that sync. Encoding a record is
    /// the expensive part of staging; callers that serialize staging
    /// behind a lock encode outside it and keep only the frame write in
    /// the critical section.
    pub fn stage_payload(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let _span = pse_obs::span("wal.stage");
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&u32::try_from(payload.len()).expect("record size").to_le_bytes());
        frame.extend_from_slice(&codec::fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        pse_obs::incr(metrics::APPEND);
        pse_obs::add(metrics::BYTES, frame.len() as u64);
        self.len += frame.len() as u64;
        Ok(self.len)
    }

    /// A duplicate handle to the log file for syncing staged frames
    /// without borrowing the `Wal`. Both handles share one open file
    /// description, so a `sync_data` on the clone covers every write
    /// made through `self`.
    pub fn sync_handle(&self) -> Result<File, WalError> {
        Ok(self.file.try_clone()?)
    }

    /// Current file length in bytes (header + durable records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records (only the header).
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }

    /// Generation stamped in this file's header.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn header_bytes(gen: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(WAL_HEADER_LEN as usize);
    h.extend_from_slice(&WAL_MAGIC);
    h.extend_from_slice(&gen.to_le_bytes());
    h
}

fn staged_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".next");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pse-wal-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn retract(ids: &[u64]) -> WalRecord {
        WalRecord::Retract(ids.iter().copied().map(OfferId).collect())
    }

    fn stage(wal: &mut Wal, record: &WalRecord) -> u64 {
        wal.stage_payload(&record.payload()).unwrap()
    }

    #[test]
    fn records_roundtrip_through_payload() {
        let r = retract(&[1, 2, 99]);
        assert_eq!(WalRecord::from_payload(&r.payload()).unwrap(), r);
        let i = WalRecord::Ingest(Vec::new());
        assert_eq!(WalRecord::from_payload(&i.payload()).unwrap(), i);
    }

    #[test]
    fn stage_then_read_back() {
        let dir = tmp("roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 7).unwrap();
        assert!(wal.is_empty());
        let records = [retract(&[1]), retract(&[2, 3]), retract(&[])];
        let mut ends = Vec::new();
        for r in &records {
            ends.push(stage(&mut wal, r));
        }
        assert_eq!(wal.len(), *ends.last().unwrap());
        let tail = read_wal(&path, 0).unwrap().unwrap();
        assert_eq!(tail.gen, 7);
        assert_eq!(tail.durable_len, wal.len());
        assert_eq!(tail.torn_bytes, 0);
        let got: Vec<&WalRecord> = tail.records.iter().map(|(r, _)| r).collect();
        assert_eq!(got, records.iter().collect::<Vec<_>>());
        let got_ends: Vec<u64> = tail.records.iter().map(|(_, e)| *e).collect();
        assert_eq!(got_ends, ends);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_keeps_exactly_the_complete_prefix() {
        let dir = tmp("torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 1).unwrap();
        let mut ends = vec![WAL_HEADER_LEN];
        for r in [retract(&[10]), retract(&[11, 12]), retract(&[13])] {
            ends.push(stage(&mut wal, &r));
        }
        let full = std::fs::read(&path).unwrap();
        for cut in WAL_HEADER_LEN as usize..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let tail = read_wal(&path, 0).unwrap().unwrap();
            let expect_records =
                ends.iter().filter(|&&e| e > WAL_HEADER_LEN && e <= cut as u64).count();
            assert_eq!(tail.records.len(), expect_records, "cut at {cut}");
            let durable = *ends.iter().filter(|&&e| e <= cut as u64).max().unwrap();
            assert_eq!(tail.durable_len, durable, "cut at {cut}");
            assert_eq!(tail.torn_bytes, cut as u64 - durable, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_byte_ends_the_durable_prefix() {
        let dir = tmp("flip");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 1).unwrap();
        let first_end = stage(&mut wal, &retract(&[1]));
        stage(&mut wal, &retract(&[2]));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // flip a payload byte of the second record
        std::fs::write(&path, &bytes).unwrap();
        let tail = read_wal(&path, 0).unwrap().unwrap();
        assert_eq!(tail.records.len(), 1, "checksum rejects the damaged record");
        assert_eq!(tail.durable_len, first_end);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_for_append_truncates_the_torn_tail() {
        let dir = tmp("reopen");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 3).unwrap();
        let keep = stage(&mut wal, &retract(&[5]));
        stage(&mut wal, &retract(&[6]));
        drop(wal);
        // Tear the second record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..keep as usize + 5]).unwrap();
        let tail = read_wal(&path, 0).unwrap().unwrap();
        let mut wal = Wal::open_for_append(&path, tail.gen, tail.durable_len).unwrap();
        assert_eq!(wal.len(), keep);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep, "tail physically cut");
        // Appends continue cleanly after the repair.
        stage(&mut wal, &retract(&[7]));
        let tail = read_wal(&path, 0).unwrap().unwrap();
        assert_eq!(tail.records.len(), 2);
        assert_eq!(tail.records[1].0, retract(&[7]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stage_and_promote_rotate_generations() {
        let dir = tmp("rotate");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, 1).unwrap();
        stage(&mut wal, &retract(&[1]));
        Wal::stage_next(&path, 2).unwrap();
        // Old log is still what readers see until promotion.
        assert_eq!(read_wal(&path, 0).unwrap().unwrap().gen, 1);
        let fresh = Wal::promote_staged(&path, 2).unwrap();
        assert!(fresh.is_empty());
        let tail = read_wal(&path, 0).unwrap().unwrap();
        assert_eq!(tail.gen, 2);
        assert!(tail.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_none_and_bad_header_is_corrupt() {
        let dir = tmp("header");
        assert!(read_wal(&dir.join("absent.log"), 0).unwrap().is_none());
        let bad = dir.join("bad.log");
        std::fs::write(&bad, b"not a wal file at all").unwrap();
        assert!(matches!(read_wal(&bad, 0), Err(WalError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
