//! The durable server end-to-end: WAL + segmented snapshots under the
//! HTTP write path, restart recovery, the fold a crossing commit runs,
//! and byte-equivalence with the WAL-less server.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use common::fixture;
use pse_obs::RequestTrace;
use pse_serve::{http_request, ServerConfig, ShardedStore};
use serde::Deserialize;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pse-durable-srv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(dir: &Path, compact_bytes: u64) -> ServerConfig {
    ServerConfig {
        wal_path: Some(dir.join("wal.log")),
        snapshot_dir: Some(dir.join("segments")),
        compaction_threshold_bytes: compact_bytes,
        ..ServerConfig::default()
    }
}

/// Ingest over HTTP in batches, shut down cleanly, then restart from an
/// EMPTY seed store: the served state must come back from disk,
/// byte-identical on every endpoint.
#[test]
fn restart_recovers_http_served_state() {
    let f = fixture();
    let dir = tmp("restart");
    let config = durable_config(&dir, 1 << 20);

    let store = ShardedStore::new(f.correspondences.clone(), 4);
    let handle = pse_serve::start(store, f.world.catalog.clone(), config.clone()).unwrap();
    let addr = handle.addr().to_string();
    for batch in f.corpus.chunks(f.corpus.len() / 3 + 1) {
        let body = serde_json::to_string(&batch.to_vec()).unwrap();
        let (status, _) = http_request(&addr, "POST", "/ingest", Some(&body)).unwrap();
        assert_eq!(status, 200);
    }
    let first = handle.shutdown().unwrap();
    let expected_snapshot = first.snapshot_json();
    let categories: Vec<u32> = {
        let mut cs: Vec<u32> = first.products().iter().map(|p| p.category.0).collect();
        cs.dedup();
        cs
    };

    // Restart with a fresh empty store and a different shard count —
    // disk state wins, and the segment format is shard-count agnostic.
    let empty = ShardedStore::new(f.correspondences.clone(), 2);
    let handle = pse_serve::start(empty, f.world.catalog.clone(), config).unwrap();
    let addr = handle.addr().to_string();
    assert_eq!(handle.store().snapshot_json(), expected_snapshot, "state came back from disk");
    for c in categories {
        let (status, body) = http_request(&addr, "GET", &format!("/products/{c}"), None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            serde_json::to_string(&first.products_in_category(pse_core::CategoryId(c))).unwrap()
        );
    }
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The generation stamped in a WAL file's header (bytes 8..16).
fn wal_gen(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap();
    u64::from_le_bytes(bytes[8..16].try_into().unwrap())
}

/// With a tiny compaction threshold every batch crosses it, so each
/// `POST /ingest` folds the WAL before it answers: the fold is visible
/// on disk the moment the first one returns. The folded state must
/// still be exactly the ingested state.
#[test]
fn a_crossing_commit_folds_before_it_answers() {
    let f = fixture();
    let dir = tmp("compact");
    let config = durable_config(&dir, 256);

    let store = ShardedStore::new(f.correspondences.clone(), 4);
    let handle = pse_serve::start(store, f.world.catalog.clone(), config.clone()).unwrap();
    let addr = handle.addr().to_string();
    let wal = dir.join("wal.log");
    let gen_at_start = wal_gen(&wal);
    for (i, batch) in f.corpus.chunks(8).enumerate() {
        let body = serde_json::to_string(&batch.to_vec()).unwrap();
        let (status, _) = http_request(&addr, "POST", "/ingest", Some(&body)).unwrap();
        assert_eq!(status, 200);
        if i == 0 {
            assert!(dir.join("segments").join("manifest.json").exists());
            assert!(wal_gen(&wal) > gen_at_start, "the first crossing commit rotated the log");
        }
    }
    // Retract a couple of offers so the log holds both record kinds.
    let ids: Vec<u64> = f.corpus.iter().take(2).map(|o| o.id.0).collect();
    let (status, _) =
        http_request(&addr, "POST", "/retract", Some(&serde_json::to_string(&ids).unwrap()))
            .unwrap();
    assert_eq!(status, 200);
    let first = handle.shutdown().unwrap();

    let empty = ShardedStore::new(f.correspondences.clone(), 4);
    let handle = pse_serve::start(empty, f.world.catalog.clone(), config).unwrap();
    assert_eq!(handle.store().snapshot_json(), first.snapshot_json());
    // Clean shutdown folded everything: the log is just its header.
    let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert_eq!(wal_len, pse_wal::WAL_HEADER_LEN, "shutdown left a fully folded WAL");
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The fold is part of the request that ran it: the trace of a
/// crossing `POST /ingest` holds the `wal.snapshot` span.
#[test]
fn a_crossing_commit_traces_its_fold() {
    let f = fixture();
    let dir = tmp("trace");
    let obs = pse_obs::Obs::new();
    let handle = {
        let _on = obs.install();
        let store = ShardedStore::new(f.correspondences.clone(), 4);
        pse_serve::start(store, f.world.catalog.clone(), durable_config(&dir, 256)).unwrap()
    };
    let addr = handle.addr().to_string();
    let body = serde_json::to_string(&f.corpus[..8].to_vec()).unwrap();
    let mut stream = TcpStream::connect(&addr).unwrap();
    let head = format!(
        "POST /ingest HTTP/1.1\r\nX-Pse-Trace-Id: f01d\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    assert!(reply.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&reply));

    let (status, trace) = http_request(&addr, "GET", "/debug/trace/f01d", None).unwrap();
    assert_eq!(status, 200);
    let trace = RequestTrace::from_value(&serde_json::from_str(&trace).unwrap()).unwrap();
    assert_eq!(trace.endpoint, "ingest");
    assert!(
        trace.spans.iter().any(|s| s.path.ends_with("wal.snapshot")),
        "{:?}",
        trace.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The one fork left in the write path is durable vs not. The same HTTP
/// sequence of `/ingest` batches and a `/retract` against a server with
/// and without a WAL must answer every request with the same bytes: the
/// `IngestStats` body of each write, then every `/products/{c}`.
#[test]
fn durable_and_volatile_servers_answer_byte_identically() {
    let f = fixture();
    let dir = tmp("equiv");
    let retract: Vec<u64> = f.corpus.iter().step_by(5).map(|o| o.id.0).collect();
    let mut writes: Vec<(&str, String)> = f
        .corpus
        .chunks(f.corpus.len() / 4 + 1)
        .map(|batch| ("/ingest", serde_json::to_string(&batch.to_vec()).unwrap()))
        .collect();
    writes.push(("/retract", serde_json::to_string(&retract).unwrap()));

    let drive = |config: ServerConfig| -> Vec<String> {
        let store = ShardedStore::new(f.correspondences.clone(), 4);
        let handle = pse_serve::start(store, f.world.catalog.clone(), config).unwrap();
        let addr = handle.addr().to_string();
        let mut bodies = Vec::new();
        for (path, body) in &writes {
            let (status, stats) = http_request(&addr, "POST", path, Some(body)).unwrap();
            assert_eq!(status, 200, "{path} failed: {stats}");
            bodies.push(stats);
        }
        let mut categories: Vec<u32> =
            handle.store().products().iter().map(|p| p.category.0).collect();
        categories.dedup();
        assert!(!categories.is_empty(), "the sequence must leave products to compare");
        for c in categories {
            let (status, body) =
                http_request(&addr, "GET", &format!("/products/{c}"), None).unwrap();
            assert_eq!(status, 200);
            bodies.push(body);
        }
        handle.shutdown().unwrap();
        bodies
    };

    let volatile = drive(ServerConfig::default());
    let durable = drive(durable_config(&dir, 1 << 20));
    assert_eq!(durable, volatile);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Half a durability config is an error, never a silently volatile
/// server, and nothing is created on disk.
#[test]
fn half_set_durability_config_refuses_to_start() {
    let f = fixture();
    let dir = tmp("half");
    let whole = durable_config(&dir, 1 << 20);
    for config in [
        ServerConfig { snapshot_dir: None, ..whole.clone() },
        ServerConfig { wal_path: None, ..whole.clone() },
    ] {
        let store = ShardedStore::new(f.correspondences.clone(), 2);
        let Err(err) = pse_serve::start(store, f.world.catalog.clone(), config) else {
            panic!("a half-set durability config started a server");
        };
        assert_eq!(err.code(), "bad_config");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "nothing written");
    std::fs::remove_dir_all(&dir).unwrap();
}
