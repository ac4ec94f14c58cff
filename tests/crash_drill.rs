//! Crash drill: a durable server in a **child process** acknowledges
//! writes over its socket and is then SIGKILLed — no graceful shutdown,
//! no final fold, possibly mid-compaction. What the crashed directory
//! proves was committed (the read-only `pse_wal::recover` oracle) must
//! contain every acknowledged write, and a server restarted on the same
//! directory must answer every `/products/{category}` with the oracle's
//! bytes.
//!
//! The child is this same test binary re-executed: libtest treats a
//! positional argument as a name filter, so `crash-drill-dir=<dir>` rides
//! along as a second filter that matches nothing, and the one test below
//! takes the server role when it finds it.

// The serve tests' fixture, shared rather than copied a seventh time.
#[path = "../crates/serve/tests/common/mod.rs"]
mod common;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use common::{fixture, spec_provider};
use product_synthesis::core::{CategoryId, OfferId};
use product_synthesis::serve::{http_request, ServerConfig, ShardedStore};
use product_synthesis::store::ProductStore;
use product_synthesis::wal::{recover, DurabilityConfig};

const DIR_ARG: &str = "crash-drill-dir=";
const ADDR_LINE: &str = "crash-drill-addr=";

/// A fold threshold the corpus crosses several times, so the kill lands
/// on a directory holding folded segments and (usually) an unfolded WAL
/// tail.
const COMPACT_BYTES: u64 = 4096;

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        wal_path: Some(dir.join("wal.log")),
        snapshot_dir: Some(dir.join("segments")),
        compaction_threshold_bytes: COMPACT_BYTES,
        ..ServerConfig::default()
    }
}

/// The child's whole life: serve `dir` durably, say where, wait to be
/// killed. Closing its stdin (the parent died) ends it too.
fn serve_until_killed(dir: &Path) -> ! {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 4);
    let handle = pse_serve::start(store, f.world.catalog.clone(), durable_config(dir))
        .expect("child starts");
    println!("{ADDR_LINE}{}", handle.addr());
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    handle.wait_for_stop();
    std::process::exit(0);
}

/// SIGKILLs the child when dropped, so a failed assertion leaves no
/// server behind.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_server(dir: &Path) -> (KillOnDrop, String) {
    let child = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["crash_drill", "--exact", "--nocapture"])
        .arg(format!("{DIR_ARG}{}", dir.display()))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("re-exec the test binary");
    let mut child = KillOnDrop(child);
    let stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
    let addr = stdout
        .lines()
        .map_while(Result::ok)
        .find_map(|line| line.strip_prefix(ADDR_LINE).map(str::to_string))
        .expect("the child exited without announcing its address");
    (child, addr)
}

/// Every file under `dir` with its bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap().map(Result::unwrap) {
        if entry.file_type().unwrap().is_dir() {
            files.extend(dir_bytes(&entry.path()));
        } else {
            files.insert(entry.path(), std::fs::read(entry.path()).unwrap());
        }
    }
    files
}

#[test]
fn crash_drill() {
    if let Some(dir) = std::env::args().find_map(|a| a.strip_prefix(DIR_ARG).map(PathBuf::from)) {
        serve_until_killed(&dir);
    }
    let f = fixture();
    let dir = std::env::temp_dir().join(format!("pse-crash-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Ingest and retract over the socket; a 200 is an acknowledgement.
    let (mut server, addr) = spawn_server(&dir);
    for batch in f.corpus.chunks(8) {
        let body = serde_json::to_string(&batch.to_vec()).unwrap();
        let (status, reply) = http_request(&addr, "POST", "/ingest", Some(&body)).unwrap();
        assert_eq!(status, 200, "ingest not acknowledged: {reply}");
    }
    let retracted: Vec<OfferId> = f.corpus.iter().step_by(7).map(|o| o.id).collect();
    let body = serde_json::to_string(&retracted.iter().map(|id| id.0).collect::<Vec<_>>()).unwrap();
    let (status, reply) = http_request(&addr, "POST", "/retract", Some(&body)).unwrap();
    assert_eq!(status, 200, "retract not acknowledged: {reply}");

    server.0.kill().expect("SIGKILL the server");
    let exit = server.0.wait().unwrap();
    assert!(!exit.success(), "the server was killed, not shut down: {exit}");
    assert!(
        http_request(&addr, "GET", "/healthz", None).is_err(),
        "nothing may still be listening on {addr}"
    );

    // The oracle: what the crashed directory proves was committed.
    let crashed = dir_bytes(&dir);
    let dcfg = DurabilityConfig {
        wal_path: dir.join("wal.log"),
        snapshot_dir: dir.join("segments"),
        compaction_threshold_bytes: u64::MAX,
        group: Default::default(),
    };
    let (oracle, stats) =
        recover(&dcfg, &f.world.catalog, || ProductStore::new(f.correspondences.clone()))
            .expect("the crashed directory recovers")
            .expect("the crashed directory holds durable state");
    assert_eq!(dir_bytes(&dir), crashed, "recover must leave the directory untouched");
    assert!(stats.segments_loaded > 0, "no fold happened before the kill: {stats:?}");

    // Acknowledged ⇒ recovered: offer by offer, the recovered state holds
    // exactly what a store that never crashed holds after the same
    // acknowledged writes.
    let mut reference = ProductStore::new(f.correspondences.clone());
    reference.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    reference.retract(&f.world.catalog, &retracted);
    for offer in &f.corpus {
        assert_eq!(
            oracle.owns_any(&[offer.id]),
            reference.owns_any(&[offer.id]),
            "offer {} (acknowledged, retracted: {}) after recovering {stats:?}",
            offer.id.0,
            retracted.contains(&offer.id),
        );
    }
    assert!(oracle.offer_count() > f.corpus.len() / 2, "the drill must recover real state");
    assert_eq!(oracle.snapshot_json(), reference.snapshot_json());

    // Restart on the crashed directory (empty seed, another shard count:
    // disk state wins) and compare every category with the oracle.
    let empty = ShardedStore::new(f.correspondences.clone(), 2);
    let handle = pse_serve::start(empty, f.world.catalog.clone(), durable_config(&dir)).unwrap();
    let addr = handle.addr().to_string();
    let mut categories: Vec<u32> = oracle.products().iter().map(|p| p.category.0).collect();
    categories.sort_unstable();
    categories.dedup();
    assert!(!categories.is_empty());
    for c in categories {
        let (status, body) = http_request(&addr, "GET", &format!("/products/{c}"), None).unwrap();
        assert_eq!(status, 200);
        let expected = serde_json::to_string(&oracle.products_in_category(CategoryId(c))).unwrap();
        assert_eq!(body, expected, "/products/{c} diverged from the recover oracle");
    }
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
