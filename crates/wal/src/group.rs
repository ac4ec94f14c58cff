//! Group commit: amortizing `sync_data` across concurrent writers.
//!
//! One fsync per record would leave sustained ingest throughput
//! fsync-bound. Group commit splits the append in two: writers *stage*
//! frames into the log file under the caller's ordering lock
//! ([`crate::Wal::stage_payload`], no fsync), then block in
//! [`GroupCommitter::wait_durable`] until their commit LSN is covered by
//! a sync. The first waiter that finds the group ready elects itself
//! **leader**, performs a single `sync_data` covering every staged
//! frame, and wakes the followers.
//!
//! A group is ready when any of these holds:
//!
//! - it is full (`group_size` commits staged and unsynced),
//! - every *active writer* has staged (the group cannot grow — the
//!   self-clocking fast path that keeps a lone writer at zero added
//!   latency; see [`GroupCommitter::writer`]),
//! - the bounded `group_wait` expired for some waiter.
//!
//! Durability semantics are those of a per-record fsync:
//! `wait_durable` returning `Ok` means the record (and the whole log
//! prefix before it) is on disk — fsync-before-apply still holds per
//! group. A failed sync poisons the committer: the leader and every
//! waiter (current and future) gets an error, so no caller can mistake
//! an unsynced record for a durable one.
//!
//! The committer holds a duplicate handle of the log file (same file
//! description), so the leader syncs without borrowing the `Wal` or
//! holding the caller's ordering lock — that is what lets followers
//! stage the next group while the leader's fsync is in flight.

use std::collections::BTreeMap;
use std::fs::File;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::{metrics, WalError};

/// Group-commit tuning knobs.
#[derive(Debug, Clone)]
pub struct GroupCommitConfig {
    /// Sync as soon as this many commits are staged (a full group).
    pub group_size: usize,
    /// Upper bound on how long a staged commit waits for company before
    /// a leader syncs the partial group anyway.
    pub group_wait: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        Self { group_size: 8, group_wait: Duration::from_micros(500) }
    }
}

#[derive(Debug)]
struct GroupState {
    /// Duplicate handle of the current log file. Shares the `Wal`'s
    /// file description, so one `sync_data` here covers every frame
    /// staged through the `Wal`.
    file: Option<Arc<File>>,
    /// Highest staged LSN (bytes written to the log file so far).
    staged_lsn: u64,
    /// Highest LSN covered by a completed sync.
    durable_lsn: u64,
    /// Commits staged but not yet covered by a completed sync.
    pending: usize,
    /// A leader is inside `sync_data` right now.
    syncing: bool,
    /// A sync failed; every current and future wait errors out.
    poisoned: bool,
    /// Parked waiters keyed by `(lsn, ticket)` — the LSN each waits on
    /// plus a per-wait ticket so equal LSNs never collide. A completed
    /// sync unparks exactly the waiters it covered (plus one uncovered
    /// waiter to keep leader election moving); waiters past their
    /// deadline wake themselves via `park_timeout`.
    waiting: BTreeMap<(u64, u64), std::thread::Thread>,
    /// Ticket source for `waiting` keys.
    tickets: u64,
}

/// The shared group-commit coordinator for one WAL. See module docs.
#[derive(Debug)]
pub struct GroupCommitter {
    cfg: GroupCommitConfig,
    state: Mutex<GroupState>,
    /// Writers currently inside a commit operation (see [`Self::writer`]).
    writers: AtomicUsize,
}

/// RAII registration of an active writer ([`GroupCommitter::writer`]).
#[derive(Debug)]
pub struct WriterGuard<'a> {
    committer: &'a GroupCommitter,
}

impl Drop for WriterGuard<'_> {
    fn drop(&mut self) {
        self.committer.writers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl GroupCommitter {
    /// A committer with no log attached yet; [`Self::reset`] arms it.
    pub fn new(cfg: GroupCommitConfig) -> Self {
        Self {
            cfg,
            state: Mutex::new(GroupState {
                file: None,
                staged_lsn: 0,
                durable_lsn: 0,
                pending: 0,
                syncing: false,
                poisoned: false,
                waiting: BTreeMap::new(),
                tickets: 0,
            }),
            writers: AtomicUsize::new(0),
        }
    }

    /// The knobs this committer runs with.
    pub fn config(&self) -> &GroupCommitConfig {
        &self.cfg
    }

    /// Point the committer at a fresh (or rotated) log file whose length
    /// `durable_lsn` is already fully durable. Callers must exclude
    /// in-flight commits first — the serving layer's snapshot gate does —
    /// so no waiter can observe the LSN space jumping backwards.
    pub fn reset(&self, file: File, durable_lsn: u64) {
        let mut s = self.state.lock().expect("group-commit state");
        debug_assert!(!s.syncing && s.pending == 0, "reset with commits in flight");
        let stale = std::mem::take(&mut s.waiting);
        let tickets = s.tickets;
        *s = GroupState {
            file: Some(Arc::new(file)),
            staged_lsn: durable_lsn,
            durable_lsn,
            pending: 0,
            syncing: false,
            poisoned: false,
            waiting: BTreeMap::new(),
            tickets,
        };
        drop(s);
        for (_, thread) in stale {
            thread.unpark();
        }
    }

    /// Register the calling thread as an active writer for the lifetime
    /// of the returned guard (ideally the whole commit operation, from
    /// before staging until after apply). Leader election compares the
    /// staged count against the active-writer count: once every active
    /// writer has staged, the group cannot grow, so the leader syncs
    /// immediately instead of waiting out `group_wait`.
    pub fn writer(&self) -> WriterGuard<'_> {
        self.writers.fetch_add(1, Ordering::Relaxed);
        WriterGuard { committer: self }
    }

    /// Note a record staged at `lsn`. Call under the same exclusion that
    /// ordered the staging write (the caller's durability mutex), so
    /// `staged_lsn` only ever advances.
    pub fn staged(&self, lsn: u64) {
        let mut s = self.state.lock().expect("group-commit state");
        debug_assert!(lsn >= s.staged_lsn, "stage calls must be ordered");
        s.staged_lsn = s.staged_lsn.max(lsn);
        s.pending += 1;
        // No notify: the staging thread enters `wait_durable` next and
        // runs leader election itself, so waking the already-parked
        // waiters here only makes them recompute and sleep again — a
        // per-commit broadcast herd. Waiters that could newly lead are
        // covered by their bounded `group_wait` timeout.
    }

    /// Block until every byte up to `lsn` is durable, electing this
    /// thread as the sync leader when the group is ready (module docs).
    /// `Ok` means the log prefix through `lsn` is on disk.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), WalError> {
        let entered = Instant::now();
        let deadline = entered + self.cfg.group_wait;
        let mut ticket: Option<(u64, u64)> = None;
        let mut s = self.state.lock().expect("group-commit state");
        loop {
            if let Some(key) = ticket.take() {
                // Back from a park: drop our waiter entry (the waker
                // usually removed it already when it unparked us).
                s.waiting.remove(&key);
            }
            if s.durable_lsn >= lsn {
                pse_obs::observe(metrics::GROUP_WAIT_US, entered.elapsed().as_micros() as u64);
                return Ok(());
            }
            if s.poisoned {
                return Err(WalError::Io(std::io::Error::other(
                    "wal group sync failed; committer is poisoned",
                )));
            }
            let quorum =
                self.writers.load(Ordering::Relaxed).max(1).min(self.cfg.group_size.max(1));
            let now = Instant::now();
            if !s.syncing && (s.pending >= quorum || now >= deadline) {
                // Become the leader: one sync_data covers every frame
                // staged so far, with no locks held across the IO.
                s.syncing = true;
                let target = s.staged_lsn;
                let covered = s.pending;
                let file = Arc::clone(s.file.as_ref().expect("committer has a log handle"));
                drop(s);
                let started = Instant::now();
                let synced = file.sync_data();
                pse_obs::observe(metrics::FSYNC_US, started.elapsed().as_micros() as u64);
                s = self.state.lock().expect("group-commit state");
                s.syncing = false;
                match synced {
                    Ok(()) => {
                        pse_obs::observe(metrics::GROUP_SIZE, covered as u64);
                        s.durable_lsn = s.durable_lsn.max(target);
                        // Commits staged while the sync was in flight
                        // stay pending for the next leader.
                        s.pending = s.pending.saturating_sub(covered);
                        // Wake exactly the waiters this sync covered —
                        // the next group's would only recompute and
                        // sleep again — plus, when commits are already
                        // pending, one uncovered waiter so leader
                        // election keeps moving even if that group
                        // fully staged while we were syncing.
                        let durable = s.durable_lsn;
                        let uncovered = s.waiting.split_off(&(durable + 1, 0));
                        let mut wake: Vec<std::thread::Thread> =
                            std::mem::replace(&mut s.waiting, uncovered).into_values().collect();
                        if s.pending >= quorum {
                            // The next group may have fully staged while
                            // we were syncing — every member parked, no
                            // future stager to run the election. Hand
                            // one of them the leader check; sub-quorum
                            // groups are driven by arriving stagers and
                            // the bounded deadline instead.
                            if let Some((&key, _)) = s.waiting.iter().next() {
                                wake.extend(s.waiting.remove(&key));
                            }
                        }
                        drop(s);
                        for thread in wake {
                            thread.unpark();
                        }
                        s = self.state.lock().expect("group-commit state");
                    }
                    Err(e) => {
                        s.poisoned = true;
                        let stale = std::mem::take(&mut s.waiting);
                        drop(s);
                        for (_, thread) in stale {
                            thread.unpark();
                        }
                        return Err(e.into());
                    }
                }
                continue;
            }
            // Not our turn to lead: park until the covering sync (or a
            // poisoning) unparks us. Past the deadline (a leader is
            // mid-sync), re-arm a full `group_wait` so the loop never
            // busy-spins.
            let wait = if now >= deadline {
                self.cfg.group_wait.max(Duration::from_micros(100))
            } else {
                deadline - now
            };
            s.tickets += 1;
            let key = (lsn, s.tickets);
            ticket = Some(key);
            s.waiting.insert(key, std::thread::current());
            drop(s);
            std::thread::park_timeout(wait);
            s = self.state.lock().expect("group-commit state");
        }
    }

    /// Highest LSN known durable (for tests and diagnostics).
    pub fn durable_lsn(&self) -> u64 {
        self.state.lock().expect("group-commit state").durable_lsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{read_wal, Wal, WalRecord};
    use pse_core::OfferId;
    use std::path::PathBuf;
    use std::sync::Mutex as StdMutex;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pse-wal-group-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn retract(ids: &[u64]) -> WalRecord {
        WalRecord::Retract(ids.iter().copied().map(OfferId).collect())
    }

    fn committer_for(wal: &Wal, cfg: GroupCommitConfig) -> GroupCommitter {
        let c = GroupCommitter::new(cfg);
        c.reset(wal.sync_handle().unwrap(), wal.len());
        c
    }

    #[test]
    fn lone_writer_commits_without_waiting_for_a_full_group() {
        let dir = tmp("lone");
        let mut wal = Wal::create(&dir.join("wal.log"), 1).unwrap();
        // A huge group and a huge wait: only the self-clocking path
        // (all active writers staged) can return promptly.
        let cfg = GroupCommitConfig { group_size: 64, group_wait: Duration::from_secs(30) };
        let committer = committer_for(&wal, cfg);
        let _w = committer.writer();
        let started = Instant::now();
        let lsn = wal.stage_payload(&retract(&[1]).payload()).unwrap();
        committer.staged(lsn);
        committer.wait_durable(lsn).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "lone writer must not wait out group_wait"
        );
        assert_eq!(committer.durable_lsn(), lsn);
        let tail = read_wal(wal.path(), 0).unwrap().unwrap();
        assert_eq!(tail.durable_len, lsn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_all_become_durable() {
        let dir = tmp("many");
        let wal = Wal::create(&dir.join("wal.log"), 1).unwrap();
        let committer = std::sync::Arc::new(committer_for(
            &wal,
            GroupCommitConfig { group_size: 4, group_wait: Duration::from_millis(2) },
        ));
        let wal = std::sync::Arc::new(StdMutex::new(wal));
        let n = 16u64;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let committer = std::sync::Arc::clone(&committer);
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    let _w = committer.writer();
                    let lsn = {
                        let mut w = wal.lock().unwrap();
                        let lsn = w.stage_payload(&retract(&[i]).payload()).unwrap();
                        committer.staged(lsn);
                        lsn
                    };
                    committer.wait_durable(lsn).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let path = wal.lock().unwrap().path().to_path_buf();
        let tail = read_wal(&path, 0).unwrap().unwrap();
        assert_eq!(tail.records.len(), n as usize);
        assert_eq!(tail.torn_bytes, 0);
        assert_eq!(committer.durable_lsn(), tail.durable_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounded_wait_syncs_a_partial_group() {
        let dir = tmp("partial");
        let mut wal = Wal::create(&dir.join("wal.log"), 1).unwrap();
        let cfg = GroupCommitConfig { group_size: 8, group_wait: Duration::from_millis(20) };
        let committer = committer_for(&wal, cfg);
        // Two registered writers but only one ever stages: the quorum
        // of 2 is unreachable, so only the deadline can release us.
        let _w1 = committer.writer();
        let _w2 = committer.writer();
        let started = Instant::now();
        let lsn = wal.stage_payload(&retract(&[9]).payload()).unwrap();
        committer.staged(lsn);
        committer.wait_durable(lsn).unwrap();
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(15), "deadline path should bound the wait");
        assert!(waited < Duration::from_secs(5), "partial group must still commit");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
