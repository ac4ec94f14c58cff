//! The commit queue: group commit and ordered apply as one state machine.
//!
//! One fsync per record would leave sustained ingest fsync-bound, and
//! applying records in any order but the log's would break recovery. One
//! decision answers both — *which staged commits are durable, and which
//! of those is applied next* — so one structure makes it: a
//! [`CommitQueue`] holds every commit from the moment its frame is
//! staged until its owner has collected the apply's result, behind one
//! mutex.
//!
//! A writer stages its frame ([`crate::Wal::stage_payload`], no fsync)
//! and calls [`CommitQueue::enqueue`] **under the lock that ordered the
//! frame**, so queue order is log order by construction. Outside that
//! lock it calls [`CommitQueue::commit`], which asks three questions:
//!
//! 1. *Am I durable?* Until yes: become the **leader** when the group is
//!    ready — one `sync_data`, no lock held, covers every frame staged
//!    when it started — else wait for a sync to finish. A group is ready
//!    when no *registered writer* is left to stage (it cannot grow: the
//!    self-clocking rule that keeps a lone writer at zero added latency;
//!    see [`CommitQueue::writer`]), when it is full (`group_size` commits
//!    staged and unsynced), or when a waiter's `group_wait` expires
//!    (counted from entering `commit`; re-armed while a leader is
//!    mid-sync, so nobody spins).
//! 2. *Was I applied?* Another commit's pass deposited my result: take
//!    it and return.
//! 3. *Is nobody applying?* Then pop every durable entry off the front
//!    (at most [`MAX_APPLY_BATCH`]), run `apply` on them with no lock
//!    held, and deposit one result per owner; else wait for the running
//!    pass to finish, and ask 2 again.
//!
//! A writer is registered from before it builds its record until it
//! stages it: [`CommitQueue::enqueue`] consumes the [`WriterGuard`], so
//! a writer that is syncing or applying is no longer one the group waits
//! for. Only durable records reach `apply`, in log order, one pass at a
//! time; the sync of one group overlaps the apply of the one before. Two
//! condition variables carry the wakeups: `synced` (a sync completed or
//! failed, or a registered writer left without staging — every commit
//! waiting to become durable re-asks question 1) and `applied` (a pass
//! completed — every durable commit re-asks 2 and 3). A completed apply
//! does not signal `synced`, and need not: the applying writer stopped
//! counting toward the group when it staged.
//!
//! Durability semantics are those of a per-record fsync: `commit`
//! returning `Ok` means the record and the whole log prefix before it
//! are on disk and applied. Failure is an end state, not a hang:
//!
//! - **A failed sync** poisons the queue. The entries it did not cover
//!   are dropped; their owners and every later commit get an error,
//!   while entries an earlier sync covered still apply. Rotating the log
//!   ([`CommitQueue::reset`]) clears it.
//! - **A panic in `apply`** poisons it for good: the store may be
//!   half-applied, so every blocked and every later commit errors and
//!   [`CommitQueue::check_apply`] lets the owner refuse to snapshot that
//!   state. Only a restart — recovery from the log — clears it.
//!
//! The queue syncs through a duplicate handle of the log file (same file
//! description), so the leader needs neither the `Wal` nor the caller's
//! ordering lock — followers stage the next group while it is in flight.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::{metrics, WalError};

/// The most entries one apply pass takes. Bounds the latency helped
/// commits add to the applier's own return; groups are never larger than
/// the writer count in practice, so the cap only binds under a backlog.
pub const MAX_APPLY_BATCH: usize = 64;

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

/// Why the queue stopped accepting commits (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Poison {
    Sync,
    Apply,
}

#[derive(Debug)]
struct QueueState<T, R> {
    /// Duplicate handle of the current log file. Shares the `Wal`'s
    /// file description, so one `sync_data` here covers every frame
    /// staged through the `Wal`.
    file: Arc<File>,
    /// Highest LSN covered by a completed sync.
    durable_lsn: u64,
    /// A leader is inside `sync_data` right now.
    syncing: bool,
    /// An apply pass is running right now.
    applying: bool,
    /// Registered writers that have not staged yet ([`CommitQueue::writer`]).
    writers: usize,
    poison: Option<Poison>,
    /// Staged, not yet applied commits as `(lsn, item)`, in log order:
    /// durable ones at the front, then the unsynced. LSNs are unique
    /// within a log generation, so they name the commit.
    queue: VecDeque<(u64, T)>,
    /// Results of applied commits their owners have not collected yet.
    results: BTreeMap<u64, R>,
}

impl<T, R> QueueState<T, R> {
    /// How many entries at the front of the queue are durable.
    fn durable_front(&self) -> usize {
        self.queue.partition_point(|(lsn, _)| *lsn <= self.durable_lsn)
    }

    /// How many commits are staged but not covered by a completed sync.
    fn unsynced(&self) -> usize {
        self.queue.len() - self.durable_front()
    }

    /// The error a commit at `lsn` must fail with, if the queue is
    /// poisoned for it: always after a panicked apply, and after a
    /// failed sync when no earlier sync covered `lsn`.
    fn check(&self, lsn: u64) -> Result<(), WalError> {
        let why = match self.poison {
            Some(Poison::Apply) => {
                "an apply panicked and may have left the store half-applied; \
                 the commit queue is poisoned until a restart recovers from the log"
            }
            Some(Poison::Sync) if self.durable_lsn < lsn => {
                "wal group sync failed; the commit queue is poisoned until the log rotates"
            }
            _ => return Ok(()),
        };
        Err(WalError::Io(std::io::Error::other(why)))
    }
}

type Guard<'a, T, R> = MutexGuard<'a, QueueState<T, R>>;

/// The commit queue of one WAL, generic over what a commit carries
/// (`T`) and what applying it yields (`R`). See the module docs.
#[derive(Debug)]
pub struct CommitQueue<T, R> {
    cfg: GroupCommitConfig,
    state: Mutex<QueueState<T, R>>,
    /// A sync completed or failed, or a writer left without staging.
    synced: Condvar,
    /// An apply pass completed or panicked.
    applied: Condvar,
}

/// A writer's registration with its queue ([`CommitQueue::writer`]),
/// ended by [`CommitQueue::enqueue`] or, for a writer that never
/// stages, by dropping it.
#[derive(Debug)]
pub struct WriterGuard<'a, T, R> {
    queue: &'a CommitQueue<T, R>,
}

impl<T, R> Drop for WriterGuard<'_, T, R> {
    /// A writer left without staging: a waiting commit may now have no
    /// one left to wait for, so every waiter re-runs the election.
    fn drop(&mut self) {
        // Not `lock()`: a drop must not panic. The count stays valid
        // whatever a panicking holder left half-done.
        self.queue.state.lock().unwrap_or_else(PoisonError::into_inner).writers -= 1;
        self.queue.synced.notify_all();
    }
}

impl<T, R> CommitQueue<T, R> {
    /// An empty queue over the log `file` (a [`crate::Wal::sync_handle`])
    /// whose length `durable_lsn` is already fully durable.
    pub fn new(cfg: GroupCommitConfig, file: File, durable_lsn: u64) -> Self {
        let state = QueueState {
            file: Arc::new(file),
            durable_lsn,
            syncing: false,
            applying: false,
            writers: 0,
            poison: None,
            queue: VecDeque::new(),
            results: BTreeMap::new(),
        };
        Self { cfg, state: Mutex::new(state), synced: Condvar::new(), applied: Condvar::new() }
    }

    fn lock(&self) -> Guard<'_, T, R> {
        self.state.lock().expect("commit queue")
    }

    /// Point the queue at a rotated log file whose length `durable_lsn`
    /// is already fully durable, clearing a failed sync's poison (never a
    /// panicked apply's). Callers must exclude in-flight commits first —
    /// the serving layer's snapshot gate does — so the queue is empty
    /// and no waiter sees the LSN space jump backwards.
    pub fn reset(&self, file: File, durable_lsn: u64) {
        let mut s = self.lock();
        debug_assert!(!s.syncing && !s.applying, "reset with commits in flight");
        debug_assert!(s.queue.is_empty() && s.results.is_empty(), "reset with commits queued");
        s.file = Arc::new(file);
        s.durable_lsn = durable_lsn;
        s.poison = s.poison.filter(|p| *p == Poison::Apply);
    }

    /// Register a writer that is about to build a record, until it hands
    /// the guard to [`Self::enqueue`]. While any registered writer has
    /// yet to stage, a staged commit waits for it (up to `group_wait`) so
    /// one sync covers both; once none is left, the group cannot grow
    /// and its leader syncs at once.
    pub fn writer(&self) -> WriterGuard<'_, T, R> {
        self.lock().writers += 1;
        WriterGuard { queue: self }
    }

    /// Queue a commit whose frame was just staged at `lsn`, ending
    /// `writer`'s registration. Call under the same exclusion that
    /// ordered the staging write (the caller's durability mutex), so LSNs
    /// arrive in increasing order and queue order is log order. Wakes
    /// nobody: the caller enters [`Self::commit`] next and runs the
    /// leader election itself.
    pub fn enqueue(&self, writer: WriterGuard<'_, T, R>, lsn: u64, item: T) {
        debug_assert!(std::ptr::eq(writer.queue, self), "a writer of another queue");
        std::mem::forget(writer);
        let mut s = self.lock();
        s.writers -= 1;
        let last = s.queue.back().map_or(s.durable_lsn, |(last, _)| *last);
        debug_assert!(lsn > last, "enqueue calls must follow log order");
        if s.poison.is_none() {
            s.queue.push_back((lsn, item));
        }
    }

    /// Finish the commit queued at `lsn`: block until it is durable and
    /// applied — leading the group's sync or running an apply pass when
    /// it is this thread's turn (module docs) — and return its result.
    /// `apply` gets a batch of durable items in log order and must
    /// return one result per item, in order; it never runs concurrently
    /// with another `apply` on this queue.
    pub fn commit(&self, lsn: u64, mut apply: impl FnMut(Vec<T>) -> Vec<R>) -> Result<R, WalError> {
        let entered = Instant::now();
        let mut deadline = entered + self.cfg.group_wait;
        let mut s = self.lock();
        while s.durable_lsn < lsn {
            s.check(lsn)?;
            let now = Instant::now();
            let ready =
                s.writers == 0 || s.unsynced() >= self.cfg.group_size.max(1) || now >= deadline;
            s = if !s.syncing && ready {
                self.lead_sync(s)?
            } else {
                // Past the deadline a leader is mid-sync: re-arm a full
                // `group_wait`, so the loop never busy-spins and the end
                // of that sync alone does not make this commit lead.
                if now >= deadline {
                    deadline = now + self.cfg.group_wait.max(Duration::from_micros(100));
                }
                self.synced.wait_timeout(s, deadline - now).expect("commit queue").0
            };
        }
        pse_obs::observe(metrics::GROUP_WAIT_US, entered.elapsed().as_micros() as u64);
        loop {
            if let Some(result) = s.results.remove(&lsn) {
                return Ok(result);
            }
            s.check(lsn)?;
            s = if s.applying {
                self.applied.wait(s).expect("commit queue")
            } else {
                self.apply_pass(s, &mut apply)
            };
        }
    }

    /// Lead the group's sync: one `sync_data`, with no lock held across
    /// the IO, covers every frame staged so far. Commits staged while it
    /// is in flight stay unsynced for the next leader.
    fn lead_sync<'a>(&'a self, mut s: Guard<'a, T, R>) -> Result<Guard<'a, T, R>, WalError> {
        let covered = s.unsynced();
        s.syncing = true;
        let target = s.queue.back().expect("the leader's own commit is queued").0;
        let file = Arc::clone(&s.file);
        drop(s);
        let started = Instant::now();
        let synced = file.sync_data();
        pse_obs::observe(metrics::FSYNC_US, started.elapsed().as_micros() as u64);
        let mut s = self.lock();
        s.syncing = false;
        self.synced.notify_all();
        match synced {
            Ok(()) => {
                pse_obs::observe(metrics::GROUP_SIZE, covered as u64);
                s.durable_lsn = target;
                Ok(s)
            }
            Err(e) => {
                s.poison.get_or_insert(Poison::Sync);
                let durable = s.durable_front();
                s.queue.truncate(durable);
                Err(e.into())
            }
        }
    }

    /// One apply pass over the durable front of the queue, run by a
    /// durable commit that found nobody applying.
    fn apply_pass<'a>(
        &'a self,
        mut s: Guard<'a, T, R>,
        apply: &mut impl FnMut(Vec<T>) -> Vec<R>,
    ) -> Guard<'a, T, R> {
        let take = s.durable_front().min(MAX_APPLY_BATCH);
        let (lsns, batch): (Vec<u64>, Vec<T>) = s.queue.drain(..take).unzip();
        debug_assert!(!batch.is_empty(), "a durable, unapplied commit is still queued");
        s.applying = true;
        drop(s);
        let outcome = catch_unwind(AssertUnwindSafe(|| apply(batch)));
        let mut s = self.lock();
        s.applying = false;
        self.applied.notify_all();
        match outcome {
            Ok(results) => {
                debug_assert_eq!(results.len(), lsns.len(), "one result per applied item");
                s.results.extend(lsns.into_iter().zip(results));
                s
            }
            Err(panic) => {
                s.poison = Some(Poison::Apply);
                s.queue.clear();
                drop(s);
                self.synced.notify_all();
                resume_unwind(panic)
            }
        }
    }

    /// `Err` once an `apply` has panicked: the state it was mutating may
    /// be half-applied and must not be snapshotted. (LSN 0 is durable by
    /// definition, so a failed sync alone does not fail this.)
    pub fn check_apply(&self) -> Result<(), WalError> {
        self.lock().check(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{read_wal, Wal, WalRecord};
    use pse_core::OfferId;
    use std::path::PathBuf;
    use std::sync::mpsc::{channel, Receiver};
    use std::thread::{sleep, spawn, JoinHandle};

    /// A log, a queue of `u64` ids over it, and every batch `apply` saw.
    /// The fake `apply` answers id `i` with `10 * i`.
    struct Rig {
        dir: PathBuf,
        wal: Wal,
        queue: Arc<CommitQueue<u64, u64>>,
        applied: Arc<Mutex<Vec<Vec<u64>>>>,
    }

    impl Rig {
        fn new(tag: &str, cfg: GroupCommitConfig) -> Self {
            let dir =
                std::env::temp_dir().join(format!("pse-wal-group-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let wal = Wal::create(&dir.join("wal.log"), 1).unwrap();
            let queue = Arc::new(CommitQueue::new(cfg, wal.sync_handle().unwrap(), wal.len()));
            Self { dir, wal, queue, applied: Arc::default() }
        }

        /// Register a writer, stage a frame naming `id` and queue it.
        fn stage(&mut self, id: u64) -> u64 {
            let queue = Arc::clone(&self.queue);
            self.stage_as(queue.writer(), id)
        }

        /// Stage a frame naming `id` and queue it as `writer`'s commit,
        /// as one ordered step.
        fn stage_as(&mut self, writer: WriterGuard<'_, u64, u64>, id: u64) -> u64 {
            let record = WalRecord::Retract(vec![OfferId(id)]);
            let lsn = self.wal.stage_payload(&record.payload()).unwrap();
            self.queue.enqueue(writer, lsn, id);
            lsn
        }

        fn apply(&self) -> impl FnMut(Vec<u64>) -> Vec<u64> {
            let applied = Arc::clone(&self.applied);
            move |batch| {
                let results = batch.iter().map(|id| 10 * id).collect();
                applied.lock().unwrap().push(batch);
                results
            }
        }

        fn commit(&self, lsn: u64) -> Result<u64, WalError> {
            self.queue.commit(lsn, self.apply())
        }

        /// Commit `lsn` on its own thread; with `hold`, its apply pass
        /// blocks until the sender is used or dropped.
        fn spawn_commit(&self, lsn: u64, hold: Option<Receiver<()>>) -> JoinHandle<u64> {
            let (queue, mut apply) = (Arc::clone(&self.queue), self.apply());
            spawn(move || {
                let apply = |batch| {
                    let _ = hold.as_ref().map(Receiver::recv);
                    apply(batch)
                };
                queue.commit(lsn, apply).unwrap()
            })
        }

        fn wait_until(&self, what: &str, holds: impl Fn(&QueueState<u64, u64>) -> bool) {
            let started = Instant::now();
            while !holds(&self.queue.lock()) {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "timed out waiting for {what}"
                );
                sleep(Duration::from_millis(1));
            }
        }

        fn applied(&self) -> Vec<Vec<u64>> {
            self.applied.lock().unwrap().clone()
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    const NEVER: Duration = Duration::from_secs(30);

    #[test]
    fn lone_writer_commits_without_waiting_for_a_full_group() {
        // A huge group and a huge wait: only the self-clocking path
        // (no registered writer left to stage) can return promptly.
        let mut rig = Rig::new("lone", GroupCommitConfig { group_size: 64, group_wait: NEVER });
        let started = Instant::now();
        let lsn = rig.stage(1);
        assert_eq!(rig.commit(lsn).unwrap(), 10);
        assert!(started.elapsed() < Duration::from_secs(5), "must not wait out group_wait");
        assert_eq!(rig.queue.lock().durable_lsn, lsn);
        assert_eq!(read_wal(rig.wal.path(), 0).unwrap().unwrap().durable_len, lsn);
    }

    #[test]
    fn bounded_wait_syncs_a_partial_group() {
        let cfg = GroupCommitConfig { group_size: 8, group_wait: Duration::from_millis(20) };
        let mut rig = Rig::new("partial", cfg);
        // Two registered writers but only one ever stages: the other
        // stays registered, so only the deadline can release us.
        let queue = Arc::clone(&rig.queue);
        let (w1, _w2) = (queue.writer(), queue.writer());
        let started = Instant::now();
        let lsn = rig.stage_as(w1, 9);
        rig.commit(lsn).unwrap();
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(15), "deadline path should bound the wait");
        assert!(waited < Duration::from_secs(5), "partial group must still commit");
    }

    #[test]
    fn concurrent_writers_apply_in_log_order_and_get_their_own_results() {
        let cfg = GroupCommitConfig { group_size: 4, group_wait: Duration::from_millis(2) };
        let rig = Arc::new(Mutex::new(Rig::new("many", cfg)));
        let queue = Arc::clone(&rig.lock().unwrap().queue);
        let handles: Vec<_> = (1..=16u64)
            .map(|id| {
                let (rig, queue) = (Arc::clone(&rig), Arc::clone(&queue));
                spawn(move || {
                    let writer = queue.writer();
                    let (lsn, apply) = {
                        let mut rig = rig.lock().unwrap();
                        (rig.stage_as(writer, id), rig.apply())
                    };
                    assert_eq!(queue.commit(lsn, apply).unwrap(), 10 * id, "own result");
                })
            })
            .collect();
        handles.into_iter().for_each(|h| h.join().unwrap());
        let rig = rig.lock().unwrap();
        let tail = read_wal(rig.wal.path(), 0).unwrap().unwrap();
        assert_eq!((tail.records.len(), tail.torn_bytes), (16, 0));
        assert_eq!(queue.lock().durable_lsn, tail.durable_len);
        let logged: Vec<u64> = tail
            .records
            .iter()
            .map(|(record, _)| match record {
                WalRecord::Retract(ids) => ids[0].0,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(rig.applied().concat(), logged, "apply order is log order");
    }

    /// Group N+1 becomes durable while group N is still applying, and
    /// reaches `apply` only after N's pass returns — no store, no luck.
    #[test]
    fn the_next_group_syncs_while_the_previous_one_applies() {
        let mut rig = Rig::new("pipeline", GroupCommitConfig::default());
        let (release, hold) = channel();
        let a = rig.stage(1);
        let first = rig.spawn_commit(a, Some(hold));
        rig.wait_until("group N to start applying", |s| s.applying);
        let (b, c) = (rig.stage(2), rig.stage(3));
        let second = [rig.spawn_commit(b, None), rig.spawn_commit(c, None)];
        rig.wait_until("group N+1 to become durable", |s| s.durable_lsn >= c);
        assert!(rig.queue.lock().applying, "N is still inside apply");
        assert_eq!(rig.applied(), Vec::<Vec<u64>>::new(), "nothing overtook it");
        release.send(()).unwrap();
        assert_eq!(first.join().unwrap(), 10);
        assert_eq!(second.map(|h| h.join().unwrap()), [20, 30]);
        assert_eq!(rig.applied().concat(), [1, 2, 3]);
        assert_eq!(rig.applied()[0], [1], "N applied alone, N+1 after it");
    }

    /// The missed wake-up: a commit staged while its only co-writer is
    /// inside `apply` has no registered writer left to wait for, so it
    /// leads its own sync at once instead of sleeping out `group_wait`.
    #[test]
    fn a_commit_staged_while_its_co_writer_applies_leads_its_sync_at_once() {
        let mut rig = Rig::new("co-apply", GroupCommitConfig { group_size: 8, group_wait: NEVER });
        let (release, hold) = channel();
        let a = rig.stage(1);
        let first = rig.spawn_commit(a, Some(hold));
        rig.wait_until("A to start applying", |s| s.applying);
        let b = rig.stage(2);
        let second = rig.spawn_commit(b, None);
        rig.wait_until("B to lead its own sync", |s| s.durable_lsn >= b);
        assert!(rig.queue.lock().applying, "A is still inside apply");
        release.send(()).unwrap();
        assert_eq!((first.join().unwrap(), second.join().unwrap()), (10, 20));
        assert_eq!(rig.applied(), [[1], [2]]);
    }

    /// A registered writer that leaves without staging (its record was
    /// never built, or never reached the log) wakes the commit that was
    /// waiting for it, which then leads instead of timing out.
    #[test]
    fn a_writer_leaving_without_staging_wakes_the_waiter() {
        let mut rig = Rig::new("leave", GroupCommitConfig { group_size: 8, group_wait: NEVER });
        let queue = Arc::clone(&rig.queue);
        let quitter = queue.writer();
        let a = rig.stage(1);
        let waiter = rig.spawn_commit(a, None);
        sleep(Duration::from_millis(20));
        assert!(rig.queue.lock().durable_lsn < a, "A waits while the quitter is registered");
        let started = Instant::now();
        drop(quitter);
        assert_eq!(waiter.join().unwrap(), 10);
        assert!(started.elapsed() < Duration::from_secs(10), "woken, not timed out");
    }

    /// Registration still forms groups: two writers registered before
    /// either stages share one sync, led by whichever stages last.
    #[test]
    fn writers_registered_before_either_stages_share_one_sync() {
        let mut rig = Rig::new("pair", GroupCommitConfig { group_size: 8, group_wait: NEVER });
        let queue = Arc::clone(&rig.queue);
        let (wa, wb) = (queue.writer(), queue.writer());
        let a = rig.stage_as(wa, 1);
        let first = rig.spawn_commit(a, None);
        sleep(Duration::from_millis(20));
        assert!(rig.queue.lock().durable_lsn < a, "A waits for B, who is still registered");
        let b = rig.stage_as(wb, 2);
        assert_eq!(rig.commit(b).unwrap(), 20);
        assert_eq!(first.join().unwrap(), 10);
        assert_eq!(rig.applied(), [[1, 2]], "one sync made both durable for one pass");
    }

    #[test]
    fn the_batch_cap_hands_the_remainder_to_a_later_pass() {
        let mut rig = Rig::new("cap", GroupCommitConfig::default());
        let lsns: Vec<u64> = (1..=70).map(|id| rig.stage(id)).collect();
        // The last commit's sync covers all 70; its first pass fills the
        // cap without reaching its own entry, its second finishes.
        assert_eq!(rig.commit(lsns[69]).unwrap(), 700);
        let sizes: Vec<usize> = rig.applied().iter().map(Vec::len).collect();
        assert_eq!(sizes, [MAX_APPLY_BATCH, 70 - MAX_APPLY_BATCH]);
        assert_eq!(rig.applied().concat(), (1..=70).collect::<Vec<u64>>());
        // Every helped owner finds its result waiting.
        for (i, lsn) in lsns[..69].iter().enumerate() {
            assert_eq!(rig.commit(*lsn).unwrap(), 10 * (i as u64 + 1));
        }
        assert_eq!(rig.applied().len(), 2, "collecting applies nothing");
    }

    /// `sync_data` on `/dev/null` is `EINVAL`: a failed sync with no IO
    /// trait. Leader and follower error, nothing uncovered is applied,
    /// what an earlier sync covered still is, and `reset` re-arms.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_sync_fails_the_uncovered_and_applies_the_covered() {
        let mut rig = Rig::new("poison", GroupCommitConfig { group_size: 8, group_wait: NEVER });
        // A applies (held); B becomes durable behind it and waits.
        let (release, hold) = channel();
        let a = rig.stage(1);
        let first = rig.spawn_commit(a, Some(hold));
        rig.wait_until("A to start applying", |s| s.applying);
        let b = rig.stage(2);
        let covered = rig.spawn_commit(b, None);
        rig.wait_until("B to become durable", |s| s.durable_lsn >= b);
        // From here on every sync fails.
        let null = std::fs::OpenOptions::new().write(true).open("/dev/null").unwrap();
        rig.queue.lock().file = Arc::new(null);
        // Three writers: C waits for company until D and E complete the
        // group; whoever leads its sync gets the IO error, and the failed
        // sync — not C's 30 s deadline — must wake the others to theirs.
        let queue = Arc::clone(&rig.queue);
        let (wc, wd, we) = (queue.writer(), queue.writer(), queue.writer());
        let started = Instant::now();
        let c = rig.stage_as(wc, 3);
        let follower = {
            let queue = Arc::clone(&queue);
            spawn(move || queue.commit(c, |_| panic!("uncovered entry applied")))
        };
        sleep(Duration::from_millis(20));
        let (d, e) = (rig.stage_as(wd, 4), rig.stage_as(we, 5));
        let leader = queue.commit(e, |_| panic!("uncovered entry applied"));
        let errors = [leader, follower.join().unwrap(), rig.commit(d)]
            .map(|failed| failed.unwrap_err().to_string());
        let poisoned = errors.iter().filter(|e| e.contains("poisoned until the log rotates"));
        assert_eq!(poisoned.count(), 2, "one leader with the IO error, two poisoned: {errors:?}");
        assert!(started.elapsed() < Duration::from_secs(10), "woken, not timed out");
        assert_eq!(rig.queue.lock().durable_lsn, b, "a failed sync covers nothing");
        release.send(()).unwrap();
        assert_eq!((first.join().unwrap(), covered.join().unwrap()), (10, 20));
        assert_eq!(rig.applied(), [[1], [2]]);
        // Rotation's half of the contract: reset on a real file re-arms.
        rig.queue.reset(rig.wal.sync_handle().unwrap(), rig.wal.len());
        let f = rig.stage(6);
        assert_eq!(rig.commit(f).unwrap(), 60);
    }

    /// A panic in `apply` costs its caller the panic and everyone else a
    /// typed error — batch-mates, later commits — with nobody left
    /// blocked, and rotation does not clear it.
    #[test]
    fn a_panicking_apply_fails_its_batch_mates_and_every_later_commit() {
        let mut rig = Rig::new("panic", GroupCommitConfig { group_size: 3, group_wait: NEVER });
        // Three commits staged before any syncs form one group, so
        // whichever applies has taken the other two's items when its
        // closure panics.
        let outcomes: Vec<_> = [rig.stage(1), rig.stage(2), rig.stage(3)]
            .map(|lsn| {
                let queue = Arc::clone(&rig.queue);
                spawn(move || queue.commit(lsn, |_| panic!("apply blew up")))
            })
            .into_iter()
            .map(JoinHandle::join)
            .collect();
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1, "one thread panicked");
        for mate in outcomes.into_iter().flatten() {
            assert!(mate.unwrap_err().to_string().contains("until a restart"));
        }
        assert!(!rig.queue.lock().applying);
        assert!(rig.queue.check_apply().is_err());
        rig.queue.reset(rig.wal.sync_handle().unwrap(), rig.wal.len());
        let started = Instant::now();
        let later = rig.stage(4);
        assert!(rig.commit(later).unwrap_err().to_string().contains("until a restart"));
        assert!(started.elapsed() < Duration::from_secs(1), "fails fast, never hangs");
        assert_eq!(rig.applied(), Vec::<Vec<u64>>::new());
    }
}
