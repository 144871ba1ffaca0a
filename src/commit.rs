//! Group commit: an admission-controlled batch committer in front of the
//! MVCC epoch ring.
//!
//! Concurrent update submissions queue into a [`GroupCommitter`]; a single
//! worker thread drains them in batches of up to
//! [`GroupCommitConfig::max_batch`] and folds each batch into **one**
//! crash-consistent transaction via [`SecureXmlDb::run_batch`] — one WAL
//! batch record, one durability point (fsync), one epoch bump — so update
//! throughput under fsync-bound storage scales with the batch size instead
//! of paying a flush per update.
//!
//! The contract per batch member is all-or-nothing *and* isolated, by the
//! one abort path a failed solo update already takes:
//!
//! * a member whose closure fails aborts its batch, which re-runs without
//!   it; the member is rejected with its own error and its peers commit;
//! * a commit failure poisons the database exactly like a solo commit
//!   failure would, and every member of the batch is told so.
//!
//! Backpressure is admission control, not queueing delay: when the bounded
//! queue is full, [`GroupCommitter::submit`] refuses immediately with
//! [`DbError::Overloaded`] — nothing was applied, the caller backs off and
//! resubmits. There is no batching window: the worker takes whatever is
//! queued the moment it is free, so a lone writer commits at once, and
//! batches form from the members that arrive while a batch commits.
//!
//! Member closures must not panic: a panic inside a batch unwinds through
//! the open transaction and poisons the shared lock. Return a
//! [`DbError`] instead — that is the isolated-rejection path.

use crate::{DbError, DbReader, SecureXmlDb, UpdateFn};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;

/// Tuning knobs of a [`GroupCommitter`].
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Bounded submission queue: a submit that finds the queue at capacity
    /// is refused with [`DbError::Overloaded`] (admission control).
    pub queue_capacity: usize,
    /// Most members folded into one transaction. Larger batches amortize
    /// the fsync further but widen the blast radius of a poisoning commit
    /// failure, and raise the re-runs failing members can cost their peers
    /// (a batch of K runs at most K + 1 times).
    pub max_batch: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 16,
        }
    }
}

/// Counters of a [`GroupCommitter`], all monotonically increasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Updates accepted into the queue.
    pub submitted: u64,
    /// Members whose closure succeeded and whose batch committed.
    pub committed: u64,
    /// Members rejected by their own closure's error (batch peers
    /// unaffected).
    pub rejected: u64,
    /// Batches committed (each one WAL transaction and one fsync).
    pub batches: u64,
    /// Submissions refused with [`DbError::Overloaded`].
    pub overloads: u64,
    /// Largest batch committed so far.
    pub max_batch_seen: u64,
}

#[derive(Default)]
struct StatsCells {
    submitted: AtomicU64,
    committed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    overloads: AtomicU64,
    max_batch_seen: AtomicU64,
}

/// Where a submitter parks while the worker commits its batch.
#[derive(Default)]
struct SubmitSlot {
    done: Mutex<Option<Result<(), DbError>>>,
    cv: Condvar,
}

impl SubmitSlot {
    fn deliver(&self, r: Result<(), DbError>) {
        *lock_recover(&self.done) = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<(), DbError> {
        let mut done = lock_recover(&self.done);
        loop {
            if let Some(r) = done.take() {
                return r;
            }
            done = match self.cv.wait(done) {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
        }
    }
}

struct Pending {
    f: UpdateFn,
    slot: Arc<SubmitSlot>,
}

struct Queue {
    q: VecDeque<Pending>,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    nonempty: Condvar,
    cfg: GroupCommitConfig,
    stats: StatsCells,
}

/// Called by the worker under the database's write lock after every commit
/// attempt, with the database and whether the attempt left it healthy.
/// Because it runs before the lock is released, an observer can publish
/// per-epoch oracles (or any other commit-ordered bookkeeping) without
/// racing the next batch — the chaos soak classifies reader answers against
/// oracles published this way.
pub type CommitObserver = Box<dyn FnMut(&SecureXmlDb, bool) + Send>;

/// Recover a poisoned `std` mutex: the data is a plain queue/result cell and
/// every critical section is a handful of moves, so the contents are valid
/// even if a holder panicked.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    }
}

/// The admission-controlled group committer. See the [module docs](self).
///
/// Owns the database behind an `Arc<RwLock<_>>`: the worker takes the write
/// lock per batch, and any number of serving threads take the read lock to
/// mint [`DbReader`]s (which then query without any lock at all).
pub struct GroupCommitter {
    db: Arc<RwLock<SecureXmlDb>>,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl GroupCommitter {
    /// Wraps `db` with a batch-commit worker using `cfg`.
    pub fn new(db: Arc<RwLock<SecureXmlDb>>, cfg: GroupCommitConfig) -> Self {
        Self::with_observer(db, cfg, None)
    }

    /// [`new`](Self::new) plus a [`CommitObserver`] invoked under the write
    /// lock after every commit attempt.
    pub fn with_observer(
        db: Arc<RwLock<SecureXmlDb>>,
        cfg: GroupCommitConfig,
        mut observer: Option<CommitObserver>,
    ) -> Self {
        assert!(cfg.queue_capacity > 0, "queue capacity must be >= 1");
        assert!(cfg.max_batch > 0, "max batch must be >= 1");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                q: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            cfg,
            stats: StatsCells::default(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker_db = Arc::clone(&db);
        let worker = std::thread::spawn(move || loop {
            let batch = match collect_batch(&worker_shared) {
                Some(b) => b,
                None => return,
            };
            commit_batch(&worker_db, &worker_shared, batch, &mut observer);
        });
        Self {
            db,
            shared,
            worker: Some(worker),
        }
    }

    /// The shared database handle (read-lock it to mint [`DbReader`]s).
    pub fn db(&self) -> &Arc<RwLock<SecureXmlDb>> {
        &self.db
    }

    /// A fresh snapshot reader, through the read lock.
    pub fn reader(&self) -> DbReader {
        match self.db.read() {
            Ok(g) => g.reader(),
            Err(e) => e.into_inner().reader(),
        }
    }

    /// Submits one update and blocks until its batch's durability point.
    ///
    /// `Ok(())` means the closure ran successfully **and** its batch is
    /// durable on disk. Typed failures:
    ///
    /// * [`DbError::Overloaded`] — the queue was full; nothing was queued
    ///   or applied, back off and resubmit;
    /// * the closure's own error — the member's batch was rolled back and
    ///   re-run without it; its batch peers committed normally;
    /// * [`DbError::Poisoned`] — the batch's commit failed, or the database
    ///   was already poisoned (or the committer was closed before the
    ///   member ran); the database needs [`SecureXmlDb::recover`];
    /// * a typed `Storage(Io(..))` refusal — the batch could not start
    ///   because a transaction was already open on the handle.
    pub fn submit(&self, f: UpdateFn) -> Result<(), DbError> {
        let slot = Arc::new(SubmitSlot::default());
        {
            let mut q = lock_recover(&self.shared.queue);
            if q.closed {
                return Err(DbError::Poisoned);
            }
            if q.q.len() >= self.shared.cfg.queue_capacity {
                self.shared.stats.overloads.fetch_add(1, Ordering::Relaxed);
                return Err(DbError::Overloaded);
            }
            q.q.push_back(Pending {
                f,
                slot: Arc::clone(&slot),
            });
            self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
            self.shared.nonempty.notify_all();
        }
        slot.wait()
    }

    /// [`submit`](Self::submit) without the boxing ceremony.
    pub fn submit_fn<F>(&self, f: F) -> Result<(), DbError>
    where
        F: Fn(&mut SecureXmlDb) -> Result<(), DbError> + Send + 'static,
    {
        self.submit(Box::new(f))
    }

    /// Snapshot of the committer's counters.
    pub fn stats(&self) -> GroupCommitStats {
        let s = &self.shared.stats;
        GroupCommitStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            committed: s.committed.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            overloads: s.overloads.load(Ordering::Relaxed),
            max_batch_seen: s.max_batch_seen.load(Ordering::Relaxed),
        }
    }

    /// Drains the queue, commits what remains, and joins the worker.
    /// Also runs on drop; calling it explicitly surfaces the join point.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        {
            let mut q = lock_recover(&self.shared.queue);
            q.closed = true;
        }
        self.shared.nonempty.notify_all();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocks until at least one member is queued, then takes every queued
/// member up to `max_batch` at once. Returns `None` when the committer is
/// closed and the queue fully drained.
fn collect_batch(shared: &Shared) -> Option<Vec<Pending>> {
    let mut q = lock_recover(&shared.queue);
    while q.q.is_empty() {
        if q.closed {
            return None;
        }
        q = match shared.nonempty.wait(q) {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
    }
    let n = q.q.len().min(shared.cfg.max_batch);
    Some(q.q.drain(..n).collect())
}

/// Runs one collected batch through [`SecureXmlDb::run_batch`] under the
/// write lock and delivers each member's result to its parked submitter.
fn commit_batch(
    db: &Arc<RwLock<SecureXmlDb>>,
    shared: &Shared,
    batch: Vec<Pending>,
    observer: &mut Option<CommitObserver>,
) {
    let (members, slots): (Vec<UpdateFn>, Vec<Arc<SubmitSlot>>) =
        batch.into_iter().map(|p| (p.f, p.slot)).unzip();
    let mut db = match db.write() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    };
    let stats = &shared.stats;
    let healthy = match db.run_batch(&members) {
        Ok(results) => {
            stats.batches.fetch_add(1, Ordering::Relaxed);
            stats
                .max_batch_seen
                .fetch_max(members.len() as u64, Ordering::Relaxed);
            for (slot, r) in slots.iter().zip(results) {
                let counter = match r {
                    Ok(()) => &stats.committed,
                    Err(_) => &stats.rejected,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                slot.deliver(r);
            }
            true
        }
        Err(e) => {
            // The batch never started (the handle is poisoned, or a
            // transaction is already open), or its commit failed and poisoned
            // the handle. No member's update landed; every member is told why.
            let poisoned = db.is_poisoned();
            for slot in &slots {
                slot.deliver(Err(if poisoned {
                    DbError::Poisoned
                } else {
                    crate::out_of_turn(e.to_string())
                }));
            }
            !poisoned
        }
    };
    if let Some(obs) = observer.as_mut() {
        obs(&db, healthy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::{AccessibilityMap, SubjectId};
    use dol_nok::Security;
    use dol_xml::NodeId;
    use std::sync::atomic::AtomicBool;

    fn small_db() -> SecureXmlDb {
        let xml = "<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>";
        let doc = dol_xml::parse(xml).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        SecureXmlDb::from_document(doc, &map).unwrap()
    }

    /// Submits every member from its own thread while the worker is busy
    /// committing a one-member gate batch that waits for them: all of them
    /// queue before the worker can collect again, so they form the next
    /// batch. Returns each member's result.
    fn submit_behind_a_busy_worker(
        gc: &Arc<GroupCommitter>,
        members: Vec<UpdateFn>,
    ) -> Vec<Result<(), DbError>> {
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let gate = {
            let (gc, started, release) = (Arc::clone(gc), started.clone(), release.clone());
            std::thread::spawn(move || {
                gc.submit_fn(move |_| {
                    started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Ok(())
                })
            })
        };
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let queued = gc.stats().submitted + members.len() as u64;
        let threads: Vec<_> = members
            .into_iter()
            .map(|f| {
                let gc = Arc::clone(gc);
                std::thread::spawn(move || gc.submit(f))
            })
            .collect();
        while gc.stats().submitted < queued {
            std::thread::yield_now();
        }
        release.store(true, Ordering::SeqCst);
        gate.join().unwrap().unwrap();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    }

    #[test]
    fn concurrent_submissions_fold_into_few_batches() {
        let db = Arc::new(RwLock::new(small_db()));
        let gc = Arc::new(GroupCommitter::new(
            Arc::clone(&db),
            GroupCommitConfig::default(),
        ));
        let members = (0..8)
            .map(|i| -> UpdateFn {
                Box::new(move |d: &mut SecureXmlDb| d.set_node_access(5, SubjectId(1), i % 2 == 0))
            })
            .collect();
        for r in submit_behind_a_busy_worker(&gc, members) {
            r.unwrap();
        }
        // The gate's batch, then all eight in one.
        let stats = gc.stats();
        assert_eq!(
            (stats.submitted, stats.committed, stats.rejected),
            (9, 9, 0)
        );
        assert_eq!((stats.batches, stats.max_batch_seen), (2, 8));
        // Each batch bumped the epoch exactly once.
        assert_eq!(db.read().unwrap().epoch(), 2);
        Arc::try_unwrap(gc).ok().unwrap().close();
    }

    #[test]
    fn failing_member_is_isolated_from_its_batch_peers() {
        let db = Arc::new(RwLock::new(small_db()));
        let gc = Arc::new(GroupCommitter::new(
            Arc::clone(&db),
            GroupCommitConfig::default(),
        ));
        let members = (0..4u64)
            .map(|i| -> UpdateFn {
                Box::new(move |d: &mut SecureXmlDb| {
                    if i == 2 {
                        // Dirty a page, then fail on an invalid position: the
                        // rollback must unwind the partial work too.
                        d.set_node_access(5, SubjectId(1), true)?;
                        return d.set_node_access(9_999, SubjectId(1), true);
                    }
                    d.set_node_access(4, SubjectId(1), true)
                })
            })
            .collect();
        let results = submit_behind_a_busy_worker(&gc, members);
        let failures = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(failures, 1, "exactly the invalid member fails");
        assert!(results
            .iter()
            .any(|r| matches!(r, Err(DbError::InvalidNode(9_999)))));
        // All four ran as one batch: the failure re-ran it without one.
        let stats = gc.stats();
        assert_eq!((stats.batches, stats.max_batch_seen), (2, 4));
        assert_eq!((stats.committed, stats.rejected), (4, 1));
        // Peers landed; the failed member's partial work did not.
        let d = db.read().unwrap();
        assert!(!d.is_poisoned());
        let r = d.reader();
        assert!(r.accessible(4, SubjectId(1)).unwrap());
        assert!(!r.accessible(5, SubjectId(1)).unwrap());
        drop(d);
        Arc::try_unwrap(gc).ok().unwrap().close();
    }

    #[test]
    fn full_queue_refuses_with_overloaded() {
        let db = Arc::new(RwLock::new(small_db()));
        // Hold the write lock so the worker stalls mid-pipeline: it drains
        // one member and blocks on the lock, the next submit fills the
        // 1-slot queue, and a third concurrent submit must be refused.
        let gc = GroupCommitter::new(
            Arc::clone(&db),
            GroupCommitConfig {
                queue_capacity: 1,
                max_batch: 1,
            },
        );
        let blocker = db.write().unwrap();
        // First submit is admitted (worker drains it but then blocks on the
        // write lock, or it is still queued — either way the queue has no
        // room by the time the second and third submits race it). Admission
        // is capacity-based, so overfill deterministically: submit from
        // threads until one observes Overloaded while the lock is held.
        let gc = Arc::new(gc);
        let mut spawned = Vec::new();
        for _ in 0..3 {
            let gc = Arc::clone(&gc);
            spawned.push(std::thread::spawn(move || {
                gc.submit_fn(|d| d.set_node_access(5, SubjectId(1), true))
            }));
        }
        // Wait until every slot of the pipeline (queue + worker hand) is
        // occupied and one submission has been refused.
        while gc.stats().overloads == 0 {
            std::thread::yield_now();
        }
        drop(blocker);
        let mut oks = 0;
        for t in spawned {
            match t.join().unwrap() {
                Ok(()) => oks += 1,
                Err(DbError::Overloaded) => {}
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
        assert!(oks >= 1, "admitted members still commit after the stall");
        Arc::try_unwrap(gc).ok().unwrap().close();
    }

    #[test]
    fn a_solo_submit_commits_as_one_batch() {
        let db = Arc::new(RwLock::new(small_db()));
        let gc = GroupCommitter::new(Arc::clone(&db), GroupCommitConfig::default());
        gc.submit_fn(|d| d.set_node_access(5, SubjectId(1), true))
            .unwrap();
        let stats = gc.stats();
        assert_eq!(
            (stats.batches, stats.max_batch_seen, stats.committed),
            (1, 1, 1)
        );
        assert_eq!(db.read().unwrap().epoch(), 1);
        gc.close();
    }

    #[test]
    fn batch_members_share_one_epoch_and_readers_keep_answering() {
        let db = Arc::new(RwLock::new(small_db()));
        let pinned = db.read().unwrap().reader();
        assert_eq!(pinned.epoch(), 0);
        let gc = Arc::new(GroupCommitter::new(
            Arc::clone(&db),
            GroupCommitConfig::default(),
        ));
        let members = (3..6u64)
            .map(|pos| -> UpdateFn {
                Box::new(move |d: &mut SecureXmlDb| d.set_node_access(pos, SubjectId(1), true))
            })
            .collect();
        for r in submit_behind_a_busy_worker(&gc, members) {
            r.unwrap();
        }
        // The gate's epoch, then one for all three members.
        assert_eq!(gc.stats().max_batch_seen, 3);
        assert_eq!(db.read().unwrap().epoch(), 2);
        // The pinned epoch-0 reader still answers epoch-0 truth.
        assert!(!pinned.accessible(4, SubjectId(1)).unwrap());
        assert_eq!(
            pinned
                .query("//d/e", Security::BindingLevel(SubjectId(1)))
                .unwrap()
                .matches,
            Vec::<u64>::new()
        );
        // A fresh reader sees all three members.
        let r = db.read().unwrap().reader();
        for pos in 3..6 {
            assert!(r.accessible(pos, SubjectId(1)).unwrap());
        }
        Arc::try_unwrap(gc).ok().unwrap().close();
    }
}
