//! An LRU buffer pool with exact I/O accounting.
//!
//! Every page access in the engine goes through [`BufferPool::with_page`] /
//! [`BufferPool::with_page_mut`] (or [`BufferPool::page_shared`], which
//! hands out the page itself). The pool tracks logical reads (accesses),
//! physical reads (disk fetches on miss), physical writes, evictions, and
//! pages skipped by the §3.3 page-skip test in [`IoStats`]. The experiment
//! harness resets and samples these counters to reproduce the paper's I/O
//! claims: ε-NoK's accessibility checks cause *zero* additional physical
//! reads because codes live on the same page as the node records, and the
//! page-skip optimization reduces reads when most of a document is
//! inaccessible. LRU decisions and counter totals are deterministic, so a
//! replayed workload replays identical I/O counts.
//!
//! # Seams
//!
//! [`BufferPool`] is one facade over five modules that share functions,
//! not fields: `stats` (the counters), `frames` (frame table, LRU heap,
//! misses, flushes), `io` (retry ladders, circuit breaker), `txn`
//! (pre-images, shadow spill, commit, rollback, checkpoint trigger) and
//! `ring` (the MVCC version ring). This module keeps the page-access API,
//! the re-entrancy guard and the thread's epoch and scan pins. **Lock
//! order: frames → txn → ring**: the txn lock may be taken under the frame
//! lock and the ring lock under either, never the reverse.
//!
//! # Shared-lock read path
//!
//! The frame table is guarded by an `RwLock`, not a mutex. A read of a
//! **cached** page runs under the *shared* lock: the LRU tick, the frame's
//! `last_used` stamp (raised with `fetch_max`, so concurrent hits never
//! move it backwards) and every counter are atomics, so a hit mutates no
//! lock-protected state and any number of readers proceed in parallel.
//! Only a cache miss (and everything that reshapes the frame table:
//! `with_page_mut`, eviction, flush, transaction traffic) takes the
//! exclusive lock. The split is counted on any core count:
//! [`IoStats::read_shared`] (hits served under the shared lock) and
//! [`IoStats::read_exclusive_fallback`] (reads that had to take the
//! exclusive path). Counters are relaxed atomics; [`BufferPool::stats`]
//! never takes a lock.
//!
//! # Shared page handles
//!
//! Frames hold `Arc<Page>`. [`BufferPool::page_shared`] returns the
//! frame's handle, so a reader keeps a whole page without copying it.
//! Transaction pre-images, spilled shadow pages, logged commit pages and
//! version-ring deltas are handles too: capturing a pre-image, logging a
//! commit, serving a pinned reader and rolling back move handles, not
//! bytes. A page is immutable while a handle to it is outstanding:
//! [`BufferPool::with_page_mut`] and a seal copy on write only then, and a
//! miss into a frame whose old page is still held reads into a fresh
//! buffer. [`IoStats::page_copies`] counts every whole-page copy; a
//! read-only workload makes none.

mod frames;
mod io;
mod ring;
mod stats;
mod txn;

pub use io::MAX_IO_ATTEMPTS;
pub use stats::IoStats;
pub use txn::DEFAULT_CHECKPOINT_THRESHOLD;

use crate::disk::{Disk, StorageError};
use crate::page::{Page, PageId};
use crate::retry::RetryPolicy;
use crate::wal::Wal;
use frames::Inner;
use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;

thread_local! {
    /// Addresses of the pools this thread is inside an access to (shared
    /// *or* exclusive). Lets a pool distinguish same-thread re-entry (a bug:
    /// panic) from cross-thread contention (legitimate: block) — an owner
    /// token cannot express this once shared locks admit many simultaneous
    /// holders — while an access to one pool may still nest inside an
    /// access to another.
    static HELD_POOLS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };

    /// The epoch this thread's page reads are pinned to, if any (see
    /// [`with_read_epoch`]). `None`: reads see the live frames.
    static READ_EPOCH: RefCell<Option<u64>> = const { RefCell::new(None) };

    /// Whether this thread's page reads are a scan ([`with_scan_reads`]).
    static SCANNING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's [`BufferPool::with_page`] calls
/// scan-resistant: a hit leaves its LRU stamp alone and a miss is read into
/// a buffer of its own, not a frame. A one-off pass over the whole image,
/// such as building a document view, leaves the working set as it was.
pub(crate) fn with_scan_reads<R>(f: impl FnOnce() -> R) -> R {
    let was = SCANNING.with(|s| s.replace(true));
    let out = f();
    SCANNING.with(|s| s.set(was));
    out
}

/// Runs `f` with every [`BufferPool::with_page`] call on this thread pinned
/// to `epoch`: pages the version ring retains pre-images for are served as
/// of that epoch instead of from the live frame (see
/// [`BufferPool::enable_version_ring`]). The previous pin is restored on
/// exit — including on panic — so pinned scopes nest.
pub fn with_read_epoch<R>(epoch: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            READ_EPOCH.with(|e| *e.borrow_mut() = self.0);
        }
    }
    let _restore = Restore(READ_EPOCH.with(|e| e.borrow_mut().replace(epoch)));
    f()
}

/// The epoch the current thread's page reads are pinned to, if any.
pub(crate) fn current_read_epoch() -> Option<u64> {
    READ_EPOCH.with(|e| *e.borrow())
}

/// RAII marker that a thread is inside an access to a pool. Constructed
/// *before* the frame lock is acquired so same-thread re-entry panics
/// instead of deadlocking (a read→write upgrade or a recursive read while a
/// writer waits would both self-deadlock on an `RwLock`).
struct Held {
    addr: usize,
}

impl Held {
    fn enter(pool: &BufferPool) -> Held {
        let addr = pool as *const BufferPool as usize;
        HELD_POOLS.with(|held| {
            let mut held = held.borrow_mut();
            if held.contains(&addr) {
                panic!("buffer pool re-entered from within a page access");
            }
            held.push(addr);
        });
        Held { addr }
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        HELD_POOLS.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&a| a == self.addr) {
                held.remove(i);
            }
        });
    }
}

/// A fixed-capacity, exact-LRU page cache over a [`Disk`].
///
/// Access is closure-scoped ([`with_page`](BufferPool::with_page)) or by
/// handle ([`page_shared`](BufferPool::page_shared)). Neither pins a frame:
/// a held handle keeps its page's bytes alive, not the frame, so eviction
/// can always make progress. The pool is internally synchronized but **not
/// re-entrant**: accessing a page from within an access to a page of the
/// same pool panics instead of deadlocking; an access to another pool from
/// inside one is fine.
pub struct BufferPool {
    disk: Arc<dyn Disk>,
    inner: RwLock<Inner>,
    capacity: usize,
    /// Monotonic access clock; atomic so shared-lock hits can advance it.
    tick: AtomicU64,
    /// I/O counters; atomic so neither the shared-lock hit path nor a stats
    /// read ever touches a lock.
    stats: stats::AtomicIoStats,
    /// The write-ahead log, if one is attached.
    wal: Mutex<Option<Arc<Wal>>>,
    /// The open transaction, if any.
    txn: Mutex<Option<txn::TxnState>>,
    /// Fast gate mirroring `txn.is_some()`: with no transaction open, hot
    /// paths pay one relaxed load and nothing else.
    txn_active: AtomicBool,
    /// Monotonic transaction ids for WAL records.
    next_txn_id: AtomicU64,
    /// Auto-checkpoint when the log exceeds this many bytes (0 = never).
    checkpoint_threshold: AtomicU64,
    /// How physical I/O faults are retried (attempts, backoff, breaker).
    retry_policy: Mutex<RetryPolicy>,
    breaker: io::Breaker,
    /// The MVCC version ring, if enabled.
    ring: Mutex<Option<ring::VersionRing>>,
}

impl BufferPool {
    /// Creates a pool caching at most `capacity` pages of `disk`. LRU
    /// behavior and I/O counters are deterministic.
    pub fn new(disk: Arc<dyn Disk>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        Self {
            disk,
            inner: RwLock::new(Inner::with_capacity(capacity)),
            capacity,
            tick: AtomicU64::new(0),
            stats: stats::AtomicIoStats::default(),
            wal: Mutex::new(None),
            txn: Mutex::new(None),
            txn_active: AtomicBool::new(false),
            next_txn_id: AtomicU64::new(1),
            checkpoint_threshold: AtomicU64::new(DEFAULT_CHECKPOINT_THRESHOLD),
            retry_policy: Mutex::new(RetryPolicy::default()),
            breaker: io::Breaker::default(),
            ring: Mutex::new(None),
        }
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }

    /// Runs `f` with shared access to page `id`.
    ///
    /// A cached page is served under the pool's *shared* lock (the fast
    /// path: any number of concurrent readers, no exclusive-lock traffic);
    /// only a miss falls back to the exclusive lock to fetch the page.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, StorageError> {
        self.read_access(id, |page| f(page))
    }

    /// A handle to page `id`'s current bytes, taken through the same
    /// version-ring, scan and miss paths as [`with_page`](Self::with_page)
    /// and counted the same way. The handle shares the frame's page instead
    /// of copying it, and its bytes never change: a later write to the
    /// page copies it first.
    pub fn page_shared(&self, id: PageId) -> Result<Arc<Page>, StorageError> {
        self.read_access(id, Arc::clone)
    }

    /// The read path of [`with_page`](Self::with_page) and
    /// [`page_shared`](Self::page_shared).
    fn read_access<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&Arc<Page>) -> R,
    ) -> Result<R, StorageError> {
        let _held = Held::enter(self);
        // MVCC pin: consult the version ring *under the frame lock* (shared
        // suffices — writers capture pre-images under the exclusive lock),
        // so the retained image and the live frame cannot both be wrong.
        let pin = current_read_epoch();
        let stats = &self.stats;
        {
            let inner = self.inner.read();
            if let Some(pin) = pin {
                if let Some(page) = self.ring_image(id, pin) {
                    stats.logical_reads(1);
                    stats.versioned_reads(1);
                    stats.read_shared(1);
                    return Ok(f(&page));
                }
            }
            let scanning = SCANNING.with(Cell::get);
            if let Some(page) = inner.hit(id, (!scanning).then_some(&self.tick)) {
                stats.logical_reads(1);
                stats.read_shared(1);
                return Ok(f(page));
            }
            if scanning {
                // Under the shared lock, no writer can cache and dirty it.
                let page = match self.shadow_image(id) {
                    Some(page) => page,
                    None => {
                        stats.physical_reads(1);
                        let mut page = Page::zeroed();
                        self.read_verified(id, &mut page)?;
                        Arc::new(page)
                    }
                };
                stats.logical_reads(1);
                return Ok(f(&page));
            }
        }
        let mut inner = self.inner.write();
        // Re-check the overlay: between the shared probe and this exclusive
        // acquisition a commit may have sealed a delta covering `id`, in
        // which case the live frame is now too new for the pin.
        if let Some(pin) = pin {
            if let Some(page) = self.ring_image(id, pin) {
                stats.logical_reads(1);
                stats.versioned_reads(1);
                stats.read_exclusive_fallback(1);
                return Ok(f(&page));
            }
        }
        stats.read_exclusive_fallback(1);
        let frame = self.fetch(&mut inner, id)?;
        stats.logical_reads(1);
        Ok(f(frame.page()))
    }

    /// Runs `f` with exclusive access to page `id`, marking it dirty.
    /// Inside an open transaction the first mutation of each page keeps a
    /// handle to its pre-image (see [`txn_begin`](Self::txn_begin)).
    /// The page is copied first if any handle to it is held (a pre-image, a
    /// ring delta or a [`page_shared`](Self::page_shared) reader), so those
    /// keep their bytes.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError> {
        let _held = Held::enter(self);
        let mut inner = self.inner.write();
        let frame = self.fetch(&mut inner, id)?;
        self.stats.logical_reads(1);
        self.txn_capture(id, frame);
        Ok(f(self.unshare(frame.dirty_page())))
    }

    /// Allocates a fresh zeroed page on the disk and returns its id.
    pub fn allocate_page(&self) -> Result<PageId, StorageError> {
        self.disk.allocate_page()
    }

    /// Records that the §3.3 page-skip test rejected `n` candidates without
    /// reading their pages — one add per skipped run, however long.
    pub fn note_pages_skipped(&self, n: u64) {
        self.stats.pages_skipped(n);
    }

    /// A snapshot of the I/O counters. Entirely lock-free: safe to sample
    /// from any thread at any time, including while other threads hold page
    /// accesses open.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Zeroes the I/O counters. Lock-free.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::sync::atomic::Ordering;

    pub(super) fn pool(capacity: usize) -> (BufferPool, Vec<PageId>) {
        let disk = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..8).map(|_| disk.allocate_page().unwrap()).collect();
        (BufferPool::new(disk, capacity), ids)
    }

    /// A pool over 32 pages.
    pub(super) fn wide(capacity: usize) -> (BufferPool, Vec<PageId>) {
        let disk = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..32).map(|_| disk.allocate_page().unwrap()).collect();
        (BufferPool::new(disk, capacity), ids)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let (pool, ids) = pool(4);
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.physical_reads, 2);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn stats_since() {
        let (pool, ids) = pool(4);
        pool.with_page(ids[0], |_| ()).unwrap();
        let snap = pool.stats();
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        let d = pool.stats().since(&snap);
        assert_eq!(d.logical_reads, 2);
        assert_eq!(d.physical_reads, 1);
    }

    #[test]
    #[should_panic(expected = "re-entered")]
    fn reentrancy_panics() {
        let (pool, ids) = pool(4);
        pool.with_page(ids[0], |_| {
            let _ = pool.with_page(ids[1], |_| ());
        })
        .unwrap();
    }

    #[test]
    fn an_access_to_another_pool_nests() {
        let (outer, ids) = pool(4);
        let (inner, inner_ids) = pool(4);
        inner
            .with_page_mut(inner_ids[0], |p| p.put_u32(0, 5))
            .unwrap();
        let v = outer
            .with_page(ids[0], |_| inner.with_page(inner_ids[0], |p| p.get_u32(0)))
            .unwrap()
            .unwrap();
        assert_eq!(v, 5);
    }

    #[test]
    fn shared_and_exclusive_read_counters() {
        let (pool, ids) = pool(4);
        // Cold: both accesses miss and take the exclusive path.
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.read_shared, 0);
        assert_eq!(s.read_exclusive_fallback, 2);
        // Warm: hits stay entirely on the shared path.
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[0], |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.read_shared, 3);
        assert_eq!(s.read_exclusive_fallback, 2);
        // Mutation does not count toward either read-path counter.
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 1)).unwrap();
        let s = pool.stats();
        assert_eq!(s.read_shared, 3);
        assert_eq!(s.read_exclusive_fallback, 2);
        assert_eq!(s.logical_reads, 6);
    }

    #[test]
    fn stats_read_is_lock_free_during_a_page_access() {
        // stats() from inside a with_page closure would deadlock if it took
        // the frame lock; with atomic counters it must just work.
        let (pool, ids) = pool(4);
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[0], |_| {
            let s = pool.stats();
            assert_eq!(s.logical_reads, 2);
            assert_eq!(s.read_shared, 1);
        })
        .unwrap();
    }

    #[test]
    fn concurrent_shared_readers_make_progress() {
        // Several threads hammering the same cached pages read-only must all
        // complete, and (almost) every access after warmup stays shared.
        // Capacity 64 over 32 pages: nothing is evicted.
        let (pool, ids) = wide(64);
        for &id in &ids {
            pool.with_page(id, |_| ()).unwrap();
        }
        let warm = pool.stats();
        let pool = Arc::new(pool);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let ids = ids.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        for &id in &ids {
                            pool.with_page(id, |_| ()).unwrap();
                        }
                    }
                });
            }
        });
        let d = pool.stats().since(&warm);
        assert_eq!(d.logical_reads, 4 * 50 * 32);
        assert_eq!(d.read_shared, d.logical_reads, "warm mix is all-shared");
        assert_eq!(d.physical_reads, 0);
    }

    /// A disk whose writes fail while `armed` is set.
    pub(super) struct ArmedFailDisk {
        pub(super) inner: Arc<dyn Disk>,
        pub(super) armed: AtomicBool,
    }

    impl Disk for ArmedFailDisk {
        fn read_page(&self, id: PageId, buf: &mut Page) -> Result<(), StorageError> {
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &Page) -> Result<(), StorageError> {
            if self.armed.load(Ordering::SeqCst) {
                return Err(StorageError::Io(std::io::Error::other(
                    "injected write failure",
                )));
            }
            self.inner.write_page(id, buf)
        }
        fn allocate_page(&self) -> Result<PageId, StorageError> {
            self.inner.allocate_page()
        }
        fn num_pages(&self) -> u32 {
            self.inner.num_pages()
        }
    }

    #[test]
    fn page_skip_counter() {
        let (pool, ids) = pool(4);
        pool.note_pages_skipped(1);
        pool.note_pages_skipped(1);
        assert_eq!(pool.stats().pages_skipped, 2);
        let snap = pool.stats();
        pool.note_pages_skipped(40);
        assert_eq!(pool.stats().since(&snap).pages_skipped, 40);
        pool.reset_stats();
        assert_eq!(pool.stats(), IoStats::default());
        let _ = ids;
    }

    #[test]
    fn discard_cache_and_txn_forgets_uncommitted_bytes() {
        let (pool, ids) = pool(4);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 1)).unwrap();
        pool.flush_all().unwrap();
        // Dirty bytes never flushed: discard must lose them, not write them.
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 99)).unwrap();
        let before = pool.stats();
        pool.discard_cache_and_txn();
        assert!(!pool.in_transaction());
        assert_eq!(
            pool.stats().since(&before).physical_writes,
            0,
            "discard writes nothing back"
        );
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 1);
    }

    /// The facade's commit shape in miniature: one atomic update (which
    /// seals the ring delta at the pre-bump epoch) followed by the epoch
    /// bump.
    pub(super) fn commit_and_bump<E>(
        pool: &BufferPool,
        epoch: &Arc<AtomicU64>,
        f: impl FnOnce() -> Result<(), E>,
    ) where
        E: From<StorageError> + std::fmt::Debug,
    {
        pool.atomic_update(f).unwrap();
        epoch.fetch_add(1, Ordering::SeqCst);
    }

    #[test]
    fn a_shared_handle_keeps_its_bytes_across_a_write() {
        let (pool, ids) = pool(4);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 1)).unwrap();
        let before = pool.stats();
        let held = pool.page_shared(ids[0]).unwrap();
        assert_eq!(pool.stats().since(&before).page_copies, 0);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 2)).unwrap();
        assert_eq!(held.get_u32(0), 1);
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 2);
        assert_eq!(
            pool.stats().since(&before).page_copies,
            1,
            "one copy on write"
        );
        // With no handle held, a write copies nothing.
        drop(held);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 3)).unwrap();
        assert_eq!(pool.stats().since(&before).page_copies, 1);
    }
}
