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
//! The pool is **not re-entrant**: accessing a page from within an access
//! to a page of the same pool panics instead of deadlocking. An access to
//! another pool from inside one is fine.
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
//! # Exact LRU in O(log n)
//!
//! The victim of a miss is the frame with the oldest stamp, ties to the
//! lowest slot. The pool finds it in a lazy min-heap of `(stamp, slot)`
//! entries, one per frame, each at or below its frame's current stamp: a
//! hit only raises the stamp, and a popped entry whose stamp is stale is
//! pushed back with the current one. The first entry popped whose stamp
//! is current is the exact minimum. Re-pushes are bounded by hits, so a
//! miss costs O(log frames) amortized; [`IoStats::victim_probes`] counts
//! the entries popped. Debug builds check every choice against a scan of
//! all frames.
//!
//! # Shared page handles
//!
//! Frames hold `Arc<Page>`. [`BufferPool::page_shared`] returns the
//! frame's handle, so a reader keeps a whole page without copying it.
//! Transaction pre-images, spilled shadow pages and version-ring deltas
//! are handles too: capturing a pre-image, serving a pinned reader and
//! rolling back move handles, not bytes. A page is immutable while a handle
//! to it is outstanding: [`BufferPool::with_page_mut`] copies on write only
//! then, and a miss into a frame whose old page is still held reads into a
//! fresh buffer. [`IoStats::page_copies`] counts every whole-page copy; a
//! read-only workload makes none.
//!
//! # Integrity
//!
//! The pool is the integrity boundary of the engine. Every dirty page is
//! [sealed](Page::seal) (payload CRC written to the trailer) before it
//! reaches the disk, and every physical read verifies the trailer before
//! the page enters the cache. Transient disk errors and checksum mismatches
//! are retried up to [`MAX_IO_ATTEMPTS`] times; a page that still fails
//! surfaces as [`StorageError::Corrupt`] and is **never** cached, so no
//! reader can observe corrupt payload bytes.
//!
//! # Transactions
//!
//! [`BufferPool::atomic_update`] runs a closure as one atomic multi-page
//! mutation. While the transaction is open, the first `with_page_mut` on
//! each page keeps a handle to its **pre-image** (for rollback; the write
//! itself then copies the page once), and no uncommitted byte can reach
//! the data disk: evicting a transaction-dirtied page moves its handle into
//! the transaction's in-memory **shadow** instead of writing it (a later
//! fetch reloads from the shadow), so transactions can dirty far more pages
//! than the pool holds frames. If the closure fails, the pre-image handles
//! go back into their frames and the cache and disk are exactly as before. If
//! it succeeds and a [`Wal`] is
//! [attached](BufferPool::attach_wal), the after-images of every dirtied
//! page are committed to the log — synced *before* any of them may be
//! lazily flushed (WAL-before-data) — so a crash at any later point redoes
//! the whole transaction or none of it. A pool has **one** transaction at
//! a time and it does not nest: opening a second one while the first is
//! open is a typed error (a caller that wants several mutations in one atom
//! — a subtree move is a delete + insert — runs them inside one scope).
//! Transactions serialize updates: they are for the single-writer update
//! path, not for concurrent writers. With no transaction open, every code
//! path — and every I/O
//! counter — is bit-identical to the pre-WAL pool, so experiment replays
//! are unaffected.

use crate::disk::{Disk, StorageError};
use crate::page::{Page, PageId};
use crate::retry::{current_io_deadline, RetryPolicy};
use crate::wal::Wal;
use parking_lot::{Mutex, RwLock};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Default attempts per physical page I/O before a transient error or
/// checksum mismatch is treated as permanent (the
/// [`RetryPolicy::max_attempts`] default; tune per pool with
/// [`BufferPool::set_retry_policy`]).
pub const MAX_IO_ATTEMPTS: u32 = 4;

/// Default auto-checkpoint threshold: a commit that leaves more than this
/// many bytes in the attached WAL triggers a checkpoint (flush + sync +
/// epoch bump). Tune with [`BufferPool::set_checkpoint_threshold`].
pub const DEFAULT_CHECKPOINT_THRESHOLD: u64 = 4 << 20;

/// Cumulative I/O counters of a [`BufferPool`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Page accesses served (hit or miss).
    pub logical_reads: u64,
    /// Pages fetched from the disk on a miss.
    pub physical_reads: u64,
    /// Pages written back to the disk (eviction or flush).
    pub physical_writes: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Page reads avoided by the §3.3 page-skip test (whole block known
    /// inaccessible from memory).
    pub pages_skipped: u64,
    /// Physical reads repeated after a transient error or a checksum
    /// mismatch (each extra attempt counts once).
    pub read_retries: u64,
    /// Physical writes repeated after a transient error.
    pub write_retries: u64,
    /// Checksum verifications that found a payload/trailer mismatch
    /// (including mismatches later cleared by a successful retry).
    pub checksum_failures: u64,
    /// [`with_page`](BufferPool::with_page) hits served entirely under the
    /// pool's *shared* lock (no exclusive lock taken).
    pub read_shared: u64,
    /// [`with_page`](BufferPool::with_page) calls that fell back to the
    /// exclusive lock (cache miss, or the page appeared between the shared
    /// probe and the exclusive acquisition).
    pub read_exclusive_fallback: u64,
    /// Exponential-backoff pauses slept between I/O attempts (one per
    /// non-zero pause; see [`RetryPolicy::backoff_for`]).
    pub backoffs: u64,
    /// Times the circuit breaker tripped open (a run of
    /// [`RetryPolicy::breaker_threshold`] consecutive surfaced I/O
    /// failures).
    pub breaker_trips: u64,
    /// Operations refused with [`StorageError::BreakerOpen`] while the
    /// breaker was open.
    pub breaker_fast_fails: u64,
    /// Half-open probes admitted while the breaker was open (successful
    /// probes close it).
    pub breaker_probes: u64,
    /// [`with_page`](BufferPool::with_page) calls served from the version
    /// ring's retained pre-images instead of the current frame — a pinned
    /// reader time-traveling to its snapshot epoch (see
    /// [`BufferPool::enable_version_ring`]).
    pub versioned_reads: u64,
    /// LRU heap entries popped to choose eviction victims: one per eviction
    /// plus one per entry found stale (its frame was hit since it was
    /// pushed).
    pub victim_probes: u64,
    /// Whole-page copies: a write to a page a handle is still held on, a
    /// write-back seal of such a page, and a committed page's WAL image. A
    /// read-only workload makes none.
    pub page_copies: u64,
}

impl IoStats {
    /// Difference between two snapshots (`self - earlier`).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads - earlier.logical_reads,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
            evictions: self.evictions - earlier.evictions,
            pages_skipped: self.pages_skipped - earlier.pages_skipped,
            read_retries: self.read_retries - earlier.read_retries,
            write_retries: self.write_retries - earlier.write_retries,
            checksum_failures: self.checksum_failures - earlier.checksum_failures,
            read_shared: self.read_shared - earlier.read_shared,
            read_exclusive_fallback: self.read_exclusive_fallback - earlier.read_exclusive_fallback,
            backoffs: self.backoffs - earlier.backoffs,
            breaker_trips: self.breaker_trips - earlier.breaker_trips,
            breaker_fast_fails: self.breaker_fast_fails - earlier.breaker_fast_fails,
            breaker_probes: self.breaker_probes - earlier.breaker_probes,
            versioned_reads: self.versioned_reads - earlier.versioned_reads,
            victim_probes: self.victim_probes - earlier.victim_probes,
            page_copies: self.page_copies - earlier.page_copies,
        }
    }
}

/// The pool's counters as relaxed atomics: the shared-lock read path, the
/// lock-free §3.3 skip path and [`BufferPool::stats`] touch them without
/// any lock. Counters only ever increase between resets, so
/// `IoStats::since` on two snapshots never underflows even while other
/// threads are counting.
#[derive(Default)]
struct AtomicIoStats {
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    evictions: AtomicU64,
    pages_skipped: AtomicU64,
    read_retries: AtomicU64,
    write_retries: AtomicU64,
    checksum_failures: AtomicU64,
    read_shared: AtomicU64,
    read_exclusive_fallback: AtomicU64,
    backoffs: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_fast_fails: AtomicU64,
    breaker_probes: AtomicU64,
    versioned_reads: AtomicU64,
    victim_probes: AtomicU64,
    page_copies: AtomicU64,
}

impl AtomicIoStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pages_skipped: self.pages_skipped.load(Ordering::Relaxed),
            read_retries: self.read_retries.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            read_shared: self.read_shared.load(Ordering::Relaxed),
            read_exclusive_fallback: self.read_exclusive_fallback.load(Ordering::Relaxed),
            backoffs: self.backoffs.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            breaker_probes: self.breaker_probes.load(Ordering::Relaxed),
            versioned_reads: self.versioned_reads.load(Ordering::Relaxed),
            victim_probes: self.victim_probes.load(Ordering::Relaxed),
            page_copies: self.page_copies.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.pages_skipped.store(0, Ordering::Relaxed);
        self.read_retries.store(0, Ordering::Relaxed);
        self.write_retries.store(0, Ordering::Relaxed);
        self.checksum_failures.store(0, Ordering::Relaxed);
        self.read_shared.store(0, Ordering::Relaxed);
        self.read_exclusive_fallback.store(0, Ordering::Relaxed);
        self.backoffs.store(0, Ordering::Relaxed);
        self.breaker_trips.store(0, Ordering::Relaxed);
        self.breaker_fast_fails.store(0, Ordering::Relaxed);
        self.breaker_probes.store(0, Ordering::Relaxed);
        self.versioned_reads.store(0, Ordering::Relaxed);
        self.victim_probes.store(0, Ordering::Relaxed);
        self.page_copies.store(0, Ordering::Relaxed);
    }
}

struct Frame {
    id: PageId,
    /// Shared with every handle [`BufferPool::page_shared`] gave out, and
    /// with pre-images and ring deltas; immutable while shared.
    page: Arc<Page>,
    dirty: bool,
    /// Atomic so a shared-lock hit can refresh the LRU stamp without
    /// upgrading to the exclusive lock. Only ever raised, except to 0 when
    /// a failed read vacates the frame.
    last_used: AtomicU64,
}

/// A min-heap of `(stamp, slot)` LRU entries.
type LruHeap = BinaryHeap<Reverse<(u64, usize)>>;

struct Inner {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    /// Exactly one entry per frame, at or below the frame's stamp (see the
    /// module docs). Rebuilt whenever the frame table is reshaped.
    lru: LruHeap,
}

impl Inner {
    /// An LRU heap holding each frame's current stamp.
    fn rebuild_lru(&mut self) {
        self.lru = self
            .frames
            .iter()
            .enumerate()
            .map(|(slot, fr)| Reverse((fr.last_used.load(Ordering::Relaxed), slot)))
            .collect();
    }
}

/// Pops the LRU victim from `lru`: the frame with the oldest stamp, ties to
/// the lowest slot. A popped entry whose stamp is stale goes back with the
/// frame's current stamp. Returns the slot and the number of entries
/// popped; the victim's entry is gone and the caller pushes the slot's next
/// one.
fn pop_victim(lru: &mut LruHeap, frames: &[Frame]) -> (usize, u64) {
    let mut probes = 0;
    loop {
        let Reverse((stamp, slot)) = lru.pop().expect("every frame has an LRU entry");
        probes += 1;
        let now = frames[slot].last_used.load(Ordering::Relaxed);
        debug_assert!(stamp <= now, "an LRU entry above its frame's stamp");
        if stamp == now {
            return (slot, probes);
        }
        lru.push(Reverse((now, slot)));
    }
}

/// The reference LRU victim: a scan of every frame for the oldest stamp
/// (the first on ties). Debug builds check each heap choice against it.
fn scan_victim(frames: &[Frame]) -> usize {
    frames
        .iter()
        .enumerate()
        .min_by_key(|(_, fr)| fr.last_used.load(Ordering::Relaxed))
        .map(|(i, _)| i)
        .expect("scan_victim on an empty frame list")
}

/// A buffer a miss may read into: `page` itself when no other handle to it
/// is held, else a fresh one in its place. The old bytes are never copied.
fn read_buffer(page: &mut Arc<Page>) -> &mut Page {
    if Arc::get_mut(page).is_none() {
        *page = Arc::new(Page::zeroed());
    }
    Arc::get_mut(page).expect("an unshared page")
}

/// A typed refusal of a transaction call the pool's state does not allow.
fn misuse(msg: &'static str) -> StorageError {
    StorageError::Io(std::io::Error::other(msg))
}

/// State of the open [`BufferPool::atomic_update`] transaction.
struct TxnState {
    /// First-touch pre-images (page handle + prior dirty flag). Rollback
    /// puts them back into their frames; until the commit moves them into
    /// the version ring, they are also what a pinned reader sees of a page
    /// the transaction dirtied. Pages with a pre-image must not reach the
    /// data disk mid-transaction.
    pre: HashMap<PageId, (Arc<Page>, bool)>,
    /// Page ids in first-dirtied order: the deterministic order their
    /// after-images are logged (and spilled images written) in.
    order: Vec<PageId>,
    /// After-images of transaction pages evicted from the cache: eviction
    /// must not write uncommitted bytes to the data disk, so they live here
    /// until re-fetched or committed.
    shadow: HashMap<PageId, Arc<Page>>,
}

/// One sealed commit's worth of pre-images: the state of every page the
/// commit dirtied, *as of* epoch `as_of` — the epoch that was current while
/// the transaction ran (the facade bumps the epoch only after a successful
/// commit). A reader pinned to epoch `e ≤ as_of` whose page was
/// untouched between `e` and `as_of` finds its epoch-`e` bytes here.
struct VersionDelta {
    as_of: u64,
    pages: HashMap<PageId, Arc<Page>>,
}

/// Bounded MVCC retention (the epoch ring): the last `retain` sealed commit
/// deltas, oldest first. The open transaction's pre-images
/// ([`TxnState::pre`]) are the newest layer. A reader pinned to any epoch
/// ≥ `floor` can reconstruct every page as of its epoch; older pins are
/// refused upstairs as `RetentionExceeded`.
struct VersionRing {
    /// The database epoch counter, shared with the facade; read at seal
    /// time (pre-bump) to stamp each delta.
    epoch: Arc<AtomicU64>,
    /// How many sealed deltas to retain (≥ 1).
    retain: usize,
    /// Sealed deltas, oldest first; `as_of` is non-decreasing.
    committed: VecDeque<VersionDelta>,
    /// Oldest epoch still servable.
    floor: u64,
}

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
pub fn current_read_epoch() -> Option<u64> {
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
/// same pool panics instead of deadlocking.
pub struct BufferPool {
    disk: Arc<dyn Disk>,
    /// The frame table. Lock order: frames → txn → ring.
    inner: RwLock<Inner>,
    capacity: usize,
    /// Monotonic access clock; atomic so shared-lock hits can advance it.
    tick: AtomicU64,
    /// I/O counters; atomic so neither the shared-lock hit path nor a stats
    /// read ever touches a lock.
    stats: AtomicIoStats,
    /// The write-ahead log, if one is attached.
    wal: Mutex<Option<Arc<Wal>>>,
    /// The open transaction, if any. Lock order: the frame lock may be held
    /// while taking this lock, never the reverse.
    txn: Mutex<Option<TxnState>>,
    /// Fast gate mirroring `txn.is_some()`: with no transaction open, hot
    /// paths pay one relaxed load and nothing else.
    txn_active: AtomicBool,
    /// Monotonic transaction ids for WAL records.
    next_txn_id: AtomicU64,
    /// Auto-checkpoint when the log exceeds this many bytes (0 = never).
    checkpoint_threshold: AtomicU64,
    /// How physical I/O faults are retried (attempts, backoff, breaker).
    retry_policy: Mutex<RetryPolicy>,
    /// Circuit breaker: open after `breaker_threshold` consecutive surfaced
    /// I/O failures; half-open probes may close it again.
    breaker_open: AtomicBool,
    /// Consecutive surfaced I/O failures (reset by any success).
    breaker_consecutive: AtomicU32,
    /// Admission ticket while open: every `breaker_probe_every`-th ticket
    /// runs as a probe, the rest fail fast.
    breaker_ticket: AtomicU64,
    /// The MVCC version ring, if enabled. Lock order: the frame lock and/or
    /// the txn lock may be held while taking this lock, never the reverse.
    ring: Mutex<Option<VersionRing>>,
    /// Fast gate mirroring `ring.is_some()`.
    ring_active: AtomicBool,
}

impl BufferPool {
    /// Creates a pool caching at most `capacity` pages of `disk`. LRU
    /// behavior and I/O counters are deterministic.
    pub fn new(disk: Arc<dyn Disk>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        Self {
            disk,
            inner: RwLock::new(Inner {
                frames: Vec::with_capacity(capacity),
                map: HashMap::new(),
                lru: BinaryHeap::with_capacity(capacity),
            }),
            capacity,
            tick: AtomicU64::new(0),
            stats: AtomicIoStats::default(),
            wal: Mutex::new(None),
            txn: Mutex::new(None),
            txn_active: AtomicBool::new(false),
            next_txn_id: AtomicU64::new(1),
            checkpoint_threshold: AtomicU64::new(DEFAULT_CHECKPOINT_THRESHOLD),
            retry_policy: Mutex::new(RetryPolicy::default()),
            breaker_open: AtomicBool::new(false),
            breaker_consecutive: AtomicU32::new(0),
            breaker_ticket: AtomicU64::new(0),
            ring: Mutex::new(None),
            ring_active: AtomicBool::new(false),
        }
    }

    /// Enables MVCC retention: from now on the pool keeps the pre-images of
    /// the last `retain` committed transactions (one sealed delta per
    /// commit, empty commits included), each stamped with the
    /// value of `epoch` — the database epoch counter — at seal time, read
    /// *before* the facade bumps it. A reader pinned with
    /// [`with_read_epoch`] to any epoch ≥ [`ring_floor`](Self::ring_floor)
    /// is served every page as of its pinned epoch; an older pin must be
    /// refused by the caller (the pool reports servability, the facade
    /// types the error).
    ///
    /// # Panics
    /// If `retain` is zero.
    pub fn enable_version_ring(&self, epoch: Arc<AtomicU64>, retain: usize) {
        assert!(retain > 0, "version ring needs retain >= 1");
        let floor = epoch.load(Ordering::SeqCst);
        *self.ring.lock() = Some(VersionRing {
            epoch,
            retain,
            committed: VecDeque::new(),
            floor,
        });
        self.ring_active.store(true, Ordering::Release);
    }

    /// Oldest epoch the version ring can still serve (0 when the ring is
    /// disabled).
    pub fn ring_floor(&self) -> u64 {
        self.ring.lock().as_ref().map(|r| r.floor).unwrap_or(0)
    }

    /// Whether a reader pinned to `epoch` can still be served whole-epoch
    /// answers. Always true with the ring disabled (a bare pool has one
    /// version of every page and no epochs to fall behind).
    pub fn epoch_servable(&self, epoch: u64) -> bool {
        match self.ring.lock().as_ref() {
            Some(r) => epoch >= r.floor,
            None => true,
        }
    }

    /// Number of sealed deltas currently retained (diagnostic hook).
    pub fn ring_depth(&self) -> usize {
        self.ring
            .lock()
            .as_ref()
            .map(|r| r.committed.len())
            .unwrap_or(0)
    }

    /// Collapses the ring after recovery: drops every retained delta and
    /// raises the floor to the current epoch, so a reader pinned before the
    /// recovery is refused (`RetentionExceeded` upstairs) instead of being
    /// served bytes whose provenance recovery just rewrote.
    pub fn ring_barrier(&self) {
        if let Some(r) = self.ring.lock().as_mut() {
            r.committed.clear();
            r.floor = r.epoch.load(Ordering::SeqCst);
        }
    }

    /// The page image a reader pinned to `pin` should see for `id`, if the
    /// pool retains one: the oldest sealed delta with `as_of ≥ pin` that
    /// contains the page holds the page's state at `pin` (the page was
    /// unmodified between `pin` and that commit, whose first touch preserved
    /// the pre-image); failing that, the open transaction's pre-image is the
    /// page's state at the current epoch. `None`: the live frame is the
    /// right answer — or the pin has fallen below the floor, which the
    /// caller's end-of-query servability check surfaces (a transiently wrong
    /// page is never exposed).
    ///
    /// The caller holds the frame lock, so no frame changes underneath; the
    /// txn lock is taken before the ring lock, so a commit moving `pre` into
    /// the ring is seen whole or not at all. With no transaction open the
    /// txn lock is skipped: a frame dirtied by a transaction keeps that
    /// transaction visible until the commit or rollback has dealt with it.
    fn ring_image(&self, id: PageId, pin: u64) -> Option<Arc<Page>> {
        let txn = self
            .txn_active
            .load(Ordering::Acquire)
            .then(|| self.txn.lock());
        let ring = self.ring.lock();
        let r = ring.as_ref().filter(|r| pin >= r.floor)?;
        let sealed = r
            .committed
            .iter()
            .filter(|d| d.as_of >= pin)
            .find_map(|d| d.pages.get(&id));
        let open = || txn.as_ref()?.as_ref()?.pre.get(&id).map(|(page, _)| page);
        sealed.or_else(open).cloned()
    }

    /// Replaces the I/O fault policy (attempt budget, backoff ladder,
    /// circuit-breaker knobs). Takes effect for subsequent physical I/O;
    /// also resets the breaker state so a newly enabled breaker starts
    /// closed.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry_policy.lock() = policy;
        self.reset_breaker();
    }

    /// The current I/O fault policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry_policy.lock()
    }

    /// Whether the circuit breaker is currently open (new I/O fails fast
    /// except for half-open probes).
    pub fn breaker_is_open(&self) -> bool {
        self.breaker_open.load(Ordering::Acquire)
    }

    /// Force-closes the circuit breaker and zeroes its consecutive-failure
    /// run. In-process recovery calls this so a repaired database does not
    /// keep refusing I/O.
    pub fn reset_breaker(&self) {
        self.breaker_open.store(false, Ordering::Release);
        self.breaker_consecutive.store(0, Ordering::Relaxed);
        self.breaker_ticket.store(0, Ordering::Relaxed);
    }

    /// Gate at the top of every physical I/O. `Ok(false)`: breaker closed
    /// (or disabled), run the full retry ladder. `Ok(true)`: breaker open
    /// but this operation is admitted as a half-open probe (single
    /// attempt). `Err(BreakerOpen)`: refused without touching the disk.
    fn breaker_admit(&self, policy: &RetryPolicy) -> Result<bool, StorageError> {
        if policy.breaker_threshold == 0 || !self.breaker_open.load(Ordering::Acquire) {
            return Ok(false);
        }
        let ticket = self.breaker_ticket.fetch_add(1, Ordering::Relaxed);
        if (ticket + 1).is_multiple_of(u64::from(policy.breaker_probe_every.max(1))) {
            self.stats.breaker_probes.fetch_add(1, Ordering::Relaxed);
            Ok(true)
        } else {
            self.stats
                .breaker_fast_fails
                .fetch_add(1, Ordering::Relaxed);
            Err(StorageError::BreakerOpen)
        }
    }

    /// Records the outcome of an admitted physical I/O for the breaker:
    /// success (`None`) closes it and zeroes the failure run; a surfaced
    /// failure extends the run and trips the breaker at the threshold.
    /// Deadline aborts are neither — they say nothing about the device.
    fn breaker_record(&self, policy: &RetryPolicy, error: Option<&StorageError>) {
        if policy.breaker_threshold == 0 {
            return;
        }
        match error {
            None => {
                self.breaker_consecutive.store(0, Ordering::Relaxed);
                self.breaker_open.store(false, Ordering::Release);
            }
            Some(StorageError::DeadlineExceeded) => {}
            Some(_) => {
                let run = self.breaker_consecutive.fetch_add(1, Ordering::Relaxed) + 1;
                if run >= policy.breaker_threshold
                    && !self.breaker_open.swap(true, Ordering::AcqRel)
                {
                    self.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
                }
            }
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
        let pin = if self.ring_active.load(Ordering::Acquire) {
            current_read_epoch()
        } else {
            None
        };
        let stats = &self.stats;
        {
            let inner = self.inner.read();
            if let Some(pin) = pin {
                if let Some(page) = self.ring_image(id, pin) {
                    stats.logical_reads.fetch_add(1, Ordering::Relaxed);
                    stats.versioned_reads.fetch_add(1, Ordering::Relaxed);
                    stats.read_shared.fetch_add(1, Ordering::Relaxed);
                    return Ok(f(&page));
                }
            }
            let scanning = SCANNING.with(Cell::get);
            if let Some(&slot) = inner.map.get(&id) {
                let frame = &inner.frames[slot];
                if !scanning {
                    let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                    frame.last_used.fetch_max(tick, Ordering::Relaxed);
                }
                stats.logical_reads.fetch_add(1, Ordering::Relaxed);
                stats.read_shared.fetch_add(1, Ordering::Relaxed);
                return Ok(f(&frame.page));
            }
            if scanning {
                // Under the shared lock, no writer can cache and dirty it.
                let page = match self.shadow_image(id) {
                    Some(page) => page,
                    None => {
                        stats.physical_reads.fetch_add(1, Ordering::Relaxed);
                        let mut page = Page::zeroed();
                        self.read_verified(id, &mut page)?;
                        Arc::new(page)
                    }
                };
                stats.logical_reads.fetch_add(1, Ordering::Relaxed);
                return Ok(f(&page));
            }
        }
        let mut inner = self.inner.write();
        // Re-check the overlay: between the shared probe and this exclusive
        // acquisition a commit may have sealed a delta covering `id`, in
        // which case the live frame is now too new for the pin.
        if let Some(pin) = pin {
            if let Some(page) = self.ring_image(id, pin) {
                stats.logical_reads.fetch_add(1, Ordering::Relaxed);
                stats.versioned_reads.fetch_add(1, Ordering::Relaxed);
                stats
                    .read_exclusive_fallback
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(f(&page));
            }
        }
        stats
            .read_exclusive_fallback
            .fetch_add(1, Ordering::Relaxed);
        let slot = self.fetch(&mut inner, id)?;
        stats.logical_reads.fetch_add(1, Ordering::Relaxed);
        Ok(f(&inner.frames[slot].page))
    }

    /// Runs `f` with exclusive access to page `id`, marking it dirty.
    /// Inside an open transaction the first mutation of each page keeps a
    /// handle to its pre-image (see [`atomic_update`](Self::atomic_update)).
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
        let slot = self.fetch(&mut inner, id)?;
        self.stats.logical_reads.fetch_add(1, Ordering::Relaxed);
        if self.txn_active.load(Ordering::Acquire) {
            if let Some(t) = self.txn.lock().as_mut() {
                if let Entry::Vacant(e) = t.pre.entry(id) {
                    let frame = &inner.frames[slot];
                    e.insert((Arc::clone(&frame.page), frame.dirty));
                    t.order.push(id);
                }
            }
        }
        let frame = &mut inner.frames[slot];
        frame.dirty = true;
        Ok(f(self.unshare(&mut frame.page)))
    }

    /// Mutable access to `page`, copying it first (and counting the copy)
    /// if another handle to it is held.
    fn unshare<'a>(&self, page: &'a mut Arc<Page>) -> &'a mut Page {
        if Arc::get_mut(page).is_none() {
            self.stats.page_copies.fetch_add(1, Ordering::Relaxed);
            *page = Arc::new(Page::clone(page));
        }
        Arc::get_mut(page).expect("an unshared page")
    }

    /// Allocates a fresh zeroed page on the disk and returns its id.
    pub fn allocate_page(&self) -> Result<PageId, StorageError> {
        self.disk.allocate_page()
    }

    /// Records that the §3.3 page-skip test rejected `n` candidates without
    /// reading their pages — one add per skipped run, however long.
    pub fn note_pages_skipped(&self, n: u64) {
        self.stats.pages_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Writes all dirty cached pages back to the disk. Pages pinned by an
    /// open transaction are skipped (their bytes are uncommitted). Every
    /// page is attempted even after a failure; the failures are aggregated
    /// into one [`StorageError::FlushFailed`], so one bad page cannot block
    /// durability of the rest.
    pub fn flush_all(&self) -> Result<(), StorageError> {
        let pinned = self.pinned_pages();
        let mut failures: Vec<(PageId, StorageError)> = Vec::new();
        let _held = Held::enter(self);
        let mut inner = self.inner.write();
        for frame in inner.frames.iter_mut() {
            if frame.dirty && !pinned.contains(&frame.id) {
                match self.write_back(frame.id, &mut frame.page) {
                    Ok(()) => frame.dirty = false,
                    Err(e) => failures.push((frame.id, e)),
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(StorageError::FlushFailed(failures))
        }
    }

    /// Drops every cached page (flushing dirty ones), so the next accesses
    /// are cold. Experiments call this between runs. Pages pinned by an open
    /// transaction stay cached; dirty pages whose write fails also stay
    /// cached (nothing is lost), with the failures aggregated into one
    /// [`StorageError::FlushFailed`].
    pub fn clear_cache(&self) -> Result<(), StorageError> {
        let pinned = self.pinned_pages();
        let mut failures: Vec<(PageId, StorageError)> = Vec::new();
        let _held = Held::enter(self);
        let mut inner = self.inner.write();
        let frames = std::mem::take(&mut inner.frames);
        let mut kept: Vec<Frame> = Vec::new();
        for mut frame in frames {
            if pinned.contains(&frame.id) {
                kept.push(frame);
                continue;
            }
            if frame.dirty {
                if let Err(e) = self.write_back(frame.id, &mut frame.page) {
                    failures.push((frame.id, e));
                    kept.push(frame);
                }
            }
        }
        inner.map.clear();
        for (slot, frame) in kept.iter().enumerate() {
            inner.map.insert(frame.id, slot);
        }
        inner.frames = kept;
        inner.rebuild_lru();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(StorageError::FlushFailed(failures))
        }
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

    /// Attaches a write-ahead log: from now on every
    /// [`atomic_update`](Self::atomic_update) commits its page after-images
    /// to `wal` (synced) before any of them can reach the data disk.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        *self.wal.lock() = Some(wal);
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        self.wal.lock().clone()
    }

    /// Sets the auto-checkpoint threshold in WAL bytes (0 disables
    /// auto-checkpointing; see [`DEFAULT_CHECKPOINT_THRESHOLD`]).
    pub fn set_checkpoint_threshold(&self, bytes: u64) {
        self.checkpoint_threshold.store(bytes, Ordering::Relaxed);
    }

    /// Whether an [`atomic_update`](Self::atomic_update) is currently open.
    pub fn in_transaction(&self) -> bool {
        self.txn_active.load(Ordering::Acquire)
    }

    /// Runs `f` as one atomic multi-page mutation.
    ///
    /// On success, the after-images of every page `f` dirtied are committed
    /// to the attached WAL (one synced log append) before returning; a crash
    /// at any later moment recovers the whole mutation. On failure the
    /// dirtied pages are rolled back to their pre-images and the error is
    /// returned — the cache and disk are exactly as before `f` ran. Calling
    /// it (or [`txn_begin`](Self::txn_begin)) from inside `f` is refused
    /// with a typed error, which `f` must propagate: transactions do not
    /// nest.
    ///
    /// Without an attached WAL this still gives all-or-nothing semantics in
    /// the cache (rollback on error), just no crash durability.
    pub fn atomic_update<R, E: From<StorageError>>(
        &self,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Result<R, E> {
        self.txn_begin()?;
        match f() {
            Ok(r) => match self.txn_commit(1) {
                Ok(()) => Ok(r),
                Err(e) => Err(E::from(e)),
            },
            Err(e) => {
                self.txn_rollback();
                Err(e)
            }
        }
    }

    /// Flushes all dirty pages, syncs the data disk, then truncates the WAL
    /// (header epoch bump). After a checkpoint the log is empty and recovery
    /// has nothing to redo. Returns an error (and does nothing) inside an
    /// open transaction: uncommitted pages cannot be flushed, and bumping
    /// the epoch would orphan committed-but-unflushed images.
    pub fn checkpoint(&self) -> Result<(), StorageError> {
        if self.in_transaction() {
            return Err(misuse("checkpoint inside an open transaction"));
        }
        let Some(wal) = self.wal() else {
            return self.flush_all();
        };
        self.flush_all()?;
        self.disk.sync()?;
        wal.checkpoint()
    }

    /// Opens the pool transaction; refused with a typed error while one is
    /// already open (transactions do not nest — the caller that owns the
    /// open one runs further mutations inside it). The closure form is
    /// [`atomic_update`](Self::atomic_update); this is public for the
    /// database facade, which commits a group-commit batch as one
    /// transaction of several logical updates, which does not fit one
    /// closure. Every successful `txn_begin` must be paired with
    /// [`txn_commit`](Self::txn_commit) or
    /// [`txn_rollback`](Self::txn_rollback).
    pub fn txn_begin(&self) -> Result<(), StorageError> {
        let mut txn = self.txn.lock();
        if txn.is_some() {
            return Err(misuse("txn_begin inside an open transaction"));
        }
        *txn = Some(TxnState {
            pre: HashMap::new(),
            order: Vec::new(),
            shadow: HashMap::new(),
        });
        self.txn_active.store(true, Ordering::Release);
        Ok(())
    }

    /// Commits the open transaction as `members` logical updates (the WAL
    /// batch record's member count; `1` for a solo update): the
    /// after-images of every page it dirtied reach the attached WAL as one
    /// synced append, then the transaction closes. A failure before the
    /// append is durable rolls the transaction back. With no transaction
    /// open it is a typed error. Public for the database facade (see
    /// [`txn_begin`](Self::txn_begin)).
    pub fn txn_commit(&self, members: u32) -> Result<(), StorageError> {
        self.txn_log_images(members)?;
        self.txn_close_durable()
    }

    /// The logging half of [`txn_commit`](Self::txn_commit). No open
    /// transaction is refused with a typed error. `members` sizes the WAL
    /// batch record. The
    /// dirtied pages' sealed images are copied (one counted page copy each)
    /// in first-dirtied order under
    /// the frame and txn locks — from the frame if resident, else from the
    /// shadow — and the transaction stays open while they are logged. A
    /// logging failure rolls the transaction back.
    fn txn_log_images(&self, members: u32) -> Result<(), StorageError> {
        let wal = self.wal();
        let images = {
            let _held = Held::enter(self);
            let inner = self.inner.read();
            let txn = self.txn.lock();
            let t = txn
                .as_ref()
                .ok_or_else(|| misuse("commit without an open transaction"))?;
            let logged: &[PageId] = if wal.is_some() { &t.order } else { &[] };
            logged
                .iter()
                .map(|&id| {
                    let page = match inner.map.get(&id) {
                        Some(&slot) => &inner.frames[slot].page,
                        None => t.shadow.get(&id).ok_or(StorageError::PageOutOfRange(id))?,
                    };
                    self.stats.page_copies.fetch_add(1, Ordering::Relaxed);
                    let mut image = Page::clone(page);
                    image.seal();
                    Ok((id, image))
                })
                .collect::<Result<Vec<_>, StorageError>>()
        };
        let logged = images.and_then(|images| match &wal {
            Some(wal) if !images.is_empty() => {
                let txn_id = self.next_txn_id.fetch_add(1, Ordering::Relaxed);
                wal.commit(txn_id, &images, members).map(|_| ())
            }
            _ => Ok(()),
        });
        if logged.is_err() {
            self.txn_rollback();
        }
        logged
    }

    /// The post-WAL half of a commit: write back spilled shadows, close the
    /// transaction and seal its pre-images into the MVCC ring — all in one
    /// critical section under the frame, txn and ring locks, so a pinned
    /// reader finds each pre-image in the open transaction or in the ring,
    /// never in neither — then report flush failures and bound the log.
    fn txn_close_durable(&self) -> Result<(), StorageError> {
        let mut failures: Vec<(PageId, StorageError)> = Vec::new();
        {
            let _held = Held::enter(self);
            // Exclusive lock: a concurrent reader must not fetch a spilled
            // page from the data disk while its committed image lands.
            let _inner = self.inner.write();
            let mut txn = self.txn.lock();
            let mut state = txn
                .take()
                .ok_or_else(|| misuse("commit without an open transaction"))?;
            self.txn_active.store(false, Ordering::Release);
            // The transaction is now durable (or no WAL is attached). Pages
            // spilled out of the cache exist nowhere else once the
            // transaction closes: write them to the data disk, in
            // first-dirtied order for determinism. A failure here is
            // reported but NOT rolled back — the commit already happened; on
            // a logged database, reopening redoes the missing pages from the
            // WAL.
            for &id in &state.order {
                if let Some(mut page) = state.shadow.remove(&id) {
                    if let Err(e) = self.write_back(id, &mut page) {
                        failures.push((id, e));
                    }
                }
            }
            // MVCC seal: move the pre-images into a sealed delta stamped
            // with the pre-commit epoch (the facade bumps it only after this
            // returns), evicting the oldest delta past the retention bound.
            // Sealing happens even if spilled-page write-back failed: the
            // commit is durable, so readers pinned to the pre-commit epoch
            // need the delta to keep answering coherently.
            if self.ring_active.load(Ordering::Acquire) {
                if let Some(r) = self.ring.lock().as_mut() {
                    let as_of = r.epoch.load(Ordering::SeqCst);
                    let pages = state.pre.into_iter().map(|(id, (p, _))| (id, p));
                    r.committed.push_back(VersionDelta {
                        as_of,
                        pages: pages.collect(),
                    });
                    while r.committed.len() > r.retain {
                        if let Some(d) = r.committed.pop_front() {
                            r.floor = d.as_of + 1;
                        }
                    }
                }
            }
        }
        if !failures.is_empty() {
            return Err(StorageError::FlushFailed(failures));
        }
        // The transaction is durable; opportunistically bound the log.
        if let Some(wal) = self.wal() {
            let threshold = self.checkpoint_threshold.load(Ordering::Relaxed);
            if threshold > 0 && wal.log_bytes() >= threshold {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Rolls back the open transaction: every pre-image handle (with its
    /// dirty flag) goes back into its frame, and the transaction is dropped
    /// — all under the exclusive frame lock, so a pinned reader is served
    /// the pre-images until the frames hold them again. Public for the
    /// database facade (see [`txn_begin`](Self::txn_begin)).
    pub fn txn_rollback(&self) {
        let _held = Held::enter(self);
        let mut inner = self.inner.write();
        let mut txn = self.txn.lock();
        let mut state = txn.take().expect("rollback without an open transaction");
        for id in &state.order {
            let (mut image, was_dirty) = state.pre.remove(id).expect("a pre-image per page");
            if let Some(&slot) = inner.map.get(id) {
                let frame = &mut inner.frames[slot];
                frame.page = image;
                frame.dirty = was_dirty;
            } else if was_dirty {
                // The page was spilled out of the cache and its pre-image
                // was dirty (never durable): restore it straight to the
                // disk, best-effort — on a logged database the WAL still
                // holds the committed image a failure would lose.
                let _ = self.write_back(*id, &mut image);
            }
        }
        self.txn_active.store(false, Ordering::Release);
    }

    /// Pages captured by the open transaction (empty set when none is
    /// open). Their cached bytes are uncommitted: flushes must skip them.
    fn pinned_pages(&self) -> HashSet<PageId> {
        if !self.txn_active.load(Ordering::Acquire) {
            return HashSet::new();
        }
        self.txn
            .lock()
            .as_ref()
            .map(|t| t.pre.keys().copied().collect())
            .unwrap_or_default()
    }

    /// If `victim` belongs to the open transaction, moves a handle to its
    /// uncommitted bytes into the transaction shadow and reports `true` — the caller
    /// then evicts the frame *without* writing it (WAL-before-data: no
    /// uncommitted byte may reach the data disk).
    fn spill_to_shadow(&self, victim: &Frame) -> bool {
        if !self.txn_active.load(Ordering::Acquire) {
            return false;
        }
        let mut txn = self.txn.lock();
        match txn.as_mut() {
            Some(t) if t.pre.contains_key(&victim.id) => {
                t.shadow.insert(victim.id, Arc::clone(&victim.page));
                true
            }
            _ => false,
        }
    }

    /// The page's latest bytes if the open transaction's shadow holds them
    /// (spilled by an earlier eviction). Caller holds the frame lock.
    fn shadow_image(&self, id: PageId) -> Option<Arc<Page>> {
        if !self.txn_active.load(Ordering::Acquire) {
            return None;
        }
        self.txn
            .lock()
            .as_ref()
            .and_then(|t| t.shadow.get(&id).cloned())
    }

    /// Ensures `id` is resident; returns its frame slot. Caller holds the
    /// exclusive frame lock (`inner`).
    fn fetch(&self, inner: &mut Inner, id: PageId) -> Result<usize, StorageError> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(&slot) = inner.map.get(&id) {
            inner.frames[slot]
                .last_used
                .fetch_max(tick, Ordering::Relaxed);
            return Ok(slot);
        }
        // Reload from the shadow, not the disk, if it holds the page. Peek
        // only — the entry is removed after a frame slot is secured, so a
        // failed victim write-back below cannot cost the transaction its
        // latest image of this page.
        let shadow_page = self.shadow_image(id);
        if shadow_page.is_none() {
            self.stats.physical_reads.fetch_add(1, Ordering::Relaxed);
        }
        let slot = if inner.frames.len() < self.capacity {
            inner.frames.push(Frame {
                id,
                page: Arc::new(Page::zeroed()),
                dirty: false,
                last_used: AtomicU64::new(tick),
            });
            inner.frames.len() - 1
        } else {
            let (slot, probes) = pop_victim(&mut inner.lru, &inner.frames);
            self.stats
                .victim_probes
                .fetch_add(probes, Ordering::Relaxed);
            debug_assert_eq!(
                slot,
                scan_victim(&inner.frames),
                "the LRU heap disagrees with the scan"
            );
            let victim = &mut inner.frames[slot];
            if victim.dirty && !self.spill_to_shadow(victim) {
                if let Err(e) = self.write_back(victim.id, &mut victim.page) {
                    // The victim stays resident: its entry goes back.
                    let stamp = victim.last_used.load(Ordering::Relaxed);
                    inner.lru.push(Reverse((stamp, slot)));
                    return Err(e);
                }
            }
            let old_id = inner.frames[slot].id;
            inner.map.remove(&old_id);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            let frame = &mut inner.frames[slot];
            frame.id = id;
            frame.dirty = false;
            frame.last_used.store(tick, Ordering::Relaxed);
            slot
        };
        if let Some(page) = shadow_page {
            if let Some(t) = self.txn.lock().as_mut() {
                t.shadow.remove(&id);
            }
            let frame = &mut inner.frames[slot];
            frame.page = page;
            frame.dirty = true;
            inner.map.insert(id, slot);
            inner.lru.push(Reverse((tick, slot)));
            return Ok(slot);
        }
        let frame = &mut inner.frames[slot];
        if let Err(e) = self.read_verified(id, read_buffer(&mut frame.page)) {
            // The frame holds a partial or unverified read: mark it vacant
            // so no later victim write or map hit can expose its bytes.
            frame.id = PageId::INVALID;
            frame.dirty = false;
            frame.last_used.store(0, Ordering::Relaxed);
            inner.lru.push(Reverse((0, slot)));
            return Err(e);
        }
        inner.map.insert(id, slot);
        inner.lru.push(Reverse((tick, slot)));
        Ok(slot)
    }

    /// Sleeps the policy's backoff for `attempt`, bounded by the thread's
    /// I/O deadline. Returns `Err(DeadlineExceeded)` instead of sleeping (or
    /// after waking) once the deadline is spent.
    fn backoff_pause(&self, policy: &RetryPolicy, attempt: u32) -> Result<(), StorageError> {
        let deadline = current_io_deadline();
        if let Some(d) = &deadline {
            d.check()?;
        }
        let pause = policy.backoff_for(attempt);
        if !pause.is_zero() {
            self.stats.backoffs.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(pause);
            if let Some(d) = &deadline {
                d.check()?;
            }
        }
        Ok(())
    }

    /// One verified physical read: retries transient errors and checksum
    /// mismatches per the pool's [`RetryPolicy`] (exponential backoff
    /// between attempts, deadline-checked), surfacing persistent mismatches
    /// as [`StorageError::Corrupt`]. Runs through the circuit breaker: while
    /// open, non-probe reads fail fast with [`StorageError::BreakerOpen`].
    fn read_verified(&self, id: PageId, page: &mut Page) -> Result<(), StorageError> {
        let policy = self.retry_policy();
        let probe = self.breaker_admit(&policy)?;
        let result = self.read_attempts(id, page, &policy, probe);
        self.breaker_record(&policy, result.as_ref().err());
        result
    }

    /// The retry ladder of [`read_verified`](Self::read_verified).
    fn read_attempts(
        &self,
        id: PageId,
        page: &mut Page,
        policy: &RetryPolicy,
        probe: bool,
    ) -> Result<(), StorageError> {
        let max_attempts = if probe { 1 } else { policy.max_attempts.max(1) };
        let mut mismatch: Option<(u32, u32)> = None;
        for attempt in 1..=max_attempts {
            match self.disk.read_page(id, page) {
                Ok(()) => match page.verify_checksum() {
                    Ok(()) => return Ok(()),
                    Err(m) => {
                        // Could be a transient bus glitch: re-read.
                        self.stats.checksum_failures.fetch_add(1, Ordering::Relaxed);
                        mismatch = Some(m);
                    }
                },
                Err(e) if !e.is_transient() => return Err(e),
                Err(_) => {} // transient: retry
            }
            if attempt < max_attempts {
                self.stats.read_retries.fetch_add(1, Ordering::Relaxed);
                self.backoff_pause(policy, attempt)?;
            }
        }
        Err(match mismatch {
            Some((expected, found)) => StorageError::Corrupt {
                page: id,
                expected,
                found,
            },
            None => StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("page {id}: transient read error persisted after {max_attempts} attempts"),
            )),
        })
    }

    /// One durable physical write, counted in `physical_writes` when it
    /// lands: seals the trailer (copying the page first only if its stale
    /// trailer must change while a handle to it is held) and retries
    /// transient errors per the pool's [`RetryPolicy`], with backoff and
    /// breaker admission as for reads.
    fn write_back(&self, id: PageId, page: &mut Arc<Page>) -> Result<(), StorageError> {
        let crc = page.compute_checksum();
        if page.stored_checksum() != crc {
            self.unshare(page).set_checksum(crc);
        }
        let policy = self.retry_policy();
        let probe = self.breaker_admit(&policy)?;
        let result = self.write_attempts(id, page, &policy, probe);
        self.breaker_record(&policy, result.as_ref().err());
        if result.is_ok() {
            self.stats.physical_writes.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// The retry ladder of [`write_back`](Self::write_back).
    fn write_attempts(
        &self,
        id: PageId,
        page: &Page,
        policy: &RetryPolicy,
        probe: bool,
    ) -> Result<(), StorageError> {
        let max_attempts = if probe { 1 } else { policy.max_attempts.max(1) };
        let mut attempt = 1;
        loop {
            match self.disk.write_page(id, page) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < max_attempts => {
                    self.stats.write_retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff_pause(policy, attempt)?;
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drops every cached frame **without writing anything back** and
    /// abandons any open transaction (pre-images and shadow included), then
    /// force-closes the circuit breaker.
    ///
    /// For in-process recovery only: the caller is about to redo the
    /// committed WAL state onto the data disk and rebuild its in-memory
    /// structures from those bytes, so whatever the cache holds — possibly
    /// pages of a failed or half-rolled-back update — must not survive.
    /// Not a durability operation: any dirty byte not covered by the WAL is
    /// deliberately discarded.
    pub fn discard_cache_and_txn(&self) {
        {
            let mut txn = self.txn.lock();
            *txn = None;
            self.txn_active.store(false, Ordering::Release);
        }
        {
            let _held = Held::enter(self);
            let mut inner = self.inner.write();
            inner.frames.clear();
            inner.map.clear();
            inner.lru.clear();
        }
        self.reset_breaker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(capacity: usize) -> (BufferPool, Vec<PageId>) {
        let disk = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..8).map(|_| disk.allocate_page().unwrap()).collect();
        (BufferPool::new(disk, capacity), ids)
    }

    /// A pool over 32 pages.
    fn wide(capacity: usize) -> (BufferPool, Vec<PageId>) {
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
    fn lru_eviction_writes_dirty_pages() {
        let (pool, ids) = pool(2);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 7)).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap(); // evicts ids[0], dirty
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.physical_writes, 1);
        // Value survived the eviction round-trip.
        let v = pool.with_page(ids[0], |p| p.get_u32(0)).unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn flush_and_clear() {
        let (pool, ids) = pool(4);
        pool.with_page_mut(ids[3], |p| p.put_u64(8, 99)).unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().physical_writes, 1);
        pool.clear_cache().unwrap();
        let before = pool.stats();
        let v = pool.with_page(ids[3], |p| p.get_u64(8)).unwrap();
        assert_eq!(v, 99);
        assert_eq!(pool.stats().physical_reads, before.physical_reads + 1);
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

    fn frames_stamped(stamps: &[u64]) -> Vec<Frame> {
        (0..stamps.len())
            .map(|i| Frame {
                id: PageId(i as u32),
                page: Arc::new(Page::zeroed()),
                dirty: false,
                last_used: AtomicU64::new(stamps[i]),
            })
            .collect()
    }

    #[test]
    fn victim_choice_picks_least_recently_used() {
        for stamps in [&[5, 2, 9][..], &[1], &[3, 3], &[0, 4, 0]] {
            let frames = frames_stamped(stamps);
            let mut inner = Inner {
                frames,
                map: HashMap::new(),
                lru: LruHeap::new(),
            };
            inner.rebuild_lru();
            let scan = scan_victim(&inner.frames);
            // Ties break toward the lowest slot (stable min).
            let expect = (0..stamps.len()).min_by_key(|&i| stamps[i]).unwrap();
            assert_eq!(scan, expect);
            assert_eq!(pop_victim(&mut inner.lru, &inner.frames), (expect, 1));
        }
        // A stale entry (its frame was hit since) is re-pushed, not chosen.
        let frames = frames_stamped(&[1, 2, 3]);
        let mut lru = LruHeap::new();
        for (slot, stamp) in [(0, 1), (1, 2), (2, 3)] {
            lru.push(Reverse((stamp, slot)));
        }
        frames[0].last_used.store(7, Ordering::Relaxed);
        assert_eq!(scan_victim(&frames), 1);
        assert_eq!(pop_victim(&mut lru, &frames), (1, 2));
        assert_eq!(
            lru.len(),
            2,
            "the stale entry went back, the victim's did not"
        );
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
    fn shared_hits_keep_lru_order() {
        // A shared-lock hit must still refresh the LRU stamp: touch ids[0]
        // read-only, then fault a new page — the victim must be ids[1].
        let (pool, ids) = pool(2);
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[0], |_| ()).unwrap(); // shared hit
        pool.with_page(ids[2], |_| ()).unwrap(); // evicts ids[1]
        let before = pool.stats();
        pool.with_page(ids[0], |_| ()).unwrap();
        let d = pool.stats().since(&before);
        assert_eq!(d.physical_reads, 0, "ids[0] must have survived");
    }

    #[test]
    fn a_hit_never_moves_a_stamp_backwards() {
        // Two readers hit one frame: the second takes the later tick and
        // stores it first. The first reader's older tick must not win.
        let (pool, ids) = pool(2);
        pool.with_page(ids[0], |_| ()).unwrap();
        let stamp = |pool: &BufferPool| {
            pool.inner.read().frames[0]
                .last_used
                .load(Ordering::Relaxed)
        };
        let later = pool.tick.load(Ordering::Relaxed) + 100;
        pool.inner.read().frames[0]
            .last_used
            .store(later, Ordering::Relaxed);
        pool.with_page(ids[0], |_| ()).unwrap(); // shared hit, older tick
        assert_eq!(stamp(&pool), later);
        pool.with_page_mut(ids[0], |_| ()).unwrap(); // exclusive hit
        assert_eq!(stamp(&pool), later);
        assert!(assert_lru_agrees(&pool));
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

    #[test]
    fn new_pool_reserves_full_capacity() {
        // The frame vector must never reallocate mid-run: the pool reserves
        // its full capacity up front (frames are ~40 bytes; pages
        // themselves are boxed).
        let disk = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..2000).map(|_| disk.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(disk, 2000);
        for &id in &ids {
            pool.with_page(id, |_| ()).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.physical_reads, 2000);
        assert_eq!(s.evictions, 0, "capacity 2000 must hold 2000 pages");
    }

    #[test]
    fn small_pool_roundtrips_writes() {
        let (pool, ids) = wide(8);
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| p.put_u32(0, i as u32)).unwrap();
        }
        // 32 dirty pages through 8 frames forces evictions.
        for (i, &id) in ids.iter().enumerate() {
            let v = pool.with_page(id, |p| p.get_u32(0)).unwrap();
            assert_eq!(v, i as u32);
        }
        assert!(pool.stats().evictions > 0);
    }

    #[test]
    fn transient_read_errors_are_retried() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..16).map(|_| mem.allocate_page().unwrap()).collect();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 5,
                // Low enough that this seed never fails 4 times in a row
                // (exhaustion has its own test below).
                transient_read_error: 0.15,
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty.clone(), 4);
        // Transient errors fire on ~15% of raw reads, but every logical
        // access must still succeed within the retry budget.
        for round in 0..4 {
            for &id in &ids {
                pool.with_page(id, |_| ()).unwrap();
            }
            if round < 3 {
                pool.clear_cache().unwrap();
            }
        }
        let s = pool.stats();
        let injected = faulty
            .stats()
            .transient_read_errors
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(injected > 0, "p=0.4 over 64 cold reads must fire");
        assert_eq!(
            s.read_retries, injected,
            "every injected error costs one retry"
        );
        assert_eq!(s.checksum_failures, 0);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let id = mem.allocate_page().unwrap();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 1,
                transient_read_error: 1.0, // every attempt fails
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty.clone(), 4);
        let err = pool.with_page(id, |_| ()).unwrap_err();
        assert!(err.is_transient());
        let s = pool.stats();
        assert_eq!(s.read_retries, u64::from(MAX_IO_ATTEMPTS - 1));
        assert_eq!(
            faulty
                .stats()
                .transient_read_errors
                .load(std::sync::atomic::Ordering::Relaxed),
            u64::from(MAX_IO_ATTEMPTS)
        );
    }

    #[test]
    fn corrupt_page_surfaces_typed_error_and_is_not_cached() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..64).map(|_| mem.allocate_page().unwrap()).collect();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 9,
                sticky_bit_flip: 0.15,
                ..Default::default()
            },
        ));
        // Seal real content onto every page first, with faults off.
        faulty.set_armed(false);
        let pool = BufferPool::new(faulty.clone(), 8);
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| p.put_u64(0, i as u64)).unwrap();
        }
        pool.clear_cache().unwrap();
        faulty.set_armed(true);

        let bad = faulty.sticky_corrupt_pages();
        assert!(!bad.is_empty());
        for &id in &ids {
            let res = pool.with_page(id, |p| p.get_u64(0));
            if bad.contains(&id) {
                match res {
                    Err(StorageError::Corrupt {
                        page,
                        expected,
                        found,
                    }) => {
                        assert_eq!(page, id);
                        assert_ne!(expected, found);
                    }
                    other => panic!("expected Corrupt for {id}, got {other:?}"),
                }
                // Still corrupt on the next access: the page was not cached.
                assert!(matches!(
                    pool.with_page(id, |_| ()),
                    Err(StorageError::Corrupt { .. })
                ));
            } else {
                res.unwrap();
            }
        }
        assert!(pool.stats().checksum_failures >= bad.len() as u64);
    }

    #[test]
    fn evicted_dirty_pages_are_sealed() {
        let (pool, ids) = pool(2);
        pool.with_page_mut(ids[0], |p| p.put_u64(0, 1234)).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap(); // evicts ids[0]
                                                 // Read the raw page straight off the disk: the trailer must hold
                                                 // the payload CRC, not zeros.
        let mut raw = Page::zeroed();
        pool.disk().read_page(ids[0], &mut raw).unwrap();
        assert_eq!(raw.verify_checksum(), Ok(()));
        assert_ne!(raw.stored_checksum(), 0);
    }

    #[test]
    fn atomic_update_rolls_back_on_error() {
        let (pool, ids) = pool(4);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 1)).unwrap();
        pool.flush_all().unwrap();
        let err: Result<(), StorageError> = pool.atomic_update(|| {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 99))?;
            pool.with_page_mut(ids[1], |p| p.put_u32(0, 50))?;
            Err(StorageError::PageOutOfRange(PageId(77)))
        });
        assert!(err.is_err());
        assert!(!pool.in_transaction());
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 1);
        assert_eq!(pool.with_page(ids[1], |p| p.get_u32(0)).unwrap(), 0);
        // ids[0] was clean pre-txn (flushed): rollback restored that too.
        pool.clear_cache().unwrap();
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 1);
    }

    #[test]
    fn atomic_update_commits_to_wal_before_data() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..4).map(|_| data.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(data.clone(), 8);
        pool.attach_wal(Arc::new(Wal::open(log.clone()).unwrap()));
        pool.atomic_update(|| -> Result<(), StorageError> {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 7))?;
            pool.with_page_mut(ids[2], |p| p.put_u32(0, 8))
        })
        .unwrap();
        // The data disk has NOT been written (pages are lazily flushed)...
        let mut raw = Page::zeroed();
        data.read_page(ids[0], &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 0);
        // ...but the WAL has the whole transaction: redo recovers it.
        let wal2 = Wal::open(log).unwrap();
        let report = wal2.recover_onto(&*data).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.pages_redone, 2);
        data.read_page(ids[0], &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 7);
        assert_eq!(raw.verify_checksum(), Ok(()), "WAL images are sealed");
        data.read_page(ids[2], &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 8);
    }

    #[test]
    fn txn_begin_on_an_open_transaction_is_a_typed_error() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..4).map(|_| data.allocate_page().unwrap()).collect();
        let wal = Arc::new(Wal::open(log).unwrap());
        let pool = BufferPool::new(data, 8);
        pool.attach_wal(wal.clone());
        pool.atomic_update(|| -> Result<(), StorageError> {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 1))?;
            // Neither entry point nests; the refusal leaves the open
            // transaction exactly as it was.
            assert!(matches!(pool.txn_begin(), Err(StorageError::Io(_))));
            let inner: Result<(), StorageError> =
                pool.atomic_update(|| pool.with_page_mut(ids[1], |p| p.put_u32(0, 2)));
            assert!(matches!(inner, Err(StorageError::Io(_))));
            assert!(pool.in_transaction());
            pool.with_page_mut(ids[3], |p| p.put_u32(0, 3))
        })
        .unwrap();
        assert!(!pool.in_transaction());
        assert_eq!(wal.stats().commits, 1);
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 1);
        assert_eq!(pool.with_page(ids[1], |p| p.get_u32(0)).unwrap(), 0);
        assert_eq!(pool.with_page(ids[3], |p| p.get_u32(0)).unwrap(), 3);
        // A closed transaction can be followed by a fresh one.
        pool.txn_begin().unwrap();
        pool.txn_rollback();
    }

    #[test]
    fn closing_calls_without_a_transaction_are_typed_errors() {
        let (pool, ids) = pool(4);
        assert!(matches!(pool.txn_commit(1), Err(StorageError::Io(_))));
        // The refusal left nothing behind: the pool still commits.
        assert!(!pool.in_transaction());
        pool.atomic_update(|| pool.with_page_mut(ids[0], |p| p.put_u32(0, 3)))
            .unwrap();
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 3);
    }

    #[test]
    fn transaction_larger_than_the_pool_spills_and_commits() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..12).map(|_| data.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(data.clone(), 2); // two frames only
        pool.attach_wal(Arc::new(Wal::open(log).unwrap()));
        pool.atomic_update(|| -> Result<(), StorageError> {
            for (i, &id) in ids.iter().enumerate() {
                pool.with_page_mut(id, |p| p.put_u32(0, i as u32 + 1))?;
            }
            // Mid-transaction, no uncommitted byte has reached the disk:
            // evicted transaction pages went to the shadow, not the disk.
            let mut raw = Page::zeroed();
            data.read_page(ids[0], &mut raw).unwrap();
            assert_eq!(raw.get_u32(0), 0);
            // Revisiting a spilled page serves its bytes from the shadow.
            pool.with_page(ids[0], |p| assert_eq!(p.get_u32(0), 1))?;
            Ok(())
        })
        .unwrap();
        // Commit pushed the spilled after-images to the data disk; every
        // page reads back, through the pool and raw.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.with_page(id, |p| p.get_u32(0)).unwrap(), i as u32 + 1);
        }
    }

    #[test]
    fn transaction_larger_than_the_pool_rolls_back() {
        let (pool, ids) = pool(2);
        for &id in &ids {
            pool.with_page_mut(id, |p| p.put_u32(0, 7)).unwrap();
        }
        pool.flush_all().unwrap();
        let res: Result<(), StorageError> = pool.atomic_update(|| {
            for &id in &ids {
                pool.with_page_mut(id, |p| p.put_u32(0, 99))?;
            }
            Err(StorageError::PageOutOfRange(PageId(1234)))
        });
        assert!(res.is_err());
        assert!(!pool.in_transaction());
        // Spilled and resident pages alike are back at their pre-images.
        pool.clear_cache().unwrap();
        for &id in &ids {
            assert_eq!(pool.with_page(id, |p| p.get_u32(0)).unwrap(), 7);
        }
    }

    /// A disk whose writes fail while `armed` is set.
    struct ArmedFailDisk {
        inner: Arc<dyn Disk>,
        armed: AtomicBool,
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
    fn failed_victim_write_back_preserves_spilled_shadow() {
        // Refetching a spilled transaction page must not drop its shadow
        // image when the eviction making room for it fails partway.
        let disk = Arc::new(ArmedFailDisk {
            inner: Arc::new(MemDisk::new()),
            armed: AtomicBool::new(false),
        });
        let ids: Vec<PageId> = (0..4)
            .map(|_| disk.inner.allocate_page().unwrap())
            .collect();
        let (d, p1, p2, p3) = (ids[0], ids[1], ids[2], ids[3]);
        let pool = BufferPool::new(disk.clone(), 3);
        // A page dirtied before the transaction: the victim whose write-back
        // is made to fail.
        pool.with_page_mut(d, |p| p.put_u32(0, 2)).unwrap();
        pool.atomic_update(|| -> Result<(), StorageError> {
            pool.with_page_mut(p1, |p| p.put_u32(0, 11))?;
            pool.with_page(d, |_| ())?; // keep `d` more recent than p1
            pool.with_page_mut(p2, |p| p.put_u32(0, 22))?;
            // Capacity 3: faulting p3 evicts LRU p1 into the shadow.
            pool.with_page_mut(p3, |p| p.put_u32(0, 33))?;
            // Refetching p1 picks dirty non-transaction `d` as the victim;
            // its write-back fails, so the fetch fails...
            disk.armed.store(true, Ordering::SeqCst);
            assert!(pool.with_page(p1, |p| p.get_u32(0)).is_err());
            disk.armed.store(false, Ordering::SeqCst);
            // ...but the shadow still holds p1's transaction bytes.
            let v = pool.with_page(p1, |p| p.get_u32(0))?;
            assert_eq!(v, 11, "spilled image must survive the failed eviction");
            Ok(())
        })
        .unwrap();
        pool.flush_all().unwrap();
        let mut raw = Page::zeroed();
        disk.inner.read_page(p1, &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 11);
    }

    #[test]
    fn flush_all_attempts_every_page_and_aggregates() {
        use crate::fault::{CrashDisk, CrashState};
        let mem = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..6).map(|_| mem.allocate_page().unwrap()).collect();
        // Allow exactly 2 writes, no tear: the remaining dirty pages fail.
        let state = CrashState::new(2, false, 0);
        let pool = BufferPool::new(Arc::new(CrashDisk::new(mem, state)), 8);
        for &id in &ids {
            pool.with_page_mut(id, |p| p.put_u32(0, 5)).unwrap();
        }
        match pool.flush_all() {
            Err(StorageError::FlushFailed(failures)) => {
                assert_eq!(failures.len(), 4, "2 of 6 writes succeeded");
            }
            other => panic!("expected FlushFailed, got {other:?}"),
        }
        assert_eq!(pool.stats().physical_writes, 2);
    }

    #[test]
    fn clear_cache_keeps_unflushed_dirty_pages() {
        use crate::fault::{CrashDisk, CrashState};
        let mem = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..4).map(|_| mem.allocate_page().unwrap()).collect();
        let state = CrashState::new(1, false, 0);
        let pool = BufferPool::new(Arc::new(CrashDisk::new(mem.clone(), state)), 8);
        for &id in &ids {
            pool.with_page_mut(id, |p| p.put_u32(0, 9)).unwrap();
        }
        assert!(matches!(
            pool.clear_cache(),
            Err(StorageError::FlushFailed(f)) if f.len() == 3
        ));
        // The one flushed page reached the substrate; the three unflushed
        // pages are still cached with their dirty bytes (nothing was lost).
        let mut raw = Page::zeroed();
        mem.read_page(ids[0], &mut raw).unwrap();
        assert_eq!(raw.get_u32(0), 9);
        for &id in &ids[1..] {
            assert_eq!(pool.with_page(id, |p| p.get_u32(0)).unwrap(), 9);
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
    fn backoff_pauses_are_counted() {
        use crate::fault::{FaultConfig, FaultDisk};
        use std::time::Duration;
        let mem = Arc::new(MemDisk::new());
        let id = mem.allocate_page().unwrap();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 3,
                transient_read_error: 1.0,
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty, 4);
        pool.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            backoff_start: Duration::from_micros(1),
            ..RetryPolicy::default()
        });
        let err = pool.with_page(id, |_| ()).unwrap_err();
        assert!(err.is_transient());
        let s = pool.stats();
        assert_eq!(s.read_retries, 1, "2 attempts = 1 retry");
        assert_eq!(s.backoffs, 1, "one pause between the two attempts");
    }

    #[test]
    fn breaker_trips_fast_fails_probes_and_recloses() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let id = mem.allocate_page().unwrap();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 11,
                permanent_read_failure: 1.0, // every armed read fails hard
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty.clone(), 4);
        pool.set_retry_policy(RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 2,
            breaker_probe_every: 4,
            ..RetryPolicy::default()
        });

        // Two consecutive permanent failures trip the breaker.
        assert!(pool.with_page(id, |_| ()).is_err());
        assert!(!pool.breaker_is_open());
        assert!(pool.with_page(id, |_| ()).is_err());
        assert!(pool.breaker_is_open());
        assert_eq!(pool.stats().breaker_trips, 1);

        // While open: tickets 1–3 fail fast, ticket 4 probes (still faulty).
        for _ in 0..3 {
            assert!(matches!(
                pool.with_page(id, |_| ()),
                Err(StorageError::BreakerOpen)
            ));
        }
        assert!(matches!(
            pool.with_page(id, |_| ()),
            Err(StorageError::Io(_))
        ));
        assert!(pool.breaker_is_open(), "failed probe keeps it open");

        // Device heals: the next admitted probe closes the breaker.
        faulty.set_armed(false);
        let mut probe_closed = false;
        for _ in 0..4 {
            match pool.with_page(id, |p| p.get_u32(0)) {
                Ok(_) => {
                    probe_closed = true;
                    break;
                }
                Err(StorageError::BreakerOpen) => {}
                Err(e) => panic!("unexpected error while healing: {e}"),
            }
        }
        assert!(probe_closed, "a successful probe must close the breaker");
        assert!(!pool.breaker_is_open());
        pool.clear_cache().unwrap();
        pool.with_page(id, |_| ()).unwrap();

        let s = pool.stats();
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.breaker_probes, 2, "one failed + one successful probe");
        assert_eq!(s.breaker_fast_fails, 6);
    }

    #[test]
    fn deadline_aborts_the_retry_ladder_without_tripping_the_breaker() {
        use crate::fault::{FaultConfig, FaultDisk};
        use crate::retry::{with_io_deadline, Deadline};
        use std::time::Duration;
        let mem = Arc::new(MemDisk::new());
        let id = mem.allocate_page().unwrap();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 4,
                transient_read_error: 1.0,
                ..Default::default()
            },
        ));
        let pool = BufferPool::new(faulty, 4);
        pool.set_retry_policy(RetryPolicy {
            breaker_threshold: 1,
            ..RetryPolicy::default()
        });
        let spent = Deadline::after(Duration::ZERO);
        let err = with_io_deadline(&spent, || pool.with_page(id, |_| ())).unwrap_err();
        assert!(matches!(err, StorageError::DeadlineExceeded));
        assert!(
            !pool.breaker_is_open(),
            "a deadline abort says nothing about the device"
        );
        // Without the deadline, the same ladder runs to exhaustion.
        let err = pool.with_page(id, |_| ()).unwrap_err();
        assert!(err.is_transient());
        assert!(pool.breaker_is_open(), "a real exhaustion does trip it");
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
    fn commit_and_bump<E>(
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
    fn ring_serves_every_retained_epoch_its_own_pre_image() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 4);
        // Epoch 0 state: ids[0] untouched (zero). Commit 1 writes 11,
        // commit 2 writes 22; ids[1] changes only in commit 2.
        commit_and_bump::<StorageError>(&pool, &epoch, || {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 11))
        });
        commit_and_bump::<StorageError>(&pool, &epoch, || {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 22))?;
            pool.with_page_mut(ids[1], |p| p.put_u32(0, 7))
        });
        let read = |pin: u64, id: PageId| {
            with_read_epoch(pin, || pool.with_page(id, |p| p.get_u32(0)).unwrap())
        };
        // Every retained epoch answers with its own state of ids[0].
        assert_eq!(read(0, ids[0]), 0, "epoch 0 pre-dates both commits");
        assert_eq!(read(1, ids[0]), 11);
        assert_eq!(read(2, ids[0]), 22, "current epoch reads the live frame");
        // A page untouched between the pin and now is served live.
        assert_eq!(read(0, ids[1]), 0);
        assert_eq!(read(1, ids[1]), 0);
        assert_eq!(read(2, ids[1]), 7);
        // Unpinned reads never consult the ring.
        assert_eq!(pool.with_page(ids[0], |p| p.get_u32(0)).unwrap(), 22);
        assert!(pool.stats().versioned_reads > 0);
        assert_eq!(pool.ring_depth(), 2);
        assert!(pool.epoch_servable(0));
    }

    #[test]
    fn ring_evicts_beyond_retain_and_raises_the_floor() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 1);
        for v in 1..=3u32 {
            commit_and_bump::<StorageError>(&pool, &epoch, || {
                pool.with_page_mut(ids[0], |p| p.put_u32(0, v))
            });
        }
        // Retain 1 keeps the last two epochs (2 and 3) servable.
        assert_eq!(pool.ring_floor(), 2);
        assert!(!pool.epoch_servable(0));
        assert!(!pool.epoch_servable(1));
        assert!(pool.epoch_servable(2));
        assert!(pool.epoch_servable(3));
        assert_eq!(
            with_read_epoch(2, || pool.with_page(ids[0], |p| p.get_u32(0)).unwrap()),
            2
        );
    }

    #[test]
    fn empty_commits_also_seal_and_advance_the_floor() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 1);
        commit_and_bump::<StorageError>(&pool, &epoch, || {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 1))
        });
        // A commit that dirties nothing still seals an (empty) delta, so
        // the floor advances uniformly.
        commit_and_bump::<StorageError>(&pool, &epoch, || Ok(()));
        assert_eq!(pool.ring_floor(), 1);
        assert!(!pool.epoch_servable(0));
    }

    #[test]
    fn ring_barrier_collapses_the_window_to_now() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 4);
        for v in 1..=2u32 {
            commit_and_bump::<StorageError>(&pool, &epoch, || {
                pool.with_page_mut(ids[0], |p| p.put_u32(0, v))
            });
        }
        assert!(pool.epoch_servable(0));
        pool.ring_barrier();
        assert_eq!(pool.ring_depth(), 0);
        assert_eq!(pool.ring_floor(), 2);
        assert!(!pool.epoch_servable(1));
        assert!(pool.epoch_servable(2));
    }

    #[test]
    fn rolled_back_txn_leaves_no_ring_residue() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 4);
        let err: Result<(), StorageError> = pool.atomic_update(|| {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 99))?;
            Err(StorageError::Io(std::io::Error::other("abort")))
        });
        assert!(err.is_err());
        // No delta sealed, no open capture left behind; the next commit
        // starts from a clean slate and epoch 0 still reads the original.
        assert_eq!(pool.ring_depth(), 0);
        commit_and_bump::<StorageError>(&pool, &epoch, || {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 1))
        });
        assert_eq!(
            with_read_epoch(0, || pool.with_page(ids[0], |p| p.get_u32(0)).unwrap()),
            0
        );
    }

    #[test]
    fn the_commit_member_count_sizes_the_wal_batch_record() {
        use crate::wal::Wal;
        let data = Arc::new(MemDisk::new());
        let log: Arc<MemDisk> = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..4).map(|_| data.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(data, 8);
        let wal = Arc::new(Wal::open(log).unwrap());
        pool.attach_wal(wal.clone());
        pool.txn_begin().unwrap();
        for (i, id) in ids.iter().take(3).enumerate() {
            pool.with_page_mut(*id, |p| p.put_u32(0, i as u32 + 1))
                .unwrap();
        }
        pool.txn_commit(3).unwrap();
        pool.atomic_update(|| pool.with_page_mut(ids[3], |p| p.put_u32(0, 9)))
            .unwrap();
        let s = wal.stats();
        assert_eq!(s.commits, 2);
        assert_eq!(s.batch_commits, 1, "a solo commit writes no batch record");
        assert_eq!(s.batched_members, 3);
    }

    /// Checks the LRU heap against its invariant — one entry per frame, at
    /// or below the frame's stamp — and its victim against the reference
    /// scan's. Returns whether a victim was compared.
    fn assert_lru_agrees(pool: &BufferPool) -> bool {
        let inner = pool.inner.read();
        let mut entries = vec![0usize; inner.frames.len()];
        for Reverse((stamp, slot)) in inner.lru.iter() {
            entries[*slot] += 1;
            assert!(*stamp <= inner.frames[*slot].last_used.load(Ordering::Relaxed));
        }
        assert!(
            entries.iter().all(|&n| n == 1),
            "entries per frame: {entries:?}"
        );
        if inner.frames.is_empty() {
            return false;
        }
        let mut lru = inner.lru.clone();
        assert_eq!(
            pop_victim(&mut lru, &inner.frames).0,
            scan_victim(&inner.frames),
            "the LRU heap disagrees with the scan"
        );
        true
    }

    #[test]
    fn lru_heap_matches_the_reference_scan_under_a_seeded_mix() {
        use crate::fault::{FaultConfig, FaultDisk};
        let mem = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..40).map(|_| mem.allocate_page().unwrap()).collect();
        let faulty = Arc::new(FaultDisk::new(
            mem,
            FaultConfig {
                seed: 17,
                permanent_read_failure: 0.2,
                ..Default::default()
            },
        ));
        faulty.set_armed(false);
        let disk = Arc::new(ArmedFailDisk {
            inner: faulty.clone(),
            armed: AtomicBool::new(false),
        });
        let pool = BufferPool::new(disk.clone(), 6);
        let mut rng = 0x2005_0405_u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut held: Vec<Arc<Page>> = Vec::new();
        let (mut compared, mut write_back_failures, mut flush_failures) = (0, 0, 0);
        let (mut kept_in_txn, mut spilled, mut discards) = (0, 0, 0);
        for _ in 0..4000 {
            let id = ids[next(ids.len() as u64) as usize];
            let reads_armed = faulty.armed();
            let writes_armed = disk.armed.load(Ordering::SeqCst);
            match next(100) {
                0..=44 => {
                    let r = pool.with_page(id, |p| p.get_u32(0));
                    if r.is_err() && writes_armed && !reads_armed {
                        write_back_failures += 1;
                    }
                }
                45..=64 => {
                    let r = pool.with_page_mut(id, |p| p.put_u32(0, id.0));
                    if r.is_err() && writes_armed && !reads_armed {
                        write_back_failures += 1;
                    }
                }
                65..=71 => {
                    if held.len() >= 4 {
                        held.swap_remove(next(4) as usize);
                    }
                    if let Ok(page) = pool.page_shared(id) {
                        held.push(page);
                    }
                }
                72..=79 => {
                    if !pool.in_transaction() {
                        pool.txn_begin().unwrap();
                    } else if next(2) == 0 {
                        let _ = pool.txn_commit(1);
                    } else {
                        pool.txn_rollback();
                    }
                }
                80..=85 => faulty.set_armed(!reads_armed),
                86..=89 => disk.armed.store(!writes_armed, Ordering::SeqCst),
                90..=97 => {
                    let in_txn = pool.in_transaction();
                    if matches!(pool.clear_cache(), Err(StorageError::FlushFailed(_))) {
                        flush_failures += 1;
                    }
                    if in_txn && !pool.inner.read().frames.is_empty() {
                        kept_in_txn += 1;
                    }
                }
                _ => {
                    pool.discard_cache_and_txn();
                    discards += 1;
                }
            }
            if let Some(t) = pool.txn.lock().as_ref() {
                spilled = spilled.max(t.shadow.len());
            }
            if assert_lru_agrees(&pool) {
                compared += 1;
            }
        }
        let s = pool.stats();
        let failed_reads = faulty
            .stats()
            .permanent_read_failures
            .load(Ordering::Relaxed);
        assert!(compared > 3000);
        assert!(s.evictions > 500, "evictions: {}", s.evictions);
        assert!(
            s.victim_probes > s.evictions,
            "hits must leave stale entries"
        );
        assert!(failed_reads > 0, "no read failed");
        assert!(write_back_failures > 0, "no victim write-back failed");
        assert!(flush_failures > 0, "no clear_cache kept a dirty frame");
        assert!(
            kept_in_txn > 0,
            "no clear_cache kept a transaction's frames"
        );
        assert!(spilled > 0, "no transaction page spilled to the shadow");
        assert!(discards > 0);
    }

    #[test]
    fn a_sequential_scan_probes_one_entry_per_eviction() {
        let (pool, ids) = wide(8);
        for _ in 0..3 {
            for &id in &ids {
                pool.with_page(id, |_| ()).unwrap();
            }
        }
        let s = pool.stats();
        assert_eq!(s.evictions, 3 * 32 - 8);
        assert_eq!(s.victim_probes, s.evictions);
        assert_eq!(s.page_copies, 0);
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

    #[test]
    fn a_shared_handle_keeps_its_bytes_across_a_commit_and_a_rollback() {
        let (pool, ids) = pool(4);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 1)).unwrap();
        let held = pool.page_shared(ids[0]).unwrap();
        pool.atomic_update(|| pool.with_page_mut(ids[0], |p| p.put_u32(0, 2)))
            .unwrap();
        assert_eq!(held.get_u32(0), 1);
        let committed = pool.page_shared(ids[0]).unwrap();
        let err: Result<(), StorageError> = pool.atomic_update(|| {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 3))?;
            assert_eq!(committed.get_u32(0), 2, "the open transaction's write");
            Err(StorageError::PageOutOfRange(PageId(99)))
        });
        assert!(err.is_err());
        assert_eq!(held.get_u32(0), 1);
        assert_eq!(committed.get_u32(0), 2);
        // Rollback put the pre-image handle itself back into the frame.
        let after = pool.page_shared(ids[0]).unwrap();
        assert!(Arc::ptr_eq(&after, &committed));
    }

    #[test]
    fn a_shared_handle_outlives_the_eviction_of_its_frame() {
        let (pool, ids) = pool(2);
        pool.with_page_mut(ids[0], |p| p.put_u32(0, 5)).unwrap();
        let held = pool.page_shared(ids[0]).unwrap();
        let before = pool.stats();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap(); // evicts ids[0], dirty
        let d = pool.stats().since(&before);
        assert_eq!(d.evictions, 1);
        // Sealing the held page for write-back copied it once; the miss
        // into the freed frame read into a fresh buffer, copying nothing.
        assert_eq!(d.page_copies, 1);
        assert_eq!(held.get_u32(0), 5);
        pool.with_page_mut(ids[2], |p| p.put_u32(0, 6)).unwrap();
        assert_eq!(
            held.get_u32(0),
            5,
            "the frame's next page is another buffer"
        );
        // The re-fetch reads the written-back bytes.
        let again = pool.page_shared(ids[0]).unwrap();
        assert!(!Arc::ptr_eq(&again, &held));
        assert_eq!(again.get_u32(0), 5);
        assert_eq!(again.payload(), held.payload());
    }

    #[test]
    fn a_pinned_versioned_read_copies_no_page() {
        let (pool, ids) = pool(8);
        let epoch = Arc::new(AtomicU64::new(0));
        pool.enable_version_ring(Arc::clone(&epoch), 4);
        commit_and_bump::<StorageError>(&pool, &epoch, || {
            pool.with_page_mut(ids[0], |p| p.put_u32(0, 11))
        });
        let before = pool.stats();
        let old = with_read_epoch(0, || pool.page_shared(ids[0]).unwrap());
        let v = with_read_epoch(0, || pool.with_page(ids[0], |p| p.get_u32(0)).unwrap());
        let d = pool.stats().since(&before);
        assert_eq!((old.get_u32(0), v), (0, 0));
        assert_eq!(d.versioned_reads, 2);
        assert_eq!(d.page_copies, 0);
    }
}
