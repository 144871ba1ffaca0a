//! Concurrency stress for the buffer pool: many threads hammering a small
//! pool must lose no writes, corrupt no pages across evictions, keep the
//! counters coherent, and serve every pinned reader its own epoch while
//! transactions commit and roll back underneath it.

use dol_storage::{with_read_epoch, BufferPool, Disk, MemDisk, Page, PageId, PAYLOAD_SIZE};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

const THREADS: usize = 8;
const PAGES: usize = 24;
const ROUNDS: usize = 400;

/// Each thread owns a 4-byte slot per page and increments it `ROUNDS` times,
/// walking the pages in a thread-specific order. Exclusive closure-scoped
/// access makes each increment atomic, so every slot must end at exactly
/// `ROUNDS` — any lost update or eviction corruption shows up as a shortfall.
fn run_stress(pool: &BufferPool, ids: &[PageId]) {
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pool = &*pool;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    let page = ids[(r * (t + 1) + t) % PAGES];
                    pool.with_page_mut(page, |p| {
                        let off = t * 4;
                        let v = p.get_u32(off);
                        p.put_u32(off, v + 1);
                    })
                    .unwrap();
                }
            });
        }
    });

    // Every (thread, page) slot holds exactly the number of increments that
    // thread issued against that page.
    let mut expected = vec![vec![0u32; PAGES]; THREADS];
    for (t, row) in expected.iter_mut().enumerate() {
        for r in 0..ROUNDS {
            row[(r * (t + 1) + t) % PAGES] += 1;
        }
    }
    for (i, &id) in ids.iter().enumerate() {
        for (t, row) in expected.iter().enumerate() {
            let got = pool.with_page(id, |p| p.get_u32(t * 4)).unwrap();
            assert_eq!(got, row[i], "lost write: thread {t} page {i}");
        }
    }

    let s = pool.stats();
    assert!(
        s.logical_reads >= s.physical_reads,
        "every physical read is caused by a logical access: {s:?}"
    );
    assert_eq!(s.logical_reads, (THREADS * ROUNDS + THREADS * PAGES) as u64);
}

#[test]
fn evicting_pool_concurrent_increments() {
    let disk = Arc::new(MemDisk::new());
    let ids: Vec<PageId> = (0..PAGES).map(|_| disk.allocate_page().unwrap()).collect();
    // Capacity below the working set so evictions race with accesses.
    let pool = BufferPool::new(disk, 8);
    run_stress(&pool, &ids);
    assert!(pool.stats().evictions > 0, "stress must exercise eviction");
}

#[test]
fn resident_pool_concurrent_increments() {
    let disk = Arc::new(MemDisk::new());
    let ids: Vec<PageId> = (0..PAGES).map(|_| disk.allocate_page().unwrap()).collect();
    let pool = BufferPool::new(disk, PAGES);
    run_stress(&pool, &ids);
}

#[test]
fn concurrent_stats_reads_do_not_wedge() {
    let disk = Arc::new(MemDisk::new());
    let ids: Vec<PageId> = (0..PAGES).map(|_| disk.allocate_page().unwrap()).collect();
    let pool = BufferPool::new(disk, 8);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let pool = &pool;
            let ids = &ids;
            scope.spawn(move || {
                for r in 0..200 {
                    pool.with_page(ids[(r + t) % PAGES], |_| ()).unwrap();
                    if r % 16 == 0 {
                        let _ = pool.stats();
                    }
                }
            });
        }
    });
    assert_eq!(pool.stats().logical_reads, 800);
}

/// Stamps `version` at both ends of a page's payload, so a torn or mixed
/// image reads back as two different numbers.
fn stamp(version: u64) -> impl Fn(&mut Page) {
    move |p| {
        p.put_u64(0, version);
        p.put_u64(PAYLOAD_SIZE - 8, version);
    }
}

/// Readers pinned to an epoch race a writer that commits, rolls back whole
/// transactions and re-runs a rolled-back batch without its failed member
/// over the same pages. Every
/// pinned read must return exactly the bytes committed as of its epoch —
/// never an uncommitted, newer or half-restored image. The pool holds a
/// third of the pages, so transaction pages also spill to the shadow and
/// are restored from it.
#[test]
fn pinned_readers_see_their_epoch_across_commits_and_rollbacks() {
    const WRITER_ROUNDS: u64 = 40;
    let disk = Arc::new(MemDisk::new());
    let ids: Vec<PageId> = (0..PAGES).map(|_| disk.allocate_page().unwrap()).collect();
    let pool = BufferPool::new(disk, PAGES / 3);
    let epoch = Arc::new(AtomicU64::new(0));
    pool.enable_version_ring(Arc::clone(&epoch), 4 * WRITER_ROUNDS as usize);
    // history[e]: every page's version as of epoch e. A state is recorded
    // before the epoch bump that publishes it.
    let history = Mutex::new(vec![vec![0u64; PAGES]]);
    let publish = |state: &[u64]| {
        history.lock().unwrap().push(state.to_vec());
        epoch.fetch_add(1, Ordering::SeqCst);
    };
    const READERS: usize = 3;
    // The writer starts only once every reader is running.
    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);
    let passes = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let e = epoch.load(Ordering::SeqCst);
                    let want = history.lock().unwrap()[e as usize].clone();
                    with_read_epoch(e, || {
                        for (i, &id) in ids.iter().enumerate() {
                            let got = pool
                                .with_page(id, |p| (p.get_u64(0), p.get_u64(PAYLOAD_SIZE - 8)))
                                .unwrap();
                            assert_eq!(got, (want[i], want[i]), "page {i} pinned to epoch {e}");
                        }
                    });
                    passes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        start.wait();
        let mut state = vec![0u64; PAGES];
        for round in 0..WRITER_ROUNDS {
            let v = 10 * (round + 1);
            // A whole transaction rolled back.
            pool.txn_begin().unwrap();
            for &id in &ids {
                pool.with_page_mut(id, stamp(v)).unwrap();
            }
            pool.txn_rollback();
            // A batch whose second member fails after dirtying every page:
            // the transaction rolls back and re-runs without it, so only the
            // first member's half of the pages changes.
            let first_member = || {
                for &id in &ids[..PAGES / 2] {
                    pool.with_page_mut(id, stamp(v + 1)).unwrap();
                }
            };
            pool.txn_begin().unwrap();
            first_member();
            for &id in ids.iter().rev() {
                pool.with_page_mut(id, stamp(v + 2)).unwrap();
            }
            pool.txn_rollback();
            pool.txn_begin().unwrap();
            first_member();
            pool.txn_commit(1).unwrap();
            state[..PAGES / 2].fill(v + 1);
            publish(&state);
            // A plain commit of every page.
            pool.atomic_update(|| {
                ids.iter()
                    .try_for_each(|&id| pool.with_page_mut(id, stamp(v + 3)))
            })
            .unwrap();
            state.fill(v + 3);
            publish(&state);
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
    });
    assert!(passes.load(Ordering::Relaxed) > 0);
    assert!(pool.epoch_servable(0), "the ring retained every epoch");
    assert!(pool.stats().versioned_reads > 0);
    assert!(pool.stats().evictions > 0, "transactions must spill");
    for &id in &ids {
        assert_eq!(
            pool.with_page(id, |p| p.get_u64(0)).unwrap(),
            10 * WRITER_ROUNDS + 3
        );
    }
}
