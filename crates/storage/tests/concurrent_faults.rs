//! Concurrent stress over a faulty disk: a [`BufferPool`] hammered
//! from many threads through a [`FaultDisk`] injecting transient faults.
//! The pool must retry its way through, its counters must reconcile exactly
//! against the injected-fault ledger, and nothing may deadlock, poison, or
//! serve a corrupt payload as clean.

use dol_storage::{
    BufferPool, Disk, FaultConfig, FaultDisk, MemDisk, PageId, StorageError, MAX_IO_ATTEMPTS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PAGES: usize = 64;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 400;

/// A tiny deterministic per-thread RNG (splitmix64), so the access pattern
/// is reproducible without depending on scheduler interleaving.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Allocates `PAGES` pages and stamps each with its own index while the
/// fault schedule is disarmed, leaving a clean flushed image.
fn stamped_pool(fault: &Arc<FaultDisk>, capacity: usize) -> Arc<BufferPool> {
    fault.set_armed(false);
    let pool = Arc::new(BufferPool::new(fault.clone(), capacity));
    for i in 0..PAGES {
        let id = fault.allocate_page().unwrap();
        assert_eq!(id.0 as usize, i);
        pool.with_page_mut(id, |p| p.put_u64(0, i as u64)).unwrap();
    }
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    fault.set_armed(true);
    pool
}

#[test]
fn transient_faults_retry_under_concurrency_and_counters_reconcile() {
    let fault = Arc::new(FaultDisk::new(
        Arc::new(MemDisk::new()),
        FaultConfig {
            seed: 0xC0FF_EE01,
            transient_read_error: 0.1,
            transient_write_error: 0.1,
            ..FaultConfig::default()
        },
    ));
    // 16 frames against 64 pages: most accesses miss, so the armed disk
    // sees constant traffic and dirty evictions.
    let pool = stamped_pool(&fault, 16);

    // An attempt-run that exhausts `MAX_IO_ATTEMPTS` surfaces one transient
    // error to the caller without a matching retry increment, so the ledger
    // balances as: injected == retried + surfaced.
    let surfaced = AtomicU64::new(0);
    let applied: Vec<AtomicU64> = (0..PAGES).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pool = &pool;
            let surfaced = &surfaced;
            let applied = &applied;
            scope.spawn(move || {
                // Threads partition the pages for writes (no two threads
                // mutate the same page) but read the whole image.
                let mut state = 0x5EED_0000 + t as u64;
                for op in 0..OPS_PER_THREAD {
                    state = mix(state);
                    let outcome = if op % 4 == 0 {
                        let mine = THREADS * (state as usize % (PAGES / THREADS)) + t;
                        pool.with_page_mut(PageId(mine as u32), |p| {
                            let n = p.get_u64(8) + 1;
                            p.put_u64(8, n);
                        })
                        .map(|()| {
                            applied[mine].fetch_add(1, Ordering::Relaxed);
                        })
                    } else {
                        let page = state as usize % PAGES;
                        pool.with_page(PageId(page as u32), |p| {
                            assert_eq!(
                                p.get_u64(0),
                                page as u64,
                                "read served a wrong or corrupt payload"
                            );
                        })
                    };
                    if let Err(e) = outcome {
                        assert!(
                            e.is_transient(),
                            "only exhausted transient errors may surface, got {e}"
                        );
                        surfaced.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let io = pool.stats();
    let fs = fault.stats();
    let injected = fs.transient_read_errors.load(Ordering::Relaxed)
        + fs.transient_write_errors.load(Ordering::Relaxed);
    let retried = io.read_retries + io.write_retries;
    let surfaced = surfaced.load(Ordering::Relaxed);
    assert!(injected > 0, "schedule must actually fire at these rates");
    assert!(io.read_retries > 0, "read retry path must be exercised");
    assert_eq!(
        injected,
        retried + surfaced,
        "every injected transient error is either retried away or surfaced \
         (reads: {} injected / {} retried; writes: {} injected / {} retried; surfaced: {})",
        fs.transient_read_errors.load(Ordering::Relaxed),
        io.read_retries,
        fs.transient_write_errors.load(Ordering::Relaxed),
        io.write_retries,
        surfaced,
    );
    assert_eq!(io.checksum_failures, 0, "no bit flips were configured");
    // An exhausted run takes MAX_IO_ATTEMPTS consecutive hits, so surfaced
    // errors are bounded by injected / MAX_IO_ATTEMPTS.
    assert!(surfaced <= injected / u64::from(MAX_IO_ATTEMPTS));

    // Quiesce and audit: every increment acknowledged Ok must be durable.
    fault.set_armed(false);
    pool.flush_all().unwrap();
    pool.clear_cache().unwrap();
    for (i, applied) in applied.iter().enumerate() {
        let want = applied.load(Ordering::Relaxed);
        pool.with_page(PageId(i as u32), |p| {
            assert_eq!(p.get_u64(0), i as u64);
            assert_eq!(
                p.get_u64(8),
                want,
                "page {i}: increments acknowledged Ok must never be lost"
            );
        })
        .unwrap();
    }
}

#[test]
fn sticky_corruption_is_detected_by_every_thread() {
    let fault = Arc::new(FaultDisk::new(
        Arc::new(MemDisk::new()),
        FaultConfig {
            seed: 0x0BAD_5EED,
            sticky_bit_flip: 0.25,
            ..FaultConfig::default()
        },
    ));
    // Capacity below the page count, so corrupt pages are re-fetched (and
    // must be re-detected) over and over instead of being cached once.
    let pool = stamped_pool(&fault, 16);
    let corrupt = fault.sticky_corrupt_pages();
    assert!(
        !corrupt.is_empty() && corrupt.len() < PAGES,
        "schedule must mark some but not all pages"
    );

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pool = &pool;
            let corrupt = &corrupt;
            scope.spawn(move || {
                let mut state = 0xFACE_0000 + t as u64;
                for _ in 0..OPS_PER_THREAD {
                    state = mix(state);
                    let page = state as usize % PAGES;
                    let id = PageId(page as u32);
                    let res = pool.with_page(id, |p| {
                        assert_eq!(p.get_u64(0), page as u64);
                    });
                    if corrupt.contains(&id) {
                        match res {
                            Err(StorageError::Corrupt { page: reported, .. }) => {
                                assert_eq!(reported, id);
                            }
                            other => panic!("corrupt {id} must fail checksum, got {other:?}"),
                        }
                    } else {
                        res.unwrap_or_else(|e| panic!("clean {id} must read fine: {e}"));
                    }
                }
            });
        }
    });

    let io = pool.stats();
    assert!(
        io.checksum_failures > 0,
        "corrupt fetches must be flagged by verification"
    );
    // A corrupt page is never admitted to the cache: every checksum failure
    // came from a fresh physical read attempt.
    assert!(io.physical_reads >= io.checksum_failures / u64::from(MAX_IO_ATTEMPTS));
}
