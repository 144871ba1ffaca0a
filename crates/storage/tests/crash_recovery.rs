//! Crash-recovery torture tests at the storage level: a transactional page
//! workload is crashed at **every** physical write point (optionally tearing
//! the fatal write), the store is reopened through WAL recovery, and the
//! recovered pages must equal the exact before- or after-state of the
//! transaction in flight — never a mix.
//!
//! The workload uses the "root pointer" pattern of the real database: page 0
//! is a catalog holding the committed-transaction count, and every
//! transaction updates the catalog plus a pseudo-random set of data pages in
//! one pool transaction ([`BufferPool::txn_begin`] …
//! [`BufferPool::txn_commit`]). Periodic checkpoints put the
//! flush + sync + epoch-bump path under the same crash sweep.

use dol_storage::{
    BufferPool, CrashDisk, CrashState, Disk, MemDisk, Page, PageId, StorageError, Wal,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Data pages 1..PAGES; page 0 is the catalog.
const PAGES: u32 = 24;
/// Pages dirtied per transaction (besides the catalog).
const PAGES_PER_TXN: usize = 4;

/// The distinct data pages transaction `t` writes (deterministic).
fn txn_pages(t: u64, seed: u64) -> Vec<u32> {
    let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
    let mut out = Vec::with_capacity(PAGES_PER_TXN);
    while out.len() < PAGES_PER_TXN {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let p = 1 + (x % u64::from(PAGES - 1)) as u32;
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// The value every page should hold after `committed` transactions.
fn expected_value(page: u32, committed: u64, seed: u64) -> u32 {
    if page == 0 {
        return committed as u32;
    }
    (0..committed)
        .rev()
        .find(|&t| txn_pages(t, seed).contains(&page))
        .map_or(0, |t| t as u32 + 1)
}

/// One step of the workload: a transaction or a checkpoint.
fn apply_op(
    pool: &BufferPool,
    t: u64,
    seed: u64,
    checkpoint_every: u64,
) -> Result<(), StorageError> {
    if checkpoint_every > 0 && t % checkpoint_every == checkpoint_every - 1 {
        pool.checkpoint()?;
    }
    pool.txn_begin()?;
    let written = (|| {
        for p in txn_pages(t, seed) {
            pool.with_page_mut(PageId(p), |pg| pg.put_u32(0, t as u32 + 1))?;
        }
        pool.with_page_mut(PageId(0), |pg| pg.put_u32(0, t as u32 + 1))
    })();
    match written {
        Ok(()) => pool.txn_commit(1),
        Err(e) => {
            pool.txn_rollback();
            Err(e)
        }
    }
}

struct Run {
    data: Arc<MemDisk>,
    log: Arc<MemDisk>,
    /// Transactions that returned Ok before the crash (or all of them).
    committed_ok: u64,
    writes_at_crash: u64,
}

/// Replays `txns` transactions on fresh disks behind one shared power rail
/// that cuts after `crash_after` physical writes (u64::MAX = never).
fn run_workload(
    txns: u64,
    seed: u64,
    pool_frames: usize,
    crash_after: u64,
    tear: bool,
    checkpoint_every: u64,
) -> Run {
    let data = Arc::new(MemDisk::new());
    let log = Arc::new(MemDisk::new());
    for _ in 0..PAGES {
        data.allocate_page().unwrap();
    }
    let state = if crash_after == u64::MAX {
        CrashState::unlimited()
    } else {
        CrashState::new(crash_after, tear, seed)
    };
    let cdata: Arc<dyn Disk> = Arc::new(CrashDisk::new(data.clone(), state.clone()));
    let clog: Arc<dyn Disk> = Arc::new(CrashDisk::new(log.clone(), state.clone()));

    let mut committed_ok = 0;
    // The Wal::open itself can crash (it writes a fresh header).
    if let Ok(wal) = Wal::open(clog) {
        let pool = BufferPool::new(cdata, pool_frames);
        pool.attach_wal(Arc::new(wal));
        pool.set_checkpoint_threshold(0); // explicit checkpoints only
        for t in 0..txns {
            match apply_op(&pool, t, seed, checkpoint_every) {
                Ok(()) => committed_ok += 1,
                Err(_) => break,
            }
        }
    }
    Run {
        data,
        log,
        committed_ok,
        writes_at_crash: state.writes_issued(),
    }
}

/// Recovers the raw disks and asserts the state is exactly `expected(c)`
/// for some `c` with `committed_ok <= c <= committed_ok + 1`.
fn recover_and_check(run: &Run, seed: u64) -> u64 {
    let wal = Wal::open(run.log.clone() as Arc<dyn Disk>).unwrap();
    wal.recover_onto(run.data.as_ref()).unwrap();

    let mut page = Page::zeroed();
    run.data.read_page(PageId(0), &mut page).unwrap();
    page.verify_checksum().unwrap();
    let c = u64::from(page.get_u32(0));
    assert!(
        c == run.committed_ok || c == run.committed_ok + 1,
        "recovered to {c} committed transactions, but {} returned Ok",
        run.committed_ok
    );
    for p in 1..PAGES {
        run.data.read_page(PageId(p), &mut page).unwrap();
        if page.get_u32(0) != 0 || page.stored_checksum() != 0 {
            page.verify_checksum().unwrap();
        }
        assert_eq!(
            page.get_u32(0),
            expected_value(p, c, seed),
            "page {p} is a mix of transaction states (recovered c = {c})"
        );
    }
    c
}

#[test]
fn every_crash_point_recovers_to_before_or_after_state() {
    const TXNS: u64 = 24;
    const SEED: u64 = 13_639_585;
    // Oracle run: no crash; count the total physical writes.
    let oracle = run_workload(TXNS, SEED, 4, u64::MAX, false, 8);
    assert_eq!(oracle.committed_ok, TXNS);
    let total_writes = oracle.writes_at_crash;
    assert!(
        total_writes > 100,
        "workload too small: {total_writes} writes"
    );
    recover_and_check(&oracle, SEED);

    for k in 0..total_writes {
        let tear = k % 2 == 1; // alternate torn final writes
        let run = run_workload(TXNS, SEED, 4, k, tear, 8);
        assert!(run.committed_ok < TXNS, "crash point {k} did not crash");
        recover_and_check(&run, SEED);
    }
}

#[test]
fn recovery_is_idempotent_even_when_recovery_itself_crashes() {
    const TXNS: u64 = 16;
    const SEED: u64 = 4242;
    // Crash mid-workload (no checkpoints: everything lives in the WAL).
    let run = run_workload(TXNS, SEED, 4, 150, true, 0);
    assert!(run.committed_ok < TXNS);

    // First recovery attempt runs against a second power cut at every
    // possible write point; a later attempt on healthy disks must still
    // land in a consistent state.
    let oracle_writes = {
        let probe = Wal::open(Arc::new(run.log.fork()) as Arc<dyn Disk>).unwrap();
        let state = CrashState::unlimited();
        let fork = run.data.fork();
        probe
            .recover_onto(&CrashDisk::new(Arc::new(fork), state.clone()))
            .unwrap();
        state.writes_issued()
    };
    for k in 0..oracle_writes {
        let data = Arc::new(run.data.fork());
        let log = Arc::new(run.log.fork());
        let state = CrashState::new(k, k % 2 == 0, SEED + k);
        // Crashing recovery: both disks die mid-redo.
        let wal = Wal::open(Arc::new(CrashDisk::new(log.clone(), state.clone())) as Arc<dyn Disk>);
        if let Ok(wal) = wal {
            let _ = wal.recover_onto(&CrashDisk::new(data.clone(), state));
        }
        // Second, healthy recovery completes and lands consistent.
        let rerun = Run {
            data,
            log,
            committed_ok: run.committed_ok,
            writes_at_crash: 0,
        };
        recover_and_check(&rerun, SEED);
    }
}

#[test]
fn checkpoint_truncates_the_log_and_reclaims_space() {
    let data = Arc::new(MemDisk::new());
    let log = Arc::new(MemDisk::new());
    for _ in 0..PAGES {
        data.allocate_page().unwrap();
    }
    let wal = Arc::new(Wal::open(log.clone() as Arc<dyn Disk>).unwrap());
    let pool = BufferPool::new(data.clone(), 8);
    pool.attach_wal(wal.clone());
    pool.set_checkpoint_threshold(0);

    let mut log_pages_after_first_cycle = 0;
    for cycle in 0..4u64 {
        for t in cycle * 8..cycle * 8 + 8 {
            apply_op(&pool, t, 7, 0).unwrap();
        }
        assert!(wal.log_bytes() > 0, "commits appended to the log");
        pool.checkpoint().unwrap();
        assert_eq!(wal.log_bytes(), 0, "checkpoint truncated the log");
        // Truncation is logical (header epoch bump): the log file stops
        // growing once one cycle's records fit.
        if cycle == 0 {
            log_pages_after_first_cycle = log.num_pages();
        } else {
            assert_eq!(
                log.num_pages(),
                log_pages_after_first_cycle,
                "checkpointed log space is reused, not regrown"
            );
        }
    }
    // After a checkpoint there is nothing to recover.
    let report = Wal::open(log as Arc<dyn Disk>)
        .unwrap()
        .recover_onto(data.as_ref())
        .unwrap();
    assert_eq!(report.committed_txns, 0);
    assert_eq!(report.pages_redone, 0);
}

// ---------------------------------------------------------------------
// Batched (group) commits: K members, abort and re-run, one WAL txn
// ---------------------------------------------------------------------

/// Members folded into each batched commit.
const BATCH: u64 = 3;

/// Deterministic member failures: the member runs, dirties its pages, and
/// then fails — its batch is rolled back and re-run without it, so its work
/// must vanish while its batch peers commit.
fn member_fails(t: u64) -> bool {
    t % 5 == 3
}

/// One group commit: members `b*BATCH..(b+1)*BATCH` of the same page
/// workload as [`apply_op`], run in one transaction; a failing member rolls
/// the whole transaction back and the batch re-runs without it, and the
/// survivors commit as one WAL transaction (this is exactly what the
/// database facade's `run_batch` drives underneath).
fn apply_batch(pool: &BufferPool, b: u64, seed: u64) -> Result<(), StorageError> {
    let mut members: Vec<u64> = (b * BATCH..(b + 1) * BATCH).collect();
    'run: loop {
        pool.txn_begin()?;
        for &t in &members {
            let member: Result<(), StorageError> = (|| {
                for p in txn_pages(t, seed) {
                    pool.with_page_mut(PageId(p), |pg| pg.put_u32(0, t as u32 + 1))?;
                }
                pool.with_page_mut(PageId(0), |pg| pg.put_u32(0, t as u32 + 1))
            })();
            if let Err(e) = member {
                pool.txn_rollback();
                return Err(e);
            }
            if member_fails(t) {
                pool.txn_rollback();
                members.retain(|&m| m != t);
                continue 'run;
            }
        }
        return pool.txn_commit(members.len() as u32);
    }
}

/// The value every page should hold after all members below
/// `boundary` (a multiple of [`BATCH`]) ran, failing members excluded.
fn batched_expected(page: u32, boundary: u64, seed: u64) -> u32 {
    if page == 0 {
        return (0..boundary)
            .rev()
            .find(|&t| !member_fails(t))
            .map_or(0, |t| t as u32 + 1);
    }
    (0..boundary)
        .rev()
        .find(|&t| !member_fails(t) && txn_pages(t, seed).contains(&page))
        .map_or(0, |t| t as u32 + 1)
}

/// Replays `batches` group commits behind one shared power rail.
fn run_batched_workload(
    batches: u64,
    seed: u64,
    pool_frames: usize,
    crash_after: u64,
    tear: bool,
) -> Run {
    let data = Arc::new(MemDisk::new());
    let log = Arc::new(MemDisk::new());
    for _ in 0..PAGES {
        data.allocate_page().unwrap();
    }
    let state = if crash_after == u64::MAX {
        CrashState::unlimited()
    } else {
        CrashState::new(crash_after, tear, seed)
    };
    let cdata: Arc<dyn Disk> = Arc::new(CrashDisk::new(data.clone(), state.clone()));
    let clog: Arc<dyn Disk> = Arc::new(CrashDisk::new(log.clone(), state.clone()));

    let mut committed_ok = 0;
    if let Ok(wal) = Wal::open(clog) {
        let wal = Arc::new(wal);
        let pool = BufferPool::new(cdata, pool_frames);
        pool.attach_wal(wal.clone());
        pool.set_checkpoint_threshold(0);
        for b in 0..batches {
            match apply_batch(&pool, b, seed) {
                Ok(()) => committed_ok += 1,
                Err(_) => break,
            }
        }
        if crash_after == u64::MAX {
            let s = wal.stats();
            assert_eq!(
                s.batch_commits, batches,
                "every commit carries a batch record"
            );
            // Each batch record counts exactly its surviving members.
            let survivors = (0..batches * BATCH).filter(|&t| !member_fails(t)).count();
            assert_eq!(s.batched_members, survivors as u64);
        }
    }
    Run {
        data,
        log,
        committed_ok,
        writes_at_crash: state.writes_issued(),
    }
}

/// Recovery must land on a **batch** boundary: either every batch that
/// returned Ok, or one more (the batch in flight at the crash — all of it
/// or none of it, never a member subset and never a torn member).
fn recover_and_check_batched(run: &Run, seed: u64) -> u64 {
    let wal = Wal::open(run.log.clone() as Arc<dyn Disk>).unwrap();
    wal.recover_onto(run.data.as_ref()).unwrap();

    let mut page = Page::zeroed();
    run.data.read_page(PageId(0), &mut page).unwrap();
    page.verify_checksum().unwrap();
    let catalog = page.get_u32(0);
    let boundary = [run.committed_ok, run.committed_ok + 1]
        .into_iter()
        .map(|b| b * BATCH)
        .find(|&m| batched_expected(0, m, seed) == catalog)
        .unwrap_or_else(|| {
            panic!(
                "catalog {catalog} is not a batch boundary ({} batches returned Ok)",
                run.committed_ok
            )
        });
    for p in 1..PAGES {
        run.data.read_page(PageId(p), &mut page).unwrap();
        if page.get_u32(0) != 0 || page.stored_checksum() != 0 {
            page.verify_checksum().unwrap();
        }
        assert_eq!(
            page.get_u32(0),
            batched_expected(p, boundary, seed),
            "page {p} mixes batch states (boundary = {boundary} members)"
        );
    }
    boundary
}

#[test]
fn every_crash_point_in_a_batched_commit_recovers_whole_batches() {
    const BATCHES: u64 = 10;
    const SEED: u64 = 13_639_585;
    let oracle = run_batched_workload(BATCHES, SEED, 4, u64::MAX, false);
    assert_eq!(oracle.committed_ok, BATCHES);
    let total_writes = oracle.writes_at_crash;
    assert!(
        total_writes > 100,
        "workload too small: {total_writes} writes"
    );
    let boundary = recover_and_check_batched(&oracle, SEED);
    assert_eq!(boundary, BATCHES * BATCH);

    for k in 0..total_writes {
        let tear = k % 2 == 1;
        let run = run_batched_workload(BATCHES, SEED, 4, k, tear);
        assert!(run.committed_ok < BATCHES, "crash point {k} did not crash");
        recover_and_check_batched(&run, SEED);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized variant of the full sweep: random seed, workload length,
    /// pool size and crash point; every recovery must land on an exact
    /// transaction boundary.
    #[test]
    fn random_crash_points_recover_consistently(
        seed in 0u64..1_000_000,
        txns in 4u64..20,
        frames in 3usize..16,
        checkpoint_every in 0u64..6,
        crash_pct in 0u64..100,
        tear in any::<bool>(),
    ) {
        let oracle = run_workload(txns, seed, frames, u64::MAX, false, checkpoint_every);
        prop_assert_eq!(oracle.committed_ok, txns);
        let k = crash_pct * oracle.writes_at_crash / 100;
        let run = run_workload(txns, seed, frames, k, tear, checkpoint_every);
        recover_and_check(&run, seed);
    }
}
