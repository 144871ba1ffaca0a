//! Physical page I/O: the verified-read and sealed-write retry ladders and
//! the circuit breaker in front of them.
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

use super::stats::AtomicIoStats;
use super::BufferPool;
use crate::disk::StorageError;
use crate::page::{Page, PageId};
use crate::retry::{current_io_deadline, RetryPolicy};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Default attempts per physical page I/O before a transient error or
/// checksum mismatch is treated as permanent (the
/// [`RetryPolicy::max_attempts`] default; tune per pool with
/// [`BufferPool::set_retry_policy`]).
pub const MAX_IO_ATTEMPTS: u32 = 4;

/// The circuit breaker: open after `breaker_threshold` consecutive surfaced
/// I/O failures; half-open probes may close it again.
#[derive(Default)]
pub(super) struct Breaker {
    open: AtomicBool,
    /// Consecutive surfaced I/O failures (reset by any success).
    consecutive: AtomicU32,
    /// Admission ticket while open: every `breaker_probe_every`-th ticket
    /// runs as a probe, the rest fail fast.
    ticket: AtomicU64,
}

impl Breaker {
    /// Gate at the top of every physical I/O. `Ok(false)`: breaker closed
    /// (or disabled), run the full retry ladder. `Ok(true)`: breaker open
    /// but this operation is admitted as a half-open probe (single
    /// attempt). `Err(BreakerOpen)`: refused without touching the disk.
    fn admit(&self, policy: &RetryPolicy, stats: &AtomicIoStats) -> Result<bool, StorageError> {
        if policy.breaker_threshold == 0 || !self.open.load(Ordering::Acquire) {
            return Ok(false);
        }
        let ticket = self.ticket.fetch_add(1, Ordering::Relaxed);
        if (ticket + 1).is_multiple_of(u64::from(policy.breaker_probe_every.max(1))) {
            stats.breaker_probes(1);
            Ok(true)
        } else {
            stats.breaker_fast_fails(1);
            Err(StorageError::BreakerOpen)
        }
    }

    /// Records the outcome of an admitted physical I/O: success (`None`)
    /// closes the breaker and zeroes the failure run; a surfaced failure
    /// extends the run and trips the breaker at the threshold. Deadline
    /// aborts are neither — they say nothing about the device.
    fn record(&self, policy: &RetryPolicy, error: Option<&StorageError>, stats: &AtomicIoStats) {
        if policy.breaker_threshold == 0 {
            return;
        }
        match error {
            None => {
                self.consecutive.store(0, Ordering::Relaxed);
                self.open.store(false, Ordering::Release);
            }
            Some(StorageError::DeadlineExceeded) => {}
            Some(_) => {
                let run = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
                if run >= policy.breaker_threshold && !self.open.swap(true, Ordering::AcqRel) {
                    stats.breaker_trips(1);
                }
            }
        }
    }
}

impl BufferPool {
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
        self.breaker.open.load(Ordering::Acquire)
    }

    /// Force-closes the circuit breaker and zeroes its consecutive-failure
    /// run. In-process recovery calls this so a repaired database does not
    /// keep refusing I/O.
    pub fn reset_breaker(&self) {
        let b = &self.breaker;
        b.open.store(false, Ordering::Release);
        b.consecutive.store(0, Ordering::Relaxed);
        b.ticket.store(0, Ordering::Relaxed);
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
            self.stats.backoffs(1);
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
    pub(super) fn read_verified(&self, id: PageId, page: &mut Page) -> Result<(), StorageError> {
        let policy = self.retry_policy();
        let probe = self.breaker.admit(&policy, &self.stats)?;
        let result = self.read_attempts(id, page, &policy, probe);
        self.breaker
            .record(&policy, result.as_ref().err(), &self.stats);
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
                        self.stats.checksum_failures(1);
                        mismatch = Some(m);
                    }
                },
                Err(e) if !e.is_transient() => return Err(e),
                Err(_) => {} // transient: retry
            }
            if attempt < max_attempts {
                self.stats.read_retries(1);
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

    /// Seals `page`'s trailer in place, copying the page first only if its
    /// stale trailer must change while a handle to it is held.
    pub(super) fn seal(&self, page: &mut Arc<Page>) {
        let crc = page.compute_checksum();
        if page.stored_checksum() != crc {
            self.unshare(page).set_checksum(crc);
        }
    }

    /// One durable physical write, counted in `physical_writes` when it
    /// lands: seals the trailer and retries transient errors per the pool's
    /// [`RetryPolicy`], with backoff and breaker admission as for reads.
    pub(super) fn write_back(&self, id: PageId, page: &mut Arc<Page>) -> Result<(), StorageError> {
        self.seal(page);
        let policy = self.retry_policy();
        let probe = self.breaker.admit(&policy, &self.stats)?;
        let result = self.write_attempts(id, page, &policy, probe);
        self.breaker
            .record(&policy, result.as_ref().err(), &self.stats);
        if result.is_ok() {
            self.stats.physical_writes(1);
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
                    self.stats.write_retries(1);
                    self.backoff_pause(policy, attempt)?;
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::pool;
    use super::*;
    use crate::disk::{Disk, MemDisk};

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
}
