//! The MVCC version ring: the pre-images of the last few commits, so a
//! reader pinned to a retained epoch sees every page as of that epoch.

use super::BufferPool;
use crate::page::{Page, PageId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
/// deltas, oldest first. The open transaction's pre-images are the newest
/// layer. A reader pinned to any epoch ≥ `floor` can reconstruct every page
/// as of its epoch; older pins are refused upstairs as `RetentionExceeded`.
pub(super) struct VersionRing {
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

impl BufferPool {
    /// Enables MVCC retention: from now on the pool keeps the pre-images of
    /// the last `retain` committed transactions (one sealed delta per
    /// commit, empty commits included), each stamped with the
    /// value of `epoch` — the database epoch counter — at seal time, read
    /// *before* the facade bumps it. A reader pinned with
    /// [`with_read_epoch`](super::with_read_epoch) to any epoch ≥
    /// [`ring_floor`](Self::ring_floor) is served every page as of its
    /// pinned epoch; an older pin must be refused by the caller (the pool
    /// reports servability, the facade types the error).
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
        self.ring.lock().as_ref().is_none_or(|r| epoch >= r.floor)
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
    /// txn lock is taken before the ring lock, so a commit moving the
    /// pre-images into the ring is seen whole or not at all. With no
    /// transaction open the txn lock is skipped: a frame dirtied by a
    /// transaction keeps that transaction visible until the commit or
    /// rollback has dealt with it.
    pub(super) fn ring_image(&self, id: PageId, pin: u64) -> Option<Arc<Page>> {
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
        let open = || txn.as_ref()?.as_ref()?.pre_image(id);
        sealed.or_else(open).cloned()
    }

    /// MVCC seal: moves a commit's pre-images into a delta stamped with the
    /// pre-commit epoch (the facade bumps it only after the commit returns),
    /// evicting the oldest delta past the retention bound. The caller holds
    /// the frame and txn locks, so a pinned reader finds each pre-image in
    /// the open transaction or here, never in neither.
    pub(super) fn ring_seal(&self, pages: impl Iterator<Item = (PageId, Arc<Page>)>) {
        if let Some(r) = self.ring.lock().as_mut() {
            let as_of = r.epoch.load(Ordering::SeqCst);
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

#[cfg(test)]
mod tests {
    use super::super::tests::{commit_and_bump, pool};
    use super::super::with_read_epoch;
    use super::*;
    use crate::disk::StorageError;

    impl BufferPool {
        /// Number of sealed deltas currently retained.
        fn ring_depth(&self) -> usize {
            self.ring
                .lock()
                .as_ref()
                .map(|r| r.committed.len())
                .unwrap_or(0)
        }
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
