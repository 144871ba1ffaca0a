//! The pool transaction: pre-images, shadow spill, commit, rollback and the
//! checkpoint trigger.
//!
//! # Transactions
//!
//! A transaction ([`BufferPool::txn_begin`] … [`BufferPool::txn_commit`] or
//! [`BufferPool::txn_rollback`]) is one atomic multi-page mutation; a pool
//! has one at a time and it does not nest. While it is open, the first
//! `with_page_mut` on each page keeps a handle to its **pre-image**, and no
//! uncommitted byte reaches the data disk: evicting a dirtied page moves
//! its handle into the in-memory **shadow** (a later fetch reloads it from
//! there), so a transaction can dirty more pages than the pool has frames.
//! A rollback puts the pre-images back. A commit with a [`Wal`]
//! [attached](BufferPool::attach_wal) seals each dirtied page in place and
//! logs the page itself, synced *before* any of them may be flushed
//! (WAL-before-data), so a crash redoes the whole transaction or none of
//! it. Transactions are for the single-writer update path. With none open,
//! every code path and I/O counter is that of the pre-WAL pool.

use super::frames::{Frame, Inner};
use super::{BufferPool, Held};
use crate::disk::StorageError;
use crate::page::{Page, PageId};
use crate::wal::Wal;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Default auto-checkpoint threshold: a commit that leaves more than this
/// many bytes in the attached WAL triggers a checkpoint (flush + sync +
/// epoch bump). Tune with [`BufferPool::set_checkpoint_threshold`].
pub const DEFAULT_CHECKPOINT_THRESHOLD: u64 = 4 << 20;

/// A typed refusal of a transaction call the pool's state does not allow.
fn misuse(msg: &'static str) -> StorageError {
    StorageError::Io(std::io::Error::other(msg))
}

/// State of the open transaction.
#[derive(Default)]
pub(super) struct TxnState {
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

impl TxnState {
    /// The page's pre-image, if the transaction dirtied it.
    #[inline]
    pub(super) fn pre_image(&self, id: PageId) -> Option<&Arc<Page>> {
        self.pre.get(&id).map(|(page, _)| page)
    }
}

impl BufferPool {
    /// Attaches a write-ahead log: from now on every commit logs its dirtied
    /// pages to `wal` (synced) before any of them can reach the data disk.
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

    /// Whether a transaction is currently open.
    pub fn in_transaction(&self) -> bool {
        self.txn_active.load(Ordering::Acquire)
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
    /// open one runs further mutations inside it). The database facade
    /// commits a group-commit batch as one transaction of several logical
    /// updates. Every successful `txn_begin` must be paired with
    /// [`txn_commit`](Self::txn_commit) or
    /// [`txn_rollback`](Self::txn_rollback).
    pub fn txn_begin(&self) -> Result<(), StorageError> {
        let mut txn = self.txn.lock();
        if txn.is_some() {
            return Err(misuse("txn_begin inside an open transaction"));
        }
        *txn = Some(TxnState::default());
        self.txn_active.store(true, Ordering::Release);
        Ok(())
    }

    /// Commits the open transaction as `members` logical updates (the WAL
    /// batch record's member count; `1` for a solo update): every page it
    /// dirtied reaches the attached WAL as one synced append, then the
    /// transaction closes. A failure before the append is durable rolls the
    /// transaction back. With no transaction open it is a typed error.
    pub fn txn_commit(&self, members: u32) -> Result<(), StorageError> {
        self.txn_log_images(members)?;
        self.txn_close_durable()
    }

    /// The logging half of [`txn_commit`](Self::txn_commit). No open
    /// transaction is refused with a typed error. `members` sizes the WAL
    /// batch record. Under the exclusive frame lock and the txn lock, each
    /// dirtied page — from its frame if resident, else from the shadow — is
    /// sealed in place, in first-dirtied order, and its handle is logged: the
    /// logged bytes are the page's own. Sealing copies a page only while
    /// another handle to it is held. The transaction stays open while the
    /// pages are logged; a logging failure rolls it back.
    fn txn_log_images(&self, members: u32) -> Result<(), StorageError> {
        let wal = self.wal();
        let images = {
            let _held = Held::enter(self);
            let mut inner = self.inner.write();
            let mut txn = self.txn.lock();
            let t = txn
                .as_mut()
                .ok_or_else(|| misuse("commit without an open transaction"))?;
            let logged: &[PageId] = if wal.is_some() { &t.order } else { &[] };
            logged
                .iter()
                .map(|&id| {
                    let page = match inner.resident_mut(id) {
                        Some(frame) => frame.dirty_page(), // dirty already
                        None => t
                            .shadow
                            .get_mut(&id)
                            .ok_or(StorageError::PageOutOfRange(id))?,
                    };
                    self.seal(page);
                    Ok((id, Arc::clone(page)))
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
            // Sealing the ring delta happens even if spilled-page write-back
            // failed: the commit is durable, so readers pinned to the
            // pre-commit epoch need the delta to keep answering coherently.
            self.ring_seal(state.pre.into_iter().map(|(id, (p, _))| (id, p)));
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
    /// the pre-images until the frames hold them again.
    pub fn txn_rollback(&self) {
        let _held = Held::enter(self);
        let mut inner = self.inner.write();
        let mut txn = self.txn.lock();
        let mut state = txn.take().expect("rollback without an open transaction");
        for id in &state.order {
            let (mut image, was_dirty) = state.pre.remove(id).expect("a pre-image per page");
            if let Some(frame) = inner.resident_mut(*id) {
                frame.restore(image, was_dirty);
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
        *self.txn.lock() = None;
        self.txn_active.store(false, Ordering::Release);
        {
            let _held = Held::enter(self);
            *self.inner.write() = Inner::with_capacity(self.capacity);
        }
        self.reset_breaker();
    }

    /// Runs `f` on the open transaction, if one is open (with none open it
    /// costs one relaxed load, no lock).
    fn with_open_txn<R>(&self, f: impl FnOnce(&mut TxnState) -> R) -> Option<R> {
        if !self.txn_active.load(Ordering::Acquire) {
            return None;
        }
        self.txn.lock().as_mut().map(f)
    }

    /// Inside an open transaction, keeps the pre-image of `frame`'s page
    /// `id` on its first write. Caller holds the exclusive frame lock.
    pub(super) fn txn_capture(&self, id: PageId, frame: &Frame) {
        self.with_open_txn(|t| {
            if let Entry::Vacant(e) = t.pre.entry(id) {
                e.insert((Arc::clone(frame.page()), frame.is_dirty()));
                t.order.push(id);
            }
        });
    }

    /// Runs `f` with the test "does the open transaction hold this page?" —
    /// its cached bytes are then uncommitted and must not be flushed. Call
    /// under the frame lock.
    pub(super) fn with_txn_pages<R>(&self, f: impl FnOnce(&dyn Fn(PageId) -> bool) -> R) -> R {
        let txn = self
            .txn_active
            .load(Ordering::Acquire)
            .then(|| self.txn.lock());
        let open = txn.as_ref().and_then(|t| t.as_ref());
        f(&|id| open.is_some_and(|t| t.pre.contains_key(&id)))
    }

    /// If page `id` belongs to the open transaction, moves a handle to its
    /// uncommitted bytes into the transaction shadow and reports `true` —
    /// the caller then evicts the frame *without* writing it
    /// (WAL-before-data: no uncommitted byte may reach the data disk).
    pub(super) fn spill_to_shadow(&self, id: PageId, page: &Arc<Page>) -> bool {
        let spilled = self.with_open_txn(|t| {
            let ours = t.pre.contains_key(&id);
            if ours {
                t.shadow.insert(id, Arc::clone(page));
            }
            ours
        });
        spilled == Some(true)
    }

    /// The page's latest bytes if the open transaction's shadow holds them
    /// (spilled by an earlier eviction). Caller holds the frame lock.
    pub(super) fn shadow_image(&self, id: PageId) -> Option<Arc<Page>> {
        self.with_open_txn(|t| t.shadow.get(&id).cloned())?
    }

    /// Drops the shadow entry of a page reloaded into a frame.
    pub(super) fn unspill(&self, id: PageId) {
        self.with_open_txn(|t| t.shadow.remove(&id));
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{pool, ArmedFailDisk};
    use super::*;
    use crate::disk::{Disk, MemDisk};
    use std::sync::atomic::AtomicBool;

    impl TxnState {
        pub(in crate::buffer) fn shadow_len(&self) -> usize {
            self.shadow.len()
        }
    }

    impl BufferPool {
        /// Runs `f` as one transaction: committed (as one logical update) if it
        /// succeeds, rolled back if it fails. Calling it (or
        /// [`txn_begin`](Self::txn_begin)) from inside `f` is refused with a
        /// typed error, which `f` must propagate: transactions do not nest.
        pub(in crate::buffer) fn atomic_update<R, E: From<StorageError>>(
            &self,
            f: impl FnOnce() -> Result<R, E>,
        ) -> Result<R, E> {
            self.txn_begin()?;
            match f() {
                Ok(r) => self.txn_commit(1).map(|()| r).map_err(E::from),
                Err(e) => {
                    self.txn_rollback();
                    Err(e)
                }
            }
        }
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

    /// Dirties `n` pages in one transaction over a pool with a WAL and
    /// commits it, holding a `page_shared` handle on the first dirtied page
    /// across the commit if `hold`. Returns the pool, the log disk, the
    /// pages, the commit's page copies and the held handle.
    fn dirty_and_commit(
        n: usize,
        hold: bool,
    ) -> (
        BufferPool,
        Arc<MemDisk>,
        Vec<PageId>,
        u64,
        Option<Arc<Page>>,
    ) {
        let data = Arc::new(MemDisk::new());
        let log = Arc::new(MemDisk::new());
        let ids: Vec<PageId> = (0..n).map(|_| data.allocate_page().unwrap()).collect();
        let pool = BufferPool::new(data, 8);
        pool.attach_wal(Arc::new(Wal::open(log.clone()).unwrap()));
        let before = pool.stats();
        pool.txn_begin().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| p.put_u32(0, i as u32 + 1))
                .unwrap();
        }
        let held = hold.then(|| pool.page_shared(ids[0]).unwrap());
        pool.txn_commit(1).unwrap();
        let copies = pool.stats().since(&before).page_copies;
        (pool, log, ids, copies, held)
    }

    /// Replays `log` onto a fresh disk: every logged image must pass its
    /// CRC and equal the bytes the pool's frame holds now.
    fn assert_log_replays_the_frames(pool: &BufferPool, log: Arc<MemDisk>, ids: &[PageId]) {
        let fresh = MemDisk::new();
        let report = Wal::open(log).unwrap().recover_onto(&fresh).unwrap();
        assert_eq!(report.pages_redone, ids.len() as u64);
        for &id in ids {
            let mut image = Page::zeroed();
            fresh.read_page(id, &mut image).unwrap();
            assert_eq!(image.verify_checksum(), Ok(()), "a logged image is sealed");
            assert_eq!(
                image.bytes(),
                pool.page_shared(id).unwrap().bytes(),
                "the log holds the frame's own bytes"
            );
        }
    }

    #[test]
    fn a_commit_copies_each_dirtied_page_once() {
        let (pool, log, ids, copies, _) = dirty_and_commit(5, false);
        assert_eq!(copies, 5, "one copy on write per page, none to log it");
        assert_log_replays_the_frames(&pool, log, &ids);
    }

    #[test]
    fn a_handle_held_across_a_commit_costs_one_more_copy() {
        let (pool, log, ids, copies, held) = dirty_and_commit(5, true);
        let held = held.unwrap();
        assert_eq!(copies, 6, "sealing the held page copied it once");
        // The handle still has the unsealed bytes it was given.
        assert_eq!(held.get_u32(0), 1);
        assert_ne!(held.stored_checksum(), held.compute_checksum());
        assert!(!Arc::ptr_eq(&held, &pool.page_shared(ids[0]).unwrap()));
        assert_log_replays_the_frames(&pool, log, &ids);
    }
}
