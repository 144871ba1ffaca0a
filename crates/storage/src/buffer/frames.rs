//! The frame table: frames, the page map and the lazy LRU heap.
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
//! [`IoStats::victim_probes`]: super::IoStats::victim_probes

use super::{BufferPool, Held};
use crate::disk::StorageError;
use crate::page::{Page, PageId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub(super) struct Frame {
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

impl Frame {
    #[inline]
    pub(super) fn page(&self) -> &Arc<Page> {
        &self.page
    }

    #[inline]
    pub(super) fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The page, to write: the frame is dirty from now on.
    #[inline]
    pub(super) fn dirty_page(&mut self) -> &mut Arc<Page> {
        self.dirty = true;
        &mut self.page
    }

    /// Puts a rolled-back pre-image and its dirty flag back.
    pub(super) fn restore(&mut self, page: Arc<Page>, dirty: bool) {
        self.page = page;
        self.dirty = dirty;
    }
}

/// A min-heap of `(stamp, slot)` LRU entries.
type LruHeap = BinaryHeap<Reverse<(u64, usize)>>;

pub(super) struct Inner {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    /// Exactly one entry per frame, at or below the frame's stamp (see the
    /// module docs). Rebuilt whenever the frame table is reshaped.
    lru: LruHeap,
}

impl Inner {
    pub(super) fn with_capacity(capacity: usize) -> Inner {
        Inner {
            frames: Vec::with_capacity(capacity),
            map: HashMap::new(),
            lru: BinaryHeap::with_capacity(capacity),
        }
    }

    /// The cached page `id`, its LRU stamp raised to the next `tick` if
    /// one is given (a scan passes none, leaving the working set alone).
    /// Shared access suffices.
    #[inline]
    pub(super) fn hit(&self, id: PageId, tick: Option<&AtomicU64>) -> Option<&Arc<Page>> {
        let frame = &self.frames[*self.map.get(&id)?];
        if let Some(tick) = tick {
            let now = tick.fetch_add(1, Ordering::Relaxed) + 1;
            frame.last_used.fetch_max(now, Ordering::Relaxed);
        }
        Some(&frame.page)
    }

    /// The frame caching `id`, if any.
    #[inline]
    pub(super) fn resident_mut(&mut self, id: PageId) -> Option<&mut Frame> {
        self.map.get(&id).map(|&slot| &mut self.frames[slot])
    }

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
#[cfg(any(test, debug_assertions))]
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

impl BufferPool {
    /// Mutable access to `page`, copying it first (and counting the copy)
    /// if another handle to it is held.
    pub(super) fn unshare<'a>(&self, page: &'a mut Arc<Page>) -> &'a mut Page {
        if Arc::get_mut(page).is_none() {
            self.stats.page_copies(1);
            *page = Arc::new(Page::clone(page));
        }
        Arc::get_mut(page).expect("an unshared page")
    }

    /// Writes all dirty cached pages back to the disk. Pages of the open
    /// transaction are skipped (their bytes are uncommitted). Every
    /// page is attempted even after a failure; the failures are aggregated
    /// into one [`StorageError::FlushFailed`], so one bad page cannot block
    /// durability of the rest.
    pub fn flush_all(&self) -> Result<(), StorageError> {
        let _held = Held::enter(self);
        self.write_back_dirty(&mut self.inner.write())
    }

    /// Drops every cached page (flushing dirty ones), so the next accesses
    /// are cold. Experiments call this between runs. Pages of the open
    /// transaction stay cached; dirty pages whose write fails also stay
    /// cached (nothing is lost), with the failures aggregated into one
    /// [`StorageError::FlushFailed`].
    pub fn clear_cache(&self) -> Result<(), StorageError> {
        let _held = Held::enter(self);
        let mut inner = self.inner.write();
        let flushed = self.write_back_dirty(&mut inner);
        // Still dirty: the open transaction's pages and failed writes.
        inner.frames.retain(|frame| frame.dirty);
        inner.map = inner
            .frames
            .iter()
            .enumerate()
            .map(|(slot, fr)| (fr.id, slot))
            .collect();
        inner.rebuild_lru();
        flushed
    }

    /// The body of [`flush_all`](Self::flush_all), under the exclusive
    /// frame lock.
    fn write_back_dirty(&self, inner: &mut Inner) -> Result<(), StorageError> {
        let mut failures: Vec<(PageId, StorageError)> = Vec::new();
        self.with_txn_pages(|in_txn| {
            for frame in inner.frames.iter_mut() {
                if frame.dirty && !in_txn(frame.id) {
                    match self.write_back(frame.id, &mut frame.page) {
                        Ok(()) => frame.dirty = false,
                        Err(e) => failures.push((frame.id, e)),
                    }
                }
            }
        });
        if failures.is_empty() {
            Ok(())
        } else {
            Err(StorageError::FlushFailed(failures))
        }
    }

    /// Ensures `id` is resident and returns its frame. Caller holds the
    /// exclusive frame lock (`inner`).
    pub(super) fn fetch<'a>(
        &self,
        inner: &'a mut Inner,
        id: PageId,
    ) -> Result<&'a mut Frame, StorageError> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(&slot) = inner.map.get(&id) {
            let frame = &mut inner.frames[slot];
            frame.last_used.fetch_max(tick, Ordering::Relaxed);
            return Ok(frame);
        }
        // Reload from the shadow, not the disk, if it holds the page. Peek
        // only — the entry is removed after a frame slot is secured, so a
        // failed victim write-back below cannot cost the transaction its
        // latest image of this page.
        let shadow_page = self.shadow_image(id);
        if shadow_page.is_none() {
            self.stats.physical_reads(1);
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
            self.stats.victim_probes(probes);
            #[cfg(debug_assertions)]
            assert_eq!(
                slot,
                scan_victim(&inner.frames),
                "the LRU heap disagrees with the scan"
            );
            let victim = &mut inner.frames[slot];
            if victim.dirty && !self.spill_to_shadow(victim.id, &victim.page) {
                if let Err(e) = self.write_back(victim.id, &mut victim.page) {
                    // The victim stays resident: its entry goes back.
                    let stamp = victim.last_used.load(Ordering::Relaxed);
                    inner.lru.push(Reverse((stamp, slot)));
                    return Err(e);
                }
            }
            let old_id = inner.frames[slot].id;
            inner.map.remove(&old_id);
            self.stats.evictions(1);
            let frame = &mut inner.frames[slot];
            frame.id = id;
            frame.dirty = false;
            frame.last_used.store(tick, Ordering::Relaxed);
            slot
        };
        let frame = &mut inner.frames[slot];
        if let Some(page) = shadow_page {
            self.unspill(id);
            frame.page = page;
            frame.dirty = true;
        } else if let Err(e) = self.read_verified(id, read_buffer(&mut frame.page)) {
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
        Ok(&mut inner.frames[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{pool, wide, ArmedFailDisk};
    use super::*;
    use crate::disk::{Disk, MemDisk};
    use std::sync::atomic::AtomicBool;

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
                spilled = spilled.max(t.shadow_len());
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
}
