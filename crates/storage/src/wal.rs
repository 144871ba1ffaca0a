//! Physical write-ahead log: crash-consistent multi-page updates.
//!
//! The NoK structural updates of §3.4 splice several 4 KiB pages (block
//! headers, transition arrays, chain links, the value log, the catalog);
//! a power cut between page writes would leave them mutually inconsistent.
//! This module gives the buffer pool a redo-only **physical WAL**: before any
//! data page of a transaction reaches the data disk, the full after-images of
//! every page the transaction dirtied are appended to a separate log disk and
//! synced (*WAL-before-data*). Recovery re-applies committed transactions in
//! commit order and discards torn or uncommitted tails, so every update is
//! atomic: a reopened store is in exactly its before- or after-state.
//!
//! ## On-disk format
//!
//! Log page 0 is the header:
//!
//! ```text
//! off 0   u32  magic "DOLW" (0x444F_4C57)
//! off 4   u32  version (1)
//! off 8   u64  epoch
//! off 16  u32  CRC-32C over bytes 0..16
//! ```
//!
//! Records stream from log page 1 as a dense byte sequence using the *full*
//! page (the WAL bypasses the buffer pool, so pages carry no trailer; each
//! record carries its own CRC instead). A record frame is
//!
//! ```text
//! [type u8][epoch u64 LE][len u32 LE][payload len bytes][crc u32 LE]
//! ```
//!
//! with the CRC-32C computed over `type..payload`. Record types:
//!
//! | type | payload |
//! |---|---|
//! | 1 `Begin`     | `txn_id u64` |
//! | 2 `PageImage` | `page_id u32` + 4096 page bytes |
//! | 3 `Commit`    | `txn_id u64` |
//! | 4 `Batch`     | `txn_id u64` + `members u32` |
//! | 5 `Prepare`   | `txn_id u64` + `gtid u64` |
//!
//! No writer emits `Prepare` any more: older logs used it to leave a
//! two-phase-commit participant's transaction *in doubt*. Recovery still
//! recognises it, so replay does not mistake it for a torn tail and drop
//! every commit logged after it: a `Prepare` record ends its transaction
//! without redoing it (*presumed abort*), and the scan continues.
//!
//! A `Batch` record directly follows `Begin` when the transaction is a
//! group commit folding `members` logical updates into one WAL transaction
//! and one sync. It is bookkeeping, not a unit of atomicity: the batch
//! commits or vanishes as a whole exactly like a plain transaction (a
//! power cut anywhere before the `Commit` record discards every member).
//! Solo commits (`members == 1`) write no `Batch` record, so the format is
//! byte-identical to the pre-batch log for non-batched workloads.
//!
//! A `Checkpoint` is not a record: it bumps the header epoch (one synced
//! header write) after the data disk is flushed and synced, which logically
//! truncates the log — every existing record carries the old epoch and is
//! ignored by the next recovery scan. The byte stream is append-only within
//! an epoch, so rewriting the partial tail page on each commit only ever
//! *extends* previously synced bytes: a torn (sector-prefix) tail write can
//! damage the new suffix but never an already committed record.
//!
//! ## Recovery
//!
//! [`Wal::recover_onto`] scans records of the current epoch from byte 0,
//! stopping at the first frame with an unknown type, a stale epoch, an
//! impossible length, or a CRC mismatch (a torn tail). Transactions whose
//! `Commit` record survived are redone in order by writing their page images
//! straight to the data disk; everything after the last intact record is
//! discarded. If the scan saw any current-epoch bytes at all, recovery ends
//! with a checkpoint so the next crash cannot replay stale frames; a clean
//! open (empty or freshly checkpointed log) performs **zero** writes.

use crate::checksum::crc32c;
use crate::disk::{Disk, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::sync::Arc;

const WAL_MAGIC: u32 = 0x444F_4C57; // "DOLW"
const WAL_VERSION: u32 = 1;

const REC_BEGIN: u8 = 1;
const REC_PAGE_IMAGE: u8 = 2;
const REC_COMMIT: u8 = 3;
const REC_BATCH: u8 = 4;
const REC_PREPARE: u8 = 5;

/// type + epoch + len prefix of a record frame.
const FRAME_HEADER: usize = 1 + 8 + 4;
/// Trailing CRC of a record frame.
const FRAME_CRC: usize = 4;
/// Largest legal payload: a page image (id + page bytes).
const MAX_PAYLOAD: usize = 4 + PAGE_SIZE;

/// Counters exposed by [`Wal::stats`].
#[derive(Debug, Default, Clone, Copy)]
pub struct WalStats {
    /// Record frames appended (across all commits this session).
    pub records: u64,
    /// Committed transactions logged.
    pub commits: u64,
    /// Checkpoints taken (epoch bumps).
    pub checkpoints: u64,
    /// Total record bytes appended.
    pub bytes_logged: u64,
    /// Committed transactions redone by the last recovery.
    pub recovered_commits: u64,
    /// Page images written to the data disk by the last recovery.
    pub redone_pages: u64,
    /// Group commits logged (transactions with a `Batch` record, i.e.
    /// `members > 1`).
    pub batch_commits: u64,
    /// Logical updates folded into those group commits.
    pub batched_members: u64,
}

struct WalInner {
    epoch: u64,
    /// Byte offset (from the start of log page 1) of the next record byte.
    tail: u64,
    /// In-memory image of the page the tail currently falls in.
    tail_page: Page,
    /// Set when a commit failed partway: frames may sit on disk in an
    /// unknown state, so no further transaction is acknowledged until a
    /// checkpoint re-establishes a clean epoch.
    poisoned: bool,
    stats: WalStats,
}

/// A write-ahead log on its own [`Disk`], shared with a
/// [`crate::BufferPool`] via [`crate::BufferPool::attach_wal`].
pub struct Wal {
    disk: Arc<dyn Disk>,
    inner: Mutex<WalInner>,
}

/// What [`Wal::recover_onto`] found and did.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryReport {
    /// Committed transactions redone.
    pub committed_txns: u64,
    /// Page images written to the data disk.
    pub pages_redone: u64,
    /// Bytes of torn or uncommitted tail discarded.
    pub bytes_discarded: u64,
    /// Transactions an older log ended with a `Prepare` record, discarded
    /// as aborted.
    pub prepared_aborted: u64,
}

impl Wal {
    /// Opens (initialising if empty) a write-ahead log on `disk`.
    ///
    /// A disk with zero pages, or an all-zero header page, is formatted
    /// fresh at epoch 1. A non-zero header with a bad magic, version or CRC
    /// is rejected as [`StorageError::WalCorrupt`].
    pub fn open(disk: Arc<dyn Disk>) -> Result<Self, StorageError> {
        let epoch = if disk.num_pages() == 0 {
            disk.allocate_page()?;
            Self::write_header(&*disk, 1)?;
            disk.sync()?;
            1
        } else {
            let mut header = Page::zeroed();
            disk.read_page(PageId(0), &mut header)?;
            if header.bytes().iter().all(|&b| b == 0) {
                Self::write_header(&*disk, 1)?;
                disk.sync()?;
                1
            } else {
                if header.get_u32(0) != WAL_MAGIC {
                    return Err(StorageError::WalCorrupt("bad magic in header"));
                }
                if header.get_u32(4) != WAL_VERSION {
                    return Err(StorageError::WalCorrupt("unsupported version"));
                }
                let crc = crc32c(header.get_bytes(0, 16));
                if crc != header.get_u32(16) {
                    return Err(StorageError::WalCorrupt("header CRC mismatch"));
                }
                header.get_u64(8)
            }
        };
        Ok(Self {
            disk,
            inner: Mutex::new(WalInner {
                epoch,
                tail: 0,
                tail_page: Page::zeroed(),
                poisoned: false,
                stats: WalStats::default(),
            }),
        })
    }

    fn write_header(disk: &dyn Disk, epoch: u64) -> Result<(), StorageError> {
        let mut header = Page::zeroed();
        header.put_u32(0, WAL_MAGIC);
        header.put_u32(4, WAL_VERSION);
        header.put_u64(8, epoch);
        let crc = crc32c(header.get_bytes(0, 16));
        header.put_u32(16, crc);
        disk.write_page(PageId(0), &header)
    }

    /// Bytes of record data currently in the log (since the last
    /// checkpoint). Drives checkpoint scheduling.
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().tail
    }

    /// The current epoch (bumped by every checkpoint).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// A copy of the session counters.
    pub fn stats(&self) -> WalStats {
        self.inner.lock().stats
    }

    /// Appends `Begin` + one `PageImage` per entry + `Commit` for `txn_id`,
    /// then syncs the log disk. Returns the record bytes appended. Once this
    /// returns `Ok`, the transaction survives any crash.
    ///
    /// `members` counts the logical updates a group commit folds into this
    /// one transaction: above 1 it adds a `Batch` record after `Begin`, and a
    /// solo commit (`1`) writes none. Atomicity is per *transaction*: a crash
    /// before the `Commit` record discards every member together.
    ///
    /// A failure partway through leaves frames on disk in an unknown state,
    /// so the tail is rewound to its pre-commit position (the next commit
    /// rewrites the same bytes — the record stream never has a hole a
    /// recovery scan would stop at) and the log is **poisoned**: every
    /// further commit fails with [`StorageError::WalPoisoned`] rather than
    /// acknowledging a transaction recovery might not see. A successful
    /// [`checkpoint`](Self::checkpoint) (flushed + synced data, fresh epoch)
    /// clears the poison.
    pub fn commit(
        &self,
        txn_id: u64,
        pages: &[(PageId, Arc<Page>)],
        members: u32,
    ) -> Result<u64, StorageError> {
        let mut inner = self.inner.lock();
        if inner.poisoned {
            return Err(StorageError::WalPoisoned);
        }
        let start = inner.tail;
        let saved_tail_page = inner.tail_page.clone();
        if let Err(e) = self.commit_records(&mut inner, txn_id, pages, members) {
            inner.tail = start;
            inner.tail_page = saved_tail_page;
            inner.poisoned = true;
            return Err(e);
        }
        let bytes = inner.tail - start;
        inner.stats.commits += 1;
        inner.stats.records += 2 + pages.len() as u64;
        if members > 1 {
            inner.stats.records += 1;
            inner.stats.batch_commits += 1;
            inner.stats.batched_members += u64::from(members);
        }
        inner.stats.bytes_logged += bytes;
        Ok(bytes)
    }

    /// The fallible body of [`commit`](Self::commit): append every frame,
    /// flush the partial tail page, sync.
    fn commit_records(
        &self,
        inner: &mut WalInner,
        txn_id: u64,
        pages: &[(PageId, Arc<Page>)],
        members: u32,
    ) -> Result<(), StorageError> {
        let id_buf = txn_id.to_le_bytes();
        self.append_record(inner, REC_BEGIN, &id_buf, &[])?;
        if members > 1 {
            self.append_record(inner, REC_BATCH, &id_buf, &members.to_le_bytes())?;
        }
        for (id, page) in pages {
            let id_bytes = id.0.to_le_bytes();
            self.append_record(inner, REC_PAGE_IMAGE, &id_bytes, page.bytes())?;
        }
        self.append_record(inner, REC_COMMIT, &id_buf, &[])?;
        self.flush_tail(inner)?;
        self.disk.sync()
    }

    /// Logically truncates the log by bumping the header epoch (one synced
    /// page write). The caller must have flushed **and synced** the data
    /// disk first; [`crate::BufferPool::checkpoint`] enforces that order.
    pub fn checkpoint(&self) -> Result<(), StorageError> {
        let mut inner = self.inner.lock();
        self.checkpoint_locked(&mut inner)
    }

    fn checkpoint_locked(&self, inner: &mut WalInner) -> Result<(), StorageError> {
        let next = inner.epoch + 1;
        Self::write_header(&*self.disk, next)?;
        self.disk.sync()?;
        inner.epoch = next;
        inner.tail = 0;
        inner.tail_page = Page::zeroed();
        // The fresh epoch orphans whatever a failed commit left on disk; the
        // caller flushed and synced the data first, so the log is clean again.
        inner.poisoned = false;
        inner.stats.checkpoints += 1;
        Ok(())
    }

    /// Whether a failed commit has poisoned the log (cleared by a
    /// successful [`checkpoint`](Self::checkpoint)).
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    /// Scans the log and redoes committed transactions onto `data`
    /// (allocating pages as needed), discarding any torn or uncommitted
    /// tail. Ends with a checkpoint *iff* the scan saw current-epoch bytes,
    /// so a clean open performs no writes at all. Call before constructing a
    /// buffer pool over `data`.
    pub fn recover_onto(&self, data: &dyn Disk) -> Result<RecoveryReport, StorageError> {
        let mut inner = self.inner.lock();
        let epoch = inner.epoch;
        let mut pos = 0u64;
        let mut saw_current_epoch = false;
        // Committed transactions in stream (commit) order; the one
        // currently open, if any, sits in `open`.
        let mut committed: Vec<Vec<(PageId, Page)>> = Vec::new();
        let mut prepared_aborted = 0u64;
        let mut open: Option<(u64, Vec<(PageId, Page)>)> = None;
        let mut frame = vec![0u8; FRAME_HEADER + MAX_PAYLOAD + FRAME_CRC];
        let mut discarded = 0u64;
        loop {
            let header = &mut frame[..FRAME_HEADER];
            if !self.read_at(pos, header)? {
                break;
            }
            let rec_type = header[0];
            let rec_epoch = u64::from_le_bytes(header[1..9].try_into().expect("8-byte slice"));
            let len = u32::from_le_bytes(header[9..13].try_into().expect("4-byte slice")) as usize;
            if !(REC_BEGIN..=REC_PREPARE).contains(&rec_type) || len > MAX_PAYLOAD {
                break;
            }
            if rec_epoch != epoch {
                break;
            }
            saw_current_epoch = true;
            let total = FRAME_HEADER + len + FRAME_CRC;
            if !self.read_at(pos, &mut frame[..total])? {
                discarded = total as u64; // frame past the physical log: torn
                break;
            }
            let crc_stored = u32::from_le_bytes(
                frame[total - FRAME_CRC..total]
                    .try_into()
                    .expect("4-byte slice"),
            );
            if crc32c(&frame[..total - FRAME_CRC]) != crc_stored {
                discarded = total as u64; // torn or corrupt record
                break;
            }
            let payload = &frame[FRAME_HEADER..FRAME_HEADER + len];
            match rec_type {
                REC_BEGIN => {
                    if payload.len() != 8 {
                        break;
                    }
                    let id = u64::from_le_bytes(payload.try_into().expect("8-byte slice"));
                    open = Some((id, Vec::new()));
                }
                REC_BATCH => {
                    // Group-commit bookkeeping: must sit inside the open
                    // transaction it annotates and claim at least one member.
                    if payload.len() != 12 {
                        break;
                    }
                    let id = u64::from_le_bytes(payload[..8].try_into().expect("8-byte slice"));
                    let members =
                        u32::from_le_bytes(payload[8..12].try_into().expect("4-byte slice"));
                    match open.as_ref() {
                        Some((open_id, _)) if *open_id == id && members >= 1 => {}
                        _ => break, // batch record outside its transaction
                    }
                }
                REC_PAGE_IMAGE => {
                    if payload.len() != 4 + PAGE_SIZE {
                        break;
                    }
                    let Some((_, images)) = open.as_mut() else {
                        break; // image outside a transaction: structural damage
                    };
                    let id = PageId(u32::from_le_bytes(
                        payload[..4].try_into().expect("4-byte slice"),
                    ));
                    let mut page = Page::zeroed();
                    page.bytes_mut().copy_from_slice(&payload[4..]);
                    images.push((id, page));
                }
                REC_PREPARE => {
                    // An older log's in-doubt transaction: it ends here and
                    // is never redone (presumed abort); its images stay
                    // orphaned behind the ending checkpoint.
                    if payload.len() != 16 {
                        break;
                    }
                    let id = u64::from_le_bytes(payload[..8].try_into().expect("8-byte slice"));
                    match open.take() {
                        Some((open_id, _)) if open_id == id => prepared_aborted += 1,
                        _ => break, // prepare without a matching begin
                    }
                }
                _ => {
                    // REC_COMMIT (the range check above admits nothing else).
                    if payload.len() != 8 {
                        break;
                    }
                    let id = u64::from_le_bytes(payload.try_into().expect("8-byte slice"));
                    match open.take() {
                        Some((open_id, images)) if open_id == id => committed.push(images),
                        _ => break, // commit without a matching begin
                    }
                }
            }
            pos += total as u64;
        }
        // Images parsed for a transaction whose Commit never made it are
        // discarded along with any rejected frame.
        if let Some((_, images)) = &open {
            discarded += images
                .iter()
                .map(|_| (FRAME_HEADER + 4 + PAGE_SIZE + FRAME_CRC) as u64)
                .sum::<u64>()
                + (FRAME_HEADER + 8 + FRAME_CRC) as u64;
        }

        let mut report = RecoveryReport {
            committed_txns: committed.len() as u64,
            bytes_discarded: discarded,
            prepared_aborted,
            ..RecoveryReport::default()
        };
        for images in &committed {
            for (id, page) in images {
                while data.num_pages() <= id.0 {
                    data.allocate_page()?;
                }
                data.write_page(*id, page)?;
                report.pages_redone += 1;
            }
        }
        if !committed.is_empty() {
            data.sync()?;
        }
        inner.stats.recovered_commits = report.committed_txns;
        inner.stats.redone_pages = report.pages_redone;
        if saw_current_epoch {
            // Current-epoch frames exist on disk (committed, torn, or merely
            // uncommitted). Bump the epoch so nothing can resurrect them.
            self.checkpoint_locked(&mut inner)?;
        } else {
            inner.tail = 0;
            inner.tail_page = Page::zeroed();
            // No current-epoch bytes survive on disk, so whatever a failed
            // commit left behind is unreachable: the log is clean again and
            // in-process recovery may resume committing without a separate
            // checkpoint.
            inner.poisoned = false;
        }
        Ok(report)
    }

    /// Appends one record frame (`prefix` then `rest` form the payload)
    /// through the buffered tail page.
    fn append_record(
        &self,
        inner: &mut WalInner,
        rec_type: u8,
        prefix: &[u8],
        rest: &[u8],
    ) -> Result<(), StorageError> {
        let len = prefix.len() + rest.len();
        debug_assert!(len <= MAX_PAYLOAD);
        let mut buf = Vec::with_capacity(FRAME_HEADER + len + FRAME_CRC);
        buf.push(rec_type);
        buf.extend_from_slice(&inner.epoch.to_le_bytes());
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        buf.extend_from_slice(prefix);
        buf.extend_from_slice(rest);
        let crc = crc32c(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        self.append_bytes(inner, &buf)
    }

    /// Appends raw bytes at the tail, writing out each log page as it
    /// fills. The final partial page stays buffered until
    /// [`flush_tail`](Self::flush_tail).
    fn append_bytes(&self, inner: &mut WalInner, mut bytes: &[u8]) -> Result<(), StorageError> {
        while !bytes.is_empty() {
            let off = (inner.tail % PAGE_SIZE as u64) as usize;
            let room = PAGE_SIZE - off;
            let take = room.min(bytes.len());
            inner.tail_page.bytes_mut()[off..off + take].copy_from_slice(&bytes[..take]);
            inner.tail += take as u64;
            bytes = &bytes[take..];
            if off + take == PAGE_SIZE {
                // Page full: write it out and start the next one.
                let page_idx = (inner.tail / PAGE_SIZE as u64) as u32; // 1-based data index
                self.write_log_page(page_idx - 1, &inner.tail_page)?;
                inner.tail_page = Page::zeroed();
            }
        }
        Ok(())
    }

    /// Writes the buffered partial tail page (if any bytes are pending).
    fn flush_tail(&self, inner: &mut WalInner) -> Result<(), StorageError> {
        let off = (inner.tail % PAGE_SIZE as u64) as usize;
        if off != 0 {
            let page_idx = (inner.tail / PAGE_SIZE as u64) as u32;
            self.write_log_page(page_idx, &inner.tail_page)?;
        }
        Ok(())
    }

    /// Writes log page `idx` (0-based within the record area, i.e. physical
    /// page `idx + 1`), allocating up to it if needed.
    fn write_log_page(&self, idx: u32, page: &Page) -> Result<(), StorageError> {
        let physical = idx + 1;
        while self.disk.num_pages() <= physical {
            self.disk.allocate_page()?;
        }
        self.disk.write_page(PageId(physical), page)
    }

    /// Reads `buf.len()` record-area bytes starting at byte `pos`.
    /// Returns `false` (leaving `buf` unspecified) if the range extends past
    /// the physically allocated log.
    fn read_at(&self, pos: u64, buf: &mut [u8]) -> Result<bool, StorageError> {
        let mut page = Page::zeroed();
        let mut done = 0usize;
        while done < buf.len() {
            let at = pos + done as u64;
            let physical = (at / PAGE_SIZE as u64) as u32 + 1;
            if physical >= self.disk.num_pages() {
                return Ok(false);
            }
            let off = (at % PAGE_SIZE as u64) as usize;
            self.disk.read_page(PageId(physical), &mut page)?;
            let take = (PAGE_SIZE - off).min(buf.len() - done);
            buf[done..done + take].copy_from_slice(&page.bytes()[off..off + take]);
            done += take;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn filled(tag: u8) -> Arc<Page> {
        let mut p = Page::zeroed();
        for (i, b) in p.bytes_mut().iter_mut().enumerate() {
            *b = tag.wrapping_add(i as u8);
        }
        Arc::new(p)
    }

    #[test]
    fn commit_then_recover_redoes_pages() {
        let log = Arc::new(MemDisk::new());
        let data = MemDisk::new();
        let wal = Wal::open(log.clone()).unwrap();
        wal.commit(1, &[(PageId(3), filled(7)), (PageId(0), filled(9))], 1)
            .unwrap();

        // A second Wal instance simulates a fresh process.
        let wal2 = Wal::open(log).unwrap();
        let report = wal2.recover_onto(&data).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.pages_redone, 2);
        let mut p = Page::zeroed();
        data.read_page(PageId(3), &mut p).unwrap();
        assert_eq!(p.bytes(), filled(7).bytes());
        data.read_page(PageId(0), &mut p).unwrap();
        assert_eq!(p.bytes(), filled(9).bytes());
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let log = Arc::new(MemDisk::new());
        let wal = Wal::open(log.clone()).unwrap();
        wal.commit(1, &[(PageId(1), filled(1))], 1).unwrap();
        // Hand-append a Begin with no Commit (as if the crash hit mid-txn).
        {
            let mut inner = wal.inner.lock();
            let id = 2u64.to_le_bytes();
            wal.append_record(&mut inner, REC_BEGIN, &id, &[]).unwrap();
            let pid = 9u32.to_le_bytes();
            wal.append_record(&mut inner, REC_PAGE_IMAGE, &pid, filled(2).bytes())
                .unwrap();
            wal.flush_tail(&mut inner).unwrap();
        }
        let data = MemDisk::new();
        let wal2 = Wal::open(log).unwrap();
        let report = wal2.recover_onto(&data).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.pages_redone, 1);
        // Only txn 1's page exists; the orphan image was discarded.
        assert!(data.num_pages() == 2);
    }

    #[test]
    fn torn_record_is_discarded() {
        let log = Arc::new(MemDisk::new());
        let wal = Wal::open(log.clone()).unwrap();
        wal.commit(1, &[(PageId(1), filled(1))], 1).unwrap();
        let boundary = wal.log_bytes();
        wal.commit(2, &[(PageId(2), filled(2))], 1).unwrap();
        // Corrupt one byte of txn 2's image: its CRC now fails.
        let victim = boundary + (FRAME_HEADER + 8 + FRAME_CRC) as u64 + FRAME_HEADER as u64 + 10;
        let pid = PageId((victim / PAGE_SIZE as u64) as u32 + 1);
        let mut page = Page::zeroed();
        log.read_page(pid, &mut page).unwrap();
        page.bytes_mut()[(victim % PAGE_SIZE as u64) as usize] ^= 0xFF;
        log.write_page(pid, &page).unwrap();

        let data = MemDisk::new();
        let wal2 = Wal::open(log).unwrap();
        let report = wal2.recover_onto(&data).unwrap();
        assert_eq!(report.committed_txns, 1); // txn 2 is gone, txn 1 intact
        let mut p = Page::zeroed();
        data.read_page(PageId(1), &mut p).unwrap();
        assert_eq!(p.bytes(), filled(1).bytes());
    }

    #[test]
    fn checkpoint_invalidates_old_records() {
        let log = Arc::new(MemDisk::new());
        let wal = Wal::open(log.clone()).unwrap();
        wal.commit(1, &[(PageId(5), filled(5))], 1).unwrap();
        assert!(wal.log_bytes() > 0);
        wal.checkpoint().unwrap();
        assert_eq!(wal.log_bytes(), 0);

        let data = MemDisk::new();
        let wal2 = Wal::open(log).unwrap();
        let report = wal2.recover_onto(&data).unwrap();
        assert_eq!(report.committed_txns, 0);
        assert_eq!(data.num_pages(), 0); // nothing redone
    }

    #[test]
    fn clean_open_writes_nothing() {
        let log = Arc::new(MemDisk::new());
        Wal::open(log.clone()).unwrap(); // initialises the header
        let before: Vec<u8> = {
            let mut h = Page::zeroed();
            log.read_page(PageId(0), &mut h).unwrap();
            h.bytes().to_vec()
        };
        let wal = Wal::open(log.clone()).unwrap();
        let data = MemDisk::new();
        wal.recover_onto(&data).unwrap();
        let mut h = Page::zeroed();
        log.read_page(PageId(0), &mut h).unwrap();
        assert_eq!(h.bytes().as_slice(), before.as_slice());
        assert_eq!(data.num_pages(), 0);
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let log = Arc::new(MemDisk::new());
        Wal::open(log.clone()).unwrap();
        let mut h = Page::zeroed();
        log.read_page(PageId(0), &mut h).unwrap();
        h.put_u64(8, 99); // epoch changed without recomputing the CRC
        log.write_page(PageId(0), &h).unwrap();
        assert!(matches!(
            Wal::open(log),
            Err(StorageError::WalCorrupt("header CRC mismatch"))
        ));
    }

    /// A disk that fails the next N `write_page` calls with a permanent
    /// I/O error, then behaves normally again.
    struct FlakyDisk {
        inner: MemDisk,
        fail_next: std::sync::atomic::AtomicU64,
    }

    impl FlakyDisk {
        fn new() -> Self {
            Self {
                inner: MemDisk::new(),
                fail_next: std::sync::atomic::AtomicU64::new(0),
            }
        }

        fn fail_next_writes(&self, n: u64) {
            self.fail_next.store(n, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl Disk for FlakyDisk {
        fn read_page(&self, id: PageId, buf: &mut Page) -> Result<(), StorageError> {
            self.inner.read_page(id, buf)
        }

        fn write_page(&self, id: PageId, buf: &Page) -> Result<(), StorageError> {
            use std::sync::atomic::Ordering;
            if self.fail_next.load(Ordering::SeqCst) > 0 {
                self.fail_next.fetch_sub(1, Ordering::SeqCst);
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
    fn failed_commit_rewinds_and_poisons_until_checkpoint() {
        let log = Arc::new(FlakyDisk::new());
        let wal = Wal::open(log.clone()).unwrap();
        wal.commit(1, &[(PageId(1), filled(1))], 1).unwrap();
        let tail_before = wal.log_bytes();

        // A one-page commit spans a log-page boundary, so one physical write
        // happens mid-append; fail it.
        log.fail_next_writes(1);
        assert!(wal.commit(2, &[(PageId(2), filled(2))], 1).is_err());
        assert!(wal.is_poisoned());
        assert_eq!(wal.log_bytes(), tail_before); // tail rewound, no hole

        // No further transaction is acknowledged while poisoned.
        assert!(matches!(
            wal.commit(3, &[(PageId(3), filled(3))], 1),
            Err(StorageError::WalPoisoned)
        ));

        // Recovery from the bytes actually on disk sees only txn 1.
        {
            let data = MemDisk::new();
            let wal2 = Wal::open(Arc::new(log.inner.fork())).unwrap();
            let report = wal2.recover_onto(&data).unwrap();
            assert_eq!(report.committed_txns, 1);
        }

        // A checkpoint re-establishes a clean epoch and clears the poison;
        // the next commit overwrites the failed one's leftover frames.
        wal.checkpoint().unwrap();
        assert!(!wal.is_poisoned());
        wal.commit(4, &[(PageId(7), filled(9))], 1).unwrap();

        let data = MemDisk::new();
        let wal2 = Wal::open(Arc::new(log.inner.fork())).unwrap();
        let report = wal2.recover_onto(&data).unwrap();
        assert_eq!(report.committed_txns, 1); // txn 1 checkpointed away
        let mut p = Page::zeroed();
        data.read_page(PageId(7), &mut p).unwrap();
        assert_eq!(p.bytes(), filled(9).bytes());
    }

    #[test]
    fn batched_commit_recovers_as_one_transaction() {
        let log = Arc::new(MemDisk::new());
        let wal = Wal::open(log.clone()).unwrap();
        wal.commit(1, &[(PageId(0), filled(1)), (PageId(1), filled(2))], 3)
            .unwrap();
        let stats = wal.stats();
        assert_eq!(stats.batch_commits, 1);
        assert_eq!(stats.batched_members, 3);
        assert_eq!(stats.commits, 1);

        let data = MemDisk::new();
        let wal2 = Wal::open(log).unwrap();
        let report = wal2.recover_onto(&data).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.pages_redone, 2);
        let mut p = Page::zeroed();
        data.read_page(PageId(1), &mut p).unwrap();
        assert_eq!(p.bytes(), filled(2).bytes());
    }

    #[test]
    fn torn_batched_commit_discards_every_member() {
        // Append a batch whose Commit record never lands: the whole batch —
        // every member's images — must be discarded, never a prefix.
        let log = Arc::new(MemDisk::new());
        let wal = Wal::open(log.clone()).unwrap();
        {
            let mut inner = wal.inner.lock();
            let id = 7u64.to_le_bytes();
            wal.append_record(&mut inner, REC_BEGIN, &id, &[]).unwrap();
            wal.append_record(&mut inner, REC_BATCH, &id, &2u32.to_le_bytes())
                .unwrap();
            for pid in [3u32, 4u32] {
                wal.append_record(
                    &mut inner,
                    REC_PAGE_IMAGE,
                    &pid.to_le_bytes(),
                    filled(9).bytes(),
                )
                .unwrap();
            }
            wal.flush_tail(&mut inner).unwrap();
        }
        let data = MemDisk::new();
        let wal2 = Wal::open(log).unwrap();
        let report = wal2.recover_onto(&data).unwrap();
        assert_eq!(report.committed_txns, 0);
        assert_eq!(report.pages_redone, 0);
        assert_eq!(data.num_pages(), 0);
    }

    /// One record frame, encoded by hand from the format table in the
    /// module docs rather than through the writer.
    fn frame(rec_type: u8, epoch: u64, payload: &[u8]) -> Vec<u8> {
        let mut f = vec![rec_type];
        f.extend_from_slice(&epoch.to_le_bytes());
        f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        f.extend_from_slice(payload);
        let crc = crc32c(&f);
        f.extend_from_slice(&crc.to_le_bytes());
        f
    }

    fn image(id: u32, page: &Page) -> Vec<u8> {
        let mut payload = id.to_le_bytes().to_vec();
        payload.extend_from_slice(page.bytes());
        payload
    }

    #[test]
    fn an_old_logs_prepare_record_is_discarded_and_replay_continues() {
        // An older writer's log: txn 1 ends in Prepare(gtid 77) over pages
        // 0 and 2, then txn 2 commits a new image of page 0.
        let epoch = 1u64;
        let mut stream = Vec::new();
        stream.extend(frame(REC_BEGIN, epoch, &1u64.to_le_bytes()));
        stream.extend(frame(REC_PAGE_IMAGE, epoch, &image(0, &filled(50))));
        stream.extend(frame(REC_PAGE_IMAGE, epoch, &image(2, &filled(5))));
        let mut prepare = 1u64.to_le_bytes().to_vec();
        prepare.extend_from_slice(&77u64.to_le_bytes());
        stream.extend(frame(REC_PREPARE, epoch, &prepare));
        stream.extend(frame(REC_BEGIN, epoch, &2u64.to_le_bytes()));
        stream.extend(frame(REC_PAGE_IMAGE, epoch, &image(0, &filled(200))));
        stream.extend(frame(REC_COMMIT, epoch, &2u64.to_le_bytes()));

        let log = Arc::new(MemDisk::new());
        let mut header = Page::zeroed();
        header.put_u32(0, WAL_MAGIC);
        header.put_u32(4, WAL_VERSION);
        header.put_u64(8, epoch);
        header.put_u32(16, crc32c(header.get_bytes(0, 16)));
        log.allocate_page().unwrap();
        log.write_page(PageId(0), &header).unwrap();
        for (i, chunk) in stream.chunks(PAGE_SIZE).enumerate() {
            let mut page = Page::zeroed();
            page.bytes_mut()[..chunk.len()].copy_from_slice(chunk);
            log.allocate_page().unwrap();
            log.write_page(PageId(i as u32 + 1), &page).unwrap();
        }

        let data = MemDisk::new();
        let report = Wal::open(log).unwrap().recover_onto(&data).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.prepared_aborted, 1);
        assert_eq!(report.pages_redone, 1);
        assert_eq!(report.bytes_discarded, 0);
        let mut p = Page::zeroed();
        data.read_page(PageId(0), &mut p).unwrap();
        assert_eq!(p.bytes(), filled(200).bytes());
        // The prepared-only page was never redone.
        assert_eq!(data.num_pages(), 1);
    }

    #[test]
    fn multi_commit_order_is_replayed() {
        // Two commits touching the same page: recovery must apply the later
        // image last.
        let log = Arc::new(MemDisk::new());
        let wal = Wal::open(log.clone()).unwrap();
        wal.commit(1, &[(PageId(0), filled(1))], 1).unwrap();
        wal.commit(2, &[(PageId(0), filled(200))], 1).unwrap();
        let data = MemDisk::new();
        let wal2 = Wal::open(log).unwrap();
        wal2.recover_onto(&data).unwrap();
        let mut p = Page::zeroed();
        data.read_page(PageId(0), &mut p).unwrap();
        assert_eq!(p.bytes(), filled(200).bytes());
    }
}
