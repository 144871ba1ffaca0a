//! Disk abstraction: where pages ultimately live.
//!
//! The engine is written against the [`Disk`] trait so experiments can run on
//! an in-memory simulated disk ([`MemDisk`], deterministic and fast) while the
//! same code paths work against a real file ([`FileDisk`]). Either way the
//! [`crate::BufferPool`] sits on top and counts physical I/O.

use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Page id past the end of the disk.
    PageOutOfRange(PageId),
    /// An underlying I/O failure (file-backed disks, or injected faults).
    Io(std::io::Error),
    /// Page failed checksum verification even after bounded retries. The
    /// buffer pool never caches a page in this state, so readers cannot
    /// observe corrupt payload bytes.
    Corrupt {
        /// The page whose trailer disagreed with its payload.
        page: PageId,
        /// CRC-32C recomputed from the payload as read.
        expected: u32,
        /// CRC-32C found in the page trailer.
        found: u32,
    },
    /// A [`crate::PagedLog`] catalog carried a `tail` offset beyond the
    /// capacity of its page list (rejected on reload instead of trusted).
    InvalidTail {
        /// The inconsistent tail offset.
        tail: u64,
        /// Total bytes the catalog's pages can hold.
        capacity: u64,
    },
    /// A read addressed bytes past the end of a log or store.
    OutOfBounds {
        /// First byte requested.
        offset: u64,
        /// Bytes requested.
        len: u64,
        /// Logical end of the structure.
        end: u64,
    },
    /// A structural-update entry point was handed a position range that is
    /// empty, inverted, or extends past the store (formerly an `assert!`).
    InvalidRange {
        /// First position of the requested run.
        start: u64,
        /// One past the last position of the requested run.
        end: u64,
        /// Total nodes in the store.
        total: u64,
    },
    /// A decoded node record claims a subtree that cannot be: a size of 0,
    /// or a subtree ending past its parent's subtree or the store. The
    /// record is corrupt or was read torn; no walk that steps by a subtree
    /// size may trust it.
    CorruptSubtree {
        /// Position of the record.
        pos: u64,
        /// The subtree size it claims.
        size: u32,
        /// End of the enclosing subtree (or of the store).
        bound: u64,
    },
    /// [`crate::BufferPool::flush_all`] could not write every dirty page.
    /// Each failed page is listed with its own error; pages not listed were
    /// flushed successfully.
    FlushFailed(
        /// The pages that could not be written, with their causes.
        Vec<(PageId, StorageError)>,
    ),
    /// A write-ahead-log header or record failed validation on open.
    WalCorrupt(
        /// What was wrong with the log.
        &'static str,
    ),
    /// An earlier [`crate::Wal::commit`] failed partway, leaving frames on
    /// disk in an unknown state; further commits are refused until a
    /// checkpoint re-establishes a clean epoch.
    WalPoisoned,
    /// The caller's [`crate::retry::Deadline`] expired (or its
    /// [`crate::retry::CancelToken`] fired) before the operation finished.
    /// This is an *availability* outcome, not a data fault: fail-closed
    /// masking never converts it into "inaccessible", so a timed-out secure
    /// query aborts instead of returning a silently shrunken answer.
    DeadlineExceeded,
    /// The buffer pool's circuit breaker is open after a run of consecutive
    /// surfaced I/O failures; the operation was refused without touching the
    /// disk. Half-open probes (see [`crate::retry::RetryPolicy`]) close the
    /// breaker once the device answers again. Like
    /// [`DeadlineExceeded`](Self::DeadlineExceeded), never masked by
    /// fail-closed.
    BreakerOpen,
}

impl StorageError {
    /// Whether retrying the same operation may succeed (e.g. an interrupted
    /// read). The buffer pool retries these a bounded number of times before
    /// surfacing the error; everything else is permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::PageOutOfRange(id) => write!(f, "page {id} out of range"),
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Corrupt {
                page,
                expected,
                found,
            } => write!(
                f,
                "page {page} corrupt: payload CRC {expected:#010x}, trailer {found:#010x}"
            ),
            StorageError::InvalidTail { tail, capacity } => {
                write!(f, "log tail {tail} exceeds page capacity {capacity}")
            }
            StorageError::OutOfBounds { offset, len, end } => {
                write!(f, "read of {len} bytes at {offset} past logical end {end}")
            }
            StorageError::InvalidRange { start, end, total } => {
                write!(
                    f,
                    "invalid run [{start},{end}) for a store of {total} nodes"
                )
            }
            StorageError::CorruptSubtree { pos, size, bound } => write!(
                f,
                "node {pos} claims a subtree of {size} node(s), which does not fit before {bound}"
            ),
            StorageError::FlushFailed(failures) => {
                write!(f, "flush failed for {} page(s):", failures.len())?;
                for (id, e) in failures {
                    write!(f, " [{id}: {e}]")?;
                }
                Ok(())
            }
            StorageError::WalCorrupt(why) => write!(f, "write-ahead log corrupt: {why}"),
            StorageError::WalPoisoned => write!(
                f,
                "write-ahead log poisoned by an earlier failed commit; checkpoint or reopen"
            ),
            StorageError::DeadlineExceeded => {
                write!(f, "deadline exceeded or operation cancelled")
            }
            StorageError::BreakerOpen => write!(
                f,
                "I/O circuit breaker open after consecutive faults; awaiting a successful probe"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// A page-granular persistent store.
///
/// Implementations must be internally synchronized: the buffer pool calls
/// them through `&self`.
pub trait Disk: Send + Sync {
    /// Reads page `id` into `buf`.
    fn read_page(&self, id: PageId, buf: &mut Page) -> Result<(), StorageError>;
    /// Writes `buf` to page `id`.
    fn write_page(&self, id: PageId, buf: &Page) -> Result<(), StorageError>;
    /// Appends a zeroed page and returns its id.
    fn allocate_page(&self) -> Result<PageId, StorageError>;
    /// Number of allocated pages.
    fn num_pages(&self) -> u32;
    /// Forces previously written pages onto stable storage. The write-ahead
    /// log relies on this barrier to order log records before data pages;
    /// in-memory disks are trivially durable, so the default is a no-op.
    fn sync(&self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// An in-memory disk: a growable vector of pages.
///
/// This is the default substrate for tests and experiments; it makes runs
/// deterministic and lets the buffer pool's counters stand in for real I/O.
#[derive(Default)]
pub struct MemDisk {
    pages: Mutex<Vec<Page>>,
}

impl MemDisk {
    /// Creates an empty in-memory disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// A deep copy of the current page array. The crash-recovery torture
    /// harness snapshots a pristine image once and forks it for every crash
    /// point, so each run replays against identical bytes.
    pub fn fork(&self) -> MemDisk {
        MemDisk {
            pages: Mutex::new(self.pages.lock().clone()),
        }
    }
}

impl Disk for MemDisk {
    fn read_page(&self, id: PageId, buf: &mut Page) -> Result<(), StorageError> {
        let pages = self.pages.lock();
        let src = pages
            .get(id.index())
            .ok_or(StorageError::PageOutOfRange(id))?;
        buf.bytes_mut().copy_from_slice(src.bytes());
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &Page) -> Result<(), StorageError> {
        let mut pages = self.pages.lock();
        let dst = pages
            .get_mut(id.index())
            .ok_or(StorageError::PageOutOfRange(id))?;
        dst.bytes_mut().copy_from_slice(buf.bytes());
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId, StorageError> {
        let mut pages = self.pages.lock();
        let id = PageId(pages.len() as u32);
        pages.push(Page::zeroed());
        Ok(id)
    }

    fn num_pages(&self) -> u32 {
        self.pages.lock().len() as u32
    }
}

/// A file-backed disk. Pages are stored contiguously at offset
/// `id * PAGE_SIZE`.
///
/// Reads and writes are positional (`pread`/`pwrite`): one system call per
/// page, no file cursor to share, and so no lock between two threads reading
/// cold pages. Only allocation is serialised, because it alone extends the
/// file.
pub struct FileDisk {
    file: File,
    /// Allocated pages. Published (`Release`) only after the new page's
    /// zeroes are in the file, so a reader that sees an id in range
    /// (`Acquire`) finds the page behind it.
    pages: AtomicU32,
    alloc: Mutex<()>,
}

impl FileDisk {
    /// Opens (creating if needed, truncating) a disk file at `path`.
    pub fn create(path: &Path) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::over(file, 0))
    }

    /// Opens an existing disk file at `path`.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(Self::over(file, (len / PAGE_SIZE as u64) as u32))
    }

    fn over(file: File, pages: u32) -> Self {
        Self {
            file,
            pages: AtomicU32::new(pages),
            alloc: Mutex::new(()),
        }
    }

    fn offset_of(&self, id: PageId) -> Result<u64, StorageError> {
        if id.0 >= self.pages.load(Ordering::Acquire) {
            return Err(StorageError::PageOutOfRange(id));
        }
        Ok(id.index() as u64 * PAGE_SIZE as u64)
    }
}

impl Disk for FileDisk {
    fn read_page(&self, id: PageId, buf: &mut Page) -> Result<(), StorageError> {
        self.file
            .read_exact_at(buf.bytes_mut(), self.offset_of(id)?)?;
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &Page) -> Result<(), StorageError> {
        self.file.write_all_at(buf.bytes(), self.offset_of(id)?)?;
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId, StorageError> {
        let _serialised = self.alloc.lock();
        let id = PageId(self.pages.load(Ordering::Acquire));
        self.file
            .write_all_at(Page::zeroed().bytes(), id.index() as u64 * PAGE_SIZE as u64)?;
        self.pages.store(id.0 + 1, Ordering::Release);
        Ok(id)
    }

    fn num_pages(&self) -> u32 {
        self.pages.load(Ordering::Acquire)
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn Disk) {
        let a = disk.allocate_page().unwrap();
        let b = disk.allocate_page().unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(disk.num_pages(), 2);

        let mut p = Page::zeroed();
        p.put_u64(0, 42);
        disk.write_page(b, &p).unwrap();

        let mut r = Page::zeroed();
        disk.read_page(b, &mut r).unwrap();
        assert_eq!(r.get_u64(0), 42);
        disk.read_page(a, &mut r).unwrap();
        assert_eq!(r.get_u64(0), 0);

        assert!(disk.read_page(PageId(9), &mut r).is_err());
        assert!(disk.write_page(PageId(9), &p).is_err());
    }

    #[test]
    fn memdisk_behaviour() {
        exercise(&MemDisk::new());
    }

    #[test]
    fn filedisk_behaviour() {
        let dir = std::env::temp_dir().join(format!("dol-disk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.bin");
        {
            let disk = FileDisk::create(&path).unwrap();
            exercise(&disk);
        }
        // Reopen and verify persistence.
        let disk = FileDisk::open(&path).unwrap();
        assert_eq!(disk.num_pages(), 2);
        let mut r = Page::zeroed();
        disk.read_page(PageId(1), &mut r).unwrap();
        assert_eq!(r.get_u64(0), 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filedisk_concurrent_readers_see_exact_pages() {
        let dir = std::env::temp_dir().join(format!("dol-disk-conc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let disk = FileDisk::create(&dir.join("disk.bin")).unwrap();
        // Page `i` is filled with words derived from `i`, so a read that
        // landed on another page's bytes (a shared cursor moved between a
        // seek and its read) cannot pass.
        const PAGES: u32 = 64;
        const SLOTS: usize = crate::page::PAYLOAD_SIZE / 8;
        let word = |page: u32, slot: usize| u64::from(page) << 32 | slot as u64;
        for i in 0..PAGES {
            let id = disk.allocate_page().unwrap();
            let mut p = Page::zeroed();
            for slot in 0..SLOTS {
                p.put_u64(slot * 8, word(i, slot));
            }
            disk.write_page(id, &p).unwrap();
        }
        // Eight readers at once: each sweeps its own stride of pages (the
        // strides are disjoint) and then every page (all of them overlap),
        // while a ninth thread keeps allocating past the end.
        let go = std::sync::Barrier::new(9);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let (disk, go) = (&disk, &go);
                s.spawn(move || {
                    go.wait();
                    let mut p = Page::zeroed();
                    let own = (0..PAGES).filter(|i| i % 8 == t);
                    for i in own.chain(0..PAGES).cycle().take(4 * PAGES as usize) {
                        disk.read_page(PageId(i), &mut p).unwrap();
                        for slot in 0..SLOTS {
                            assert_eq!(p.get_u64(slot * 8), word(i, slot), "page {i}");
                        }
                    }
                });
            }
            let (disk, go) = (&disk, &go);
            s.spawn(move || {
                go.wait();
                for k in 0..32 {
                    assert_eq!(disk.allocate_page().unwrap(), PageId(PAGES + k));
                }
            });
        });
        assert_eq!(disk.num_pages(), PAGES + 32);
        let mut p = Page::zeroed();
        disk.read_page(PageId(PAGES + 31), &mut p).unwrap();
        assert_eq!(p.get_u64(0), 0, "allocated pages read back zeroed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
