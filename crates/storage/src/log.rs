//! A paged append log and the node-value store built on it.
//!
//! The NoK scheme stores "the structure of the data tree … separately from
//! the node values in a compact representation". [`ValueStore`] is that
//! separate side: character data lives in an append-only [`PagedLog`], keyed
//! by document position, so structural pages stay dense and navigation never
//! drags value bytes through the buffer pool unless a query actually needs
//! them (e.g. for a `[tag="v"]` predicate).

use crate::buffer::BufferPool;
use crate::disk::StorageError;
use crate::page::{PageId, PAYLOAD_SIZE};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An append-only byte log spread over pages of a [`BufferPool`].
///
/// Logical offsets are dense over page *payloads*: byte `o` lives on the
/// log's `o / PAYLOAD_SIZE`-th page (the last 4 bytes of each page are the
/// CRC trailer). Records may span page boundaries.
#[derive(Clone)]
pub struct PagedLog {
    pool: Arc<BufferPool>,
    pages: Vec<PageId>,
    tail: u64,
}

impl PagedLog {
    /// Creates an empty log writing through `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Self {
            pool,
            pages: Vec::new(),
            tail: 0,
        }
    }

    /// Re-attaches a log to pages written earlier (persistence reload).
    ///
    /// A catalog whose `tail` exceeds the capacity of `pages` is corrupt
    /// (or stale); it is rejected with [`StorageError::InvalidTail`] rather
    /// than trusted — indexing past the page list would panic later.
    pub fn from_parts(
        pool: Arc<BufferPool>,
        pages: Vec<PageId>,
        tail: u64,
    ) -> Result<Self, StorageError> {
        let capacity = pages.len() as u64 * PAYLOAD_SIZE as u64;
        if tail > capacity {
            return Err(StorageError::InvalidTail { tail, capacity });
        }
        Ok(Self { pool, pages, tail })
    }

    /// The pages backing the log, in logical order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Total bytes appended.
    pub fn len(&self) -> u64 {
        self.tail
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.tail == 0
    }

    /// Number of pages backing the log.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Appends `data`, returning its starting logical offset.
    pub fn append(&mut self, data: &[u8]) -> Result<u64, StorageError> {
        let start = self.tail;
        let mut written = 0usize;
        while written < data.len() {
            let off = self.tail as usize % PAYLOAD_SIZE;
            let page_idx = (self.tail / PAYLOAD_SIZE as u64) as usize;
            if page_idx == self.pages.len() {
                self.pages.push(self.pool.allocate_page()?);
            }
            let n = (PAYLOAD_SIZE - off).min(data.len() - written);
            let chunk = &data[written..written + n];
            self.pool
                .with_page_mut(self.pages[page_idx], |p| p.put_bytes(off, chunk))?;
            written += n;
            self.tail += n as u64;
        }
        // Zero-length appends still get a valid offset.
        Ok(start)
    }

    /// Reads `len` bytes starting at logical `offset`. A read past the tail
    /// returns [`StorageError::OutOfBounds`]: a corrupt index entry can
    /// request arbitrary ranges, and that must not crash the process.
    pub fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > self.tail)
        {
            return Err(StorageError::OutOfBounds {
                offset,
                len: len as u64,
                end: self.tail,
            });
        }
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while out.len() < len {
            let page_idx = (pos / PAYLOAD_SIZE as u64) as usize;
            let off = pos as usize % PAYLOAD_SIZE;
            let n = (PAYLOAD_SIZE - off).min(len - out.len());
            self.pool.with_page(self.pages[page_idx], |p| {
                out.extend_from_slice(p.get_bytes(off, n))
            })?;
            pos += n as u64;
        }
        Ok(out)
    }
}

/// Character-data storage keyed by document position.
///
/// Positions are the same document-order ranks used by the structural store,
/// so structural updates that shift positions must call
/// [`shift_positions`](ValueStore::shift_positions) /
/// [`remove_range`](ValueStore::remove_range) to keep the key space aligned.
/// The bytes themselves are immutable in the log; deletion only drops index
/// entries (space is reclaimed by a rebuild, which the engine performs on
/// bulk reload).
#[derive(Clone)]
pub struct ValueStore {
    log: PagedLog,
    index: BTreeMap<u64, (u64, u32)>,
}

impl ValueStore {
    /// Creates an empty value store writing through `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Self {
            log: PagedLog::new(pool),
            index: BTreeMap::new(),
        }
    }

    /// Reopens a value store from its persisted index. Structural updates
    /// edit the index without rewriting the log
    /// ([`remove_range`](Self::remove_range) /
    /// [`shift_positions`](Self::shift_positions)), so the log holds stale
    /// records and only the index says which are live: the persistence layer
    /// saves [`index_entries`](Self::index_entries) and restores them here.
    pub fn from_snapshot(
        pool: Arc<BufferPool>,
        pages: Vec<PageId>,
        tail: u64,
        entries: impl IntoIterator<Item = (u64, u64, u32)>,
    ) -> Result<Self, StorageError> {
        let log = PagedLog::from_parts(pool, pages, tail)?;
        let mut index = BTreeMap::new();
        for (pos, off, len) in entries {
            let end = off.checked_add(u64::from(len));
            if end.is_none() || end.expect("checked above") > log.len() {
                return Err(StorageError::OutOfBounds {
                    offset: off,
                    len: u64::from(len),
                    end: log.len(),
                });
            }
            index.insert(pos, (off, len));
        }
        Ok(Self { log, index })
    }

    /// The live index as `(pos, log offset, byte length)` entries in
    /// position order — the exact input
    /// [`from_snapshot`](Self::from_snapshot) takes.
    pub fn index_entries(&self) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        self.index.iter().map(|(&p, &(off, len))| (p, off, len))
    }

    /// Stores the value of the node at `pos` (replacing any previous value).
    /// Entries carry a `(pos, len)` header, so the log is self-describing.
    pub fn put(&mut self, pos: u64, value: &str) -> Result<(), StorageError> {
        let mut rec = Vec::with_capacity(12 + value.len());
        rec.extend_from_slice(&pos.to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(value.as_bytes());
        let off = self.log.append(&rec)?;
        self.index.insert(pos, (off + 12, value.len() as u32));
        Ok(())
    }

    /// The log pages, for persistence catalogs.
    pub fn log_pages(&self) -> &[PageId] {
        self.log.pages()
    }

    /// The log tail offset, for persistence catalogs.
    pub fn log_tail(&self) -> u64 {
        self.log.len()
    }

    /// Fetches the value of the node at `pos`.
    pub fn get(&self, pos: u64) -> Result<Option<String>, StorageError> {
        match self.index.get(&pos) {
            None => Ok(None),
            Some(&(off, len)) => {
                let bytes = self.log.read(off, len as usize)?;
                Ok(Some(String::from_utf8_lossy(&bytes).into_owned()))
            }
        }
    }

    /// Whether the node at `pos` has a value.
    pub fn has_value(&self, pos: u64) -> bool {
        self.index.contains_key(&pos)
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no values are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes of value data appended so far.
    pub fn bytes(&self) -> u64 {
        self.log.len()
    }

    /// Drops values for positions in `[start, end)` (subtree deletion).
    pub fn remove_range(&mut self, start: u64, end: u64) {
        let doomed: Vec<u64> = self.index.range(start..end).map(|(&p, _)| p).collect();
        for p in doomed {
            self.index.remove(&p);
        }
    }

    /// Shifts all positions `>= from` by `delta` (structural updates).
    pub fn shift_positions(&mut self, from: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        let moved: Vec<(u64, (u64, u32))> =
            self.index.range(from..).map(|(&p, &v)| (p, v)).collect();
        for (p, _) in &moved {
            self.index.remove(p);
        }
        for (p, v) in moved {
            let np = (p as i64 + delta) as u64;
            self.index.insert(np, v);
        }
    }

    /// Iterates `(position, byte length)` pairs in position order.
    pub fn iter_lens(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.index.iter().map(|(&p, &(_, len))| (p, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn store() -> ValueStore {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        ValueStore::new(pool)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut vs = store();
        vs.put(3, "hello").unwrap();
        vs.put(10, "world").unwrap();
        assert_eq!(vs.get(3).unwrap().as_deref(), Some("hello"));
        assert_eq!(vs.get(10).unwrap().as_deref(), Some("world"));
        assert_eq!(vs.get(4).unwrap(), None);
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn values_span_pages() {
        let mut vs = store();
        let big = "x".repeat(3 * PAYLOAD_SIZE + 17);
        vs.put(0, "small").unwrap();
        vs.put(1, &big).unwrap();
        vs.put(2, "after").unwrap();
        assert_eq!(vs.get(1).unwrap().unwrap(), big);
        assert_eq!(vs.get(2).unwrap().as_deref(), Some("after"));
        assert!(vs.bytes() > 3 * PAYLOAD_SIZE as u64);
    }

    #[test]
    fn overwrite_replaces() {
        let mut vs = store();
        vs.put(5, "a").unwrap();
        vs.put(5, "bb").unwrap();
        assert_eq!(vs.get(5).unwrap().as_deref(), Some("bb"));
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn shift_and_remove() {
        let mut vs = store();
        for p in 0..10u64 {
            vs.put(p, &format!("v{p}")).unwrap();
        }
        vs.remove_range(3, 6);
        assert_eq!(vs.len(), 7);
        assert!(!vs.has_value(4));
        // Delete shifted everything at/after 6 down by 3.
        vs.shift_positions(6, -3);
        assert_eq!(vs.get(3).unwrap().as_deref(), Some("v6"));
        assert_eq!(vs.get(6).unwrap().as_deref(), Some("v9"));
        assert!(!vs.has_value(9));
        // And shift up.
        vs.shift_positions(0, 2);
        assert_eq!(vs.get(2).unwrap().as_deref(), Some("v0"));
    }

    #[test]
    fn from_parts_rejects_inconsistent_tail() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        let pages = vec![pool.allocate_page().unwrap(), pool.allocate_page().unwrap()];
        let capacity = 2 * PAYLOAD_SIZE as u64;
        // Exactly full is fine; one byte past the capacity is rejected.
        assert!(PagedLog::from_parts(pool.clone(), pages.clone(), capacity).is_ok());
        match PagedLog::from_parts(pool.clone(), pages, capacity + 1) {
            Err(StorageError::InvalidTail {
                tail,
                capacity: cap,
            }) => {
                assert_eq!(tail, capacity + 1);
                assert_eq!(cap, capacity);
            }
            other => panic!("expected InvalidTail, got {:?}", other.map(|_| ())),
        }
        // A non-empty tail with no pages at all is the degenerate case.
        assert!(matches!(
            PagedLog::from_parts(pool, Vec::new(), 1),
            Err(StorageError::InvalidTail { .. })
        ));
    }

    #[test]
    fn read_past_tail_is_a_typed_error() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        let mut log = PagedLog::new(pool);
        log.append(b"0123456789").unwrap();
        assert_eq!(log.read(4, 3).unwrap(), b"456");
        assert!(matches!(
            log.read(8, 5),
            Err(StorageError::OutOfBounds {
                offset: 8,
                len: 5,
                end: 10
            })
        ));
        // Offset + len overflowing u64 must not wrap around into range.
        assert!(matches!(
            log.read(u64::MAX - 1, 4),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn empty_value_ok() {
        let mut vs = store();
        vs.put(1, "").unwrap();
        assert_eq!(vs.get(1).unwrap().as_deref(), Some(""));
    }

    #[test]
    fn reopen_from_the_persisted_index() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 16));
        let mut vs = ValueStore::new(pool.clone());
        for p in 0..200u64 {
            vs.put(p, &format!("value-{p}")).unwrap();
        }
        vs.put(13, "overwritten").unwrap(); // later entry must win
        let big = "y".repeat(2 * PAYLOAD_SIZE);
        vs.put(500, &big).unwrap();
        let pages = vs.log_pages().to_vec();
        let tail = vs.log_tail();
        pool.flush_all().unwrap();

        let entries: Vec<_> = vs.index_entries().collect();
        let reopened = ValueStore::from_snapshot(pool, pages, tail, entries).unwrap();
        assert_eq!(reopened.len(), vs.len());
        assert_eq!(reopened.get(13).unwrap().as_deref(), Some("overwritten"));
        assert_eq!(reopened.get(42).unwrap().as_deref(), Some("value-42"));
        assert_eq!(reopened.get(500).unwrap().unwrap(), big);
        assert_eq!(reopened.get(999).unwrap(), None);
    }
}
