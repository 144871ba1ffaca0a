//! The document-order block store: bulk build, navigation, code lookup.

use super::block::{
    fits, read_transitions, trans_capacity, BlockHeader, RawRec, MAX_RECORDS_DEFAULT,
    RFLAG_HAS_VALUE, RFLAG_TRANSITION,
};
use crate::buffer::{with_scan_reads, BufferPool};
use crate::disk::StorageError;
use crate::log::ValueStore;
use crate::page::{Page, PageId};
use dol_xml::{Document, TagId, TagInterner};
use std::sync::Arc;

/// Build-time configuration of a [`StructStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Maximum node records packed into one block. The default (300) leaves
    /// room for 59 transition entries per 4 KiB block; tests use small values
    /// to exercise multi-block paths on tiny documents.
    pub max_records_per_block: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            max_records_per_block: MAX_RECORDS_DEFAULT,
        }
    }
}

impl StoreConfig {
    /// Transition entries that fit in a block holding `count` records.
    pub(crate) fn trans_cap(&self, count: usize) -> usize {
        trans_capacity(count).min(count.max(1))
    }

    fn check(&self) -> Result<(), &'static str> {
        if self.max_records_per_block < 2 {
            Err("blocks must hold at least two records")
        } else if !fits(self.max_records_per_block, 1) {
            Err("max_records_per_block leaves no room for transitions")
        } else {
            Ok(())
        }
    }
}

/// A typed error for persisted structure bytes that cannot be what they
/// claim to be.
fn invalid_data(msg: String) -> StorageError {
    StorageError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

/// One node of a bulk-load stream: structural fields plus its DOL state.
///
/// `code` is the node's access-control code; `is_transition` says whether the
/// node's code differs from its document-order predecessor (the logical DOL).
/// Unsecured stores pass `code = NO_CODE`, `is_transition = pos == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkItem {
    /// Interned element name.
    pub tag: TagId,
    /// Subtree size including the node itself.
    pub size: u32,
    /// Depth (root = 0).
    pub depth: u16,
    /// Whether the node has an entry in the value store.
    pub has_value: bool,
    /// Access-control code (opaque codebook index).
    pub code: u32,
    /// Whether this node is a DOL transition node.
    pub is_transition: bool,
}

/// A decoded node record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRec {
    /// Interned element name.
    pub tag: TagId,
    /// Subtree size including the node itself.
    pub size: u32,
    /// Depth (root = 0).
    pub depth: u16,
    /// Whether the node has a stored value.
    pub has_value: bool,
    /// Whether the node is a DOL transition node.
    pub is_transition: bool,
}

impl NodeRec {
    pub(crate) fn from_raw(raw: RawRec) -> Self {
        Self {
            tag: TagId(raw.tag),
            size: raw.size,
            depth: raw.depth,
            has_value: raw.flags & RFLAG_HAS_VALUE != 0,
            is_transition: raw.flags & RFLAG_TRANSITION != 0,
        }
    }

    /// One past the last position of this record's subtree, the record
    /// sitting at `pos` inside an enclosing subtree (or store) that ends at
    /// `bound`. A size of 0, which would stall a walk, or a subtree past
    /// `bound` is [`StorageError::CorruptSubtree`].
    pub fn subtree_end(&self, pos: u64, bound: u64) -> Result<u64, StorageError> {
        let end = pos + u64::from(self.size);
        if self.size == 0 || end > bound {
            return Err(StorageError::CorruptSubtree {
                pos,
                size: self.size,
                bound,
            });
        }
        Ok(end)
    }

    pub(crate) fn to_raw(self) -> RawRec {
        RawRec {
            tag: self.tag.0,
            size: self.size,
            depth: self.depth,
            flags: (if self.has_value { RFLAG_HAS_VALUE } else { 0 })
                | (if self.is_transition {
                    RFLAG_TRANSITION
                } else {
                    0
                }),
        }
    }
}

/// In-memory mirror of one block's header — "keeping all the page headers in
/// memory" (paper §3.2) is what enables the page-skip optimization without
/// touching the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Page holding the block.
    pub page: PageId,
    /// Number of node records in the block.
    pub count: u32,
    /// Document position of the block's first node.
    pub first_pos: u64,
    /// Access-control code of the first node.
    pub first_code: u32,
    /// Change bit: the block holds a transition beyond its first node.
    pub change: bool,
    /// Depth of the first node.
    pub first_depth: u16,
}

/// An owned snapshot of one block (see [`StructStore::block_snapshot`]): the
/// raw page bytes plus the decoded code runs. Records are decoded lazily,
/// slot by slot, so taking the snapshot costs one page access and one page
/// copy regardless of how many of its records the caller ends up reading.
pub struct BlockSnapshot {
    first_pos: u64,
    count: u32,
    page: Page,
    runs: Vec<(u32, u32)>,
}

impl BlockSnapshot {
    /// Document position of slot 0.
    #[inline]
    pub fn first_pos(&self) -> u64 {
        self.first_pos
    }

    /// Number of records in the block.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Decodes the record at `slot`.
    ///
    /// # Panics
    /// Debug-asserts `slot < count`.
    #[inline]
    pub fn node(&self, slot: usize) -> NodeRec {
        debug_assert!(slot < self.count as usize, "slot out of block bounds");
        NodeRec::from_raw(RawRec::read(&self.page, slot))
    }

    /// The access-control code in effect at `slot`.
    #[inline]
    pub fn code(&self, slot: usize) -> u32 {
        // runs[0] is always (0, first_code), so the partition point is >= 1.
        let k = self.runs.partition_point(|&(s, _)| s <= slot as u32);
        self.runs[k - 1].1
    }
}

/// The result of probing one block in the compressed domain (see
/// [`StructStore::block_probe`]): per-slot structural bit masks plus the
/// block's code runs, everything a caller needs to word-test structure and
/// accessibility **before** decoding any record or value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProbe {
    /// Document position of slot 0.
    pub first_pos: u64,
    /// Number of records in the block.
    pub count: u32,
    /// Bit `s & 63` of word `s >> 6` set iff slot `s`'s record carries the
    /// probed tag (all `count` bits set when no tag was probed).
    pub tag_mask: Vec<u64>,
    /// Bit set iff the slot's record has a stored value.
    pub value_mask: Vec<u64>,
    /// `(slot, code)` code runs: `(0, first_code)` first, then every
    /// in-block transition ascending by slot. Each run extends to the next
    /// run's slot (or the end of the block).
    pub runs: Vec<(u32, u32)>,
}

/// The NoK block store. See the [module docs](super) for the layout.
///
/// Cloning is cheap-ish (the pool is shared via `Arc`; the block directory
/// is a flat `Vec` of `Copy` entries) and yields a handle over the *same*
/// pages — it exists so `SecureXmlDb` can copy-on-write its in-memory
/// mirrors for snapshot readers.
#[derive(Clone)]
pub struct StructStore {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) dir: Vec<BlockInfo>,
    pub(crate) total: u64,
    pub(crate) cfg: StoreConfig,
}

impl StructStore {
    /// Bulk-loads a store from a document-order stream of [`BulkItem`]s.
    ///
    /// This is the paper's single-pass construction: the stream can come
    /// straight from a SAX-style parse with access controls computed on the
    /// fly. Blocks are packed to `cfg.max_records_per_block` records and
    /// closed early if their transition area fills up.
    pub fn build(
        pool: Arc<BufferPool>,
        cfg: StoreConfig,
        items: impl IntoIterator<Item = BulkItem>,
    ) -> Result<Self, StorageError> {
        cfg.check().expect("invalid StoreConfig");
        let mut store = Self {
            pool,
            dir: Vec::new(),
            total: 0,
            cfg,
        };
        let mut block: Vec<BulkItem> = Vec::with_capacity(cfg.max_records_per_block);
        let mut trans_in_block = 0usize;
        for item in items {
            let would_be_trans = !block.is_empty() && item.is_transition;
            if block.len() >= cfg.max_records_per_block
                || (would_be_trans && trans_in_block + 1 > cfg.trans_cap(cfg.max_records_per_block))
            {
                store.append_block(&block)?;
                block.clear();
                trans_in_block = 0;
            }
            if !block.is_empty() && item.is_transition {
                trans_in_block += 1;
            }
            block.push(item);
        }
        if !block.is_empty() {
            store.append_block(&block)?;
        }
        store.link_blocks()?;
        Ok(store)
    }

    /// Re-opens a store persisted earlier by following the block chain from
    /// `first` (each block header's `next` pointer), rebuilding the
    /// in-memory directory — the paper's in-memory page-header table — in
    /// one pass over the headers. The configuration and the chain are
    /// persisted bytes: an invalid configuration, a header whose records and
    /// transitions overflow its page, or a chain longer than the disk (a
    /// cycle) is a typed `InvalidData` error.
    pub fn open_chain(
        pool: Arc<BufferPool>,
        cfg: StoreConfig,
        first: PageId,
    ) -> Result<Self, StorageError> {
        cfg.check().map_err(|e| invalid_data(e.to_string()))?;
        let max_blocks = pool.disk().num_pages() as usize;
        let mut dir = Vec::new();
        let mut total = 0u64;
        let mut page = first;
        while page.is_valid() {
            if dir.len() == max_blocks {
                return Err(invalid_data(format!(
                    "structure chain from {first} runs past the disk's {max_blocks} pages"
                )));
            }
            let hdr = pool.with_page(page, BlockHeader::read)?;
            if hdr.count == 0 || !fits(usize::from(hdr.count), usize::from(hdr.trans_count)) {
                return Err(invalid_data(format!(
                    "block {page} claims {} records and {} transitions",
                    hdr.count, hdr.trans_count
                )));
            }
            dir.push(BlockInfo {
                page,
                count: u32::from(hdr.count),
                first_pos: total,
                first_code: hdr.first_code,
                change: hdr.change,
                first_depth: hdr.first_depth,
            });
            total += u64::from(hdr.count);
            page = hdr.next;
        }
        Ok(Self {
            pool,
            dir,
            total,
            cfg,
        })
    }

    /// Builds an **unsecured** store directly from a document: every node
    /// gets [`super::NO_CODE`] and only the root is a (pseudo-)transition.
    pub fn from_document_unsecured(
        pool: Arc<BufferPool>,
        cfg: StoreConfig,
        doc: &Document,
    ) -> Result<Self, StorageError> {
        let items = doc.preorder().map(|id| {
            let n = doc.node(id);
            BulkItem {
                tag: n.tag,
                size: n.size,
                depth: n.depth,
                has_value: n.value.is_some(),
                code: super::NO_CODE,
                is_transition: id.0 == 0,
            }
        });
        Self::build(pool, cfg, items)
    }

    /// Writes `items` (non-empty, in document order) as a new final block.
    pub(crate) fn append_block(&mut self, items: &[BulkItem]) -> Result<(), StorageError> {
        debug_assert!(!items.is_empty());
        let page = self.pool.allocate_page()?;
        let first = items[0];
        let trans: Vec<(u16, u32)> = items
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, it)| it.is_transition)
            .map(|(slot, it)| (slot as u16, it.code))
            .collect();
        debug_assert!(fits(items.len(), trans.len()), "block overflow at build");
        let info = BlockInfo {
            page,
            count: items.len() as u32,
            first_pos: self.total,
            first_code: first.code,
            change: !trans.is_empty(),
            first_depth: first.depth,
        };
        self.pool.with_page_mut(page, |p| {
            BlockHeader {
                count: items.len() as u16,
                first_depth: first.depth,
                trans_count: 0,
                change: false,
                first_code: first.code,
                next: PageId::INVALID,
            }
            .write(p);
            for (slot, it) in items.iter().enumerate() {
                NodeRec {
                    tag: it.tag,
                    size: it.size,
                    depth: it.depth,
                    has_value: it.has_value,
                    is_transition: it.is_transition,
                }
                .to_raw()
                .write(p, slot);
            }
            super::block::write_transitions(p, &trans);
        })?;
        self.total += items.len() as u64;
        self.dir.push(info);
        Ok(())
    }

    /// Rewrites every block's `next` pointer to match the directory order.
    pub(crate) fn link_blocks(&mut self) -> Result<(), StorageError> {
        for i in 0..self.dir.len() {
            let next = self
                .dir
                .get(i + 1)
                .map(|b| b.page)
                .unwrap_or(PageId::INVALID);
            let page = self.dir[i].page;
            self.pool.with_page_mut(page, |p| {
                let mut hdr = BlockHeader::read(p);
                hdr.next = next;
                hdr.write(p);
            })?;
        }
        Ok(())
    }

    /// Total number of nodes.
    #[inline]
    pub fn total_nodes(&self) -> u64 {
        self.total
    }

    /// Number of blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.dir.len()
    }

    /// The in-memory header mirror of block `idx`.
    #[inline]
    pub fn block_info(&self, idx: usize) -> &BlockInfo {
        &self.dir[idx]
    }

    /// The buffer pool backing this store.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The store configuration.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Index of the block containing document position `pos`.
    #[inline]
    pub fn block_of_pos(&self, pos: u64) -> usize {
        debug_assert!(pos < self.total, "pos {pos} out of range {}", self.total);
        self.dir.partition_point(|b| b.first_pos <= pos) - 1
    }

    /// Reads the node record at `pos`.
    pub fn node(&self, pos: u64) -> Result<NodeRec, StorageError> {
        let b = self.block_of_pos(pos);
        let info = self.dir[b];
        let slot = (pos - info.first_pos) as usize;
        self.pool
            .with_page(info.page, |p| NodeRec::from_raw(RawRec::read(p, slot)))
    }

    /// Reads the node record **and** its access-control code in one page
    /// access — the paper's piggy-backed accessibility check.
    pub fn node_and_code(&self, pos: u64) -> Result<(NodeRec, u32), StorageError> {
        let b = self.block_of_pos(pos);
        let info = self.dir[b];
        let slot = (pos - info.first_pos) as usize;
        self.pool.with_page(info.page, |p| {
            let rec = NodeRec::from_raw(RawRec::read(p, slot));
            let code = code_in_page(p, info.first_code, slot);
            (rec, code)
        })
    }

    /// The access-control code in effect at `pos`.
    pub fn code_at(&self, pos: u64) -> Result<u32, StorageError> {
        let b = self.block_of_pos(pos);
        let info = self.dir[b];
        // Page-skip fast path: no in-block transitions ⇒ the in-memory
        // header already answers the lookup.
        if !info.change {
            return Ok(info.first_code);
        }
        let slot = (pos - info.first_pos) as usize;
        self.pool
            .with_page(info.page, |p| code_in_page(p, info.first_code, slot))
    }

    /// Depth of the node at `pos`.
    pub fn depth_at(&self, pos: u64) -> Result<u16, StorageError> {
        Ok(self.node(pos)?.depth)
    }

    /// First child of the node at `pos` whose record is `rec`.
    #[inline]
    pub fn first_child_of(&self, pos: u64, rec: &NodeRec) -> Option<u64> {
        (rec.size > 1).then_some(pos + 1)
    }

    /// Following sibling of the node at `pos` whose record is `rec`.
    pub fn following_sibling_of(
        &self,
        pos: u64,
        rec: &NodeRec,
    ) -> Result<Option<u64>, StorageError> {
        let next = rec.subtree_end(pos, self.total)?;
        if next >= self.total {
            return Ok(None);
        }
        Ok((self.node(next)?.depth == rec.depth).then_some(next))
    }

    /// First child of the node at `pos`.
    pub fn first_child(&self, pos: u64) -> Result<Option<u64>, StorageError> {
        let rec = self.node(pos)?;
        Ok(self.first_child_of(pos, &rec))
    }

    /// Following sibling of the node at `pos`.
    pub fn following_sibling(&self, pos: u64) -> Result<Option<u64>, StorageError> {
        let rec = self.node(pos)?;
        self.following_sibling_of(pos, &rec)
    }

    /// Positions of the ancestors of `pos`, root first, found by descending
    /// from the root using subtree sizes (the store has no parent pointers).
    /// Every size on the way is checked against its parent's subtree, so a
    /// corrupt record is [`StorageError::CorruptSubtree`], never a stall.
    pub fn ancestors_of(&self, pos: u64) -> Result<Vec<u64>, StorageError> {
        if pos >= self.total {
            return Err(StorageError::InvalidRange {
                start: pos,
                end: pos + 1,
                total: self.total,
            });
        }
        // The root's subtree is the whole store, whatever its record claims.
        let mut end = self.total;
        let mut out = Vec::new();
        let mut cur = 0u64;
        while cur != pos {
            out.push(cur);
            // Find the child of `cur` whose subtree contains `pos`: the
            // children tile `(cur, end)`, which holds `pos`, and each step
            // moves forward without leaving it.
            let mut child = cur + 1;
            loop {
                let cend = self.node(child)?.subtree_end(child, end)?;
                if pos < cend {
                    end = cend;
                    break;
                }
                child = cend;
            }
            cur = child;
        }
        Ok(out)
    }

    /// Parent of the node at `pos` (None for the root).
    pub fn parent_of(&self, pos: u64) -> Result<Option<u64>, StorageError> {
        Ok(self.ancestors_of(pos)?.pop())
    }

    /// The maximal equal-code runs overlapping `[start, end)` as
    /// `(run_start, code)` pairs; the first entry is clamped to `start`.
    /// Blocks whose change bit is clear are answered from the in-memory
    /// header mirror without any page read.
    pub fn runs_in(&self, start: u64, end: u64) -> Result<Vec<(u64, u32)>, StorageError> {
        if !(start < end && end <= self.total) {
            return Err(StorageError::InvalidRange {
                start,
                end,
                total: self.total,
            });
        }
        let mut out: Vec<(u64, u32)> = vec![(start, self.code_at(start)?)];
        let b_first = self.block_of_pos(start);
        let b_last = self.block_of_pos(end - 1);
        for b in b_first..=b_last {
            let info = self.dir[b];
            if info.first_pos > start
                && info.first_pos < end
                && out.last().expect("pushed above").1 != info.first_code
            {
                out.push((info.first_pos, info.first_code));
            }
            if info.change {
                let trans = self
                    .pool
                    .with_page(info.page, super::block::read_transitions)?;
                for (slot, code) in trans {
                    let pos = info.first_pos + u64::from(slot);
                    if pos > start
                        && pos < end
                        && out.last().expect("run starts at start").1 != code
                    {
                        out.push((pos, code));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Probes block `idx` in the compressed domain: one page access scans
    /// the raw records (no [`NodeRec`] construction, no value decode) and
    /// returns word-packed per-slot masks plus the block's code runs, so a
    /// caller can classify every slot against a tag, a value predicate, and
    /// an access column with word ops before deciding to decode anything.
    ///
    /// Blocks whose change bit is clear contribute a single `(0, first_code)`
    /// run straight from the in-memory header; the page is still read once
    /// for the structural masks.
    pub fn block_probe(&self, idx: usize, tag: Option<TagId>) -> Result<BlockProbe, StorageError> {
        let info = self.dir[idx];
        let count = info.count as usize;
        let words = count.div_ceil(64);
        self.pool.with_page(info.page, |p| {
            let mut tag_mask = vec![0u64; words];
            let mut value_mask = vec![0u64; words];
            for slot in 0..count {
                let off = super::block::HDR_SIZE + slot * super::block::REC_SIZE;
                let tag_ok = match tag {
                    Some(t) => p.get_u32(off) == t.0,
                    None => true,
                };
                if tag_ok {
                    tag_mask[slot >> 6] |= 1u64 << (slot & 63);
                }
                if p.get_u16(off + 10) & RFLAG_HAS_VALUE != 0 {
                    value_mask[slot >> 6] |= 1u64 << (slot & 63);
                }
            }
            let mut runs: Vec<(u32, u32)> = Vec::with_capacity(1);
            runs.push((0, info.first_code));
            if info.change {
                for (slot, code) in read_transitions(p) {
                    runs.push((u32::from(slot), code));
                }
            }
            BlockProbe {
                first_pos: info.first_pos,
                count: info.count,
                tag_mask,
                value_mask,
                runs,
            }
        })
    }

    /// Takes an owned snapshot of block `idx` — the page bytes plus the
    /// decoded code runs — in one page access. The snapshot decodes
    /// individual records on demand, so callers that walk many nodes of the
    /// same block (the compiled matcher's block cache) pay one latch per
    /// block instead of one per [`node_and_code`](Self::node_and_code) call,
    /// without eagerly decoding records they never visit.
    pub fn block_snapshot(&self, idx: usize) -> Result<BlockSnapshot, StorageError> {
        let info = self.dir[idx];
        let (page, trans) = self.pool.with_page(info.page, |p| {
            let trans = if info.change {
                read_transitions(p)
            } else {
                Vec::new()
            };
            (p.clone(), trans)
        })?;
        let mut runs = Vec::with_capacity(1 + trans.len());
        runs.push((0u32, info.first_code));
        runs.extend(trans.into_iter().map(|(s, c)| (u32::from(s), c)));
        Ok(BlockSnapshot {
            first_pos: info.first_pos,
            count: info.count,
            page,
            runs,
        })
    }

    /// Reads every record's subtree size in block `idx` with one page
    /// access — the batched form of per-position [`node`](Self::node) calls
    /// when a caller needs the `[pos, pos + size)` interval of many nodes in
    /// the same block.
    pub fn block_sizes(&self, idx: usize) -> Result<Vec<u32>, StorageError> {
        let info = self.dir[idx];
        let count = info.count as usize;
        self.pool.with_page(info.page, |p| {
            (0..count)
                .map(|slot| p.get_u32(super::block::HDR_SIZE + slot * super::block::REC_SIZE + 4))
                .collect()
        })
    }

    /// Iterates `(pos, record)` over all nodes in document order.
    pub fn iter(&self) -> StoreIter<'_> {
        StoreIter {
            store: self,
            pos: 0,
        }
    }

    /// Counts logical DOL transition nodes (nodes whose code differs from
    /// their document-order predecessor), from the record flags.
    pub fn logical_transition_count(&self) -> Result<u64, StorageError> {
        let mut count = 0u64;
        for info in &self.dir {
            count += self.pool.with_page(info.page, |p| {
                let hdr = BlockHeader::read(p);
                let first_flag = RawRec::read(p, 0).flags & RFLAG_TRANSITION != 0;
                u64::from(hdr.trans_count) + u64::from(first_flag)
            })?;
        }
        Ok(count)
    }

    /// Renders the paper's succinct parenthesized string, e.g.
    /// `(a(b)(c)(d(e)))`, resolving tags through `tags`.
    pub fn to_nok_string(&self, tags: &TagInterner) -> Result<String, StorageError> {
        let mut out = String::new();
        let mut prev_depth: i32 = -1;
        for entry in self.iter() {
            let (_, rec) = entry?;
            let d = i32::from(rec.depth);
            for _ in 0..(prev_depth - d + 1).max(0) {
                out.push(')');
            }
            out.push('(');
            out.push_str(tags.name(rec.tag));
            prev_depth = d;
        }
        for _ in 0..=prev_depth {
            out.push(')');
        }
        Ok(out)
    }

    /// Verifies on-disk blocks against the in-memory directory and the
    /// structural invariants. Intended for tests.
    pub fn check_integrity(&self) -> Result<(), String> {
        let mut pos = 0u64;
        let mut prev_code: Option<u32> = None;
        for (i, info) in self.dir.iter().enumerate() {
            if info.first_pos != pos {
                return Err(format!("block {i} first_pos {} != {pos}", info.first_pos));
            }
            let (hdr, recs, trans) = self
                .pool
                .with_page(info.page, |p| {
                    let hdr = BlockHeader::read(p);
                    let recs: Vec<RawRec> = (0..hdr.count as usize)
                        .map(|s| RawRec::read(p, s))
                        .collect();
                    (hdr, recs, read_transitions(p))
                })
                .map_err(|e| e.to_string())?;
            if hdr.count as u32 != info.count {
                return Err(format!("block {i} count mismatch"));
            }
            if hdr.first_code != info.first_code
                || hdr.change != info.change
                || hdr.first_depth != info.first_depth
            {
                return Err(format!("block {i} header/directory mismatch"));
            }
            if hdr.change == trans.is_empty() {
                return Err(format!("block {i} change bit wrong"));
            }
            if recs.is_empty() {
                return Err(format!("block {i} is empty"));
            }
            if recs[0].depth != hdr.first_depth {
                return Err(format!("block {i} first_depth wrong"));
            }
            for t in trans.windows(2) {
                if t[0].0 >= t[1].0 {
                    return Err(format!("block {i} transitions out of order"));
                }
            }
            for &(slot, _) in &trans {
                if slot == 0 || slot as usize >= recs.len() {
                    return Err(format!("block {i} transition slot {slot} invalid"));
                }
                if recs[slot as usize].flags & RFLAG_TRANSITION == 0 {
                    return Err(format!("block {i} slot {slot} missing transition flag"));
                }
            }
            // Record flags must agree with the transition table.
            for (slot, r) in recs.iter().enumerate().skip(1) {
                let has_entry = trans.iter().any(|&(s, _)| s as usize == slot);
                let flagged = r.flags & RFLAG_TRANSITION != 0;
                if has_entry != flagged {
                    return Err(format!("block {i} slot {slot} flag/entry mismatch"));
                }
            }
            // Cross-block code continuity.
            let first_is_trans = recs[0].flags & RFLAG_TRANSITION != 0;
            if let Some(pc) = prev_code {
                if first_is_trans && hdr.first_code == pc {
                    return Err(format!(
                        "block {i} first node flagged transition but code unchanged"
                    ));
                }
                if !first_is_trans && hdr.first_code != pc {
                    return Err(format!(
                        "block {i} first code changed without transition flag"
                    ));
                }
            } else if !first_is_trans {
                return Err("document's first node must be a transition".into());
            }
            // Effective code at end of block.
            let mut code = hdr.first_code;
            for &(_, c) in &trans {
                code = c;
            }
            prev_code = Some(code);
            pos += u64::from(info.count);
        }
        if pos != self.total {
            return Err(format!("directory totals {pos} != {}", self.total));
        }
        // Structural check: sizes/depths consistent when walked as a tree.
        let mut stack: Vec<u64> = Vec::new(); // remaining-subtree-end stack
        for entry in self.iter() {
            let (p, rec) = entry.map_err(|e| e.to_string())?;
            while let Some(&end) = stack.last() {
                if p >= end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if rec.depth as usize != stack.len() {
                return Err(format!(
                    "pos {p}: depth {} != stack {}",
                    rec.depth,
                    stack.len()
                ));
            }
            if let Some(&end) = stack.last() {
                if p + rec.size as u64 > end {
                    return Err(format!("pos {p}: subtree overruns parent"));
                }
            } else if p != 0 || p + rec.size as u64 != self.total {
                return Err(format!("pos {p}: root subtree does not cover document"));
            }
            stack.push(p + rec.size as u64);
        }
        Ok(())
    }

    /// Builds the [`Document`] the store describes: structure from the
    /// records, names through `tags`, character data from `values`, minus
    /// the subtree of every node whose code `keep` refuses (`None` if that
    /// is the root). The interner is seeded with `tags`, so its ids stay the
    /// records' ids whatever order names first occur in. Records naming a
    /// tag `tags` lacks, or not forming one tree, are a typed `InvalidData`
    /// error. Pages are read scan-resistant
    /// ([`with_scan_reads`](crate::buffer::with_scan_reads)).
    pub fn to_document(
        &self,
        tags: &TagInterner,
        values: &ValueStore,
        mut keep: impl FnMut(u32) -> bool,
    ) -> Result<Option<Document>, StorageError> {
        with_scan_reads(|| {
            let items = self.read_block_range(0..self.dir.len())?;
            let mut b = dol_xml::DocumentBuilder::with_tags(tags.clone());
            // The subtree ends of the open elements.
            let mut open: Vec<u64> = Vec::new();
            let mut pos = 0u64;
            while let Some(item) = items.get(pos as usize) {
                while open.last().is_some_and(|&end| pos >= end) {
                    open.pop();
                    b.close();
                }
                if pos > 0 && open.is_empty() {
                    return Err(invalid_data(format!("node {pos} starts a second root")));
                }
                if item.tag.index() >= tags.len() {
                    return Err(invalid_data(format!(
                        "node {pos} names unknown tag {}",
                        item.tag.0
                    )));
                }
                let end = pos + u64::from(item.size.max(1));
                if !keep(item.code) {
                    pos = end;
                    continue;
                }
                let value = if item.has_value {
                    values.get(pos)?
                } else {
                    None
                };
                b.open_valued(tags.name(item.tag), value.as_deref());
                open.push(end);
                pos += 1;
            }
            for _ in open {
                b.close();
            }
            if b.is_empty() {
                return Ok(None);
            }
            b.finish()
                .map(Some)
                .map_err(|e| invalid_data(e.to_string()))
        })
    }
}

/// Finds the code in effect at `slot` inside a loaded page: the last
/// transition entry at or before `slot`, else the header's first code.
pub(crate) fn code_in_page(p: &crate::page::Page, first_code: u32, slot: usize) -> u32 {
    let trans = read_transitions(p);
    match trans.partition_point(|&(s, _)| (s as usize) <= slot) {
        0 => first_code,
        n => trans[n - 1].1,
    }
}

/// Document-order iterator over a [`StructStore`].
pub struct StoreIter<'a> {
    store: &'a StructStore,
    pos: u64,
}

impl Iterator for StoreIter<'_> {
    type Item = Result<(u64, NodeRec), StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.store.total {
            return None;
        }
        let pos = self.pos;
        self.pos += 1;
        Some(self.store.node(pos).map(|rec| (pos, rec)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use dol_xml::parse;

    pub(crate) fn small_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64))
    }

    /// The store's whole structure as a document (no values).
    fn structure(store: &StructStore, tags: &TagInterner) -> Document {
        let values = ValueStore::new(store.pool().clone());
        store.to_document(tags, &values, |_| true).unwrap().unwrap()
    }

    fn sample_store(max_rec: usize) -> (StructStore, Document) {
        let doc = parse("<a><b/><c/><d><e/><f/><g><h/><i/><j/></g></d><k/></a>").unwrap();
        let store = StructStore::from_document_unsecured(
            small_pool(),
            StoreConfig {
                max_records_per_block: max_rec,
            },
            &doc,
        )
        .unwrap();
        (store, doc)
    }

    #[test]
    fn build_and_navigate_single_block() {
        let (store, doc) = sample_store(300);
        assert_eq!(store.total_nodes(), doc.len() as u64);
        assert_eq!(store.block_count(), 1);
        store.check_integrity().unwrap();
        // Navigation agrees with the in-memory document.
        for id in doc.preorder() {
            let pos = u64::from(id.0);
            let rec = store.node(pos).unwrap();
            assert_eq!(rec.size, doc.node(id).size);
            assert_eq!(u32::from(rec.depth), u32::from(doc.node(id).depth));
            assert_eq!(
                store.first_child(pos).unwrap(),
                doc.first_child(id).map(|n| u64::from(n.0))
            );
            assert_eq!(
                store.following_sibling(pos).unwrap(),
                doc.next_sibling(id).map(|n| u64::from(n.0))
            );
        }
    }

    #[test]
    fn build_multi_block_and_ancestors() {
        let (store, doc) = sample_store(3);
        assert!(store.block_count() >= 4);
        store.check_integrity().unwrap();
        for id in doc.preorder() {
            let pos = u64::from(id.0);
            let anc = store.ancestors_of(pos).unwrap();
            let expected: Vec<u64> = {
                let mut v: Vec<u64> = doc.ancestors(id).map(|n| u64::from(n.0)).collect();
                v.reverse();
                v
            };
            assert_eq!(anc, expected, "ancestors of {pos}");
            assert_eq!(
                store.parent_of(pos).unwrap(),
                doc.parent(id).map(|n| u64::from(n.0))
            );
        }
    }

    #[test]
    fn nok_string_matches_paper_form() {
        let doc = parse("<a><b/><c/><d/><e><f/><g/><h><i/><j/><k/><l/></h></e></a>").unwrap();
        let store =
            StructStore::from_document_unsecured(small_pool(), StoreConfig::default(), &doc)
                .unwrap();
        assert_eq!(
            store.to_nok_string(doc.tags()).unwrap(),
            "(a(b)(c)(d)(e(f)(g)(h(i)(j)(k)(l))))"
        );
    }

    #[test]
    fn codes_and_transitions() {
        // Codes: positions 0..4 -> code 1, 4..9 -> code 2, 9.. -> code 1.
        let doc = parse("<a><b/><c/><d><e/><f/><g><h/><i/><j/></g></d><k/></a>").unwrap();
        let items: Vec<BulkItem> = doc
            .preorder()
            .map(|id| {
                let n = doc.node(id);
                let code = if (4..9).contains(&id.0) { 2 } else { 1 };
                BulkItem {
                    tag: n.tag,
                    size: n.size,
                    depth: n.depth,
                    has_value: false,
                    code,
                    is_transition: id.0 == 0 || id.0 == 4 || id.0 == 9,
                }
            })
            .collect();
        for max_rec in [300usize, 3] {
            let store = StructStore::build(
                small_pool(),
                StoreConfig {
                    max_records_per_block: max_rec,
                },
                items.iter().copied(),
            )
            .unwrap();
            store.check_integrity().unwrap();
            for pos in 0..store.total_nodes() {
                let expect = if (4..9).contains(&pos) { 2 } else { 1 };
                assert_eq!(
                    store.code_at(pos).unwrap(),
                    expect,
                    "pos {pos} max {max_rec}"
                );
                assert_eq!(store.node_and_code(pos).unwrap().1, expect);
            }
            assert_eq!(store.logical_transition_count().unwrap(), 3);
        }
    }

    /// `block_probe`'s masks and runs must agree with the per-position
    /// record and code reads, for every block size and probed tag.
    #[test]
    fn block_probe_matches_per_node_reads() {
        let doc = parse("<a><b/><c/><d><e/><f/><g><h/><i/><j/></g></d><k/></a>").unwrap();
        let items: Vec<BulkItem> = doc
            .preorder()
            .map(|id| {
                let n = doc.node(id);
                let code = if (4..9).contains(&id.0) { 2 } else { 1 };
                BulkItem {
                    tag: n.tag,
                    size: n.size,
                    depth: n.depth,
                    has_value: id.0 % 3 == 0,
                    code,
                    is_transition: id.0 == 0 || id.0 == 4 || id.0 == 9,
                }
            })
            .collect();
        for max_rec in [300usize, 3, 2] {
            let store = StructStore::build(
                small_pool(),
                StoreConfig {
                    max_records_per_block: max_rec,
                },
                items.iter().copied(),
            )
            .unwrap();
            let probe_tag = doc.tags().get("e");
            for b in 0..store.block_count() {
                let probe = store.block_probe(b, probe_tag).unwrap();
                let info = *store.block_info(b);
                assert_eq!(probe.first_pos, info.first_pos);
                assert_eq!(probe.count, info.count);
                let sizes = store.block_sizes(b).unwrap();
                assert_eq!(sizes.len(), info.count as usize);
                for slot in 0..info.count as usize {
                    let pos = info.first_pos + slot as u64;
                    let (rec, code) = store.node_and_code(pos).unwrap();
                    let bit = |m: &[u64]| m[slot >> 6] >> (slot & 63) & 1 != 0;
                    assert_eq!(bit(&probe.tag_mask), Some(rec.tag) == probe_tag);
                    assert_eq!(bit(&probe.value_mask), rec.has_value);
                    assert_eq!(sizes[slot], rec.size);
                    // Code run lookup: last run at or before the slot.
                    let run_code = probe
                        .runs
                        .iter()
                        .rev()
                        .find(|&&(s, _)| s as usize <= slot)
                        .map(|&(_, c)| c)
                        .unwrap();
                    assert_eq!(run_code, code, "block {b} slot {slot} max {max_rec}");
                }
                // No-tag probe sets every valid bit and nothing past count.
                let all = store.block_probe(b, None).unwrap();
                let n = info.count as usize;
                for w in 0..all.tag_mask.len() {
                    let valid = if n - w * 64 >= 64 {
                        !0u64
                    } else {
                        (1u64 << (n - w * 64)) - 1
                    };
                    assert_eq!(all.tag_mask[w], valid);
                }
            }
        }
    }

    #[test]
    fn roundtrip_to_document() {
        let (store, doc) = sample_store(4);
        assert_eq!(structure(&store, doc.tags()).to_xml(), doc.to_xml());
    }

    /// A document build keeps what `keep` admits, carries the values, and
    /// leaves the pool's working set as it found it: the pages resident
    /// before are resident after, in the same LRU order.
    #[test]
    fn to_document_prunes_carries_values_and_leaves_the_pool_alone() {
        let doc = parse("<a><b>x</b><c><d>y</d></c><e>z</e></a>").unwrap();
        let codes = [1, 1, 2, 2, 1];
        let items: Vec<BulkItem> = doc
            .preorder()
            .map(|id| {
                let n = doc.node(id);
                BulkItem {
                    tag: n.tag,
                    size: n.size,
                    depth: n.depth,
                    has_value: n.value.is_some(),
                    code: codes[id.index()],
                    is_transition: id.0 == 0 || codes[id.index()] != codes[id.index() - 1],
                }
            })
            .collect();
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2));
        let cfg = StoreConfig {
            max_records_per_block: 2,
        };
        let store = StructStore::build(pool.clone(), cfg, items).unwrap();
        let mut values = ValueStore::new(pool.clone());
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v).unwrap();
            }
        }
        let build = |keep: fn(u32) -> bool| {
            store
                .to_document(doc.tags(), &values, keep)
                .unwrap()
                .map(|d| d.to_xml())
        };

        pool.clear_cache().unwrap();
        let page = |b: usize| store.block_info(b).page;
        let physical = |b: usize| {
            let before = pool.stats().physical_reads;
            pool.with_page(page(b), |_| ()).unwrap();
            pool.stats().physical_reads - before
        };
        // Blocks 0 and 1 resident, block 0 the older.
        assert_eq!((physical(0), physical(1)), (1, 1));
        assert_eq!(build(|_| true), Some(doc.to_xml()));
        assert_eq!(
            build(|c| c == 1).as_deref(),
            Some("<a><b>x</b><e>z</e></a>")
        );
        assert_eq!(build(|c| c == 2), None);
        // Block 2 evicts block 0, not block 1.
        assert_eq!((physical(2), physical(1), physical(0)), (1, 0, 1));
    }

    #[test]
    fn open_chain_rebuilds_directory() {
        let doc = parse("<a><b/><c/><d><e/><f/><g><h/><i/><j/></g></d><k/></a>").unwrap();
        let pool = small_pool();
        let cfg = StoreConfig {
            max_records_per_block: 3,
        };
        let store = StructStore::from_document_unsecured(pool.clone(), cfg, &doc).unwrap();
        let first = store.block_info(0).page;
        pool.flush_all().unwrap();
        let reopened = StructStore::open_chain(pool, cfg, first).unwrap();
        reopened.check_integrity().unwrap();
        assert_eq!(reopened.total_nodes(), store.total_nodes());
        assert_eq!(reopened.block_count(), store.block_count());
        for i in 0..store.block_count() {
            assert_eq!(reopened.block_info(i), store.block_info(i));
        }
        assert_eq!(structure(&reopened, doc.tags()).to_xml(), doc.to_xml());
    }

    #[test]
    fn block_headers_mirror_disk() {
        let (store, _) = sample_store(3);
        for i in 0..store.block_count() {
            let info = *store.block_info(i);
            let hdr = store.pool.with_page(info.page, BlockHeader::read).unwrap();
            assert_eq!(hdr.count as u32, info.count);
            assert_eq!(hdr.first_code, info.first_code);
        }
    }
}
