//! Updates to the embedded representation (paper §3.4).
//!
//! Accessibility updates are expressed as **code runs**: setting the code of
//! a contiguous document-order range `[start, end)` — a single node or a
//! whole subtree, thanks to the preorder layout — to one value. The paper's
//! *update locality* property holds by construction: an update touches only
//! the blocks overlapping the run plus at most one boundary block, and it
//! changes the transition set only at the two run boundaries, giving
//! **Proposition 1** (at most 2 net new transition nodes).
//!
//! Structural updates (insert/delete of encoded subtrees) splice the affected
//! block range and patch ancestor subtree sizes; cost is `O(N/B)` page I/Os
//! for an `N`-node subtree, as stated in the paper.

use super::block::{BlockHeader, RawRec, RFLAG_TRANSITION};
use super::store::{BlockInfo, BulkItem, StructStore};
use crate::disk::StorageError;
use crate::page::PageId;
use std::ops::Range;

impl StructStore {
    /// Sets the access-control code of every node in `[start, end)` to
    /// `code`, maintaining the DOL invariants:
    ///
    /// * a node is flagged as a transition iff its code differs from its
    ///   document-order predecessor;
    /// * redundant transitions at the run boundaries are removed;
    /// * block headers, change bits and the in-memory mirror stay exact.
    ///
    /// An empty, inverted or out-of-range run is rejected as
    /// [`StorageError::InvalidRange`].
    pub fn set_code_run(&mut self, start: u64, end: u64, code: u32) -> Result<(), StorageError> {
        if !(start < end && end <= self.total) {
            return Err(StorageError::InvalidRange {
                start,
                end,
                total: self.total,
            });
        }
        let pred_code = if start > 0 {
            Some(self.code_at(start - 1)?)
        } else {
            None
        };
        let old_end_code = if end < self.total {
            Some(self.code_at(end)?)
        } else {
            None
        };
        let start_is_trans = pred_code != Some(code);
        let end_is_trans = old_end_code.map(|ec| ec != code);

        let b_first = self.block_of_pos(start);
        let b_last = self.block_of_pos(end - 1);
        let base = self.dir[b_first].first_pos;
        let mut items = self.read_block_range(b_first..b_last + 1)?;
        for (i, item) in items.iter_mut().enumerate() {
            let pos = base + i as u64;
            if pos >= start && pos < end {
                item.code = code;
                item.is_transition = pos == start && start_is_trans;
            } else if pos == end {
                // The run's successor keeps its code; only its transition
                // status can change.
                item.is_transition = end_is_trans.expect("end < total: flag was recorded");
            }
        }
        let covers_end = end < base + items.len() as u64;
        self.splice_blocks(b_first..b_last + 1, items)?;
        if !covers_end {
            if let Some(trans) = end_is_trans {
                self.patch_transition_flag(end, trans)?;
            }
        }
        Ok(())
    }

    /// Deletes the node range `[start, end)` (a whole subtree in document
    /// order) from the store. `ancestors` must be the positions of the
    /// subtree root's proper ancestors (as returned by
    /// [`ancestors_of`](StructStore::ancestors_of)); their subtree sizes are
    /// decremented. Returns the number of nodes removed. Deleting the root,
    /// an empty range, or past the end is rejected as
    /// [`StorageError::InvalidRange`].
    pub fn delete_run(&mut self, start: u64, end: u64) -> Result<u64, StorageError> {
        if !(start > 0 && start < end && end <= self.total) {
            return Err(StorageError::InvalidRange {
                start,
                end,
                total: self.total,
            });
        }
        // The range must be exactly the subtree of `start`: the ancestor
        // size patches below subtract its length.
        if self.node(start)?.subtree_end(start, self.total)? != end {
            return Err(StorageError::InvalidRange {
                start,
                end,
                total: self.total,
            });
        }
        let k = end - start;
        let pred_code = self.code_at(start - 1)?;
        let end_code = if end < self.total {
            Some(self.code_at(end)?)
        } else {
            None
        };
        let ancestors = self.ancestors_of(start)?;

        let b_first = self.block_of_pos(start);
        let b_last = self.block_of_pos(end - 1);
        let base = self.dir[b_first].first_pos;
        let mut items = self.read_block_range(b_first..b_last + 1)?;
        // Patch ancestor sizes: in-range ancestors in the item buffer, the
        // rest directly on their pages.
        for &a in &ancestors {
            if a >= base {
                items[(a - base) as usize].size -= k as u32;
            } else {
                self.patch_size(a, -(k as i64))?;
            }
        }
        let covers_end = end < base + items.len() as u64;
        let del_lo = (start - base) as usize;
        let del_hi = (end - base).min(base + items.len() as u64 - base) as usize;
        items.drain(del_lo..del_hi.min(items.len()));
        if let Some(ec) = end_code {
            let trans = ec != pred_code;
            if covers_end {
                items[del_lo].is_transition = trans;
            } else {
                // Fixed after the splice (positions shift by -k).
                self.splice_blocks(b_first..b_last + 1, items)?;
                self.patch_transition_flag(end - k, trans)?;
                return Ok(k);
            }
        }
        self.splice_blocks(b_first..b_last + 1, items)?;
        Ok(k)
    }

    /// Inserts `items` (an encoded subtree, codes and internal transition
    /// flags already set, depths absolute) so that its root lands at
    /// document position `at`. `ancestors` must contain the position of the
    /// new node's parent and all its ancestors; their sizes are incremented.
    pub fn insert_run(
        &mut self,
        at: u64,
        ancestors: &[u64],
        items: &[BulkItem],
    ) -> Result<(), StorageError> {
        // An empty item list, an out-of-range anchor, or an item list that
        // is not exactly one subtree is rejected instead of panicking.
        if items.is_empty()
            || !(at > 0 && at <= self.total)
            || items[0].size as usize != items.len()
        {
            return Err(StorageError::InvalidRange {
                start: at,
                end: at + items.len() as u64,
                total: self.total,
            });
        }
        let k = items.len() as u64;
        let pred_code = self.code_at(at - 1)?;
        let next_code = if at < self.total {
            Some(self.code_at(at)?)
        } else {
            None
        };

        let b = if at < self.total {
            self.block_of_pos(at)
        } else {
            self.dir.len() - 1
        };
        let base = self.dir[b].first_pos;
        let mut buf = self.read_block_range(b..b + 1)?;
        for &a in ancestors {
            if a >= base && a < base + buf.len() as u64 {
                buf[(a - base) as usize].size += k as u32;
            } else {
                self.patch_size(a, k as i64)?;
            }
        }
        let mut new_items = items.to_vec();
        new_items[0].is_transition = new_items[0].code != pred_code;
        // Code in effect at the end of the inserted run.
        let last_code = new_items.last().expect("run is non-empty").code;
        let insert_slot = (at - base) as usize;
        let covers_next = insert_slot < buf.len();
        buf.splice(insert_slot..insert_slot, new_items);
        if let Some(nc) = next_code {
            let trans = nc != last_code;
            if covers_next {
                buf[insert_slot + items.len()].is_transition = trans;
            } else {
                self.splice_blocks(b..b + 1, buf)?;
                self.patch_transition_flag(at + k, trans)?;
                return Ok(());
            }
        }
        self.splice_blocks(b..b + 1, buf)?;
        Ok(())
    }

    /// Rewrites the embedded access-control codes of one **slice** of the
    /// block directory through `remap` (`new_code = remap[old_code]`),
    /// merging transitions that become redundant — the deferred cleanup
    /// after a codebook compaction: "any such redundancy can be corrected
    /// lazily" (§3.4), and the bounded-work step incremental compaction is
    /// built from. `prev` seeds the cross-slice run-merge state (the mapped
    /// code in effect at the end of the block before `blocks.start`; `None`
    /// when starting at block 0), and the mapped code at the end of the last
    /// rewritten block is returned for the caller to persist and seed the
    /// next step with. Codes outside `remap` are left untouched (identity) —
    /// during a two-phase migration the not-yet-visited tail legitimately
    /// holds codes from the other phase's range.
    ///
    /// When the slice stops short of the last block, the first record of the
    /// block *after* the slice gets its transition flag re-derived against
    /// the new boundary code, so the store's transition invariant (flag ⇔
    /// code differs from predecessor) holds in every intermediate state and
    /// integrity checks stay strict mid-migration.
    pub fn remap_codes_range(
        &mut self,
        blocks: Range<usize>,
        remap: &[u32],
        prev: Option<u32>,
    ) -> Result<Option<u32>, StorageError> {
        let end = blocks.end.min(self.dir.len());
        let mut prev = prev;
        let map = |c: u32| -> u32 { remap.get(c as usize).copied().unwrap_or(c) };
        for idx in blocks.start..end {
            let info = self.dir[idx];
            let new_info = self.pool.with_page_mut(info.page, |p| {
                let hdr = BlockHeader::read(p);
                let old_trans = super::block::read_transitions(p);
                let first = map(hdr.first_code);
                // Walk slots: recompute each node's transition status under
                // the merged code space.
                let mut new_trans: Vec<(u16, u32)> = Vec::with_capacity(old_trans.len());
                let mut t = 0usize;
                let mut code = first;
                for slot in 0..hdr.count as usize {
                    if t < old_trans.len() && old_trans[t].0 as usize == slot {
                        code = map(old_trans[t].1);
                        t += 1;
                    }
                    let is_trans = prev != Some(code);
                    prev = Some(code);
                    let mut raw = RawRec::read(p, slot);
                    let flagged = raw.flags & RFLAG_TRANSITION != 0;
                    if is_trans != flagged {
                        if is_trans {
                            raw.flags |= RFLAG_TRANSITION;
                        } else {
                            raw.flags &= !RFLAG_TRANSITION;
                        }
                        raw.write(p, slot);
                    }
                    if slot > 0 && is_trans {
                        new_trans.push((slot as u16, code));
                    }
                }
                let mut hdr = BlockHeader::read(p);
                hdr.first_code = first;
                hdr.write(p);
                super::block::write_transitions(p, &new_trans);
                BlockInfo {
                    first_code: first,
                    change: !new_trans.is_empty(),
                    ..info
                }
            })?;
            self.dir[idx] = new_info;
        }
        if end < self.dir.len() && blocks.start < end {
            // Re-derive the boundary transition flag: the next block still
            // holds codes from before this step.
            let next = self.dir[end];
            self.patch_transition_flag(next.first_pos, prev != Some(next.first_code))?;
        }
        Ok(prev)
    }

    /// Reads the items of a contiguous block range, reconstructing each
    /// node's effective code from headers and transition entries. Used by
    /// splices and by persistence (re-packing all blocks canonically).
    pub fn read_block_range(&self, blocks: Range<usize>) -> Result<Vec<BulkItem>, StorageError> {
        let mut out = Vec::new();
        for idx in blocks {
            let info = self.dir[idx];
            self.pool.with_page(info.page, |p| {
                let hdr = BlockHeader::read(p);
                let trans = super::block::read_transitions(p);
                let mut t = 0usize;
                let mut code = hdr.first_code;
                for slot in 0..hdr.count as usize {
                    if t < trans.len() && trans[t].0 as usize == slot {
                        code = trans[t].1;
                        t += 1;
                    }
                    let raw = RawRec::read(p, slot);
                    let rec = super::store::NodeRec::from_raw(raw);
                    out.push(BulkItem {
                        tag: rec.tag,
                        size: rec.size,
                        depth: rec.depth,
                        has_value: rec.has_value,
                        code,
                        is_transition: rec.is_transition,
                    });
                }
            })?;
        }
        Ok(out)
    }

    /// Replaces the blocks in `blocks` with freshly packed blocks holding
    /// `items`, then fixes directory positions, totals and chain pointers.
    /// The new blocks are written into the replaced blocks' pages first, in
    /// order, and only the surplus is allocated: an update that keeps the
    /// block count grows nothing. (A splice that shrinks the count leaves
    /// its spare pages unreferenced until the image is compacted.)
    pub(crate) fn splice_blocks(
        &mut self,
        blocks: Range<usize>,
        items: Vec<BulkItem>,
    ) -> Result<(), StorageError> {
        let old_count: u64 = self.dir[blocks.clone()]
            .iter()
            .map(|b| u64::from(b.count))
            .sum();
        let mut reuse = self.dir[blocks.clone()]
            .iter()
            .map(|b| b.page)
            .collect::<Vec<_>>()
            .into_iter();
        // What the predecessor's `next` points at now.
        let old_first = self
            .dir
            .get(blocks.start)
            .map(|b| b.page)
            .unwrap_or(PageId::INVALID);
        let first_pos = self
            .dir
            .get(blocks.start)
            .map(|b| b.first_pos)
            .unwrap_or(self.total);
        // Pack items into new blocks using the same policy as bulk build.
        let mut new_infos: Vec<BlockInfo> = Vec::new();
        let mut chunk: Vec<BulkItem> = Vec::new();
        let mut trans_in_chunk = 0usize;
        let max = self.cfg.max_records_per_block;
        let mut pos = first_pos;
        for item in items {
            let would_be_trans = !chunk.is_empty() && item.is_transition;
            if chunk.len() >= max
                || (would_be_trans && trans_in_chunk + 1 > self.cfg.trans_cap(max))
            {
                let info = self.write_block(&chunk, pos, reuse.next())?;
                pos += u64::from(info.count);
                new_infos.push(info);
                chunk.clear();
                trans_in_chunk = 0;
            }
            if !chunk.is_empty() && item.is_transition {
                trans_in_chunk += 1;
            }
            chunk.push(item);
        }
        if !chunk.is_empty() {
            let info = self.write_block(&chunk, pos, reuse.next())?;
            pos += u64::from(info.count);
            new_infos.push(info);
        }
        let new_count = pos - first_pos;
        let delta = new_count as i64 - old_count as i64;
        let added = new_infos.len();
        self.dir.splice(blocks.clone(), new_infos);
        // Shift positions of the following blocks.
        for info in &mut self.dir[blocks.start + added..] {
            info.first_pos = (info.first_pos as i64 + delta) as u64;
        }
        self.total = (self.total as i64 + delta) as u64;
        // Re-link the chain around the spliced region. The predecessor is
        // rewritten only if the range's first page changed.
        let link_from = blocks.start.saturating_sub(1);
        let link_to = (blocks.start + added).min(self.dir.len());
        for i in link_from..link_to {
            let next = self
                .dir
                .get(i + 1)
                .map(|b| b.page)
                .unwrap_or(PageId::INVALID);
            if i + 1 == blocks.start && next == old_first {
                continue;
            }
            let page = self.dir[i].page;
            self.pool.with_page_mut(page, |p| {
                let mut hdr = BlockHeader::read(p);
                hdr.next = next;
                hdr.write(p);
            })?;
        }
        Ok(())
    }

    /// Writes one block into `page` (a freshly allocated one if `None`) and
    /// returns its directory entry.
    fn write_block(
        &mut self,
        items: &[BulkItem],
        first_pos: u64,
        page: Option<PageId>,
    ) -> Result<BlockInfo, StorageError> {
        debug_assert!(!items.is_empty());
        let page = match page {
            Some(page) => page,
            None => self.pool.allocate_page()?,
        };
        let first = items[0];
        let trans: Vec<(u16, u32)> = items
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, it)| it.is_transition)
            .map(|(slot, it)| (slot as u16, it.code))
            .collect();
        self.pool.with_page_mut(page, |p| {
            // Clear any stale bytes from a recycled frame.
            p.bytes_mut().fill(0);
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
                super::store::NodeRec {
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
        Ok(BlockInfo {
            page,
            count: items.len() as u32,
            first_pos,
            first_code: first.code,
            change: !trans.is_empty(),
            first_depth: first.depth,
        })
    }

    /// Adjusts the subtree size of the node at `pos` by `delta` in place.
    fn patch_size(&mut self, pos: u64, delta: i64) -> Result<(), StorageError> {
        let b = self.block_of_pos(pos);
        let info = self.dir[b];
        let slot = (pos - info.first_pos) as usize;
        self.pool.with_page_mut(info.page, |p| {
            let mut raw = RawRec::read(p, slot);
            raw.size = (raw.size as i64 + delta) as u32;
            raw.write(p, slot);
        })
    }

    /// Sets or clears the transition status of the node at `pos`, updating
    /// the record flag and (for non-first slots) the transition table. Used
    /// for the boundary node just past an updated run when it lives in an
    /// untouched block. The node's *code* is unchanged by construction.
    fn patch_transition_flag(&mut self, pos: u64, is_transition: bool) -> Result<(), StorageError> {
        let b = self.block_of_pos(pos);
        let info = self.dir[b];
        let slot = (pos - info.first_pos) as usize;
        let change = self.pool.with_page_mut(info.page, |p| {
            let mut raw = RawRec::read(p, slot);
            let node_code = super::store::code_in_page(p, info.first_code, slot);
            if is_transition {
                raw.flags |= RFLAG_TRANSITION;
            } else {
                raw.flags &= !RFLAG_TRANSITION;
            }
            raw.write(p, slot);
            if slot > 0 {
                let mut trans = super::block::read_transitions(p);
                let at = trans.partition_point(|&(s, _)| (s as usize) < slot);
                let present = trans.get(at).is_some_and(|&(s, _)| s as usize == slot);
                if is_transition && !present {
                    trans.insert(at, (slot as u16, node_code));
                } else if !is_transition && present {
                    trans.remove(at);
                }
                super::block::write_transitions(p, &trans);
            }
            BlockHeader::read(p).change
        })?;
        self.dir[b].change = change;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::disk::MemDisk;
    use crate::nok::{StoreConfig, StructStore};
    use dol_xml::{parse, Document};
    use std::sync::Arc;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 128))
    }

    /// Builds a store over `doc` with per-node codes given by `f`.
    fn secured_store(doc: &Document, max_rec: usize, f: impl Fn(u64) -> u32) -> StructStore {
        let mut prev: Option<u32> = None;
        let items: Vec<BulkItem> = doc
            .preorder()
            .map(|id| {
                let n = doc.node(id);
                let code = f(u64::from(id.0));
                let is_transition = prev != Some(code);
                prev = Some(code);
                BulkItem {
                    tag: n.tag,
                    size: n.size,
                    depth: n.depth,
                    has_value: false,
                    code,
                    is_transition,
                }
            })
            .collect();
        StructStore::build(
            pool(),
            StoreConfig {
                max_records_per_block: max_rec,
            },
            items,
        )
        .unwrap()
    }

    /// The store's whole structure as a document (no values).
    fn structure(store: &StructStore, tags: &dol_xml::TagInterner) -> Document {
        let values = crate::ValueStore::new(store.pool().clone());
        store.to_document(tags, &values, |_| true).unwrap().unwrap()
    }

    fn codes_of(store: &StructStore) -> Vec<u32> {
        (0..store.total_nodes())
            .map(|p| store.code_at(p).unwrap())
            .collect()
    }

    fn doc12() -> Document {
        parse("<a><b/><c/><d><e/><f/><g><h/><i/><j/></g></d><k/></a>").unwrap()
    }

    #[test]
    fn set_code_run_single_node() {
        for max_rec in [300usize, 3] {
            let doc = doc12();
            let mut store = secured_store(&doc, max_rec, |_| 1);
            store.set_code_run(5, 6, 9).unwrap();
            store.check_integrity().unwrap();
            let mut expect = vec![1u32; doc.len()];
            expect[5] = 9;
            assert_eq!(codes_of(&store), expect);
            assert_eq!(store.logical_transition_count().unwrap(), 3); // root, 5, 6
        }
    }

    #[test]
    fn set_code_run_subtree_collapses_internal_transitions() {
        for max_rec in [300usize, 4] {
            let doc = doc12();
            // Alternating codes: every node is a transition.
            let mut store = secured_store(&doc, max_rec, |p| (p % 2) as u32);
            let before = store.logical_transition_count().unwrap();
            assert_eq!(before, doc.len() as u64);
            // Subtree of d = positions [3, 10).
            store.set_code_run(3, 10, 7).unwrap();
            store.check_integrity().unwrap();
            let codes = codes_of(&store);
            for (p, &c) in codes.iter().enumerate().take(10).skip(3) {
                assert_eq!(c, 7, "pos {p}");
            }
            assert_eq!(codes[2], 0);
            assert_eq!(codes[10], 0);
            // Remaining transitions: 0, 1, 2 (alternating prefix), 3 (run
            // start) and 10 (run end restores code 0).
            let after = store.logical_transition_count().unwrap();
            assert_eq!(after, 5);
        }
    }

    #[test]
    fn set_code_run_merging_with_predecessor_removes_transition() {
        let doc = doc12();
        let mut store = secured_store(&doc, 3, |p| if (4..9).contains(&p) { 2 } else { 1 });
        assert_eq!(store.logical_transition_count().unwrap(), 3);
        // Setting the run back to 1 erases both boundary transitions.
        store.set_code_run(4, 9, 1).unwrap();
        store.check_integrity().unwrap();
        assert_eq!(codes_of(&store), vec![1; doc.len()]);
        assert_eq!(store.logical_transition_count().unwrap(), 1);
    }

    #[test]
    fn set_code_run_to_document_end() {
        let doc = doc12();
        let mut store = secured_store(&doc, 3, |_| 1);
        let n = store.total_nodes();
        store.set_code_run(8, n, 4).unwrap();
        store.check_integrity().unwrap();
        let codes = codes_of(&store);
        assert!(codes[..8].iter().all(|&c| c == 1));
        assert!(codes[8..].iter().all(|&c| c == 4));
    }

    #[test]
    fn proposition_1_bound_holds() {
        // Random-ish runs never add more than 2 transitions net.
        let doc = doc12();
        for max_rec in [300usize, 3] {
            let mut store = secured_store(&doc, max_rec, |p| (p % 3) as u32);
            for (s, e, c) in [(1u64, 4u64, 5u32), (3, 10, 1), (2, 3, 0), (6, 11, 2)] {
                let before = store.logical_transition_count().unwrap();
                store.set_code_run(s, e, c).unwrap();
                store.check_integrity().unwrap();
                let after = store.logical_transition_count().unwrap();
                assert!(
                    after <= before + 2,
                    "prop 1 violated: {before} -> {after} on run [{s},{e})={c}"
                );
            }
        }
    }

    #[test]
    fn delete_run_removes_subtree() {
        for max_rec in [300usize, 3] {
            let doc = doc12();
            let mut store =
                secured_store(&doc, max_rec, |p| if (4..9).contains(&p) { 2 } else { 1 });
            // Delete subtree of g = positions [6, 10), size 4.
            let k = store.delete_run(6, 10).unwrap();
            assert_eq!(k, 4);
            store.check_integrity().unwrap();
            assert_eq!(store.total_nodes(), 7);
            // Structure matches the document after the same deletion.
            let mut doc2 = doc.clone();
            doc2.delete_subtree(dol_xml::NodeId(6)).unwrap();
            let rebuilt = structure(&store, doc.tags());
            assert_eq!(rebuilt.to_xml(), doc2.to_xml());
            // Codes: positions 0..4 ->1, 4..6 ->2 (e,f), 6 (old 10=k) ->1.
            assert_eq!(codes_of(&store), vec![1, 1, 1, 1, 2, 2, 1]);
        }
    }

    #[test]
    fn insert_run_adds_subtree() {
        for max_rec in [300usize, 3] {
            let doc = doc12();
            let mut store = secured_store(&doc, max_rec, |_| 1);
            // Insert a 2-node subtree <x><y/></x> with code 8 as last child
            // of d (parent pos 3): at = end of d's subtree = 10.
            let mut tags = doc.tags().clone();
            let x = tags.intern("x");
            let y = tags.intern("y");
            let items = vec![
                BulkItem {
                    tag: x,
                    size: 2,
                    depth: 2,
                    has_value: false,
                    code: 8,
                    is_transition: true,
                },
                BulkItem {
                    tag: y,
                    size: 1,
                    depth: 3,
                    has_value: false,
                    code: 8,
                    is_transition: false,
                },
            ];
            let ancestors = {
                let mut a = store.ancestors_of(3).unwrap();
                a.push(3);
                a
            };
            store.insert_run(10, &ancestors, &items).unwrap();
            store.check_integrity().unwrap();
            assert_eq!(store.total_nodes(), 13);
            let codes = codes_of(&store);
            assert_eq!(codes[10], 8);
            assert_eq!(codes[11], 8);
            assert_eq!(codes[12], 1); // old k restored as transition
            assert_eq!(store.node(3).unwrap().size, 9);
            assert_eq!(store.node(0).unwrap().size, 13);
            let rebuilt = structure(&store, &tags);
            let mut doc2 = doc.clone();
            let mut b = Document::builder();
            b.open("x");
            b.leaf("y", None);
            b.close();
            doc2.insert_subtree(dol_xml::NodeId(3), None, &b.finish().unwrap())
                .unwrap();
            assert_eq!(rebuilt.to_xml(), doc2.to_xml());
        }
    }

    #[test]
    fn insert_at_document_end() {
        let doc = doc12();
        let mut store = secured_store(&doc, 3, |_| 1);
        let mut tags = doc.tags().clone();
        let z = tags.intern("z");
        let items = vec![BulkItem {
            tag: z,
            size: 1,
            depth: 1,
            has_value: false,
            code: 1,
            is_transition: false,
        }];
        let n = store.total_nodes();
        store.insert_run(n, &[0], &items).unwrap();
        store.check_integrity().unwrap();
        assert_eq!(store.total_nodes(), n + 1);
        assert_eq!(store.node(0).unwrap().size as u64, n + 1);
        assert_eq!(store.code_at(n).unwrap(), 1);
        assert_eq!(store.logical_transition_count().unwrap(), 1);
    }

    #[test]
    fn remap_codes_range_merges_redundant_transitions() {
        for max_rec in [300usize, 3] {
            let doc = doc12();
            // Codes 0,1,2 cycling: every node a transition.
            let mut store = secured_store(&doc, max_rec, |p| (p % 3) as u32);
            assert_eq!(store.logical_transition_count().unwrap(), 11);
            // Merge codes 1 and 2 into 1: runs collapse pairwise.
            let all = 0..store.block_count();
            store.remap_codes_range(all, &[0, 1, 1], None).unwrap();
            store.check_integrity().unwrap();
            let expect: Vec<u32> = (0..11u64).map(|p| if p % 3 == 0 { 0 } else { 1 }).collect();
            assert_eq!(codes_of(&store), expect);
            // Transitions: 0,1 then 3,4 then 6,7 then 9,10 boundaries =
            // alternating runs 0|11|0|11|... -> transition at every 0->1 and
            // 1->0 boundary: positions 0,1,3,4,6,7,9,10 = 8.
            assert_eq!(store.logical_transition_count().unwrap(), 8);
            // Identity remap is a no-op.
            let before = codes_of(&store);
            let all = 0..store.block_count();
            store.remap_codes_range(all, &[0, 1, 1], None).unwrap();
            store.check_integrity().unwrap();
            assert_eq!(codes_of(&store), before);
        }
    }

    #[test]
    fn transition_overflow_splits_blocks() {
        // Tiny blocks, every node alternates code => transition table is at
        // capacity; updates must still succeed by splitting.
        let doc = doc12();
        let mut store = secured_store(&doc, 4, |p| (p % 2) as u32);
        store.check_integrity().unwrap();
        store.set_code_run(1, 2, 5).unwrap();
        store.check_integrity().unwrap();
        assert_eq!(store.code_at(1).unwrap(), 5);
    }
}
