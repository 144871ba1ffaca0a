//! The physical DOL: codes embedded in the NoK block store (§3.2–§3.4).
//!
//! The embedding itself (block headers, change bits, in-block transition
//! entries) is implemented by [`dol_storage::StructStore`]; this module
//! supplies the semantics: the in-memory [`Codebook`] the codes index, the
//! single-pass secured bulk build, the piggy-backed accessibility check, the
//! page-skip test, and the accessibility-update entry points.

use crate::codebook::Codebook;
use crate::column::SubjectColumn;
use crate::stats::DolStats;
use dol_acl::{AccessOracle, BitVec, SubjectId};
use dol_storage::{BufferPool, BulkItem, StoreConfig, StructStore};
use dol_xml::Document;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Storage-layer errors bubbled up from the block store.
pub type StorageError = dol_storage::disk::StorageError;

/// Decoded-column cache capacity; past this the cache is flushed wholesale
/// (subject spaces can reach millions under group factoring).
const COLUMN_CACHE_CAP: usize = 4096;

/// Produces the document-order [`BulkItem`] stream for a secured bulk load,
/// interning each node's ACL on the fly — the paper's single-pass
/// construction "using a single pass through a labeled XML document".
pub fn build_secure_items(doc: &Document, oracle: &impl AccessOracle) -> (Vec<BulkItem>, Codebook) {
    let mut codebook = Codebook::new(oracle.subject_count());
    let mut row = BitVec::zeros(0);
    let mut prev: Option<u32> = None;
    let mut items = Vec::with_capacity(doc.len());
    for id in doc.preorder() {
        let n = doc.node(id);
        oracle.acl_row(id, &mut row);
        let code = codebook.intern(&row);
        let is_transition = prev != Some(code);
        prev = Some(code);
        items.push(BulkItem {
            tag: n.tag,
            size: n.size,
            depth: n.depth,
            has_value: n.value.is_some(),
            code,
            is_transition,
        });
    }
    (items, codebook)
}

/// The in-memory half of an embedded DOL: the codebook plus the operations
/// that interpret the codes stored in a [`StructStore`].
pub struct EmbeddedDol {
    codebook: Codebook,
    /// Decoded subject columns, one per subject seen, each revalidated
    /// against the codebook's version stamp on every
    /// [`column`](EmbeddedDol::column) call — a serving mix that
    /// interleaves subjects must not thrash a single slot. Codebook
    /// mutations require `&mut self`, so a column handed out under `&self`
    /// can never race a code-space change. The subject space can reach
    /// millions (group-factored codebooks), so the cache is capped and
    /// flushed wholesale when it overflows; handed-out `Arc`s stay valid.
    column_cache: Mutex<HashMap<SubjectId, Arc<SubjectColumn>>>,
}

impl Clone for EmbeddedDol {
    fn clone(&self) -> Self {
        Self {
            codebook: self.codebook.clone(),
            // A poisoned cache lock only means a panic mid-insert; the map
            // itself is always valid, so recover the guard rather than
            // propagate the poison.
            column_cache: Mutex::new(
                self.column_cache
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            ),
        }
    }
}

impl std::fmt::Debug for EmbeddedDol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddedDol")
            .field("codebook", &self.codebook)
            .finish_non_exhaustive()
    }
}

impl EmbeddedDol {
    /// Builds a secured store and its embedded DOL from a document and an
    /// access oracle, in one document-order pass.
    pub fn build(
        pool: Arc<BufferPool>,
        cfg: StoreConfig,
        doc: &Document,
        oracle: &impl AccessOracle,
    ) -> Result<(StructStore, EmbeddedDol), StorageError> {
        let (items, codebook) = build_secure_items(doc, oracle);
        let store = StructStore::build(pool, cfg, items)?;
        Ok((store, EmbeddedDol::from_codebook(codebook)))
    }

    /// Wraps an existing codebook (e.g. loaded from persisted form).
    pub fn from_codebook(codebook: Codebook) -> Self {
        Self {
            codebook,
            column_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The decoded accessibility column for `subject`, cached until the next
    /// codebook mutation. The returned column is immutable and cheap to
    /// clone, so per-query (or per-worker) holders pay the cache lock once
    /// and then check codes with a single shift-and-mask.
    pub fn column(&self, subject: SubjectId) -> Arc<SubjectColumn> {
        let mut cache = self.column_cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(col) = cache.get(&subject) {
            if col.matches(&self.codebook, subject) {
                return Arc::clone(col);
            }
        }
        let col = Arc::new(self.codebook.column(subject));
        // An id the codebook does not know yet decodes all-deny with an empty
        // closure; registering it bumps no version, so such a column is never
        // kept.
        if subject.index() >= self.codebook.logical_subjects() {
            return col;
        }
        if cache.len() >= COLUMN_CACHE_CAP {
            cache.clear();
        }
        cache.insert(subject, Arc::clone(&col));
        col
    }

    /// The codebook.
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// Mutable codebook access (subject add/remove operate here only —
    /// "no changes to the embedded transition nodes … are required", §3.4).
    pub fn codebook_mut(&mut self) -> &mut Codebook {
        &mut self.codebook
    }

    /// Whether `subject` may access the node at `pos` (one page access,
    /// shared with the structural read — see
    /// [`StructStore::node_and_code`]). Resolves the code through the cached
    /// decoded column for `subject`.
    pub fn accessible(
        &self,
        store: &StructStore,
        pos: u64,
        subject: SubjectId,
    ) -> Result<bool, StorageError> {
        let column = self.column(subject);
        Ok(column.check_code(store.code_at(pos)?))
    }

    /// The page-skip test (§3.3): if block `idx`'s first node is
    /// inaccessible to `subject` and the change bit is clear, every node in
    /// the block is inaccessible — and this is decided **from memory**,
    /// without reading the page.
    pub fn block_skippable(&self, store: &StructStore, idx: usize, subject: SubjectId) -> bool {
        self.block_skippable_with(store, idx, &self.column(subject))
    }

    /// [`block_skippable`](EmbeddedDol::block_skippable) against an
    /// already-decoded column — the per-worker fast path.
    pub fn block_skippable_with(
        &self,
        store: &StructStore,
        idx: usize,
        column: &SubjectColumn,
    ) -> bool {
        let info = store.block_info(idx);
        !info.change && !column.check_code(info.first_code)
    }

    /// The §3.3 page-skip test evaluated **word-parallel over the whole
    /// block directory**: bit `b & 63` of word `b >> 6` is set iff block `b`
    /// is skippable for `column`'s subject. Built from the in-memory
    /// [`BlockInfo`](dol_storage::BlockInfo) directory with one
    /// [`SubjectColumn::check_codes64`] gather per 64 blocks — still zero
    /// page I/O, but one bit test per candidate afterwards instead of a
    /// header load and branch.
    pub fn block_skip_mask(&self, store: &StructStore, column: &SubjectColumn) -> Vec<u64> {
        let nblocks = store.block_count();
        let mut mask = vec![0u64; nblocks.div_ceil(64)];
        let mut codes = [0u32; 64];
        for (w, chunk) in (0..nblocks).step_by(64).enumerate() {
            let n = 64.min(nblocks - chunk);
            let mut change = 0u64;
            for (i, code) in codes.iter_mut().enumerate().take(n) {
                let info = store.block_info(chunk + i);
                *code = info.first_code;
                if info.change {
                    change |= 1u64 << i;
                }
            }
            let accessible = column.check_codes64(&codes[..n]);
            let valid = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
            mask[w] = !accessible & !change & valid;
        }
        mask
    }

    /// Grants or revokes one subject's access to the single node at `pos`
    /// (§3.4 single-node accessibility update: one page read + one write).
    pub fn set_node(
        &mut self,
        store: &mut StructStore,
        pos: u64,
        subject: SubjectId,
        allow: bool,
    ) -> Result<(), StorageError> {
        let code = store.code_at(pos)?;
        let col = self.codebook.ensure_direct_column(subject) as usize;
        let mut acl = self.codebook.entry_padded(code);
        if acl.get(col) == allow {
            return Ok(()); // preceding transition already agrees — stop.
        }
        acl.set(col, allow);
        let new_code = self.codebook.intern(&acl);
        self.codebook.touch_column(col as u32);
        store.set_code_run(pos, pos + 1, new_code)
    }

    /// Grants or revokes one subject's access over the subtree occupying
    /// `[start, end)` (§3.4 subtree update: `N/B` page I/Os). Other
    /// subjects' rights inside the range are preserved: each existing code
    /// run is remapped through the codebook with only `subject`'s bit
    /// changed, and adjacent runs that become equal are merged.
    pub fn set_subtree(
        &mut self,
        store: &mut StructStore,
        start: u64,
        end: u64,
        subject: SubjectId,
        allow: bool,
    ) -> Result<(), StorageError> {
        let runs = store.runs_in(start, end)?;
        let col = self.codebook.ensure_direct_column(subject) as usize;
        // Remap codes and coalesce adjacent equal results.
        let mut mapped: Vec<(u64, u32, u32)> = Vec::with_capacity(runs.len()); // (start, old, new)
        let mut changed = false;
        for (pos, old) in runs {
            let mut acl = self.codebook.entry_padded(old);
            acl.set(col, allow);
            let new = self.codebook.intern(&acl);
            changed |= new != old;
            match mapped.last() {
                Some(&(_, _, prev_new)) if prev_new == new => {}
                _ => mapped.push((pos, old, new)),
            }
        }
        if changed {
            self.codebook.touch_column(col as u32);
        }
        // Apply left to right; stretches that are already a single run of
        // the target code are skipped.
        for (i, &(s, old, new)) in mapped.iter().enumerate() {
            let e = mapped.get(i + 1).map(|&(p, _, _)| p).unwrap_or(end);
            let unchanged = old == new && store.runs_in(s, e)?.len() == 1;
            if !unchanged {
                store.set_code_run(s, e, new)?;
            }
        }
        Ok(())
    }

    /// Sets a whole ACL over `[start, end)`.
    pub fn set_run(
        &mut self,
        store: &mut StructStore,
        start: u64,
        end: u64,
        acl: &BitVec,
    ) -> Result<(), StorageError> {
        let code = self.codebook.intern(acl);
        self.codebook.touch_all();
        store.set_code_run(start, end, code)
    }

    /// The §3.4 lazy cleanup after subject removals: compacts the codebook
    /// (removed columns dropped, duplicate entries merged) and rewrites every
    /// embedded code through the resulting remap in one pass over the store.
    /// Every view moves: flat subject ids shift with the dropped columns.
    pub fn compact(&mut self, store: &mut StructStore) -> Result<(), StorageError> {
        let remap = self.codebook.compact();
        store.remap_codes(&remap)?;
        self.codebook.touch_all();
        Ok(())
    }

    /// Extracts the logical DOL from the embedded representation (used by
    /// tests to prove logical/physical equivalence).
    #[cfg(test)]
    pub fn to_logical(&self, store: &StructStore) -> Result<crate::dol::Dol, StorageError> {
        let mut transitions = Vec::new();
        let mut prev: Option<u32> = None;
        for pos in 0..store.total_nodes() {
            let code = store.code_at(pos)?;
            if prev != Some(code) {
                transitions.push((pos, code));
                prev = Some(code);
            }
        }
        Ok(crate::dol::Dol::from_parts(
            transitions,
            self.codebook.clone(),
            store.total_nodes(),
        ))
    }

    /// Size accounting of the embedded representation.
    pub fn stats(&self, store: &StructStore) -> Result<DolStats, StorageError> {
        let transitions = store.logical_transition_count()? as usize;
        Ok(DolStats {
            total_nodes: store.total_nodes(),
            subjects: self.codebook.live_subjects(),
            transitions,
            codebook_entries: self.codebook.len(),
            codebook_bytes: self.codebook.bytes(),
            embedded_code_bytes: transitions * self.codebook.code_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::AccessibilityMap;
    use dol_storage::MemDisk;
    use dol_xml::{parse, NodeId};

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64))
    }

    fn setup(max_rec: usize) -> (StructStore, EmbeddedDol, AccessibilityMap, Document) {
        let doc = parse("<a><b/><c/><d><e/><f/><g><h/><i/><j/></g></d><k/></a>").unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true); // subject 0: everything
        }
        for p in 3..10 {
            map.set(SubjectId(1), NodeId(p), true); // subject 1: subtree of d
        }
        let (store, dol) = EmbeddedDol::build(
            pool(),
            StoreConfig {
                max_records_per_block: max_rec,
            },
            &doc,
            &map,
        )
        .unwrap();
        (store, dol, map, doc)
    }

    #[test]
    fn embedded_matches_ground_truth() {
        for max_rec in [300, 3] {
            let (store, dol, map, doc) = setup(max_rec);
            store.check_integrity().unwrap();
            for p in 0..doc.len() as u64 {
                for s in [SubjectId(0), SubjectId(1)] {
                    assert_eq!(
                        dol.accessible(&store, p, s).unwrap(),
                        map.accessible(s, NodeId(p as u32)),
                        "pos {p} subject {s} max_rec {max_rec}"
                    );
                }
            }
            // Logical extraction agrees with a direct logical build.
            let logical = dol.to_logical(&store).unwrap();
            logical.verify_against(&map).unwrap();
            assert_eq!(
                logical.transition_count() as u64,
                store.logical_transition_count().unwrap()
            );
        }
    }

    #[test]
    fn page_skip_test() {
        // Many tiny blocks; subject 1 only sees [3, 10), so blocks fully
        // outside are skippable without I/O.
        let (store, dol, _, _) = setup(2);
        let mut skippable = 0;
        for b in 0..store.block_count() {
            if dol.block_skippable(&store, b, SubjectId(1)) {
                skippable += 1;
            }
            // Subject 0 sees everything: nothing is skippable.
            assert!(!dol.block_skippable(&store, b, SubjectId(0)));
        }
        assert!(skippable >= 1, "expected skippable blocks");
    }

    /// The word-parallel skip mask must agree with the per-block scalar
    /// `block_skippable` for every block, subject, and block size.
    #[test]
    fn block_skip_mask_matches_scalar() {
        for max_rec in [300, 3, 2] {
            let (store, dol, _, _) = setup(max_rec);
            for s in [SubjectId(0), SubjectId(1)] {
                let col = dol.column(s);
                let mask = dol.block_skip_mask(&store, &col);
                for b in 0..store.block_count() {
                    assert_eq!(
                        mask[b >> 6] >> (b & 63) & 1 != 0,
                        dol.block_skippable(&store, b, s),
                        "block {b} subject {s} max_rec {max_rec}"
                    );
                }
                // No bits past the directory.
                if store.block_count() % 64 != 0 {
                    let last = mask.last().copied().unwrap_or(0);
                    assert_eq!(last >> (store.block_count() % 64), 0);
                }
            }
        }
    }

    #[test]
    fn set_node_and_subtree_updates() {
        for max_rec in [300, 3] {
            let (mut store, mut dol, map, doc) = setup(max_rec);
            let mut truth = map.clone();
            dol.set_node(&mut store, 2, SubjectId(1), true).unwrap();
            truth.set(SubjectId(1), NodeId(2), true);
            dol.set_subtree(&mut store, 6, 10, SubjectId(0), false)
                .unwrap();
            for p in 6..10 {
                truth.set(SubjectId(0), NodeId(p), false);
            }
            store.check_integrity().unwrap();
            for p in 0..doc.len() as u64 {
                for s in [SubjectId(0), SubjectId(1)] {
                    assert_eq!(
                        dol.accessible(&store, p, s).unwrap(),
                        truth.accessible(s, NodeId(p as u32)),
                        "pos {p} subject {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn compaction_preserves_semantics_and_shrinks() {
        for max_rec in [300, 3] {
            let (mut store, mut dol, map, doc) = setup(max_rec);
            // Removing subject 1 makes the "subtree of d" ACL redundant.
            dol.codebook_mut().remove_subject(SubjectId(1));
            let entries_before = dol.codebook().len();
            dol.compact(&mut store).unwrap();
            store.check_integrity().unwrap();
            assert!(dol.codebook().len() < entries_before);
            assert_eq!(dol.codebook().width(), 1);
            // Subject 0's view is unchanged.
            for p in 0..doc.len() as u64 {
                assert_eq!(
                    dol.accessible(&store, p, SubjectId(0)).unwrap(),
                    map.accessible(SubjectId(0), NodeId(p as u32)),
                    "pos {p} max_rec {max_rec}"
                );
            }
            // With one uniform subject the whole document is one run.
            assert_eq!(store.logical_transition_count().unwrap(), 1);
        }
    }

    #[test]
    fn subject_addition_without_touching_store() {
        let (store, mut dol, _, _) = setup(300);
        let io_before = store.pool().stats();
        let new = dol.codebook_mut().add_subject(Some(SubjectId(1)));
        let io_after = store.pool().stats();
        assert_eq!(io_before, io_after, "codebook ops must not touch pages");
        // New subject mirrors subject 1.
        assert!(dol.accessible(&store, 4, new).unwrap());
        assert!(!dol.accessible(&store, 1, new).unwrap());
    }

    #[test]
    fn column_cache_revalidates_on_codebook_mutation() {
        let (store, mut dol, _, doc) = setup(300);
        let col = dol.column(SubjectId(1));
        // Cache hit: same snapshot object.
        assert!(Arc::ptr_eq(&col, &dol.column(SubjectId(1))));
        // Different subject: recomputed.
        assert!(!Arc::ptr_eq(&col, &dol.column(SubjectId(0))));
        // The column agrees with the codebook for every code.
        for code in 0..dol.codebook().len() as u32 {
            assert_eq!(col.check_code(code), dol.codebook().bit(code, SubjectId(1)));
        }
        // A codebook mutation invalidates the snapshot.
        let s = dol.codebook_mut().add_subject(Some(SubjectId(1)));
        let col2 = dol.column(SubjectId(1));
        assert!(!Arc::ptr_eq(&col, &col2));
        for p in 0..doc.len() as u64 {
            assert_eq!(
                dol.accessible(&store, p, s).unwrap(),
                dol.accessible(&store, p, SubjectId(1)).unwrap(),
                "copied subject must mirror source at pos {p}"
            );
        }
    }

    #[test]
    fn accessibility_check_costs_no_extra_io() {
        let (store, dol, _, _) = setup(300);
        store.pool().reset_stats();
        // node_and_code: one logical read for both structure and code.
        let (_, code) = store.node_and_code(5).unwrap();
        let _ = dol.column(SubjectId(0)).check_code(code);
        let s = store.pool().stats();
        assert_eq!(s.logical_reads, 1);
    }
}
