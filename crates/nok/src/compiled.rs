//! Fragment matching — Algorithm 1 (NPM) and its secure variant ε-NoK, run
//! as a compiled automaton.
//!
//! A fragment match starts from a candidate data node for the fragment root
//! (seeded by the engine from a tag index) and proceeds by top-down
//! navigation: `FIRST-CHILD` / `FOLLOWING-SIBLING` over the block-oriented
//! encoding, exactly as in the paper. The data children of each matched node
//! are scanned **once**; in secure mode each loaded child's accessibility is
//! checked from the code on its own page (`ACCESS(u)`, Algorithm 1 line 6)
//! and inaccessible children are never recursed into — which is sound for
//! the binding-level (Cho et al.) semantics because an inaccessible node
//! cannot participate in any surviving binding. Where Algorithm 1 reports
//! existence plus the returning node's matches, [`CompiledMatcher`]
//! enumerates the distinct tuples over the fragment's *output* pattern nodes
//! (fragment root / join anchors / returning node), which is what the
//! structural-join stage consumes; pattern children whose subtree carries no
//! output are matched existentially with early exit.
//!
//! Per-query facts are derived **once**, not per candidate: a parsed
//! [`QueryPlan`] is lowered into a [`CompiledPlan`] — a flat, cache-friendly
//! automaton:
//!
//! * per pattern node, one [`CNode`] record with the tag **pre-resolved** to a
//!   [`TagId`] (integer compare, no string hashing), the value predicate
//!   pre-boxed, and output/carries-output bits precomputed;
//! * per fragment, a single flat `kin` array holding every node's child-axis
//!   and following-sibling-axis pattern children as two contiguous ranges
//!   (`kin_start..kin_mid..kin_end`), so the matcher's inner loop slices
//!   instead of filtering;
//! * a `tag_space` fence recording the interner length at compile time, so a
//!   cached plan is revalidated in O(1) against any snapshot (the interner is
//!   append-only: equal length ⇒ identical resolution).
//!
//! [`CompiledMatcher`] executes the automaton; its answers are checked
//! against [`naive_eval`](crate::reference::naive_eval) (the differential
//! property tests in `tests/proptest_compiled.rs` and
//! `tests/proptest_engine.rs`), including the fail-closed policy and the
//! deadline check every `DEADLINE_CHECK_MASK + 1` node visits. Page-skips
//! are decided before any matcher runs: the word-parallel skip mask
//! ([`dol_core::EmbeddedDol::block_skip_mask`]) becomes a list of
//! [`VisibleExtents`], and every candidate list is intersected with it by
//! binary search, so a skipped run of blocks costs O(log n) however many
//! candidates lie in it.
//!
//! For **leaf fragments** (single pattern node — the descendant sides of all
//! `//`-joins, which dominate the Table-1 mix) the matcher additionally
//! offers [`CompiledMatcher::match_leaf_candidates`]: candidates are grouped
//! by block and classified in the *compressed domain* — block header first
//! (uniform-code test, zero I/O), then the code runs of the
//! execution's shared [`SnapshotCache`] (one latch per block per query),
//! and — only under a value predicate — one [`StructStore::block_probe`]
//! page scan producing word-packed tag/value masks, so only candidates
//! surviving the word tests ever decode a value. This turns the paper's
//! §3.3 page-skip into a general early-exit inside partially-accessible
//! blocks.

use crate::join::{sort_dedup_rows, TupleTable};
use crate::pattern::{Axis, PNodeId};
use crate::plan::QueryPlan;
use dol_acl::SubjectId;
use dol_core::{AccessBitmap, EmbeddedDol, SubjectColumn};
use dol_storage::disk::StorageError;
use dol_storage::{BlockSnapshot, Deadline, NodeRec, StructStore, ValueStore};
use dol_xml::{TagId, TagInterner};
use std::sync::Arc;

/// Whether `e` is an *availability* outcome — the caller's deadline expired
/// (or was cancelled), or the buffer pool's circuit breaker refused the
/// operation. These must never be masked by the fail-closed policy: masking
/// would silently shrink a secure answer, whereas the contract of a timed-out
/// or breaker-refused query is a typed error and *no* answer.
#[inline]
pub(crate) fn is_availability(e: &StorageError) -> bool {
    matches!(
        e,
        StorageError::DeadlineExceeded | StorageError::BreakerOpen
    )
}

/// Deadline checks piggy-back on node loads, once every this many visited
/// nodes (power of two; the check itself is an atomic load plus, for real
/// deadlines, one `Instant::now()`).
pub(crate) const DEADLINE_CHECK_MASK: u64 = 0xFF;

/// Everything a fragment match needs to read.
pub struct MatchContext<'a> {
    /// The structural block store.
    pub store: &'a StructStore,
    /// Character data (for value predicates).
    pub values: &'a ValueStore,
    /// Tag name resolution.
    pub tags: &'a TagInterner,
    /// `Some((dol, column))` enables ε-NoK accessibility checking: the DOL
    /// whose block headers decide the §3.3 skip, and the subject's decoded
    /// column, shared by every matcher (and every worker thread) of one
    /// evaluation, so the per-node check is a single shift-and-mask on an
    /// immutable snapshot — no codebook lock, no ACL-entry read.
    pub access: Option<(&'a EmbeddedDol, Arc<SubjectColumn>)>,
    /// The evaluation's cooperative time budget, checked between node loads
    /// (every `DEADLINE_CHECK_MASK + 1` visits). Defaults to
    /// [`Deadline::never`]; expiry surfaces as
    /// [`StorageError::DeadlineExceeded`] and is never fail-closed-masked.
    pub deadline: Deadline,
}

impl<'a> MatchContext<'a> {
    /// Builds a context, decoding the subject's column once up front when
    /// access control is attached.
    pub fn new(
        store: &'a StructStore,
        values: &'a ValueStore,
        tags: &'a TagInterner,
        access: Option<(&'a EmbeddedDol, SubjectId)>,
    ) -> Self {
        Self {
            store,
            values,
            tags,
            access: access.map(|(dol, s)| (dol, dol.column(s))),
            deadline: Deadline::never(),
        }
    }

    /// Whether the node whose code is `code` is accessible (always true in
    /// unsecured mode).
    #[inline]
    pub fn code_accessible(&self, code: u32) -> bool {
        self.access
            .as_ref()
            .is_none_or(|(_, col)| col.check_code(code))
    }
}

/// Counters accumulated during matching.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatchStats {
    /// Data nodes loaded (structure + piggy-backed code).
    pub nodes_visited: u64,
    /// Nodes rejected by the accessibility check.
    pub nodes_denied: u64,
    /// Reads that failed (corrupt or unreadable page) during secure
    /// evaluation and were treated as entirely inaccessible instead of
    /// aborting — the fail-closed policy. Always 0 in unsecured mode, where
    /// storage errors propagate to the caller.
    pub blocks_failed_closed: u64,
}

/// One pattern node, lowered: everything `node_matches`/`enum_node` need,
/// flat and resolved.
#[derive(Debug, Default, Clone)]
pub struct CNode {
    /// Resolved tag (`None` = wildcard, or unmatchable — see below).
    pub tag: Option<TagId>,
    /// The pattern names a tag that does not exist in the document at all.
    pub unmatchable: bool,
    /// Required character-data value, if any.
    pub value: Option<Box<str>>,
    /// Whether this node's bindings are exported from the fragment.
    pub is_output: bool,
    /// Whether this node's fragment-subtree contains an output.
    pub carries_output: bool,
    /// Start of this node's child-axis pattern children in its fragment's
    /// `kin` table.
    pub kin_start: u32,
    /// End of child-axis / start of following-sibling-axis children.
    pub kin_mid: u32,
    /// End of following-sibling-axis children.
    pub kin_end: u32,
}

/// One NoK fragment, lowered to flat tables.
#[derive(Debug, Clone)]
pub struct CompiledFragment {
    root: PNodeId,
    /// Indexed by `PNodeId` over the *whole* pattern (fragments share the
    /// pattern's id space; non-member slots are inert defaults).
    nodes: Vec<CNode>,
    /// Flat next-of-kin table; each member's `CNode` holds its ranges.
    kin: Vec<PNodeId>,
    satisfiable: bool,
    leaf: bool,
}

impl CompiledFragment {
    /// The fragment's root pattern node.
    #[inline]
    pub fn root(&self) -> PNodeId {
        self.root
    }

    /// The compiled record of pattern node `p`.
    #[inline]
    pub fn node(&self, p: PNodeId) -> &CNode {
        &self.nodes[p.index()]
    }

    /// Resolved tag of the fragment root (`None` = wildcard).
    #[inline]
    pub fn root_tag(&self) -> Option<TagId> {
        self.nodes[self.root.index()].tag
    }

    /// Value predicate on the fragment root, if any.
    #[inline]
    pub fn root_value(&self) -> Option<&str> {
        self.nodes[self.root.index()].value.as_deref()
    }

    /// Whether the fragment is a single pattern node (leaf fast path).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Whether this fragment can match anything at all (false when a member
    /// names a tag absent from the document).
    #[inline]
    pub fn is_satisfiable(&self) -> bool {
        self.satisfiable
    }
}

/// A query lowered against one tag space: one [`CompiledFragment`] per
/// [`QueryPlan`] fragment, in the same order (joins still come from the
/// plan — compilation changes fragment *matching*, not join structure).
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    tag_space: usize,
    frags: Vec<CompiledFragment>,
}

impl CompiledPlan {
    /// Lowers `plan` against `tags`. Pure CPU; no storage access.
    pub fn compile(plan: &QueryPlan, tags: &TagInterner) -> CompiledPlan {
        let pattern = &plan.pattern;
        let n = pattern.len();
        let frags = plan
            .trees
            .iter()
            .map(|tree| {
                let mut nodes: Vec<CNode> = vec![CNode::default(); n];
                for id in pattern.iter() {
                    let pn = pattern.node(id);
                    let c = &mut nodes[id.index()];
                    if let Some(name) = &pn.tag {
                        match tags.get(name) {
                            Some(t) => c.tag = Some(t),
                            None => c.unmatchable = true,
                        }
                    }
                    c.value = pn.value.as_deref().map(Box::from);
                }
                for &o in &tree.outputs {
                    nodes[o.index()].is_output = true;
                    nodes[o.index()].carries_output = true;
                }
                // carries_output via child-edge closure, members-last-first
                // (members are in preorder, so children come after parents).
                for &m in tree.members.iter().rev() {
                    if nodes[m.index()].carries_output {
                        continue;
                    }
                    let any = pattern
                        .node(m)
                        .children
                        .iter()
                        .filter(|&&c| pattern.node(c).axis != Axis::Descendant)
                        .any(|&c| nodes[c.index()].carries_output);
                    if any {
                        nodes[m.index()].carries_output = true;
                    }
                }
                // Flat kin table: child-axis children, then sibling-axis.
                let mut kin: Vec<PNodeId> = Vec::new();
                for &m in &tree.members {
                    let ks = kin.len() as u32;
                    kin.extend(
                        pattern
                            .node(m)
                            .children
                            .iter()
                            .copied()
                            .filter(|&c| pattern.node(c).axis == Axis::Child),
                    );
                    let km = kin.len() as u32;
                    kin.extend(
                        pattern
                            .node(m)
                            .children
                            .iter()
                            .copied()
                            .filter(|&c| pattern.node(c).axis == Axis::FollowingSibling),
                    );
                    let ke = kin.len() as u32;
                    let c = &mut nodes[m.index()];
                    c.kin_start = ks;
                    c.kin_mid = km;
                    c.kin_end = ke;
                }
                let satisfiable = !tree.members.iter().any(|m| nodes[m.index()].unmatchable);
                let leaf = tree.members.len() == 1;
                CompiledFragment {
                    root: tree.root,
                    nodes,
                    kin,
                    satisfiable,
                    leaf,
                }
            })
            .collect();
        CompiledPlan {
            tag_space: tags.len(),
            frags,
        }
    }

    /// Whether this compilation is valid against `tags`. The interner is
    /// append-only, so equal length implies identical name→id resolution; a
    /// longer interner may have interned a tag this plan resolved as
    /// unmatchable, requiring recompilation.
    #[inline]
    pub fn is_current(&self, tags: &TagInterner) -> bool {
        self.tag_space == tags.len()
    }

    /// The compiled fragments, in [`QueryPlan::trees`] order.
    #[inline]
    pub fn fragments(&self) -> &[CompiledFragment] {
        &self.frags
    }

    /// Compiled fragment `i`.
    #[inline]
    pub fn fragment(&self, i: usize) -> &CompiledFragment {
        &self.frags[i]
    }
}

/// A visited data node: position, record, access-control code.
type Loaded = (u64, NodeRec, u32);

/// Executes one compiled fragment with flat table lookups, no per-call axis
/// filtering, and no heap allocation per binding: matches are enumerated as
/// fixed-width rows on one reused stack and written straight into the
/// caller's [`TupleTable`]. It never sees a candidate in a skippable block:
/// the engine prunes those with [`VisibleExtents`].
pub struct CompiledMatcher<'a> {
    ctx: &'a MatchContext<'a>,
    frag: &'a CompiledFragment,
    /// Treat the fragment root as an output even if the plan didn't mark it
    /// (GB subtree-visibility semantics: every fragment root's binding is
    /// needed for the visibility filter). Sound without recompilation
    /// because a fragment root never appears in its own kin table, so its
    /// `carries_output` bit is never consulted.
    force_root_output: bool,
    /// Per pattern node, the table column its binding goes to (exported
    /// nodes, ascending) — `None` for nodes matched but not exported.
    col_of: Vec<Option<usize>>,
    /// Number of exported nodes: the arity of the rows this matcher emits.
    arity: usize,
    /// Block snapshots for the tree walk: one page access amortizes every
    /// node load and sibling step landing in the same block, instead of one
    /// page latch per visited node, and a walk that returns to a block (every
    /// nested candidate does) finds it still there.
    snaps: SnapshotCache,
    /// The enumeration stack. A row is `1 + arity` words: a tag word, then
    /// one position per column (0 where the row binds nothing yet). Every
    /// [`scan_kin`](Self::scan_kin) in progress keeps one satisfied flag per
    /// pattern node under its rows.
    rows: Vec<u64>,
    /// Scratch for the cross product at the end of
    /// [`enum_node`](Self::enum_node); never live across a recursive call.
    product: [Vec<u64>; 2],
    /// Match counters.
    pub stats: MatchStats,
}

/// A cache of block snapshots: every distinct block is latched and
/// snapshotted at most once per cache, however often it is probed. One
/// execution holds a shared one for the compiled pipeline's **sequential**
/// stages — leaf-candidate classification, the subtree-visibility path walk
/// and the join's ancestor-interval fetch — so a `//a//a` twig probes each
/// candidate block once, not once per fragment plus once in the join; each
/// [`CompiledMatcher`] owns one for its tree walk. A block whose page fails a
/// non-availability read under secure evaluation is cached as failed, so
/// every later probe answers fail-closed without re-reading. Each snapshot
/// shares its page with the buffer pool instead of copying it; the cache
/// keeps one page alive per distinct block touched (even after the pool
/// evicts it), released with the cache.
#[derive(Default)]
pub struct SnapshotCache {
    slots: Vec<SnapState>,
    /// The block [`at`](Self::at) resolved last, with its position range:
    /// document-order callers mostly stay in it, sparing the directory
    /// search.
    last: (usize, std::ops::Range<u64>),
}

enum SnapState {
    Missing,
    Failed,
    Present(BlockSnapshot),
}

impl SnapshotCache {
    /// An empty cache; it sizes itself to the store on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The snapshot of the block holding document position `pos`, and
    /// `pos`'s slot in it; `Ok(None)` as for [`get`](Self::get).
    pub fn at(
        &mut self,
        store: &StructStore,
        pos: u64,
        fail_closed: bool,
    ) -> Result<Option<(&BlockSnapshot, usize)>, StorageError> {
        if !self.last.1.contains(&pos) {
            let idx = store.block_of_pos(pos);
            let info = store.block_info(idx);
            self.last = (idx, info.first_pos..info.first_pos + u64::from(info.count));
        }
        let slot = (pos - self.last.1.start) as usize;
        Ok(self
            .get(store, self.last.0, fail_closed)?
            .map(|snap| (snap, slot)))
    }

    /// The snapshot of block `idx`, taken on first use. `Ok(None)` means the
    /// block failed a non-availability read while `fail_closed` was set —
    /// the caller must treat its nodes as inaccessible. With `fail_closed`
    /// unset, read errors propagate uncached. One execution runs under one
    /// security mode, so `fail_closed` is constant across an instance's
    /// lifetime.
    pub fn get(
        &mut self,
        store: &StructStore,
        idx: usize,
        fail_closed: bool,
    ) -> Result<Option<&BlockSnapshot>, StorageError> {
        if self.slots.is_empty() {
            self.slots
                .resize_with(store.block_count(), || SnapState::Missing);
        }
        if matches!(self.slots[idx], SnapState::Missing) {
            match store.block_snapshot(idx) {
                Ok(s) => self.slots[idx] = SnapState::Present(s),
                Err(e) if fail_closed && !is_availability(&e) => {
                    self.slots[idx] = SnapState::Failed;
                }
                Err(e) => return Err(e),
            }
        }
        match &self.slots[idx] {
            SnapState::Present(s) => Ok(Some(s)),
            SnapState::Failed => Ok(None),
            SnapState::Missing => unreachable!("slot filled or errored above"),
        }
    }
}

/// The part of the document one evaluation may have to look at: the sorted,
/// disjoint position ranges covered by maximal runs of blocks that the §3.3
/// header test does **not** reject. Built once per evaluation from the same
/// [`block_skip_mask`](dol_core::EmbeddedDol::block_skip_mask) the skip is
/// defined by, so "outside every extent" and "in a skippable block" are the
/// same set of positions. Evaluations that skip nothing (unsecured, or the
/// fig-7 ablation) get the one extent covering the document. The engine's
/// anchor covers reuse the type: their ranges are the anchors' subtree
/// intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisibleExtents {
    /// Half-open `[start, end)` position ranges, ascending, non-adjacent.
    ranges: Vec<(u64, u64)>,
}

/// An ascending candidate list intersected with [`VisibleExtents`].
#[derive(Debug, PartialEq, Eq)]
pub struct Pruned<'c> {
    /// The candidates inside extents, as sub-slices of the input in order.
    pub runs: Vec<&'c [u64]>,
    /// How many candidates fell in the gaps — a sum of index differences,
    /// one per gap, equal to what a per-candidate header probe would count.
    pub skipped: u64,
}

impl VisibleExtents {
    /// The whole document as one extent (none for an empty document).
    pub fn all(total_nodes: u64) -> Self {
        Self {
            ranges: if total_nodes == 0 {
                Vec::new()
            } else {
                vec![(0, total_nodes)]
            },
        }
    }

    /// Extents from half-open `[start, end)` ranges, ascending,
    /// non-adjacent and non-empty.
    pub(crate) fn from_ranges(ranges: Vec<(u64, u64)>) -> Self {
        debug_assert!(
            ranges.iter().all(|&(s, e)| s < e) && ranges.windows(2).all(|w| w[0].1 < w[1].0),
            "extents must be ascending, non-adjacent and non-empty"
        );
        Self { ranges }
    }

    /// The extents `skip_mask` leaves of `store`: bit `b & 63` of word
    /// `b >> 6` set means block `b` is skippable.
    pub fn from_skip_mask(store: &StructStore, skip_mask: &[u64]) -> Self {
        Self::from_blocks(store.block_count(), store.total_nodes(), skip_mask, |b| {
            store.block_info(b).first_pos
        })
    }

    /// [`from_skip_mask`](Self::from_skip_mask) over an abstract block
    /// directory: `nblocks` blocks, block `b` starting at `first_pos(b)`,
    /// the last ending at `total_nodes`. Mask bits at and beyond `nblocks`
    /// are ignored.
    fn from_blocks(
        nblocks: usize,
        total_nodes: u64,
        skip_mask: &[u64],
        first_pos: impl Fn(usize) -> u64,
    ) -> Self {
        let mut ranges = Vec::new();
        // First block of the run of visible blocks being extended, if any.
        let mut open: Option<usize> = None;
        for b in 0..nblocks {
            let skipped = skip_mask[b >> 6] >> (b & 63) & 1 != 0;
            match (skipped, open) {
                (false, None) => open = Some(b),
                (true, Some(first)) => {
                    ranges.push((first_pos(first), first_pos(b)));
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(first) = open {
            ranges.push((first_pos(first), total_nodes));
        }
        Self { ranges }
    }

    /// The extents, ascending.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Whether `pos` lies inside an extent.
    pub fn contains(&self, pos: u64) -> bool {
        let after = self.ranges.partition_point(|&(start, _)| start <= pos);
        after > 0 && pos < self.ranges[after - 1].1
    }

    /// Intersects an ascending candidate list with the extents. Each step
    /// binary-searches past a whole extent or a whole gap, so the cost is
    /// O(min(extents, runs) · log n) — independent of how many candidates
    /// the gaps hold.
    pub fn prune<'c>(&self, candidates: &'c [u64]) -> Pruned<'c> {
        let mut runs = Vec::new();
        let mut skipped = 0u64;
        let mut i = 0;
        let mut e = 0;
        while i < candidates.len() {
            let c = candidates[i];
            e += self.ranges[e..].partition_point(|&(_, end)| end <= c);
            let Some(&(start, end)) = self.ranges.get(e) else {
                skipped += (candidates.len() - i) as u64;
                break;
            };
            if c < start {
                let gap = candidates[i..].partition_point(|&x| x < start);
                skipped += gap as u64;
                i += gap;
            } else {
                let run = candidates[i..].partition_point(|&x| x < end);
                runs.push(&candidates[i..i + run]);
                i += run;
            }
        }
        Pruned { runs, skipped }
    }
}

impl<'a> CompiledMatcher<'a> {
    /// Prepares a matcher for `frag` under `ctx`.
    pub fn new(
        ctx: &'a MatchContext<'a>,
        frag: &'a CompiledFragment,
        force_root_output: bool,
    ) -> Self {
        let mut arity = 0;
        let col_of = frag
            .nodes
            .iter()
            .enumerate()
            .map(|(p, n)| {
                let exported = n.is_output || (force_root_output && p == frag.root.index());
                exported.then(|| {
                    arity += 1;
                    arity - 1
                })
            })
            .collect();
        Self {
            ctx,
            frag,
            force_root_output,
            col_of,
            arity,
            snaps: SnapshotCache::new(),
            rows: Vec::new(),
            product: [Vec::new(), Vec::new()],
            stats: MatchStats::default(),
        }
    }

    #[inline]
    fn output(&self, p: PNodeId) -> bool {
        self.frag.nodes[p.index()].is_output || (self.force_root_output && p == self.frag.root)
    }

    /// Whether storage failures must be masked as inaccessibility. Secure
    /// evaluation (ε-NoK) may never answer with data it could not verify, so
    /// a corrupt or unreadable block simply hides its nodes — the answer can
    /// only shrink, never leak. Unsecured evaluation has nothing to protect
    /// and reports the error instead.
    #[inline]
    fn fail_closed(&self) -> bool {
        self.ctx.access.is_some()
    }

    /// Loads the node at `pos` through the snapshot cache: a miss snapshots
    /// the block with one page access; hits decode straight from the owned
    /// snapshot with no latch. In secure mode a data fault yields `Ok(None)`
    /// ("treat as inaccessible") and bumps `blocks_failed_closed` (the
    /// failing block stays cached, so every load in it answers `None`
    /// without re-reading); deadline expiry and breaker refusal are
    /// availability outcomes, not data faults, and always propagate. The
    /// deadline is re-checked every `DEADLINE_CHECK_MASK + 1` visits —
    /// before the read, so that a fault cannot mask an expiry.
    fn load_node(&mut self, pos: u64) -> Result<Option<Loaded>, StorageError> {
        if self.stats.nodes_visited & DEADLINE_CHECK_MASK == 0 {
            self.ctx.deadline.check()?;
        }
        let fail_closed = self.fail_closed();
        match self.snaps.at(self.ctx.store, pos, fail_closed)? {
            Some((snap, slot)) => Ok(Some((pos, snap.node(slot), snap.code(slot)))),
            None => {
                self.stats.blocks_failed_closed += 1;
                Ok(None)
            }
        }
    }

    /// End of the subtree of the node at `pos` (record `rec`) inside an
    /// enclosing subtree ending at `bound`. A record claiming a size of 0 or
    /// a subtree past `bound` is corrupt: secure evaluation hides the node
    /// (`Ok(None)`, counted in `blocks_failed_closed`), unsecured evaluation
    /// returns [`StorageError::CorruptSubtree`].
    fn subtree_end(
        &mut self,
        pos: u64,
        rec: &NodeRec,
        bound: u64,
    ) -> Result<Option<u64>, StorageError> {
        match rec.subtree_end(pos, bound) {
            Ok(end) => Ok(Some(end)),
            Err(_) if self.fail_closed() => {
                self.stats.blocks_failed_closed += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// FOLLOWING-SIBLING of the node at `pos`, already loaded — the scan
    /// that asked visits it next, so its record is decoded once. `bound` is
    /// the end of the parent's subtree.
    fn next_sibling(
        &mut self,
        pos: u64,
        rec: &NodeRec,
        bound: u64,
    ) -> Result<Option<Loaded>, StorageError> {
        let Some(next) = self.subtree_end(pos, rec, bound)? else {
            return Ok(None);
        };
        if next >= self.ctx.store.total_nodes() {
            return Ok(None);
        }
        Ok(self
            .load_node(next)?
            .filter(|(_, nrec, _)| nrec.depth == rec.depth))
    }

    /// Attempts to match the fragment with its root bound to `pos`,
    /// appending one row per distinct output binding to `out` (none = no
    /// match). The candidate's own tag/value/accessibility are (re)checked
    /// here.
    pub fn match_root(&mut self, pos: u64, out: &mut TupleTable) -> Result<(), StorageError> {
        debug_assert_eq!(
            out.arity(),
            self.arity,
            "table matches the fragment's outputs"
        );
        if !self.frag.satisfiable {
            return Ok(());
        }
        let Some((_, rec, code)) = self.load_node(pos)? else {
            return Ok(());
        };
        self.stats.nodes_visited += 1;
        if !self.ctx.code_accessible(code) {
            self.stats.nodes_denied += 1;
            return Ok(());
        }
        if !self.node_matches(self.frag.root, pos, &rec)? {
            return Ok(());
        }
        self.rows.clear();
        let total = self.ctx.store.total_nodes();
        if self.enum_node(self.frag.root, pos, &rec, total)? {
            for row in self.rows.chunks_exact(1 + self.arity) {
                out.push(&row[1..]);
            }
        }
        Ok(())
    }

    /// Tag and value test of `pnode` against the data node at `pos`.
    fn node_matches(
        &mut self,
        pnode: PNodeId,
        pos: u64,
        rec: &NodeRec,
    ) -> Result<bool, StorageError> {
        let frag = self.frag;
        let n = &frag.nodes[pnode.index()];
        if let Some(t) = n.tag {
            if rec.tag != t {
                return Ok(false);
            }
        } else if n.unmatchable {
            return Ok(false);
        }
        if let Some(v) = &n.value {
            if !rec.has_value {
                return Ok(false);
            }
            let actual = match self.ctx.values.get(pos) {
                Ok(a) => a,
                Err(e) if self.fail_closed() && !is_availability(&e) => {
                    self.stats.blocks_failed_closed += 1;
                    return Ok(false);
                }
                Err(e) => return Err(e),
            };
            match actual {
                Some(actual) if actual.as_str() == &**v => {}
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Enumerates the output bindings of `pnode` matched at `pos`, pushing
    /// them as rows onto the stack; `false` (and nothing pushed) when some
    /// pattern child finds no witness. Kin ranges are slices of the flat
    /// table; the two scans leave their tagged rows above this node's own
    /// row, and the cross product over the output-carrying kin replaces the
    /// lot in place. `bound` is the end of the parent's subtree (of the
    /// store for a fragment root).
    fn enum_node(
        &mut self,
        pnode: PNodeId,
        pos: u64,
        rec: &NodeRec,
        bound: u64,
    ) -> Result<bool, StorageError> {
        let Some(end) = self.subtree_end(pos, rec, bound)? else {
            return Ok(false);
        };
        let frag = self.frag;
        let n = &frag.nodes[pnode.index()];
        let pchildren = &frag.kin[n.kin_start as usize..n.kin_mid as usize];
        let psiblings = &frag.kin[n.kin_mid as usize..n.kin_end as usize];
        let stride = 1 + self.arity;
        let own = self.rows.len();
        self.rows.resize(own + stride, 0);
        if let Some(col) = self.col_of[pnode.index()] {
            self.rows[own + 1 + col] = pos;
        }
        if pchildren.is_empty() && psiblings.is_empty() {
            return Ok(true);
        }
        let child_scan = self.rows.len();
        let first = match self.ctx.store.first_child_of(pos, rec) {
            Some(first) if !pchildren.is_empty() => self.load_node(first)?,
            _ => None,
        };
        let children_ok = self.scan_kin(pchildren, first, end)?;
        let sibling_scan = self.rows.len();
        let next = if psiblings.is_empty() {
            None
        } else {
            self.next_sibling(pos, rec, bound)?
        };
        let siblings_ok = self.scan_kin(psiblings, next, bound)?;
        if !(children_ok && siblings_ok) {
            self.rows.truncate(own);
            return Ok(false);
        }
        // Cross product: start from the own row, and for every kin that
        // carries output pair each row so far with each of its rows. A row
        // binds a column or holds 0 there, and two factors never bind the
        // same column, so OR merges them.
        let [mut acc, mut next_acc] = std::mem::take(&mut self.product);
        acc.clear();
        acc.extend_from_slice(&self.rows[own..child_scan]);
        let end = self.rows.len();
        for (pats, scan, scan_end) in [
            (pchildren, child_scan, sibling_scan),
            (psiblings, sibling_scan, end),
        ] {
            let scanned = &self.rows[scan + pats.len()..scan_end];
            for (i, &c) in pats.iter().enumerate() {
                if !frag.nodes[c.index()].carries_output {
                    continue;
                }
                next_acc.clear();
                for base in acc.chunks_exact(stride) {
                    for add in scanned.chunks_exact(stride).filter(|r| r[0] == i as u64) {
                        next_acc.push(0);
                        next_acc.extend(base[1..].iter().zip(&add[1..]).map(|(b, a)| b | a));
                    }
                }
                std::mem::swap(&mut acc, &mut next_acc);
            }
        }
        // Two witnesses of one sibling-axis pattern node can see the same
        // later sibling: keep the rows a set.
        sort_dedup_rows(&mut acc, stride);
        self.rows.truncate(own);
        self.rows.extend_from_slice(&acc);
        self.product = [acc, next_acc];
        Ok(true)
    }

    /// Matches `pats` against the FOLLOWING-SIBLING chain from `start`, in
    /// one pass, with per-node accessibility checks. Pushes one
    /// satisfied flag per pattern node, then — tagged with its index in
    /// `pats` — every row of every output-carrying pattern node's matches;
    /// `false` (and nothing left pushed) when some pattern node found no
    /// witness. `bound` is the end of the chain's parent subtree.
    fn scan_kin(
        &mut self,
        pats: &[PNodeId],
        start: Option<Loaded>,
        bound: u64,
    ) -> Result<bool, StorageError> {
        if pats.is_empty() {
            return Ok(true);
        }
        let frag = self.frag;
        let carries = |c: PNodeId| frag.nodes[c.index()].carries_output;
        let flags = self.rows.len();
        self.rows.resize(flags + pats.len(), 0);
        let mut u = start;
        while let Some((upos, urec, ucode)) = u {
            self.stats.nodes_visited += 1;
            if self.ctx.code_accessible(ucode) {
                for (i, &c) in pats.iter().enumerate() {
                    // Existential pattern nodes stop at the first witness.
                    if self.rows[flags + i] != 0 && !carries(c) {
                        continue;
                    }
                    if self.node_matches(c, upos, &urec)? {
                        let pushed = self.rows.len();
                        if self.enum_node(c, upos, &urec, bound)? {
                            self.rows[flags + i] = 1;
                            if carries(c) {
                                let stride = 1 + self.arity;
                                for tag in self.rows[pushed..].iter_mut().step_by(stride) {
                                    *tag = i as u64;
                                }
                            } else {
                                self.rows.truncate(pushed);
                            }
                        }
                    }
                }
            } else {
                self.stats.nodes_denied += 1;
            }
            let satisfied = &self.rows[flags..flags + pats.len()];
            if satisfied.iter().all(|&s| s != 0) && pats.iter().all(|&c| !carries(c)) {
                break;
            }
            u = self.next_sibling(upos, &urec, bound)?;
        }
        if self.rows[flags..flags + pats.len()].contains(&0) {
            self.rows.truncate(flags);
            return Ok(false);
        }
        Ok(true)
    }

    /// Leaf fast path: matches a **single-node** fragment against a sorted
    /// (document-order) candidate list in the compressed domain, block by
    /// block, appending one row per match to `out` (the root position when
    /// the root is exported, else the bare "matched" bit of an arity-0
    /// table). For each block of candidates, in order:
    ///
    /// 1. a uniform block (`change` bit clear) is decided entirely from its
    ///    in-memory header: all-denied or — absent a value predicate —
    ///    all-matched, zero I/O;
    /// 2. a changing block without a value predicate is decided from the
    ///    code runs of the execution's shared snapshot;
    /// 3. otherwise one [`StructStore::block_probe`] page scan yields
    ///    word-packed tag/value masks and the code runs, an
    ///    [`AccessBitmap`] classifies all slots with word ops, and only
    ///    survivors of `tag ∧ access` ever decode a value.
    ///
    /// Candidates come from the tag(+value) index, so their tag is already
    /// known to match; the probe's tag mask re-checks it anyway (defense in
    /// depth, and wildcards pass trivially). The deadline is checked before
    /// every page probe and every `DEADLINE_CHECK_MASK + 1` candidates;
    /// `nodes_visited` stays 0 on this path — no per-node record is ever
    /// materialized. Rows are appended in candidate order, so `out` stays
    /// sorted by its one column.
    ///
    /// # Panics
    /// Debug-asserts that the fragment is a leaf and that `out` has the
    /// fragment's one column (or none).
    pub fn match_leaf_candidates(
        &mut self,
        candidates: &[u64],
        snaps: &mut SnapshotCache,
        out: &mut TupleTable,
    ) -> Result<(), StorageError> {
        debug_assert!(self.frag.leaf, "leaf fast path on a non-leaf fragment");
        if !self.frag.satisfiable {
            return Ok(());
        }
        let root = self.frag.root;
        let root_tag = self.frag.root_tag();
        let value: Option<&str> = self.frag.nodes[root.index()].value.as_deref();
        let arity = usize::from(self.output(root));
        debug_assert_eq!(out.arity(), arity, "table matches the leaf's outputs");
        let secure = self.ctx.access.is_some();
        let store = self.ctx.store;
        let mut processed: u64 = 0;
        let mut i = 0usize;
        while i < candidates.len() {
            // Group the candidates sharing a block.
            let block = store.block_of_pos(candidates[i]);
            let info = *store.block_info(block);
            let block_end = info.first_pos + u64::from(info.count);
            let j = i + candidates[i..].partition_point(|&c| c < block_end);
            let group = &candidates[i..j];
            i = j;
            if processed & DEADLINE_CHECK_MASK == 0 {
                self.ctx.deadline.check()?;
            }
            processed += group.len() as u64;
            // (1) Uniform block: the header decides accessibility for every
            // slot — zero I/O unless a value must be read.
            if secure && !info.change {
                if !self.ctx.code_accessible(info.first_code) {
                    self.stats.nodes_denied += group.len() as u64;
                    continue;
                }
                if value.is_none() {
                    out.push_positions(group);
                    continue;
                }
            } else if !secure && value.is_none() {
                // Unsecured, no predicate: index candidates are the answer.
                out.push_positions(group);
                continue;
            }
            // (2) Secure changing block, no value predicate: the code runs
            // alone decide — the shared snapshot (one latch per block per
            // execution) answers each candidate's code; the tag is already
            // proven by the index, exactly as path (1) trusts it.
            if value.is_none() {
                debug_assert!(secure && info.change, "handled by (1) otherwise");
                self.ctx.deadline.check()?;
                let Some(snap) = snaps.get(store, block, true)? else {
                    self.stats.blocks_failed_closed += group.len() as u64;
                    continue;
                };
                for &pos in group {
                    let slot = (pos - info.first_pos) as usize;
                    if self.ctx.code_accessible(snap.code(slot)) {
                        out.push(&[pos][..arity]);
                    } else {
                        self.stats.nodes_denied += 1;
                    }
                }
                continue;
            }
            // (3) Value predicate: full compressed-domain probe — one page
            // access producing word-packed tag/value masks and the runs.
            self.ctx.deadline.check()?;
            let probe = match store.block_probe(block, root_tag) {
                Ok(p) => p,
                Err(e) if secure && !is_availability(&e) => {
                    self.stats.blocks_failed_closed += group.len() as u64;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let access: Option<AccessBitmap> = self.ctx.access.as_ref().map(|(_, col)| {
                let count = u64::from(probe.count);
                let runs = probe.runs.iter().enumerate().map(|(k, &(slot, code))| {
                    let end = probe
                        .runs
                        .get(k + 1)
                        .map_or(count, |&(next, _)| u64::from(next));
                    (u64::from(slot), end, code)
                });
                AccessBitmap::from_runs(count, runs, col)
            });
            for &pos in group {
                let slot = (pos - probe.first_pos) as usize;
                let bit = 1u64 << (slot & 63);
                let accessible = access.as_ref().is_none_or(|a| a.word(slot >> 6) & bit != 0);
                if !accessible {
                    self.stats.nodes_denied += 1;
                    continue;
                }
                if probe.tag_mask[slot >> 6] & bit == 0 {
                    continue;
                }
                if let Some(v) = value {
                    if probe.value_mask[slot >> 6] & bit == 0 {
                        continue;
                    }
                    let actual = match self.ctx.values.get(pos) {
                        Ok(a) => a,
                        Err(e) if secure && !is_availability(&e) => {
                            self.stats.blocks_failed_closed += 1;
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    match actual {
                        Some(actual) if actual == v => {}
                        _ => continue,
                    }
                }
                out.push(&[pos][..arity]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternTree;
    use crate::reference::{naive_eval, RefSecurity};
    use crate::xpath::parse_query;
    use dol_acl::{AccessibilityMap, FnOracle, SubjectId};
    use dol_core::EmbeddedDol;
    use dol_storage::{BufferPool, MemDisk, StoreConfig, StructStore, ValueStore};
    use dol_xml::{parse, Document, NodeId};
    use std::sync::Arc;

    struct Fixture {
        store: StructStore,
        values: ValueStore,
        doc: Document,
        dol: EmbeddedDol,
    }

    fn fixture(xml: &str, map: Option<&AccessibilityMap>, max_rec: usize) -> Fixture {
        let doc = parse(xml).unwrap();
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
        let cfg = StoreConfig {
            max_records_per_block: max_rec,
        };
        let all = FnOracle::new(1, |_, _| true);
        let (store, dol) = match map {
            Some(m) => EmbeddedDol::build(pool.clone(), cfg, &doc, m).unwrap(),
            None => EmbeddedDol::build(pool.clone(), cfg, &doc, &all).unwrap(),
        };
        let mut values = ValueStore::new(pool);
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v).unwrap();
            }
        }
        Fixture {
            store,
            values,
            doc,
            dol,
        }
    }

    fn ctx<'a>(f: &'a Fixture, secure: Option<SubjectId>) -> MatchContext<'a> {
        MatchContext::new(
            &f.store,
            &f.values,
            f.doc.tags(),
            secure.map(|s| (&f.dol, s)),
        )
    }

    /// The output columns of a single-fragment plan, ascending.
    fn output_cols(plan: &QueryPlan) -> Vec<PNodeId> {
        assert_eq!(plan.trees.len(), 1, "single-fragment queries only");
        let mut cols = plan.trees[0].outputs.clone();
        cols.sort_unstable();
        cols
    }

    /// The bindings of single-fragment `query` rooted at each of
    /// `candidates`, in order, as `(pattern node, position)` rows.
    fn run(
        f: &Fixture,
        query: &str,
        secure: Option<SubjectId>,
        candidates: &[u64],
    ) -> Vec<Vec<(u32, u64)>> {
        let plan = QueryPlan::new(parse_query(query).unwrap());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let c = ctx(f, secure);
        let cols = output_cols(&plan);
        let mut m = CompiledMatcher::new(&c, compiled.fragment(0), false);
        let mut out = TupleTable::new(cols.clone());
        for &cand in candidates {
            m.match_root(cand, &mut out).unwrap();
        }
        (0..out.len())
            .map(|i| {
                cols.iter()
                    .zip(out.row(i))
                    .map(|(p, &d)| (p.0, d))
                    .collect()
            })
            .collect()
    }

    /// Checks single-fragment `query` against [`naive_eval`] with every
    /// position offered as a candidate root: the candidates that match at
    /// all are the reference's answer with the fragment root returning, and
    /// the rows over all candidates are the reference's answer proper.
    fn assert_matches_reference(
        f: &Fixture,
        query: &str,
        secure: Option<(&AccessibilityMap, SubjectId)>,
    ) {
        let pattern = parse_query(query).unwrap();
        let sec = secure.map_or(RefSecurity::None, |(m, s)| RefSecurity::Binding(m, s));
        let plan = QueryPlan::new(pattern.clone());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let c = ctx(f, secure.map(|(_, s)| s));
        let cols = output_cols(&plan);
        assert_eq!(cols, vec![pattern.returning()]);
        let mut m = CompiledMatcher::new(&c, compiled.fragment(0), false);
        let mut matched_roots = Vec::new();
        let mut answers = Vec::new();
        for cand in 0..f.store.total_nodes() {
            let mut out = TupleTable::new(cols.clone());
            m.match_root(cand, &mut out).unwrap();
            if !out.is_empty() {
                matched_roots.push(cand);
            }
            answers.extend(out.into_column(0));
        }
        answers.sort_unstable();
        answers.dedup();
        let mut rooted = pattern.clone();
        rooted.set_returning(pattern.root());
        let who = secure.map(|(_, s)| s);
        assert_eq!(
            matched_roots,
            naive_eval(&f.doc, &rooted, sec),
            "query {query} subject {who:?}: matching roots"
        );
        assert_eq!(
            answers,
            naive_eval(&f.doc, &pattern, sec),
            "query {query} subject {who:?}: answers"
        );
    }

    const FIG2: &str = "<a><b/><c/><d/><e><f/><g/><h><i/><j/><k/><l/></h></e></a>";

    /// A one-subject map under which subject 0 sees every node of `doc`.
    fn all_visible(doc: &Document) -> AccessibilityMap {
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map
    }

    #[test]
    fn figure_2_fragment_matches() {
        // NoK fragment a[b][c] matches at the root.
        let f = fixture(FIG2, None, 300);
        let res = run(&f, "/a[b][c]", None, &[0]);
        assert_eq!(res, vec![vec![(0, 0)]]);
        // h[j][k]/l: candidate h at position 7.
        let res = run(&f, "//h[j][k]/l", None, &[7]);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0], vec![(3, 11)]); // l is pattern node 3, data 11
    }

    #[test]
    fn missing_branch_fails() {
        let f = fixture(FIG2, None, 300);
        assert!(run(&f, "/a[b][zz]", None, &[0]).is_empty());
        assert!(run(&f, "//h[j][k]/m", None, &[7]).is_empty());
    }

    #[test]
    fn multiple_bindings_enumerated() {
        let f = fixture("<r><x><n/></x><x><n/><n/></x></r>", None, 300);
        // //x/n with x candidates 1 and 3: bindings n=2, n=4, n=5.
        let res = run(&f, "//x/n", None, &[1, 3]);
        let nodes: Vec<u64> = res.iter().map(|b| b[0].1).collect();
        assert_eq!(nodes, vec![2, 4, 5]);
    }

    #[test]
    fn value_predicates_checked() {
        let f = fixture(
            "<r><item><name>gold</name></item><item><name>salt</name></item></r>",
            None,
            300,
        );
        let res = run(&f, "//item[name=\"gold\"]", None, &[1, 3]);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0][0].1, 1);
        assert_matches_reference(&f, "//item[name=\"gold\"]", None);
    }

    #[test]
    fn wildcard_steps() {
        let f = fixture(FIG2, None, 300);
        let res = run(&f, "/a/*", None, &[0]);
        assert_eq!(res.len(), 4); // b, c, d, e
    }

    #[test]
    fn unmatchable_tag_short_circuits() {
        let f = fixture(FIG2, None, 300);
        assert!(run(&f, "//nosuchtag", None, &[0]).is_empty());
        f.store.pool().reset_stats();
        assert!(run(&f, "//h[nosuchtag]", None, &[7]).is_empty());
        assert_eq!(
            f.store.pool().stats().logical_reads,
            0,
            "an unsatisfiable fragment reads nothing"
        );
    }

    #[test]
    fn figure_2_matches_reference() {
        let f = fixture(FIG2, None, 300);
        for q in ["/a[b][c]", "//h[j][k]/l", "/a/*", "//h[j][k]/m", "//nosuch"] {
            assert_matches_reference(&f, q, None);
        }
    }

    #[test]
    fn secure_matching_prunes_denied_nodes() {
        let doc = parse(FIG2).unwrap();
        let mut map = all_visible(&doc);
        // Deny j (position 9): h[j][k]/l must fail for this subject.
        map.set(SubjectId(0), NodeId(9), false);
        let f = fixture(FIG2, Some(&map), 300);
        assert!(run(&f, "//h[j][k]/l", Some(SubjectId(0)), &[7]).is_empty());
        // But h[k]/l still succeeds (j not referenced).
        assert_eq!(run(&f, "//h[k]/l", Some(SubjectId(0)), &[7]).len(), 1);
        // Unsecured evaluation is unaffected.
        assert_eq!(run(&f, "//h[j][k]/l", None, &[7]).len(), 1);
    }

    #[test]
    fn secure_matching_matches_reference() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map.set(SubjectId(0), NodeId(9), false); // deny j
        for p in 7..12 {
            map.set(SubjectId(1), NodeId(p), true); // subject 1 sees only h's subtree
        }
        for max_rec in [300, 3, 2] {
            let f = fixture(FIG2, Some(&map), max_rec);
            for s in [SubjectId(0), SubjectId(1)] {
                for q in ["//h[j][k]/l", "//h[k]/l", "/a[b][c]", "//h/*"] {
                    assert_matches_reference(&f, q, Some((&map, s)));
                }
            }
        }
    }

    #[test]
    fn denied_candidate_root_fails_fast() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        map.set(SubjectId(0), NodeId(0), true); // only the root accessible
        let f = fixture(FIG2, Some(&map), 300);
        assert!(run(&f, "//h", Some(SubjectId(0)), &[7]).is_empty());
        let plan = QueryPlan::new(parse_query("//h/l").unwrap());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let c = ctx(&f, Some(SubjectId(0)));
        let mut m = CompiledMatcher::new(&c, compiled.fragment(0), false);
        let mut out = TupleTable::new(output_cols(&plan));
        m.match_root(7, &mut out).unwrap();
        assert!(out.is_empty());
        // Rejected on its own code: the kin scan never started.
        assert_eq!((m.stats.nodes_visited, m.stats.nodes_denied), (1, 1));
        assert_eq!(run(&f, "/a", Some(SubjectId(0)), &[0]).len(), 1);
    }

    #[test]
    fn expired_deadline_is_never_masked_by_fail_closed() {
        let doc = parse(FIG2).unwrap();
        let map = all_visible(&doc);
        let f = fixture(FIG2, Some(&map), 300);
        let plan = QueryPlan::new(parse_query("//h[j][k]/l").unwrap());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let expired = Deadline::after(std::time::Duration::ZERO);
        // Cancellation through a token behaves identically.
        let cancelled = Deadline::never();
        cancelled.token().cancel();
        for deadline in [expired, cancelled] {
            let mut c = ctx(&f, Some(SubjectId(0)));
            c.deadline = deadline;
            let mut m = CompiledMatcher::new(&c, compiled.fragment(0), false);
            let mut out = TupleTable::new(output_cols(&plan));
            // Secure mode would normally mask storage errors; the deadline
            // must abort the match instead of shrinking the answer.
            assert!(matches!(
                m.match_root(7, &mut out),
                Err(StorageError::DeadlineExceeded)
            ));
            assert!(out.is_empty());
            assert_eq!(m.stats.blocks_failed_closed, 0, "not a data fault");
        }
    }

    #[test]
    fn leaf_fast_path_matches_reference() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in [0u32, 4, 7, 8, 9, 10, 11] {
            map.set(SubjectId(0), NodeId(p), true);
        }
        for max_rec in [300, 3, 2] {
            let f = fixture(FIG2, Some(&map), max_rec);
            let all: Vec<u64> = (0..f.store.total_nodes()).collect();
            let plan = QueryPlan::new(parse_query("//h//j").unwrap());
            let compiled = CompiledPlan::compile(&plan, f.doc.tags());
            for secure in [None, Some(SubjectId(0))] {
                let c = ctx(&f, secure);
                let sec = secure.map_or(RefSecurity::None, |s| RefSecurity::Binding(&map, s));
                for (ti, tree) in plan.trees.iter().enumerate() {
                    let frag = compiled.fragment(ti);
                    assert!(frag.is_leaf());
                    // The reference answer to the fragment alone: every
                    // (accessible) node carrying its tag.
                    let tag = plan.pattern.node(tree.root).tag.as_deref();
                    let want = naive_eval(&f.doc, &PatternTree::new(tag, false), sec);
                    let tagged: Vec<u64> = all
                        .iter()
                        .copied()
                        .filter(|&p| Some(f.store.node(p).unwrap().tag) == frag.root_tag())
                        .collect();
                    let mut cm = CompiledMatcher::new(&c, frag, false);
                    let mut snaps = SnapshotCache::new();
                    let mut got = TupleTable::new(vec![frag.root()]);
                    cm.match_leaf_candidates(&tagged, &mut snaps, &mut got)
                        .unwrap();
                    assert_eq!(got.into_column(0), want, "fragment {ti} secure={secure:?}");
                    assert_eq!(cm.stats.nodes_visited, 0, "compressed domain only");
                }
            }
        }
    }

    #[test]
    fn leaf_fast_path_value_predicate() {
        let f = fixture(
            "<r><item><name>gold</name></item><item><name>salt</name></item></r>",
            None,
            2,
        );
        let mut pt = PatternTree::new(Some("name"), false);
        pt.set_value(PNodeId(0), "gold");
        let plan = QueryPlan::new(pt);
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let c = ctx(&f, None);
        let frag = compiled.fragment(0);
        let tagged: Vec<u64> = (0..f.store.total_nodes())
            .filter(|&p| Some(f.store.node(p).unwrap().tag) == frag.root_tag())
            .collect();
        let mut cm = CompiledMatcher::new(&c, frag, false);
        let mut snaps = SnapshotCache::new();
        let mut got = TupleTable::new(vec![PNodeId(0)]);
        cm.match_leaf_candidates(&tagged, &mut snaps, &mut got)
            .unwrap();
        assert_eq!(got.into_column(0), vec![2]);
    }

    #[test]
    fn stale_plan_detected_by_tag_fence() {
        let f = fixture(FIG2, None, 300);
        let plan = QueryPlan::new(parse_query("//h").unwrap());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        assert!(compiled.is_current(f.doc.tags()));
        let mut grown = f.doc.tags().clone();
        grown.intern("brand-new-tag");
        assert!(!compiled.is_current(&grown));
    }

    #[test]
    fn force_root_output_adds_root_binding() {
        let f = fixture(FIG2, None, 300);
        let plan = QueryPlan::new(parse_query("//h/l").unwrap());
        let compiled = CompiledPlan::compile(&plan, f.doc.tags());
        let c = ctx(&f, None);
        let mut plain = CompiledMatcher::new(&c, compiled.fragment(0), false);
        let mut forced = CompiledMatcher::new(&c, compiled.fragment(0), true);
        let mut a = TupleTable::new(vec![PNodeId(1)]);
        let mut b = TupleTable::new(vec![PNodeId(0), PNodeId(1)]);
        plain.match_root(7, &mut a).unwrap();
        forced.match_root(7, &mut b).unwrap();
        assert_eq!((a.len(), a.row(0)), (1, &[11][..]));
        assert_eq!((b.len(), b.row(0)), (1, &[7, 11][..]));
    }

    /// Extents over a directory of `nblocks` blocks of ten positions each.
    fn extents_of(nblocks: usize, mask: &[u64]) -> VisibleExtents {
        VisibleExtents::from_blocks(nblocks, 10 * nblocks as u64, mask, |b| 10 * b as u64)
    }

    /// What `prune` must equal: a per-candidate probe of the same mask.
    fn prune_naive(nblocks: usize, mask: &[u64], candidates: &[u64]) -> (Vec<u64>, u64) {
        let skipped = |c: u64| {
            let b = (c / 10) as usize;
            b >= nblocks || mask[b >> 6] >> (b & 63) & 1 != 0
        };
        let kept: Vec<u64> = candidates
            .iter()
            .copied()
            .filter(|&c| !skipped(c))
            .collect();
        let n = (candidates.len() - kept.len()) as u64;
        (kept, n)
    }

    #[test]
    fn extents_from_degenerate_masks() {
        // Empty directory: nothing visible, everything skipped.
        let none = extents_of(0, &[]);
        assert!(none.ranges().is_empty());
        assert!(!none.contains(0));
        assert_eq!(none.prune(&[]).skipped, 0);
        assert_eq!(VisibleExtents::all(0), none);
        // All skipped.
        let dark = extents_of(5, &[0b11111]);
        assert!(dark.ranges().is_empty());
        let p = dark.prune(&[0, 7, 49]);
        assert!(p.runs.is_empty());
        assert_eq!(p.skipped, 3);
        // None skipped: one extent, the same as `all`.
        let lit = extents_of(5, &[0]);
        assert_eq!(lit.ranges(), &[(0, 50)]);
        assert_eq!(lit, VisibleExtents::all(50));
        let cands = [0, 7, 49];
        let p = lit.prune(&cands);
        assert_eq!(p.runs, vec![&cands[..]]);
        assert_eq!(p.skipped, 0);
    }

    #[test]
    fn extents_from_alternating_blocks_and_a_partial_last_word() {
        // 70 blocks = one full mask word and six bits of a second; odd
        // blocks skippable. Bits past block 69 are garbage and ignored.
        let mask = [0xAAAA_AAAA_AAAA_AAAAu64, 0xFFFF_FFFF_FFFF_FFEAu64];
        let e = extents_of(70, &mask);
        let want: Vec<(u64, u64)> = (0..70).step_by(2).map(|b| (10 * b, 10 * b + 10)).collect();
        assert_eq!(e.ranges(), &want[..]);
        // A visible last block runs to the end of the document.
        let e = extents_of(70, &[!0, !0 << 6 | 0b011111]);
        assert_eq!(e.ranges(), &[(690, 700)]);
        // Runs that span whole mask words.
        let mask = [!0, 0, 0, !0, 0b0110];
        let e = extents_of(260, &mask);
        assert_eq!(e.ranges(), &[(640, 1920), (2560, 2570), (2590, 2600)]);
        for pos in 0..2600 {
            let b = (pos / 10) as usize;
            assert_eq!(
                e.contains(pos),
                mask[b >> 6] >> (b & 63) & 1 == 0,
                "pos {pos}"
            );
        }
    }

    #[test]
    fn prune_counts_gaps_and_keeps_boundary_candidates() {
        // Blocks 1 and 4 visible: extents [10,20) and [40,50).
        let e = extents_of(6, &[0b101101]);
        assert_eq!(e.ranges(), &[(10, 20), (40, 50)]);
        let cands = [9, 10, 19, 20, 39, 40, 49, 50];
        let p = e.prune(&cands);
        assert_eq!(p.runs, vec![&cands[1..3], &cands[5..7]]);
        assert_eq!(p.skipped, 4);
        // Candidates only in gaps, only in extents, before and after all.
        assert_eq!(e.prune(&[0, 25, 59]).skipped, 3);
        assert_eq!(e.prune(&[12, 44]).skipped, 0);
        assert_eq!(e.prune(&[12, 44]).runs.len(), 2);
    }

    #[test]
    fn prune_matches_a_per_candidate_probe() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for _ in 0..200 {
            let nblocks = rng.gen_range(1..200usize);
            let density = [0.02, 0.5, 0.98][rng.gen_range(0..3usize)];
            let mut mask = vec![0u64; nblocks.div_ceil(64)];
            for b in 0..nblocks {
                if rng.gen_bool(density) {
                    mask[b >> 6] |= 1 << (b & 63);
                }
            }
            let keep = [0.01, 0.3, 1.0][rng.gen_range(0..3usize)];
            let cands: Vec<u64> = (0..10 * nblocks as u64)
                .filter(|_| rng.gen_bool(keep))
                .collect();
            let p = extents_of(nblocks, &mask).prune(&cands);
            let (kept, skipped) = prune_naive(nblocks, &mask, &cands);
            assert_eq!(p.runs.concat(), kept);
            assert_eq!(p.skipped, skipped);
            assert!(p.runs.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn extents_agree_with_the_scalar_skip_test_on_a_store() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 7..12 {
            map.set(SubjectId(0), NodeId(p), true); // only h's subtree
        }
        for max_rec in [300, 3, 2] {
            let f = fixture(FIG2, Some(&map), max_rec);
            let col = f.dol.column(SubjectId(0));
            let e =
                VisibleExtents::from_skip_mask(&f.store, &f.dol.block_skip_mask(&f.store, &col));
            for pos in 0..f.store.total_nodes() {
                let block = f.store.block_of_pos(pos);
                assert_eq!(
                    e.contains(pos),
                    !f.dol.block_skippable(&f.store, block, SubjectId(0)),
                    "pos {pos} max_rec {max_rec}"
                );
            }
        }
    }
}
