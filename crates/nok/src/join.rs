//! Structural joins: Stack-Tree-Desc, its two semi-join forms, the flat
//! tuple table they run over, and secure subtree visibility.
//!
//! After NoK fragments are matched, ancestor–descendant edges between them
//! are evaluated with the Stack-Tree-Desc (STD) algorithm of Al-Khalifa et
//! al. (ICDE 2002): both input lists are sorted in document order, a stack
//! maintains the current nesting of ancestor intervals, and each
//! (ancestor, descendant) pair is emitted exactly once in output-sensitive
//! time.
//!
//! Fragment matches travel between the pipeline's stages as one
//! [`TupleTable`] per fragment — a row-major `Vec<u64>` under a column
//! header — and [`join_tables`] emits only the columns still *live* after
//! the join. When one side contributes no live column the join degenerates
//! to a linear semi-join that never materializes a pair.
//!
//! For the binding-level semantics (Cho et al.) no accessibility work is
//! needed here: "since the nodes in the NoK subtrees are already checked for
//! accessibility, the structural-join algorithm does not need to check
//! accessibility any more" (Theorem 1).
//!
//! For the stricter Gabillon–Bruno semantics (§4.2) a result node is only
//! usable if **every ancestor** is accessible — a subtree rooted at an
//! inaccessible node can not provide answers even if it contains accessible
//! nodes. [`VisibilityChecker`] decides that predicate for a document-order
//! stream of candidates with a shared path stack, so each path node is
//! inspected once per query (the ε-STD pruning of [18]).

use crate::compiled::{SnapshotCache, VisibleExtents};
use crate::pattern::PNodeId;
use dol_core::SubjectColumn;
use dol_storage::disk::StorageError;
use dol_storage::{NodeRec, StructStore};
use std::borrow::Cow;

/// The matches of one fragment (or of a joined group of fragments): a set
/// of rows, each binding every pattern node in [`cols`](Self::cols) to a
/// data position. Rows are stored row-major in one allocation, so emitting a
/// tuple is `arity` word writes and no heap traffic.
///
/// A table of arity 0 carries one bit — whether the fragment matched at
/// all — so pushing onto it is idempotent.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TupleTable {
    /// Bound pattern nodes, ascending.
    cols: Vec<PNodeId>,
    /// `len * cols.len()` positions, row-major.
    rows: Vec<u64>,
    len: usize,
}

impl TupleTable {
    /// An empty table over `cols` (ascending, distinct).
    pub fn new(cols: Vec<PNodeId>) -> Self {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns ascending");
        Self {
            cols,
            rows: Vec::new(),
            len: 0,
        }
    }

    /// The bound pattern nodes, ascending.
    #[inline]
    pub fn cols(&self) -> &[PNodeId] {
        &self.cols
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column index of pattern node `p`, if bound here. Resolved once
    /// per join or projection, never per row.
    pub fn col_of(&self, p: PNodeId) -> Option<usize> {
        self.cols.iter().position(|&c| c == p)
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        let a = self.cols.len();
        &self.rows[i * a..(i + 1) * a]
    }

    /// The position row `i` binds in column `col`.
    #[inline]
    pub fn get(&self, i: usize, col: usize) -> u64 {
        self.rows[i * self.cols.len() + col]
    }

    /// Appends one row.
    #[inline]
    pub fn push(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.cols.len(), "row arity");
        if self.cols.is_empty() {
            self.len = 1;
        } else {
            self.rows.extend_from_slice(row);
            self.len += 1;
        }
    }

    /// Appends one single-column row per position — or, at arity 0, records
    /// that `positions` was not empty. The leaf fast path's bulk emit.
    pub fn push_positions(&mut self, positions: &[u64]) {
        match self.cols.len() {
            0 => self.len = self.len.max(usize::from(!positions.is_empty())),
            1 => {
                self.rows.extend_from_slice(positions);
                self.len += positions.len();
            }
            a => unreachable!("bulk position push on a table of arity {a}"),
        }
    }

    /// Drops every row, keeping the columns.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.len = 0;
    }

    /// Keeps the rows for which `keep(row_index)` holds, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let a = self.cols.len();
        let mut kept = 0;
        for i in 0..self.len {
            if keep(i) {
                if kept < i {
                    self.rows.copy_within(i * a..(i + 1) * a, kept * a);
                }
                kept += 1;
            }
        }
        self.rows.truncate(kept * a);
        self.len = kept;
    }

    /// Whether column `col` is non-decreasing down the rows.
    pub fn is_sorted_by(&self, col: usize) -> bool {
        (1..self.len).all(|i| self.get(i - 1, col) <= self.get(i, col))
    }

    /// Reorders the rows so that column `col` is non-decreasing; a no-op
    /// (one linear scan) when it already is — leaf fast-path output and
    /// every table keyed on its fragment root arrive that way.
    pub fn sort_by_col(&mut self, col: usize) {
        if self.is_sorted_by(col) {
            return;
        }
        let mut order: Vec<usize> = (0..self.len).collect();
        // Ties break on the row index, so the order is a function of the
        // table alone.
        order.sort_unstable_by_key(|&i| (self.get(i, col), i));
        let mut rows = Vec::with_capacity(self.rows.len());
        for i in order {
            rows.extend_from_slice(self.row(i));
        }
        self.rows = rows;
    }

    /// Sorts the rows lexicographically and drops duplicates; one linear
    /// scan when they are already strictly ascending.
    pub fn sort_dedup(&mut self) {
        let a = self.cols.len();
        if a > 0 {
            sort_dedup_rows(&mut self.rows, a);
            self.len = self.rows.len() / a;
        }
    }

    /// Column `col` as one contiguous slice (borrowed at arity 1).
    fn column(&self, col: usize) -> Cow<'_, [u64]> {
        if self.cols.len() == 1 {
            Cow::Borrowed(&self.rows)
        } else {
            Cow::Owned((0..self.len).map(|i| self.get(i, col)).collect())
        }
    }

    /// Consumes the table into the distinct positions of column `col`,
    /// ascending.
    pub fn into_column(self, col: usize) -> Vec<u64> {
        let mut out: Vec<u64> = if self.cols.len() == 1 {
            self.rows
        } else {
            (0..self.len).map(|i| self.get(i, col)).collect()
        };
        if !out.windows(2).all(|w| w[0] < w[1]) {
            out.sort_unstable();
            out.dedup();
        }
        out
    }
}

/// Sorts the `stride`-word rows of `rows` lexicographically and drops
/// duplicates; one linear scan when they are already strictly ascending.
pub(crate) fn sort_dedup_rows(rows: &mut Vec<u64>, stride: usize) {
    let row = |i: usize| &rows[i * stride..(i + 1) * stride];
    let n = rows.len() / stride;
    if (1..n).all(|i| row(i - 1) < row(i)) {
        return;
    }
    if stride == 1 {
        rows.sort_unstable();
        rows.dedup();
        return;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&x, &y| row(x).cmp(row(y)));
    order.dedup_by(|x, kept| row(*x) == row(*kept));
    let mut sorted = Vec::with_capacity(order.len() * stride);
    for i in order {
        sorted.extend_from_slice(row(i));
    }
    *rows = sorted;
}

/// Stack-Tree-Desc over sorted ancestor intervals and sorted descendant
/// positions: calls `emit(anc_index, desc_index)` for every proper
/// ancestor–descendant pair.
///
/// `anc[i]` is the half-open document-position interval `[start, end)` of a
/// candidate ancestor's subtree (tree intervals: any two are nested or
/// disjoint; an empty interval contains nothing). `desc` is ascending.
fn stack_tree_desc(anc: &[(u64, u64)], desc: &[u64], mut emit: impl FnMut(usize, usize)) {
    debug_assert!(anc.windows(2).all(|w| w[0].0 <= w[1].0));
    debug_assert!(desc.windows(2).all(|w| w[0] <= w[1]));
    let mut stack: Vec<usize> = Vec::new();
    let mut i = 0;
    for (dj, &d) in desc.iter().enumerate() {
        // Push every ancestor interval starting before d (a proper ancestor
        // has start < d), maintaining the nesting invariant.
        while i < anc.len() && anc[i].0 < d {
            while let Some(&top) = stack.last() {
                if anc[top].1 <= anc[i].0 {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(i);
            i += 1;
        }
        // Drop intervals that end at or before d.
        while let Some(&top) = stack.last() {
            if anc[top].1 <= d {
                stack.pop();
            } else {
                break;
            }
        }
        // Everything left on the stack contains d.
        for &a in &stack {
            emit(a, dj);
        }
    }
}

/// The structural join of two tuple tables on `anc.anc_col` ancestor-of
/// `desc.desc_col`, projected onto the columns in `live` and with duplicate
/// rows dropped. Also returns the number of tuples emitted before that
/// dedup (the `join_pairs` statistic).
///
/// `anc` must be sorted by `anc_col` with `intervals[i]` the subtree
/// interval of the position row `i` binds there (an anchor that could not
/// be read passes an empty interval and so joins with nothing); `desc` must
/// be sorted by `desc_col`.
///
/// Projection commutes with the join on every column other than the two
/// join keys, so which side still contributes a live column picks the form:
///
/// * only `anc` — a semi-join keeping the ancestor rows that have at least
///   one descendant: one merge pass, since the first descendant past an
///   interval's start is monotone in that start;
/// * only `desc` — a semi-join keeping the descendant rows that have at
///   least one enclosing ancestor: one merge pass over the running maximum
///   interval end (tree intervals starting before `d` contain `d` exactly
///   when one of them ends after it);
/// * both — Stack-Tree-Desc, each pair written straight into the output
///   table. This is the only form whose cost follows the number of pairs.
pub fn join_tables(
    anc: &TupleTable,
    anc_col: usize,
    intervals: &[(u64, u64)],
    desc: &TupleTable,
    desc_col: usize,
    live: &[PNodeId],
) -> (TupleTable, u64) {
    debug_assert_eq!(intervals.len(), anc.len(), "one interval per ancestor row");
    debug_assert!(anc.is_sorted_by(anc_col) && desc.is_sorted_by(desc_col));
    // (pattern node, from the descendant side?, column there), ascending.
    let mut src: Vec<(PNodeId, bool, usize)> = Vec::new();
    for (from_desc, t) in [(false, anc), (true, desc)] {
        for (c, &p) in t.cols().iter().enumerate() {
            if live.contains(&p) {
                src.push((p, from_desc, c));
            }
        }
    }
    src.sort_unstable_by_key(|s| s.0);
    debug_assert!(
        src.windows(2).all(|w| w[0].0 < w[1].0),
        "sides share no column"
    );
    let mut out = TupleTable::new(src.iter().map(|s| s.0).collect());
    let mut row = vec![0u64; src.len()];
    let mut emitted = 0u64;
    let mut emit = |a: usize, d: usize| {
        for (slot, &(_, from_desc, c)) in row.iter_mut().zip(&src) {
            *slot = if from_desc {
                desc.get(d, c)
            } else {
                anc.get(a, c)
            };
        }
        out.push(&row);
        emitted += 1;
    };
    let keys = desc.column(desc_col);
    let from_anc = src.iter().any(|s| !s.1);
    let from_desc = src.iter().any(|s| s.1);
    if !from_desc {
        let mut j = 0;
        for (a, &(start, end)) in intervals.iter().enumerate() {
            while j < keys.len() && keys[j] <= start {
                j += 1;
            }
            if j < keys.len() && keys[j] < end {
                emit(a, j);
            }
        }
    } else if !from_anc {
        let mut i = 0;
        let mut max_end = 0u64;
        for (d, &key) in keys.iter().enumerate() {
            while i < intervals.len() && intervals[i].0 < key {
                max_end = max_end.max(intervals[i].1);
                i += 1;
            }
            if max_end > key {
                emit(0, d);
            }
        }
    } else {
        stack_tree_desc(intervals, &keys, &mut emit);
    }
    out.sort_dedup();
    (out, emitted)
}

/// Decides Gabillon–Bruno subtree visibility — "are this node and all of its
/// ancestors accessible?" — for a non-decreasing stream of document
/// positions, sharing the root-to-node path across consecutive queries.
///
/// Path nodes are decoded from the execution's shared [`SnapshotCache`], so
/// a sibling chain costs one page latch per distinct block it crosses, not
/// one per node. Subtree visibility is always a secure mode: a block that
/// cannot be read hides everything below it (the check answers `false` and
/// counts [`failed_closed`](Self::failed_closed)); availability outcomes
/// propagate.
pub struct VisibilityChecker<'a> {
    store: &'a StructStore,
    /// The subject's accessibility column, decoded once per evaluation.
    column: &'a SubjectColumn,
    /// The evaluation's visible extents: a position outside them lies in a
    /// block whose header already proves it inaccessible.
    extents: &'a VisibleExtents,
    snaps: &'a mut SnapshotCache,
    /// Stack of `(start, end, visible, next_child)` for the current root
    /// path; `visible` includes the node itself and all its ancestors, and
    /// `next_child` is where the child scan resumes so shared prefixes and
    /// already-passed siblings are never re-read.
    stack: Vec<(u64, u64, bool, u64)>,
    /// Path nodes inspected (for the I/O argument in the experiments).
    pub nodes_inspected: u64,
    /// Checks answered `false` because a path block was unreadable or a
    /// path record claimed an impossible subtree.
    pub failed_closed: u64,
}

impl<'a> VisibilityChecker<'a> {
    /// Creates a checker for the subject `column` was decoded for.
    pub fn new(
        store: &'a StructStore,
        column: &'a SubjectColumn,
        extents: &'a VisibleExtents,
        snaps: &'a mut SnapshotCache,
    ) -> Self {
        Self {
            store,
            column,
            extents,
            snaps,
            stack: Vec::new(),
            nodes_inspected: 0,
            failed_closed: 0,
        }
    }

    /// The record and code at `pos`, or `None` when its block failed closed.
    fn load(&mut self, pos: u64) -> Result<Option<(NodeRec, u32)>, StorageError> {
        let Some((snap, slot)) = self.snaps.at(self.store, pos, true)? else {
            self.failed_closed += 1;
            return Ok(None);
        };
        self.nodes_inspected += 1;
        Ok(Some((snap.node(slot), snap.code(slot))))
    }

    /// Whether the node at `pos` and all of its ancestors are accessible.
    ///
    /// Positions must be queried in non-decreasing order.
    pub fn check(&mut self, pos: u64) -> Result<bool, StorageError> {
        debug_assert!(pos < self.store.total_nodes());
        // The node itself is provably inaccessible: nothing to read.
        if !self.extents.contains(pos) {
            return Ok(false);
        }
        // Pop path entries whose subtree no longer contains pos.
        while let Some(&(_, end, _, _)) = self.stack.last() {
            if end <= pos {
                self.stack.pop();
            } else {
                break;
            }
        }
        if self.stack.is_empty() {
            let Some((_, code)) = self.load(0)? else {
                return Ok(false);
            };
            let visible = self.column.check_code(code);
            // The root's subtree is the whole store, whatever its record
            // claims.
            self.stack.push((0, self.store.total_nodes(), visible, 1));
        }
        // Descend from the deepest retained ancestor to pos.
        loop {
            let &(start, end, visible, next_child) = self.stack.last().expect("root pushed above");
            debug_assert!(start <= pos && pos < end);
            if start == pos {
                return Ok(visible);
            }
            // An invisible ancestor hides the whole subtree: no need to read
            // further path nodes (the ε-STD aggressive prune).
            if !visible {
                return Ok(false);
            }
            // Find the child of `start` whose subtree contains pos, resuming
            // from the last scan position (queries are non-decreasing).
            let mut child = next_child.max(start + 1);
            loop {
                let Some((rec, code)) = self.load(child)? else {
                    return Ok(false);
                };
                // A size of 0 would leave `child` standing still; the
                // children tile the parent's subtree, which holds `pos`.
                let Ok(cend) = rec.subtree_end(child, end) else {
                    self.failed_closed += 1;
                    return Ok(false);
                };
                // The parent resumes after this child once it is popped.
                self.stack.last_mut().expect("root pushed above").3 = cend;
                if pos < cend {
                    let cvis = visible && self.column.check_code(code);
                    self.stack.push((child, cend, cvis, child + 1));
                    break;
                }
                child = cend;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::{AccessibilityMap, SubjectId};
    use dol_core::EmbeddedDol;
    use dol_storage::{BufferPool, MemDisk, StoreConfig};
    use dol_xml::{parse, Document, NodeId};
    use std::sync::Arc;

    #[test]
    fn std_join_basic() {
        // Intervals: a=[0,10), b=[1,4), c=[5,9); descendants 2, 3, 6, 9.
        let anc = vec![(0, 10), (1, 4), (5, 9)];
        let desc = vec![2, 3, 6, 9];
        let mut pairs = std_pairs(&anc, &desc);
        pairs.sort_unstable();
        assert_eq!(
            pairs,
            vec![(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 2)]
        );
    }

    #[test]
    fn std_join_excludes_self() {
        // A node is not its own proper ancestor: interval [3,6) vs desc 3.
        let pairs = std_pairs(&[(3, 6)], &[3]);
        assert!(pairs.is_empty());
        let pairs = std_pairs(&[(3, 6)], &[4]);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn std_join_matches_naive_on_random_tree() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        // Random nested intervals from a random tree shape.
        let doc = {
            let mut b = Document::builder();
            b.open("r");
            let mut open = 1;
            for _ in 0..200 {
                if rng.gen_bool(0.5) && open < 12 {
                    b.open("x");
                    open += 1;
                } else if open > 1 {
                    b.close();
                    open -= 1;
                } else {
                    b.leaf("y", None);
                }
            }
            while open > 0 {
                b.close();
                open -= 1;
            }
            b.finish().unwrap()
        };
        let anc: Vec<(u64, u64)> = doc
            .preorder()
            .filter(|_| rng.gen_bool(0.3))
            .map(|n| {
                let r = doc.subtree_range(n);
                (u64::from(r.start), u64::from(r.end))
            })
            .collect();
        let desc: Vec<u64> = doc
            .preorder()
            .filter(|_| rng.gen_bool(0.3))
            .map(|n| u64::from(n.0))
            .collect();
        let mut got = std_pairs(&anc, &desc);
        got.sort_unstable();
        let mut expect = Vec::new();
        for (i, &(s, e)) in anc.iter().enumerate() {
            for (j, &d) in desc.iter().enumerate() {
                if s < d && d < e {
                    expect.push((i, j));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    /// Every pair Stack-Tree-Desc reports, collected.
    fn std_pairs(anc: &[(u64, u64)], desc: &[u64]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        stack_tree_desc(anc, desc, |a, d| out.push((a, d)));
        out
    }

    fn table(cols: &[u32], rows: &[&[u64]]) -> TupleTable {
        let mut t = TupleTable::new(cols.iter().map(|&c| PNodeId(c)).collect());
        for r in rows {
            t.push(r);
        }
        t
    }

    fn rows_of(t: &TupleTable) -> Vec<Vec<u64>> {
        (0..t.len()).map(|i| t.row(i).to_vec()).collect()
    }

    #[test]
    fn tuple_table_basics() {
        let mut t = table(&[1, 4], &[&[7, 2], &[3, 9], &[7, 1], &[3, 9]]);
        assert_eq!((t.arity(), t.len()), (2, 4));
        assert_eq!(t.col_of(PNodeId(4)), Some(1));
        assert_eq!(t.col_of(PNodeId(2)), None);
        assert!(!t.is_sorted_by(0));
        t.sort_by_col(0);
        // Ties keep their order of arrival.
        assert_eq!(rows_of(&t), [[3, 9], [3, 9], [7, 2], [7, 1]]);
        t.sort_dedup();
        assert_eq!(rows_of(&t), [[3, 9], [7, 1], [7, 2]]);
        t.retain(|i| i != 1);
        assert_eq!(rows_of(&t), [[3, 9], [7, 2]]);
        assert_eq!(t.clone().into_column(1), [2, 9]);
        t.clear();
        assert!(t.is_empty() && t.arity() == 2);
        // Arity 0 is one bit: pushes are idempotent.
        let mut z = TupleTable::new(Vec::new());
        assert!(z.is_empty());
        z.push(&[]);
        z.push_positions(&[5, 6]);
        assert_eq!(z.len(), 1);
        z.sort_dedup();
        assert_eq!(z.len(), 1);
        // Arity 1 takes positions in bulk and hands its column back whole.
        let mut one = TupleTable::new(vec![PNodeId(0)]);
        one.push_positions(&[4, 8]);
        one.push(&[6]);
        assert_eq!(one.into_column(0), [4, 6, 8]);
    }

    /// The join by definition: every pair `stack_tree_desc` reports, both
    /// rows concatenated, projected onto `live`, sorted, distinct.
    fn join_naive(
        anc: &TupleTable,
        anc_col: usize,
        intervals: &[(u64, u64)],
        desc: &TupleTable,
        desc_col: usize,
        live: &[PNodeId],
    ) -> (Vec<PNodeId>, Vec<Vec<u64>>) {
        let keys: Vec<u64> = (0..desc.len()).map(|j| desc.get(j, desc_col)).collect();
        let mut cols: Vec<(PNodeId, bool, usize)> = Vec::new();
        for (c, &p) in anc.cols().iter().enumerate() {
            cols.push((p, false, c));
        }
        for (c, &p) in desc.cols().iter().enumerate() {
            cols.push((p, true, c));
        }
        cols.retain(|c| live.contains(&c.0));
        cols.sort_unstable();
        let mut rows: Vec<Vec<u64>> = std_pairs(intervals, &keys)
            .into_iter()
            .map(|(a, d)| {
                cols.iter()
                    .map(|&(_, from_desc, c)| {
                        if from_desc {
                            desc.get(d, c)
                        } else {
                            anc.get(a, c)
                        }
                    })
                    .collect()
            })
            .collect();
        let _ = anc_col;
        rows.sort_unstable();
        rows.dedup();
        (cols.iter().map(|c| c.0).collect(), rows)
    }

    #[test]
    fn join_forms_match_stack_tree_desc_plus_projection() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for round in 0..60 {
            // A random tree, as nested intervals in document order.
            let doc = {
                let mut b = Document::builder();
                b.open("r");
                let mut open = 1;
                for _ in 0..rng.gen_range(5..150) {
                    if rng.gen_bool(0.5) && open < 10 {
                        b.open("x");
                        open += 1;
                    } else if open > 1 {
                        b.close();
                        open -= 1;
                    } else {
                        b.leaf("y", None);
                    }
                }
                while open > 0 {
                    b.close();
                    open -= 1;
                }
                b.finish().unwrap()
            };
            // Ancestor rows (anchor q1, payload q0), several per anchor; a
            // few anchors "failed closed" to the empty interval.
            let mut anc = TupleTable::new(vec![PNodeId(0), PNodeId(1)]);
            let mut intervals = Vec::new();
            for n in doc.preorder() {
                if !rng.gen_bool(0.4) {
                    continue;
                }
                let r = doc.subtree_range(n);
                let failed = rng.gen_bool(0.1);
                for payload in 0..rng.gen_range(1..3u64) {
                    anc.push(&[payload * 1000 + round, u64::from(r.start)]);
                    intervals.push(if failed {
                        (u64::from(r.start), u64::from(r.start))
                    } else {
                        (u64::from(r.start), u64::from(r.end))
                    });
                }
            }
            // Descendant rows (root q2, payload q3), several per root.
            let mut desc = TupleTable::new(vec![PNodeId(2), PNodeId(3)]);
            for n in doc.preorder() {
                if !rng.gen_bool(0.4) {
                    continue;
                }
                for payload in 0..rng.gen_range(1..3u64) {
                    desc.push(&[u64::from(n.0), payload]);
                }
            }
            // Every choice of live columns: both semi-join directions
            // (`[0]`, `[1]`, `[0, 1]` keep only the ancestor side; `[3]`,
            // `[2, 3]` only the descendant side), the pair join, and the
            // arity-0 existence test.
            let q = |ids: &[u32]| ids.iter().map(|&i| PNodeId(i)).collect::<Vec<_>>();
            for live in [
                q(&[]),
                q(&[0]),
                q(&[1]),
                q(&[0, 1]),
                q(&[3]),
                q(&[2, 3]),
                q(&[0, 3]),
                q(&[1, 2]),
                q(&[0, 1, 2, 3]),
            ] {
                let (got, emitted) = join_tables(&anc, 1, &intervals, &desc, 0, &live);
                let (cols, rows) = join_naive(&anc, 1, &intervals, &desc, 0, &live);
                assert_eq!(got.cols(), &cols[..], "live {live:?}");
                if cols.is_empty() {
                    assert_eq!(got.len(), usize::from(!rows.is_empty()));
                } else {
                    assert_eq!(rows_of(&got), rows, "round {round} live {live:?}");
                }
                assert!(emitted >= got.len() as u64);
                // Semi-joins never emit more than one tuple per input row.
                let pairs = std_pairs(
                    &intervals,
                    &(0..desc.len()).map(|j| desc.get(j, 0)).collect::<Vec<_>>(),
                )
                .len() as u64;
                let from_desc = live.iter().any(|p| p.0 >= 2);
                let from_anc = live.iter().any(|p| p.0 < 2);
                match (from_anc, from_desc) {
                    (_, false) => assert!(emitted <= anc.len() as u64),
                    (false, true) => assert!(emitted <= desc.len() as u64),
                    (true, true) => assert_eq!(emitted, pairs),
                }
            }
        }
    }

    #[test]
    fn visibility_checker_matches_ground_truth() {
        let doc = parse("<a><b><c/><d/></b><e><f><g/></f><h/></e></a>").unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        // Accessible: a, b, d, f, g, h — e is NOT accessible, hiding f, g, h.
        for p in [0u32, 1, 3, 5, 6, 7] {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
        let (store, dol) = EmbeddedDol::build(
            pool,
            StoreConfig {
                max_records_per_block: 3,
            },
            &doc,
            &map,
        )
        .unwrap();
        let column = dol.column(SubjectId(0));
        let extents = VisibleExtents::all(store.total_nodes());
        let mut snaps = SnapshotCache::new();
        let mut vc = VisibilityChecker::new(&store, &column, &extents, &mut snaps);
        let expect = |p: u32| -> bool {
            let id = NodeId(p);
            map.accessible(SubjectId(0), id)
                && doc.ancestors(id).all(|a| map.accessible(SubjectId(0), a))
        };
        for p in 0..doc.len() as u64 {
            assert_eq!(vc.check(p).unwrap(), expect(p as u32), "pos {p}");
        }
        // g and h are hidden despite being accessible themselves.
        assert!(map.accessible(SubjectId(0), NodeId(6)));
        let mut vc = VisibilityChecker::new(&store, &column, &extents, &mut snaps);
        assert!(!vc.check(6).unwrap());
    }

    #[test]
    fn visibility_checker_shares_paths() {
        let doc = parse("<a><b><c/><d/><e/><f/></b></a>").unwrap();
        let map = {
            let mut m = AccessibilityMap::new(1, doc.len());
            for p in 0..doc.len() as u32 {
                m.set(SubjectId(0), NodeId(p), true);
            }
            m
        };
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
        let (store, dol) = EmbeddedDol::build(pool, StoreConfig::default(), &doc, &map).unwrap();
        let column = dol.column(SubjectId(0));
        let extents = VisibleExtents::all(store.total_nodes());
        let mut snaps = SnapshotCache::new();
        let mut vc = VisibilityChecker::new(&store, &column, &extents, &mut snaps);
        for p in 2..6 {
            assert!(vc.check(p).unwrap());
        }
        // Path sharing: root + b read once, then one read per sibling.
        assert!(
            vc.nodes_inspected <= 2 + 4,
            "inspected {}",
            vc.nodes_inspected
        );
    }
}
