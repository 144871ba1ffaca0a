//! The logical DOL: transition list + codebook.
//!
//! This is the paper's Figure 1(c) object: a document-ordered list of
//! transition nodes, each carrying an access-control code, plus the codebook.
//! Because document positions are preorder ranks, a subtree is a contiguous
//! position range, so both node- and subtree-granularity accessibility
//! updates (§3.4) reduce to [`Dol::set_run`], whose transition-count growth
//! is bounded by **Proposition 1** (net at most +2).

use crate::codebook::Codebook;
use crate::stats::DolStats;
use dol_acl::{AccessOracle, BitVec, SubjectId};
use dol_xml::{Document, NodeId};

/// A logical Document Ordered Labeling.
#[derive(Debug, Clone)]
pub struct Dol {
    /// `(position, code)` of every transition node, ascending by position.
    /// The first entry is always position 0 (the root is a transition node).
    transitions: Vec<(u64, u32)>,
    codebook: Codebook,
    total: u64,
}

impl Dol {
    /// Builds a DOL for `doc` in a single document-order pass over `oracle`.
    pub fn build(doc: &Document, oracle: &impl AccessOracle) -> Self {
        Self::build_n(doc.len() as u64, oracle)
    }

    /// Builds a DOL over `total` document positions from `oracle`.
    pub fn build_n(total: u64, oracle: &impl AccessOracle) -> Self {
        let mut codebook = Codebook::new(oracle.subject_count());
        let mut transitions = Vec::new();
        let mut row = BitVec::zeros(0);
        let mut prev: Option<u32> = None;
        for pos in 0..total {
            oracle.acl_row(NodeId(pos as u32), &mut row);
            let code = codebook.intern(&row);
            if prev != Some(code) {
                transitions.push((pos, code));
                prev = Some(code);
            }
        }
        Self {
            transitions,
            codebook,
            total,
        }
    }

    /// Builds a **single-subject** DOL from an accessibility column (one bit
    /// per document position) — the Figure 1(a) construction.
    #[cfg(test)]
    pub fn build_single(column: &BitVec) -> Self {
        struct ColumnOracle<'a>(&'a BitVec);
        impl AccessOracle for ColumnOracle<'_> {
            fn subject_count(&self) -> usize {
                1
            }
            fn acl_row(&self, node: NodeId, out: &mut BitVec) {
                out.resize(1);
                out.set(0, self.0.get(node.index()));
            }
        }
        Self::build_n(column.len() as u64, &ColumnOracle(column))
    }

    /// Builds a DOL directly from a document-order **row-change stream**
    /// (position 0 first, minimal changes), e.g. the output of
    /// [`dol_acl::CascadeRules::row_stream`]. This is how multi-thousand
    /// subject DOLs are built without a materialized matrix.
    pub fn from_row_stream(total: u64, subjects: usize, changes: &[(u64, BitVec)]) -> Self {
        let mut codebook = Codebook::new(subjects);
        let mut transitions = Vec::with_capacity(changes.len());
        let mut prev: Option<u32> = None;
        for (pos, row) in changes {
            let code = codebook.intern(row);
            if prev != Some(code) {
                transitions.push((*pos, code));
                prev = Some(code);
            }
        }
        Self::from_parts(transitions, codebook, total)
    }

    /// Assembles a DOL from parts (used when loading an embedded DOL).
    pub fn from_parts(transitions: Vec<(u64, u32)>, codebook: Codebook, total: u64) -> Self {
        let dol = Self {
            transitions,
            codebook,
            total,
        };
        debug_assert_eq!(dol.check_invariants(), Ok(()));
        dol
    }

    /// Number of document positions covered.
    pub fn total_nodes(&self) -> u64 {
        self.total
    }

    /// Number of transition nodes — the paper's primary size metric.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The transition list, ascending by position.
    pub fn transitions(&self) -> &[(u64, u32)] {
        &self.transitions
    }

    /// The codebook.
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// Mutable codebook access (subject add/remove operate here only).
    pub fn codebook_mut(&mut self) -> &mut Codebook {
        &mut self.codebook
    }

    /// The access-control code in effect at `pos`.
    pub fn code_at(&self, pos: u64) -> u32 {
        debug_assert!(pos < self.total);
        let i = self.transitions.partition_point(|&(p, _)| p <= pos);
        self.transitions[i - 1].1
    }

    /// Whether `subject` may access the node at `pos`.
    pub fn accessible(&self, pos: u64, subject: SubjectId) -> bool {
        self.codebook.bit(self.code_at(pos), subject)
    }

    /// Decodes `subject`'s accessibility column (see
    /// [`Codebook::column`]) for repeated lookups via
    /// [`accessible_with`](Dol::accessible_with).
    pub fn column(&self, subject: SubjectId) -> crate::column::SubjectColumn {
        self.codebook.column(subject)
    }

    /// [`accessible`](Dol::accessible) against an already-decoded column —
    /// avoids the per-lookup codebook entry indirection on scan-heavy paths.
    #[inline]
    pub fn accessible_with(&self, pos: u64, column: &crate::column::SubjectColumn) -> bool {
        column.check_code(self.code_at(pos))
    }

    /// Expands an already-decoded `column` into a per-**position**
    /// [`AccessBitmap`](crate::column::AccessBitmap): accessibility runs are
    /// filled 64 positions per word op, so scan-heavy consumers replace the
    /// per-position `code_at` binary search with one shift-and-mask.
    pub fn access_bitmap(
        &self,
        column: &crate::column::SubjectColumn,
    ) -> crate::column::AccessBitmap {
        crate::column::AccessBitmap::from_runs(self.total, self.runs(), column)
    }

    /// Iterates maximal runs of equal code as `(start, end, code)`.
    pub fn runs(&self) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .map(move |(i, &(p, c))| {
                let end = self
                    .transitions
                    .get(i + 1)
                    .map(|&(q, _)| q)
                    .unwrap_or(self.total);
                (p, end, c)
            })
    }

    /// Size accounting for the experiments.
    pub fn stats(&self) -> DolStats {
        DolStats {
            total_nodes: self.total,
            subjects: self.codebook.live_subjects(),
            transitions: self.transitions.len(),
            codebook_entries: self.codebook.len(),
            codebook_bytes: self.codebook.bytes(),
            embedded_code_bytes: self.transitions.len() * self.codebook.code_bytes(),
        }
    }

    // ------------------------------------------------------------------
    // Accessibility updates (§3.4)
    // ------------------------------------------------------------------

    /// Sets the ACL of every node in `[start, end)` to `acl`. This covers
    /// both the single-node update (`end = start + 1`) and the subtree
    /// update (the subtree of `n` is `[n, n + size)`).
    ///
    /// Proposition 1: the transition count grows by at most 2.
    pub fn set_run(&mut self, start: u64, end: u64, acl: &BitVec) {
        let code = self.codebook.intern(acl);
        self.set_run_code(start, end, code);
    }

    /// Like [`set_run`](Dol::set_run) with an already-interned code.
    pub fn set_run_code(&mut self, start: u64, end: u64, code: u32) {
        assert!(start < end && end <= self.total, "bad run [{start},{end})");
        let before = self.transitions.len();
        let pred_code = (start > 0).then(|| self.code_at(start - 1));
        let end_code = (end < self.total).then(|| self.code_at(end));
        // Drop transitions inside the run.
        let lo = self.transitions.partition_point(|&(p, _)| p < start);
        let hi = self.transitions.partition_point(|&(p, _)| p < end);
        let mut splice: Vec<(u64, u32)> = Vec::with_capacity(2);
        if pred_code != Some(code) {
            splice.push((start, code));
        }
        if let Some(ec) = end_code {
            // The run's successor keeps code `ec`; it is a transition iff it
            // differs from the run's code. A pre-existing entry at `end`
            // falls in `hi..` and must be dropped if now redundant.
            let had_entry = self.transitions.get(hi).is_some_and(|&(p, _)| p == end);
            let hi_end = if had_entry { hi + 1 } else { hi };
            if ec != code {
                splice.push((end, ec));
            }
            self.transitions.splice(lo..hi_end, splice);
        } else {
            self.transitions.splice(lo..hi, splice);
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        debug_assert!(
            self.transitions.len() <= before + 2,
            "Proposition 1 violated"
        );
    }

    /// Changes one subject's bit on a single node, re-interning the node's
    /// ACL (the §3.4 single-node algorithm).
    ///
    /// The edit targets the subject's **direct** physical column (lazily
    /// allocated in a group-factored codebook): rights the subject derives
    /// from group membership are unaffected, and keep applying live.
    pub fn set_node(&mut self, pos: u64, subject: SubjectId, allow: bool) {
        let col = self.codebook.ensure_direct_column(subject) as usize;
        let mut acl = self.codebook.entry_padded(self.code_at(pos));
        if acl.get(col) == allow {
            return; // nearest preceding transition already agrees — stop.
        }
        acl.set(col, allow);
        self.set_run(pos, pos + 1, &acl);
    }

    /// Changes one subject's bit over `[start, end)` (subtree accessibility
    /// update), preserving other subjects' rights: every code run inside the
    /// range is remapped with only `subject`'s bit changed and adjacent runs
    /// that become equal merge. Transitions never increase inside the range;
    /// the boundaries contribute Proposition 1's +2.
    pub fn set_subtree(&mut self, start: u64, end: u64, subject: SubjectId, allow: bool) {
        assert!(start < end && end <= self.total, "bad run [{start},{end})");
        let before = self.transitions.len();
        let pred_code = (start > 0).then(|| self.code_at(start - 1));
        let end_code = (end < self.total).then(|| self.code_at(end));
        // Collect the runs overlapping the range, clamped at `start`.
        let lo = self.transitions.partition_point(|&(p, _)| p < start);
        let hi = self.transitions.partition_point(|&(p, _)| p < end);
        let mut old_runs: Vec<(u64, u32)> = Vec::with_capacity(hi - lo + 1);
        old_runs.push((start, self.code_at(start)));
        for &(p, c) in &self.transitions[lo..hi] {
            if p > start {
                old_runs.push((p, c));
            }
        }
        // Remap through the codebook, dropping now-redundant transitions.
        let col = self.codebook.ensure_direct_column(subject) as usize;
        let mut splice: Vec<(u64, u32)> = Vec::with_capacity(old_runs.len() + 1);
        let mut prev = pred_code;
        for (p, c) in old_runs {
            let mut acl = self.codebook.entry_padded(c);
            acl.set(col, allow);
            let code = self.codebook.intern(&acl);
            if prev != Some(code) {
                splice.push((p, code));
                prev = code.into();
            }
        }
        // Boundary at `end`, as in set_run_code.
        if let Some(ec) = end_code {
            let had_entry = self.transitions.get(hi).is_some_and(|&(p, _)| p == end);
            let hi_end = if had_entry { hi + 1 } else { hi };
            if prev != Some(ec) {
                splice.push((end, ec));
            }
            self.transitions.splice(lo..hi_end, splice);
        } else {
            self.transitions.splice(lo..hi, splice);
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
        debug_assert!(self.transitions.len() <= before + 2, "Proposition 1");
    }

    /// Verifies the DOL invariants: first transition at position 0,
    /// strictly ascending positions in range, and no two consecutive
    /// transitions with the same code.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.total == 0 {
            return if self.transitions.is_empty() {
                Ok(())
            } else {
                Err("transitions on an empty document".into())
            };
        }
        if self.transitions.first().map(|&(p, _)| p) != Some(0) {
            return Err("first transition must be at position 0 (the root)".into());
        }
        for w in self.transitions.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("positions out of order at {}", w[1].0));
            }
            if w[0].1 == w[1].1 {
                return Err(format!("redundant transition at {}", w[1].0));
            }
        }
        if let Some(&(p, _)) = self.transitions.last() {
            if p >= self.total {
                return Err("transition past end of document".into());
            }
        }
        Ok(())
    }

    /// Checks this DOL against a ground-truth oracle (test helper).
    pub fn verify_against(&self, oracle: &impl AccessOracle) -> Result<(), String> {
        let mut row = BitVec::zeros(0);
        for pos in 0..self.total {
            oracle.acl_row(NodeId(pos as u32), &mut row);
            for s in 0..row.len() {
                let expect = row.get(s);
                let got = self.accessible(pos, SubjectId(s as u32));
                if got != expect {
                    return Err(format!("pos {pos} subject {s}: dol={got} truth={expect}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::AccessibilityMap;
    use dol_xml::parse;

    /// Figure 1(a): single subject, shaded = accessible.
    #[test]
    fn single_subject_transitions() {
        // Accessibility by position: 1,1,0,0,1,1,1,0,0,1 → transitions at
        // 0(+), 2(−), 4(+), 7(−), 9(+) = 5.
        let col = BitVec::from_fn(10, |i| matches!(i, 0 | 1 | 4 | 5 | 6 | 9));
        let dol = Dol::build_single(&col);
        assert_eq!(dol.transition_count(), 5);
        dol.check_invariants().unwrap();
        for i in 0..10 {
            assert_eq!(dol.accessible(i as u64, SubjectId(0)), col.get(i));
        }
        assert!(dol.codebook().len() <= 2);
    }

    fn two_user_map() -> (dol_xml::Document, AccessibilityMap) {
        let doc = parse("<a><b/><c/><d/><e><f/><g/></e></a>").unwrap();
        let mut map = AccessibilityMap::new(2, doc.len());
        // User 0 sees everything except c; user 1 sees only the subtree of e.
        for p in 0..doc.len() {
            if p != 2 {
                map.set(SubjectId(0), NodeId(p as u32), true);
            }
        }
        for p in 4..7 {
            map.set(SubjectId(1), NodeId(p), true);
        }
        (doc, map)
    }

    #[test]
    fn multi_subject_codebook_compression() {
        let (doc, map) = two_user_map();
        let dol = Dol::build(&doc, &map);
        dol.verify_against(&map).unwrap();
        // ACLs used: 10 (a,b,d), 00 (c), 11 (e,f,g) → 3 codebook entries,
        // transitions at 0, 2, 3, 4.
        assert_eq!(dol.codebook().len(), 3);
        assert_eq!(dol.transition_count(), 4);
    }

    #[test]
    fn stats_accounting() {
        let (doc, map) = two_user_map();
        let dol = Dol::build(&doc, &map);
        let s = dol.stats();
        assert_eq!(s.transitions, 4);
        assert_eq!(s.codebook_entries, 3);
        assert_eq!(s.subjects, 2);
        assert_eq!(s.codebook_bytes, 3); // 2 subjects → 1 byte per entry
        assert_eq!(s.embedded_code_bytes, 4); // ≤256 entries → 1-byte codes
    }

    #[test]
    fn set_node_updates() {
        let (doc, map) = two_user_map();
        let mut dol = Dol::build(&doc, &map);
        let mut map2 = map.clone();
        // Grant user 1 access to node 2 (currently 00).
        dol.set_node(2, SubjectId(1), true);
        map2.set(SubjectId(1), NodeId(2), true);
        dol.verify_against(&map2).unwrap();
        // No-op update is a no-op.
        let t = dol.transition_count();
        dol.set_node(2, SubjectId(1), true);
        assert_eq!(dol.transition_count(), t);
    }

    #[test]
    fn set_subtree_collapses_runs() {
        let (doc, map) = two_user_map();
        let mut dol = Dol::build(&doc, &map);
        // Deny user 0 on the subtree of e = [4, 7). User 1 keeps access
        // as of the run start.
        dol.set_subtree(4, 7, SubjectId(0), false);
        for p in 4..7 {
            assert!(!dol.accessible(p, SubjectId(0)));
            assert!(dol.accessible(p, SubjectId(1)));
        }
        dol.check_invariants().unwrap();
    }

    #[test]
    fn proposition_1_on_random_runs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 64u64;
        let col = BitVec::from_fn(n as usize, |i| i % 3 == 0);
        let mut dol = Dol::build_single(&col);
        for _ in 0..200 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(a + 1..=n);
            let acl = BitVec::from_fn(1, |_| rng.gen_bool(0.5));
            let before = dol.transition_count();
            dol.set_run(a, b, &acl);
            assert!(dol.transition_count() <= before + 2, "Proposition 1");
            dol.check_invariants().unwrap();
        }
    }

    #[test]
    fn worst_case_every_node_transition() {
        // Alternating accessibility: every node is a transition node — the
        // §2.1 worst-case density bound.
        let col = BitVec::from_fn(32, |i| i % 2 == 0);
        let dol = Dol::build_single(&col);
        assert_eq!(dol.transition_count(), 32);
    }
}
