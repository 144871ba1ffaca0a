//! NoK pattern matching — Algorithm 1 (NPM) and its secure variant ε-NoK.
//!
//! A fragment match starts from a candidate data node for the fragment root
//! (seeded by the engine from a tag index) and proceeds by top-down
//! navigation: `FIRST-CHILD` / `FOLLOWING-SIBLING` over the block-oriented
//! encoding, exactly as in the paper. The data children of each matched node
//! are scanned **once**; in secure mode each loaded child's accessibility is
//! checked from the code on its own page (`ACCESS(u)`, Algorithm 1 line 6)
//! and inaccessible children are never recursed into — which is sound for
//! the binding-level (Cho et al.) semantics because an inaccessible node
//! cannot participate in any surviving binding.
//!
//! Where Algorithm 1 reports existence plus the returning node's matches,
//! this implementation enumerates the distinct tuples over the fragment's
//! *output* pattern nodes (fragment root / join anchors / returning node),
//! which is what the structural-join stage consumes. Pattern children whose
//! subtree carries no output are matched existentially with early exit.

use crate::pattern::{Axis, PNodeId, PatternTree};
use crate::plan::{NokTree, QueryPlan};
use dol_acl::SubjectId;
use dol_core::{EmbeddedDol, SubjectColumn};
use dol_storage::disk::StorageError;
use dol_storage::{Deadline, NodeRec, StructStore, ValueStore};
use dol_xml::{TagId, TagInterner};
use std::sync::Arc;

/// A partial result: data positions bound to output pattern nodes,
/// ascending by pattern node id.
pub type Binding = Vec<(PNodeId, u64)>;

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
    /// `Some((dol, subject))` enables ε-NoK accessibility checking.
    pub access: Option<(&'a EmbeddedDol, SubjectId)>,
    /// Decoded accessibility column for the subject, shared by every matcher
    /// (and every worker thread) of one evaluation. When present, the
    /// per-node check is a single shift-and-mask on an immutable snapshot —
    /// no codebook lock, no ACL-entry read.
    pub column: Option<Arc<SubjectColumn>>,
    /// Whether candidates may be rejected from in-memory block headers
    /// without reading their page (§3.3). On by default; the ablation
    /// benchmarks switch it off to isolate its effect.
    pub page_skip: bool,
    /// The evaluation's cooperative time budget, checked between node loads
    /// (every [`DEADLINE_CHECK_MASK`]` + 1` visits). Defaults to
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
        page_skip: bool,
    ) -> Self {
        let column = access.map(|(dol, s)| dol.column(s));
        Self {
            store,
            values,
            tags,
            access,
            column,
            page_skip,
            deadline: Deadline::never(),
        }
    }

    /// Whether the node whose code is `code` is accessible (always true in
    /// unsecured mode).
    #[inline]
    pub fn code_accessible(&self, code: u32) -> bool {
        match (&self.column, self.access) {
            (Some(col), _) => col.check_code(code),
            (None, Some((dol, s))) => dol.check_code(code, s),
            (None, None) => true,
        }
    }
}

/// Counters accumulated during matching.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MatchStats {
    /// Data nodes loaded (structure + piggy-backed code).
    pub nodes_visited: u64,
    /// Nodes rejected by the accessibility check.
    pub nodes_denied: u64,
    /// Candidate roots rejected without any page read thanks to the
    /// in-memory block-header skip test.
    pub candidates_block_skipped: u64,
    /// Reads that failed (corrupt or unreadable page) during secure
    /// evaluation and were treated as entirely inaccessible instead of
    /// aborting — the fail-closed policy. Always 0 in unsecured mode, where
    /// storage errors propagate to the caller.
    pub blocks_failed_closed: u64,
}

/// Matches one NoK fragment of a plan against the data.
pub struct FragmentMatcher<'a> {
    ctx: &'a MatchContext<'a>,
    pattern: &'a PatternTree,
    /// Resolved tag of each pattern node (`None` = wildcard; `Some(None)` is
    /// represented by `unmatchable`).
    tag_of: Vec<Option<TagId>>,
    /// Pattern nodes whose tag does not exist in the document at all.
    unmatchable: Vec<bool>,
    /// Whether each pattern node's fragment-subtree contains an output.
    carries_output: Vec<bool>,
    /// Whether each pattern node is itself an output.
    is_output: Vec<bool>,
    tree: &'a NokTree,
    /// Match counters.
    pub stats: MatchStats,
}

impl<'a> FragmentMatcher<'a> {
    /// Prepares a matcher for fragment `tree_idx` of `plan`.
    pub fn new(ctx: &'a MatchContext<'a>, plan: &'a QueryPlan, tree_idx: usize) -> Self {
        let pattern = &plan.pattern;
        let tree = &plan.trees[tree_idx];
        let n = pattern.len();
        let mut tag_of = vec![None; n];
        let mut unmatchable = vec![false; n];
        for id in pattern.iter() {
            if let Some(name) = &pattern.node(id).tag {
                match ctx.tags.get(name) {
                    Some(t) => tag_of[id.index()] = Some(t),
                    None => unmatchable[id.index()] = true,
                }
            }
        }
        let mut is_output = vec![false; n];
        for &o in &tree.outputs {
            is_output[o.index()] = true;
        }
        // carries_output via child-edge closure, computed members-last-first
        // (members are in preorder, so children come after parents).
        let mut carries_output = is_output.clone();
        for &m in tree.members.iter().rev() {
            if carries_output[m.index()] {
                continue;
            }
            let any = pattern
                .node(m)
                .children
                .iter()
                .filter(|&&c| pattern.node(c).axis != Axis::Descendant)
                .any(|&c| carries_output[c.index()]);
            if any {
                carries_output[m.index()] = true;
            }
        }
        Self {
            ctx,
            pattern,
            tag_of,
            unmatchable,
            carries_output,
            is_output,
            tree,
            stats: MatchStats::default(),
        }
    }

    /// Whether this fragment can match anything at all (false when a pattern
    /// tag does not occur in the document).
    pub fn is_satisfiable(&self) -> bool {
        !self
            .tree
            .members
            .iter()
            .any(|m| self.unmatchable[m.index()])
    }

    /// The resolved tag of the fragment root (`None` = wildcard).
    pub fn root_tag(&self) -> Option<TagId> {
        self.tag_of[self.tree.root.index()]
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

    /// Loads a node record and its piggy-backed code, applying the
    /// fail-closed policy: in secure mode a storage error yields `Ok(None)`
    /// ("treat as inaccessible") and bumps `blocks_failed_closed`. Deadline
    /// expiry and breaker refusal are availability outcomes, not data
    /// faults, and always propagate. The context's deadline is re-checked
    /// here every [`DEADLINE_CHECK_MASK`]` + 1` node visits.
    fn load_node(&mut self, pos: u64) -> Result<Option<(NodeRec, u32)>, StorageError> {
        if self.stats.nodes_visited & DEADLINE_CHECK_MASK == 0 {
            self.ctx.deadline.check()?;
        }
        match self.ctx.store.node_and_code(pos) {
            Ok(nc) => Ok(Some(nc)),
            Err(e) if self.fail_closed() && !is_availability(&e) => {
                self.stats.blocks_failed_closed += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// FOLLOWING-SIBLING with the fail-closed policy: in secure mode a
    /// storage error truncates the sibling chain instead of aborting
    /// (availability outcomes excepted — see [`load_node`](Self::load_node)).
    fn next_sibling(&mut self, pos: u64, rec: &NodeRec) -> Result<Option<u64>, StorageError> {
        match self.ctx.store.following_sibling_of(pos, rec) {
            Ok(next) => Ok(next),
            Err(e) if self.fail_closed() && !is_availability(&e) => {
                self.stats.blocks_failed_closed += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Attempts to match the fragment with its root bound to `pos`.
    /// Returns the distinct output bindings (empty = no match). The
    /// candidate's own tag/value/accessibility are (re)checked here.
    pub fn match_root(&mut self, pos: u64) -> Result<Vec<Binding>, StorageError> {
        if !self.is_satisfiable() {
            return Ok(Vec::new());
        }
        // Page-skip fast path (§3.3): decided from the in-memory header.
        if let Some((dol, s)) = self.ctx.access.filter(|_| self.ctx.page_skip) {
            let block = self.ctx.store.block_of_pos(pos);
            let skippable = match &self.ctx.column {
                Some(col) => dol.block_skippable_with(self.ctx.store, block, col),
                None => dol.block_skippable(self.ctx.store, block, s),
            };
            if skippable {
                self.stats.candidates_block_skipped += 1;
                self.ctx.store.pool().note_pages_skipped(1);
                return Ok(Vec::new());
            }
        }
        let Some((rec, code)) = self.load_node(pos)? else {
            return Ok(Vec::new());
        };
        self.stats.nodes_visited += 1;
        if !self.ctx.code_accessible(code) {
            self.stats.nodes_denied += 1;
            return Ok(Vec::new());
        }
        if !self.node_matches(self.tree.root, pos, &rec)? {
            return Ok(Vec::new());
        }
        self.enum_node(self.tree.root, pos, &rec)
    }

    /// Tag and value test of `pnode` against the data node at `pos`.
    fn node_matches(
        &mut self,
        pnode: PNodeId,
        pos: u64,
        rec: &NodeRec,
    ) -> Result<bool, StorageError> {
        let p = self.pattern.node(pnode);
        if let Some(t) = self.tag_of[pnode.index()] {
            if rec.tag != t {
                return Ok(false);
            }
        } else if p.tag.is_some() {
            return Ok(false); // tag not present in document
        }
        if let Some(v) = &p.value {
            if !rec.has_value {
                return Ok(false);
            }
            let actual = match self.ctx.values.get(pos) {
                Ok(a) => a,
                Err(e) if self.fail_closed() && !is_availability(&e) => {
                    // An unverifiable value cannot witness the predicate.
                    self.stats.blocks_failed_closed += 1;
                    return Ok(false);
                }
                Err(e) => return Err(e),
            };
            match actual {
                Some(actual) if &actual == v => {}
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Enumerates output bindings for `pnode` matched at `pos` (whose
    /// tag/value/access checks already passed).
    fn enum_node(
        &mut self,
        pnode: PNodeId,
        pos: u64,
        rec: &NodeRec,
    ) -> Result<Vec<Binding>, StorageError> {
        let pchildren: Vec<PNodeId> = self
            .pattern
            .node(pnode)
            .children
            .iter()
            .copied()
            .filter(|&c| self.pattern.node(c).axis == Axis::Child)
            .collect();
        let psiblings: Vec<PNodeId> = self
            .pattern
            .node(pnode)
            .children
            .iter()
            .copied()
            .filter(|&c| self.pattern.node(c).axis == Axis::FollowingSibling)
            .collect();
        let own: Binding = if self.is_output[pnode.index()] {
            vec![(pnode, pos)]
        } else {
            Vec::new()
        };
        if pchildren.is_empty() && psiblings.is_empty() {
            return Ok(vec![own]);
        }
        // Child-axis pattern nodes: scan the data children once
        // (Algorithm 1's repeat loop over FIRST-CHILD/FOLLOWING-SIBLING).
        let first = self.ctx.store.first_child_of(pos, rec);
        let child_results = self.scan_kin(&pchildren, first)?;
        // Following-sibling pattern nodes: the second next-of-kin
        // relationship; scan this node's own following siblings.
        let next = self.next_sibling(pos, rec)?;
        let sib_results = self.scan_kin(&psiblings, next)?;
        let (Some(child_results), Some(sib_results)) = (child_results, sib_results) else {
            return Ok(Vec::new());
        };
        // Cross-product the per-pattern-node binding sets onto `own`.
        let mut acc: Vec<Binding> = vec![own];
        for (&c, results) in pchildren
            .iter()
            .zip(&child_results)
            .chain(psiblings.iter().zip(&sib_results))
        {
            if !self.carries_output[c.index()] {
                continue; // purely existential: contributes nothing
            }
            let mut next = Vec::with_capacity(acc.len() * results.len());
            for base in &acc {
                for add in results {
                    let mut merged = base.clone();
                    merged.extend(add.iter().copied());
                    next.push(merged);
                }
            }
            acc = next;
        }
        for b in &mut acc {
            b.sort_unstable_by_key(|&(p, _)| p);
        }
        acc.sort_unstable();
        acc.dedup();
        Ok(acc)
    }

    /// Matches the pattern nodes `pats` against the data-node chain starting
    /// at `start` and linked by FOLLOWING-SIBLING, with per-node
    /// accessibility checks. Returns `None` if some pattern node found no
    /// witness, else one binding set per pattern node.
    fn scan_kin(
        &mut self,
        pats: &[PNodeId],
        start: Option<u64>,
    ) -> Result<Option<Vec<Vec<Binding>>>, StorageError> {
        let mut results: Vec<Vec<Binding>> = vec![Vec::new(); pats.len()];
        if pats.is_empty() {
            return Ok(Some(results));
        }
        let mut satisfied: Vec<bool> = vec![false; pats.len()];
        let mut u = start;
        while let Some(upos) = u {
            // Fail-closed: an unreadable link truncates the kin chain — the
            // remaining siblings are unreachable, hence hidden.
            let Some((urec, ucode)) = self.load_node(upos)? else {
                break;
            };
            self.stats.nodes_visited += 1;
            if self.ctx.code_accessible(ucode) {
                for (i, &c) in pats.iter().enumerate() {
                    // Existential pattern nodes stop at the first witness.
                    if satisfied[i] && !self.carries_output[c.index()] {
                        continue;
                    }
                    if self.node_matches(c, upos, &urec)? {
                        let bs = self.enum_node(c, upos, &urec)?;
                        if !bs.is_empty() {
                            satisfied[i] = true;
                            results[i].extend(bs);
                        }
                    }
                }
            } else {
                self.stats.nodes_denied += 1;
            }
            // Early exit once everything is satisfied and no further scan
            // can add output bindings.
            if satisfied.iter().all(|&s| s) && pats.iter().all(|&c| !self.carries_output[c.index()])
            {
                break;
            }
            u = self.next_sibling(upos, &urec)?;
        }
        if satisfied.iter().any(|&s| !s) {
            return Ok(None);
        }
        Ok(Some(results))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_query;
    use dol_acl::{AccessibilityMap, FnOracle};
    use dol_storage::{BufferPool, MemDisk, StoreConfig};
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

    fn run(
        f: &Fixture,
        query: &str,
        secure: Option<SubjectId>,
        candidates: &[u64],
    ) -> Vec<Vec<(u32, u64)>> {
        let plan = QueryPlan::new(parse_query(query).unwrap());
        let ctx = MatchContext::new(
            &f.store,
            &f.values,
            f.doc.tags(),
            secure.map(|s| (&f.dol, s)),
            true,
        );
        let mut m = FragmentMatcher::new(&ctx, &plan, 0);
        let mut out = Vec::new();
        for &c in candidates {
            for b in m.match_root(c).unwrap() {
                out.push(b.into_iter().map(|(p, d)| (p.0, d)).collect());
            }
        }
        out
    }

    const FIG2: &str = "<a><b/><c/><d/><e><f/><g/><h><i/><j/><k/><l/></h></e></a>";

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
        let mut nodes: Vec<u64> = res.iter().map(|b| b[0].1).collect();
        nodes.sort_unstable();
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
    }

    #[test]
    fn wildcard_steps() {
        let f = fixture(FIG2, None, 300);
        let res = run(&f, "/a/*", None, &[0]);
        assert_eq!(res.len(), 4); // b, c, d, e
    }

    #[test]
    fn secure_matching_prunes_denied_nodes() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
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
    fn denied_candidate_root_fails_fast() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        map.set(SubjectId(0), NodeId(0), true); // only the root accessible
        let f = fixture(FIG2, Some(&map), 300);
        assert!(run(&f, "//h", Some(SubjectId(0)), &[7]).is_empty());
        assert_eq!(run(&f, "/a", Some(SubjectId(0)), &[0]).len(), 1);
    }

    #[test]
    fn block_skip_counts() {
        let doc = parse(FIG2).unwrap();
        // Deny everything: with tiny blocks all candidate lookups should be
        // rejected from the in-memory headers.
        let map = AccessibilityMap::new(1, doc.len());
        let f = fixture(FIG2, Some(&map), 2);
        let plan = QueryPlan::new(parse_query("//h").unwrap());
        let ctx = MatchContext::new(
            &f.store,
            &f.values,
            f.doc.tags(),
            Some((&f.dol, SubjectId(0))),
            true,
        );
        let mut m = FragmentMatcher::new(&ctx, &plan, 0);
        f.store.pool().reset_stats();
        assert!(m.match_root(7).unwrap().is_empty());
        assert_eq!(m.stats.candidates_block_skipped, 1);
        assert_eq!(f.store.pool().stats().logical_reads, 0, "no page touched");
        assert_eq!(f.store.pool().stats().pages_skipped, 1, "skip counted");
    }

    #[test]
    fn expired_deadline_is_never_masked_by_fail_closed() {
        let doc = parse(FIG2).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let f = fixture(FIG2, Some(&map), 300);
        let plan = QueryPlan::new(parse_query("//h[j][k]/l").unwrap());
        let mut ctx = MatchContext::new(
            &f.store,
            &f.values,
            f.doc.tags(),
            Some((&f.dol, SubjectId(0))),
            true,
        );
        ctx.deadline = Deadline::after(std::time::Duration::ZERO);
        let mut m = FragmentMatcher::new(&ctx, &plan, 0);
        // Secure mode would normally mask storage errors; the deadline must
        // abort the match instead of shrinking the answer.
        assert!(matches!(
            m.match_root(7),
            Err(StorageError::DeadlineExceeded)
        ));
        assert_eq!(m.stats.blocks_failed_closed, 0, "not a data fault");

        // Cancellation through a token behaves identically.
        let mut ctx2 = MatchContext::new(
            &f.store,
            &f.values,
            f.doc.tags(),
            Some((&f.dol, SubjectId(0))),
            true,
        );
        ctx2.deadline = Deadline::never();
        ctx2.deadline.token().cancel();
        let mut m2 = FragmentMatcher::new(&ctx2, &plan, 0);
        assert!(matches!(
            m2.match_root(7),
            Err(StorageError::DeadlineExceeded)
        ));
    }

    #[test]
    fn unmatchable_tag_short_circuits() {
        let f = fixture(FIG2, None, 300);
        let res = run(&f, "//nosuchtag", None, &[0]);
        assert!(res.is_empty());
    }
}
