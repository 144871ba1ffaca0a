//! The query engine: candidates → fragment matches → joins → answers.

use crate::compiled::{
    CompiledMatcher, CompiledPlan, MatchContext, MatchStats, SnapshotCache, VisibleExtents,
};
use crate::index::NodeIndex;
use crate::join::{join_tables, TupleTable, VisibilityChecker};
use crate::pattern::PNodeId;
use crate::plan::{NokTree, QueryPlan};
use crate::xpath::{parse_query, QueryParseError};
use dol_acl::SubjectId;
use dol_core::EmbeddedDol;
use dol_storage::disk::StorageError;
use dol_storage::{with_io_deadline, Deadline, IoStats, StructStore, ValueStore};
use dol_xml::{TagId, TagInterner};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// The security mode of one evaluation. `Hash`/`Eq` so a (query, security)
/// pair can key a result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Security {
    /// Unsecured evaluation (the plain NoK baseline).
    None,
    /// ε-NoK / Cho et al. semantics: a binding is discarded iff one of its
    /// bound data nodes is inaccessible to the subject (paper §4).
    BindingLevel(SubjectId),
    /// Gabillon–Bruno semantics (§4.2): additionally, every ancestor of
    /// every bound node must be accessible — an inaccessible node hides its
    /// entire subtree.
    SubtreeVisibility(SubjectId),
}

impl Security {
    /// The subject whose rights the mode enforces (`None` when unsecured).
    pub fn subject(self) -> Option<SubjectId> {
        match self {
            Security::None => None,
            Security::BindingLevel(s) | Security::SubtreeVisibility(s) => Some(s),
        }
    }
}

/// Errors from query evaluation.
#[derive(Debug)]
pub enum QueryError {
    /// The query string failed to parse.
    Parse(QueryParseError),
    /// The storage layer failed.
    Storage(StorageError),
    /// A secure mode was requested on an engine built without a DOL.
    NoAccessControl,
    /// The evaluation's [`ExecOptions::deadline`] expired (or was cancelled)
    /// mid-query. The boxed stats describe the *partial* work done before
    /// the abort — counters and I/O only, never a partial answer.
    DeadlineExceeded(Box<ExecStats>),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Storage(e) => write!(f, "{e}"),
            QueryError::NoAccessControl => {
                write!(f, "secure evaluation requested but no DOL is attached")
            }
            QueryError::DeadlineExceeded(stats) => write!(
                f,
                "query deadline exceeded after visiting {} node(s)",
                stats.nodes_visited
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<QueryParseError> for QueryError {
    fn from(e: QueryParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// Execution options (ablation knobs plus the evaluation's time budget).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Enable the §3.3 page-skip optimization (default: true).
    pub page_skip: bool,
    /// Cooperative deadline/cancellation for the whole evaluation (default:
    /// [`Deadline::never`]). The matcher checks it between node loads and
    /// the buffer pool between retry attempts; expiry aborts the query with
    /// [`QueryError::DeadlineExceeded`] carrying the partial-work stats —
    /// never with a partial answer, and never masked by fail-closed.
    pub deadline: Deadline,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            page_skip: true,
            deadline: Deadline::never(),
        }
    }
}

/// Per-query execution statistics (the measured quantities of §5.2).
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecStats {
    /// Candidate fragment roots considered.
    pub candidates: u64,
    /// Data nodes loaded during matching.
    pub nodes_visited: u64,
    /// Nodes rejected by accessibility checks.
    pub nodes_denied: u64,
    /// Candidates rejected from in-memory block headers without I/O.
    pub blocks_skipped: u64,
    /// Candidates of a walked descendant-side fragment that survived header
    /// pruning but lie outside every one of its anchors' subtrees: dropped
    /// before matching, because the join would discard their matches.
    pub candidates_outside_anchors: u64,
    /// Candidates that survived both prunings and were classified one by
    /// one (`candidates - blocks_skipped - candidates_outside_anchors`): the
    /// work that follows what the subject can see rather than what the
    /// index lists.
    pub candidates_examined: u64,
    /// Tuples the structural joins emitted: one per ancestor–descendant
    /// pair where both sides still carry a live column, one per surviving
    /// row where the join ran as a semi-join.
    pub join_pairs: u64,
    /// Path nodes inspected by the subtree-visibility checker (ε-STD only).
    pub visibility_nodes: u64,
    /// Storage failures masked as inaccessibility during secure evaluation
    /// (the fail-closed policy). Always 0 in [`Security::None`], where
    /// storage errors abort the query instead.
    pub blocks_failed_closed: u64,
    /// Buffer-pool I/O incurred by this query.
    pub io: IoStats,
    /// Wall-clock evaluation time.
    pub elapsed: Duration,
}

impl ExecStats {
    /// Folds one matcher's counters in.
    fn add_match(&mut self, m: &MatchStats) {
        self.nodes_visited += m.nodes_visited;
        self.nodes_denied += m.nodes_denied;
        self.blocks_failed_closed += m.blocks_failed_closed;
    }
}

/// The result of one evaluation.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Document positions bound to the returning node, ascending, distinct —
    /// the "answers returned" of Figure 7.
    pub matches: Vec<u64>,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// A query engine over one secured (or unsecured) document store and the
/// [`NodeIndex`] that seeds its matching.
pub struct QueryEngine<'a> {
    store: &'a StructStore,
    values: &'a ValueStore,
    tags: &'a TagInterner,
    dol: Option<&'a EmbeddedDol>,
    index: &'a NodeIndex,
}

impl<'a> QueryEngine<'a> {
    /// An engine over `store` seeded from `index`, which the caller built
    /// from that same store and keeps current.
    pub fn new(
        store: &'a StructStore,
        values: &'a ValueStore,
        tags: &'a TagInterner,
        dol: Option<&'a EmbeddedDol>,
        index: &'a NodeIndex,
    ) -> Self {
        Self {
            store,
            values,
            tags,
            dol,
            index,
        }
    }

    /// The positions of every node with `tag` (ascending), or of every node
    /// for the wildcard. Borrows straight from the index — a candidate list
    /// is consulted once per query, and cloning (or re-sorting) the hottest
    /// tag's full position vector per call dominated the serve mix. Index
    /// lists are built by one document-order scan and are therefore already
    /// strictly ascending; that invariant is debug-asserted here (the leaf
    /// fast path and the join sort-elision depend on it) instead of
    /// re-sorted away.
    pub fn candidates(&self, tag: Option<TagId>) -> Cow<'_, [u64]> {
        match tag {
            Some(t) => borrowed_doc_order(self.index.by_tag(t)),
            None => Cow::Owned((0..self.store.total_nodes()).collect()),
        }
    }

    /// Candidate positions for a fragment root with an optional value
    /// constraint, which narrows the list through the tag+value half of the
    /// index (hash collisions are re-checked by the matcher).
    pub fn candidates_for(&self, tag: Option<TagId>, value: Option<&str>) -> Cow<'_, [u64]> {
        match (tag, value) {
            (Some(t), Some(v)) => borrowed_doc_order(self.index.by_value(t, v)),
            _ => self.candidates(tag),
        }
    }

    /// Parses and evaluates `query` under `security`.
    pub fn execute(&self, query: &str, security: Security) -> Result<QueryResult, QueryError> {
        let plan = QueryPlan::new(parse_query(query)?);
        self.execute_plan(&plan, security)
    }

    /// Evaluates a pre-built plan.
    pub fn execute_plan(
        &self,
        plan: &QueryPlan,
        security: Security,
    ) -> Result<QueryResult, QueryError> {
        self.execute_plan_opts(plan, security, ExecOptions::default())
    }

    /// Evaluates a pre-built plan with explicit execution options.
    ///
    /// The options' [`deadline`](ExecOptions::deadline) is installed as the
    /// calling thread's I/O deadline for the duration;
    /// on expiry the query aborts with [`QueryError::DeadlineExceeded`]
    /// carrying the counters and I/O accumulated so far.
    ///
    /// The plan is lowered to a [`CompiledPlan`] for this call; long-lived
    /// callers should cache the lowering and use
    /// [`execute_compiled_opts`](Self::execute_compiled_opts).
    pub fn execute_plan_opts(
        &self,
        plan: &QueryPlan,
        security: Security,
        opts: ExecOptions,
    ) -> Result<QueryResult, QueryError> {
        let compiled = CompiledPlan::compile(plan, self.tags);
        self.run_timed(plan, &compiled, security, &opts)
    }

    /// Evaluates a plan through a pre-lowered automaton (normally from the
    /// [`PlanCache`](crate::cache::PlanCache)). A lowering that is stale for
    /// this engine's tag space ([`CompiledPlan::is_current`]) is replaced by
    /// an ephemeral recompile — correctness never depends on freshness, only
    /// the reuse does.
    pub fn execute_compiled_opts(
        &self,
        plan: &QueryPlan,
        compiled: &CompiledPlan,
        security: Security,
        opts: ExecOptions,
    ) -> Result<QueryResult, QueryError> {
        if compiled.is_current(self.tags) {
            self.run_timed(plan, compiled, security, &opts)
        } else {
            self.execute_plan_opts(plan, security, opts)
        }
    }

    /// Timing, I/O delta, and deadline-abort plumbing around the pipeline.
    fn run_timed(
        &self,
        plan: &QueryPlan,
        compiled: &CompiledPlan,
        security: Security,
        opts: &ExecOptions,
    ) -> Result<QueryResult, QueryError> {
        let start = Instant::now();
        let io_before = self.store.pool().stats();
        let mut stats = ExecStats::default();
        let outcome = with_io_deadline(&opts.deadline, || {
            self.run_pipeline(plan, compiled, security, opts, &mut stats)
        });
        stats.candidates_examined =
            stats.candidates - stats.blocks_skipped - stats.candidates_outside_anchors;
        stats.io = self.store.pool().stats().since(&io_before);
        stats.elapsed = start.elapsed();
        match outcome {
            Ok(matches) => Ok(QueryResult { matches, stats }),
            Err(QueryError::Storage(StorageError::DeadlineExceeded)) => {
                Err(QueryError::DeadlineExceeded(Box::new(stats)))
            }
            Err(e) => Err(e),
        }
    }

    /// The per-evaluation match context: the subject's decoded column and
    /// the deadline.
    fn match_context(
        &self,
        security: Security,
        opts: &ExecOptions,
    ) -> Result<MatchContext<'_>, QueryError> {
        let access = match (security.subject(), self.dol) {
            (Some(s), Some(dol)) => Some((dol, s)),
            (Some(_), None) => return Err(QueryError::NoAccessControl),
            (None, _) => None,
        };
        let mut ctx = MatchContext::new(self.store, self.values, self.tags, access);
        ctx.deadline = opts.deadline.clone();
        Ok(ctx)
    }

    /// Stage 1: candidates seeded from the tag(+value) index and matched
    /// through [`CompiledMatcher`] — with the §3.3 skip decided **once** per
    /// evaluation (word-parallel, from in-memory headers) and turned into
    /// [`VisibleExtents`] that every fragment's candidate list is
    /// intersected with before any matcher runs, a walked fragment on the
    /// descendant side of a join narrowed further to its anchors' cover, and
    /// single-node fragments routed through the compressed-domain leaf fast
    /// path. Split out of
    /// [`run_timed`](Self::run_timed) so the caller can attach the partial
    /// stats to a deadline abort.
    fn run_pipeline(
        &self,
        plan: &QueryPlan,
        compiled: &CompiledPlan,
        security: Security,
        opts: &ExecOptions,
        stats: &mut ExecStats,
    ) -> Result<Vec<u64>, QueryError> {
        let ctx = self.match_context(security, opts)?;
        // GB semantics need every fragment root exported so its ancestor
        // path can be checked; a flag does it without re-lowering the plan
        // (sound because a fragment root never appears in its own kin table).
        let force_root_output = matches!(security, Security::SubtreeVisibility(_));
        // One word-parallel pass over the in-memory block directory decides
        // the skip for every candidate. Purely in-memory: no I/O.
        let extents = match &ctx.access {
            Some((dol, col)) if opts.page_skip => {
                VisibleExtents::from_skip_mask(self.store, &dol.block_skip_mask(self.store, col))
            }
            _ => VisibleExtents::all(self.store.total_nodes()),
        };
        debug_assert_eq!(
            compiled.fragments().len(),
            plan.trees.len(),
            "compiled plan must be lowered from this query plan"
        );
        // Shared per-execution snapshot cache: the leaf fast path, the
        // visibility filter and the join's ancestor-interval fetch latch
        // each distinct block at most once between them.
        let mut snaps = SnapshotCache::new();
        let mut tables: Vec<TupleTable> = Vec::with_capacity(plan.trees.len());
        for (i, tree) in plan.trees.iter().enumerate() {
            let frag = compiled.fragment(i);
            let anchored_root = i == 0 && plan.pattern.anchored();
            let candidates: Cow<'_, [u64]> = if anchored_root {
                Cow::Owned(vec![0u64])
            } else if frag.is_satisfiable() {
                self.candidates_for(frag.root_tag(), frag.root_value())
            } else {
                Cow::Owned(Vec::new())
            };
            stats.candidates += candidates.len() as u64;
            // Candidates in skippable blocks are counted, never visited: the
            // count is an index difference per gap between extents.
            let mut pruned = extents.prune(&candidates);
            stats.blocks_skipped += pruned.skipped;
            self.store.pool().note_pages_skipped(pruned.skipped);
            // Semi-join pushdown: a walked fragment below a join (its anchor
            // tree, the lesser index, is matched already) starts only inside
            // its anchors' subtrees — the join would discard the rest. Leaf
            // fragments skip it: their fast path is cheaper than the cover,
            // and the join's semi-join merge drops outsiders in one pass.
            if i > 0 && !frag.is_leaf() && !pruned.runs.is_empty() {
                let join = plan
                    .joins
                    .iter()
                    .find(|j| j.desc_tree == i)
                    .expect("every fragment but the first is a join's descendant side");
                let anc = &tables[join.anc_tree];
                let cover = self.anchor_cover(
                    anc,
                    col_of(anc, join.anc_pnode),
                    security.subject().is_some(),
                    &mut snaps,
                    stats,
                )?;
                let mut inside = Vec::with_capacity(pruned.runs.len());
                for run in pruned.runs {
                    let narrowed = cover.prune(run);
                    stats.candidates_outside_anchors += narrowed.skipped;
                    inside.extend(narrowed.runs);
                }
                pruned.runs = inside;
            }
            let cols = fragment_cols(tree, force_root_output);
            // The leaf fast path classifies whole blocks in the compressed
            // domain; it requires candidates drawn from the index (an
            // anchored root's `[0]` is not).
            let mut m = CompiledMatcher::new(&ctx, frag, force_root_output);
            let mut table = TupleTable::new(cols);
            if frag.is_leaf() && !anchored_root {
                for run in &pruned.runs {
                    m.match_leaf_candidates(run, &mut snaps, &mut table)?;
                }
            } else {
                for &c in pruned.runs.iter().copied().flatten() {
                    m.match_root(c, &mut table)?;
                }
            }
            stats.add_match(&m.stats);
            tables.push(table);
        }
        self.finish_pipeline(plan, security, &ctx, &extents, tables, stats, &mut snaps)
    }

    /// Stages 2–4: the subtree-visibility filter, the bottom-up structural
    /// joins, and the returning-node projection, all over one
    /// [`TupleTable`] per fragment.
    /// Path nodes and join anchors are decoded from the execution's shared
    /// [`SnapshotCache`] — one page access per distinct block.
    #[allow(clippy::too_many_arguments)]
    fn finish_pipeline(
        &self,
        plan: &QueryPlan,
        security: Security,
        ctx: &MatchContext<'_>,
        extents: &VisibleExtents,
        mut tables: Vec<TupleTable>,
        stats: &mut ExecStats,
        snaps: &mut SnapshotCache,
    ) -> Result<Vec<u64>, QueryError> {
        // 2. Subtree-visibility filter on fragment-root bindings.
        if let Security::SubtreeVisibility(_) = security {
            let Some((_, column)) = &ctx.access else {
                return Err(QueryError::NoAccessControl);
            };
            for (tree, table) in plan.trees.iter().zip(&mut tables) {
                if table.is_empty() {
                    continue;
                }
                let root = col_of(table, tree.root);
                // Check in document order so the checker can share paths.
                table.sort_by_col(root);
                let mut checker = VisibilityChecker::new(self.store, column, extents, snaps);
                let mut keep = Vec::with_capacity(table.len());
                for t in 0..table.len() {
                    keep.push(checker.check(table.get(t, root))?);
                }
                stats.visibility_nodes += checker.nodes_inspected;
                // Subtree visibility is always a secure mode: an
                // unverifiable ancestor path fails closed.
                stats.blocks_failed_closed += checker.failed_closed;
                table.retain(|t| keep[t]);
            }
        }

        // 3. Structural joins, bottom-up (desc_tree is always the greater
        //    index, so reverse order folds leaves into their ancestors).
        let returning = plan.pattern.returning();
        for (k, join) in plan.joins.iter().enumerate().rev() {
            let mut desc = std::mem::take(&mut tables[join.desc_tree]);
            let mut anc = std::mem::take(&mut tables[join.anc_tree]);
            // The columns anything downstream still reads: the answer, the
            // anchors of this tree's joins yet to run (earlier in the list),
            // and the tree's root while it is still to be a descendant side.
            let mut live = vec![returning];
            live.extend(
                plan.joins[..k]
                    .iter()
                    .filter(|j| j.anc_tree == join.anc_tree)
                    .map(|j| j.anc_pnode),
            );
            if join.anc_tree != 0 {
                live.push(plan.trees[join.anc_tree].root);
            }
            if desc.is_empty() {
                // Nothing can join: spare the anchors' interval fetch.
                anc.clear();
            }
            let anc_col = col_of(&anc, join.anc_pnode);
            let desc_col = col_of(&desc, plan.trees[join.desc_tree].root);
            anc.sort_by_col(anc_col);
            desc.sort_by_col(desc_col);
            let intervals =
                self.anchor_intervals(&anc, anc_col, security.subject().is_some(), snaps, stats)?;
            let (joined, emitted) = join_tables(&anc, anc_col, &intervals, &desc, desc_col, &live);
            stats.join_pairs += emitted;
            tables[join.anc_tree] = joined;
        }

        // 4. Project the returning node.
        let answer = tables.swap_remove(0);
        let col = col_of(&answer, returning);
        Ok(answer.into_column(col))
    }

    /// The subtree interval `[pos, pos + size)` of every anchor in column
    /// `col` of `anc` (sorted by that column), decoded from the snapshot
    /// cache. A block that failed closed hides its anchors: each gets the
    /// empty interval, which joins with nothing, and counts once per row.
    /// So does, in secure mode, an anchor whose record claims a size of 0 or
    /// a subtree past the store; unsecured evaluation returns the
    /// [`StorageError::CorruptSubtree`].
    fn anchor_intervals(
        &self,
        anc: &TupleTable,
        col: usize,
        fail_closed: bool,
        snaps: &mut SnapshotCache,
        stats: &mut ExecStats,
    ) -> Result<Vec<(u64, u64)>, StorageError> {
        let mut intervals = Vec::with_capacity(anc.len());
        for i in 0..anc.len() {
            let pos = anc.get(i, col);
            let end = self.subtree_end(pos, fail_closed, snaps)?;
            let end = end.unwrap_or_else(|| {
                stats.blocks_failed_closed += 1;
                pos
            });
            intervals.push((pos, end));
        }
        Ok(intervals)
    }

    /// The cover of the anchors in column `col` of `anc`: the union of their
    /// strict-descendant intervals `[pos + 1, end)`. Subtree intervals nest
    /// or are disjoint, so in ascending order an anchor that starts before
    /// the end covered so far lies inside the last interval and is never
    /// decoded. An anchor that fails closed (as in
    /// [`anchor_intervals`](Self::anchor_intervals), and counted the same
    /// way) adds nothing, so a fault can only shrink the cover.
    fn anchor_cover(
        &self,
        anc: &TupleTable,
        col: usize,
        fail_closed: bool,
        snaps: &mut SnapshotCache,
        stats: &mut ExecStats,
    ) -> Result<VisibleExtents, StorageError> {
        let mut anchors: Vec<u64> = (0..anc.len()).map(|i| anc.get(i, col)).collect();
        anchors.sort_unstable();
        let mut ranges = Vec::new();
        let mut covered = 0;
        for pos in anchors {
            if pos < covered {
                continue;
            }
            match self.subtree_end(pos, fail_closed, snaps)? {
                Some(end) => {
                    if end > pos + 1 {
                        ranges.push((pos + 1, end));
                    }
                    covered = end;
                }
                None => stats.blocks_failed_closed += 1,
            }
        }
        Ok(VisibleExtents::from_ranges(ranges))
    }

    /// The end of `pos`'s subtree, decoded from the snapshot cache.
    /// `Ok(None)` in secure mode when its block failed closed or its record
    /// claims a size of 0 or a subtree past the store; unsecured evaluation
    /// returns the [`StorageError`].
    fn subtree_end(
        &self,
        pos: u64,
        fail_closed: bool,
        snaps: &mut SnapshotCache,
    ) -> Result<Option<u64>, StorageError> {
        let Some((snap, slot)) = snaps.at(self.store, pos, fail_closed)? else {
            return Ok(None);
        };
        match snap.node(slot).subtree_end(pos, self.store.total_nodes()) {
            Ok(end) => Ok(Some(end)),
            Err(e) if !fail_closed => Err(e),
            Err(_) => Ok(None),
        }
    }
}

/// The columns of fragment `tree`'s match table: its outputs, plus its root
/// when subtree visibility needs every root exported; ascending.
fn fragment_cols(tree: &NokTree, force_root: bool) -> Vec<PNodeId> {
    let mut cols = tree.outputs.clone();
    if force_root && !cols.contains(&tree.root) {
        cols.push(tree.root);
    }
    cols.sort_unstable();
    cols
}

/// The column of `table` bound to `pnode`.
fn col_of(table: &TupleTable, pnode: PNodeId) -> usize {
    table
        .col_of(pnode)
        .expect("pattern node is a live output of its fragment")
}

/// Borrows an index list as a candidate list. Debug invariant behind the
/// no-re-sort policy: index lists are produced by one document-order scan
/// and must be strictly ascending.
fn borrowed_doc_order(list: &[u64]) -> Cow<'_, [u64]> {
    debug_assert!(
        list.windows(2).all(|w| w[0] < w[1]),
        "index candidate list must be strictly ascending in document order"
    );
    Cow::Borrowed(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{naive_eval, RefSecurity};
    use dol_acl::{AccessibilityMap, FnOracle};
    use dol_storage::{BufferPool, FaultConfig, FaultDisk, MemDisk, StoreConfig};
    use dol_xml::{parse, Document, NodeId};
    use std::sync::Arc;

    struct Db {
        store: StructStore,
        values: ValueStore,
        doc: Document,
        dol: EmbeddedDol,
        index: NodeIndex,
    }

    impl Db {
        fn engine(&self) -> QueryEngine<'_> {
            QueryEngine::new(
                &self.store,
                &self.values,
                self.doc.tags(),
                Some(&self.dol),
                &self.index,
            )
        }
    }

    fn db(xml: &str, map: Option<&AccessibilityMap>, max_rec: usize) -> Db {
        let doc = parse(xml).unwrap();
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
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
        let index = NodeIndex::build(&store, &values).unwrap();
        Db {
            store,
            values,
            doc,
            dol,
            index,
        }
    }

    fn query(d: &Db, q: &str, sec: Security) -> Vec<u64> {
        d.engine().execute(q, sec).unwrap().matches
    }

    const DOC: &str = "<site><regions><africa><item><name>gold</name><quantity>1</quantity>\
                       </item><item><name>salt</name></item></africa></regions>\
                       <categories><category><name>metals</name></category></categories></site>";
    // positions: site=0 regions=1 africa=2 item=3 name=4 quantity=5 item=6
    //            name=7 categories=8 category=9 name=10

    #[test]
    fn single_fragment_queries() {
        let d = db(DOC, None, 300);
        assert_eq!(
            query(
                &d,
                "/site/regions/africa/item[name][quantity]",
                Security::None
            ),
            vec![3]
        );
        assert_eq!(
            query(&d, "/site/regions/africa/item", Security::None),
            vec![3, 6]
        );
        assert_eq!(
            query(&d, "/site/*/africa/item/name", Security::None),
            vec![4, 7]
        );
        assert_eq!(query(&d, "//item[name=\"salt\"]", Security::None), vec![6]);
        assert_eq!(query(&d, "/regions", Security::None), Vec::<u64>::new());
    }

    #[test]
    fn descendant_join_queries() {
        let d = db(DOC, None, 300);
        assert_eq!(query(&d, "//regions//name", Security::None), vec![4, 7]);
        assert_eq!(query(&d, "//site//name", Security::None), vec![4, 7, 10]);
        assert_eq!(query(&d, "//africa//quantity", Security::None), vec![5]);
        assert_eq!(
            query(&d, "//category//quantity", Security::None),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn chained_descendants() {
        let d = db("<a><p><x/><p><x/></p></p><p><y/></p></a>", None, 300);
        // a=0 p=1 x=2 p=3 x=4 p=5 y=6.
        // x at 2 descends from p at 1; x at 4 descends from both p nodes.
        assert_eq!(query(&d, "//p//x", Security::None), vec![2, 4]);
        assert_eq!(query(&d, "//a//p//x", Security::None), vec![2, 4]);
        // Only x at 4 has a p strictly between it and another p.
        assert_eq!(query(&d, "//p//p//x", Security::None), vec![4]);
    }

    #[test]
    fn secure_binding_level() {
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        // Deny quantity (5): the [quantity] predicate can no longer be bound.
        map.set(SubjectId(0), NodeId(5), false);
        let d = db(DOC, Some(&map), 300);
        let s = Security::BindingLevel(SubjectId(0));
        assert_eq!(
            query(&d, "/site/regions/africa/item[name][quantity]", s),
            Vec::<u64>::new()
        );
        // Un-predicated items still match.
        assert_eq!(query(&d, "/site/regions/africa/item[name]", s), vec![3, 6]);
    }

    #[test]
    fn binding_vs_subtree_visibility_semantics() {
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        // africa (2) denied, but its descendants stay accessible.
        map.set(SubjectId(0), NodeId(2), false);
        let d = db(DOC, Some(&map), 300);
        // Cho semantics: //name doesn't bind africa, so names survive.
        assert_eq!(
            query(&d, "//site//name", Security::BindingLevel(SubjectId(0))),
            vec![4, 7, 10]
        );
        // Gabillon–Bruno: names under africa are hidden with their subtree.
        assert_eq!(
            query(
                &d,
                "//site//name",
                Security::SubtreeVisibility(SubjectId(0))
            ),
            vec![10]
        );
    }

    #[test]
    fn figure_2_semantics_note() {
        // §4: accessibility of nodes NOT bound by the pattern has no impact
        // under Cho semantics.
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map.set(SubjectId(0), NodeId(1), false); // regions unbound in //item
        let d = db(DOC, Some(&map), 300);
        assert_eq!(
            query(&d, "//item[name]", Security::BindingLevel(SubjectId(0))),
            vec![3, 6]
        );
        assert_eq!(
            query(
                &d,
                "//item[name]",
                Security::SubtreeVisibility(SubjectId(0))
            ),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn secure_without_dol_errors() {
        let d = db(DOC, None, 300);
        let engine = QueryEngine::new(&d.store, &d.values, d.doc.tags(), None, &d.index);
        assert!(matches!(
            engine.execute("//item", Security::BindingLevel(SubjectId(0))),
            Err(QueryError::NoAccessControl)
        ));
        assert_eq!(
            engine.execute("//item", Security::None).unwrap().matches,
            vec![3, 6]
        );
    }

    #[test]
    fn stats_populated() {
        let d = db(DOC, None, 2);
        let engine = d.engine();
        // Both fragments are single-node, so the leaf fast path answers from
        // the index plus block headers — zero nodes materialized; the join
        // still reads pages for intervals.
        let r = engine.execute("//site//name", Security::None).unwrap();
        assert_eq!(r.matches, vec![4, 7, 10]);
        assert!(r.stats.candidates >= 4);
        assert_eq!(r.stats.nodes_visited, 0, "leaf fast path decodes no node");
        assert!(r.stats.join_pairs >= 3);
        assert!(r.stats.io.logical_reads > 0);
        // A fragment with a child step walks the tree from every candidate.
        let walked = engine.execute("//item[name]", Security::None).unwrap();
        assert_eq!(walked.matches, vec![3, 6]);
        assert!(walked.stats.nodes_visited > 0);
    }

    #[test]
    fn block_skip_counts() {
        // Deny everything: with tiny blocks the one `h` candidate is rejected
        // from the in-memory headers.
        let fig2 = "<a><b/><c/><d/><e><f/><g/><h><i/><j/><k/><l/></h></e></a>";
        let map = AccessibilityMap::new(1, parse(fig2).unwrap().len());
        let d = db(fig2, Some(&map), 2);
        let engine = d.engine();
        d.store.pool().reset_stats();
        let r = engine
            .execute("//h", Security::BindingLevel(SubjectId(0)))
            .unwrap();
        assert!(r.matches.is_empty());
        assert_eq!((r.stats.candidates, r.stats.blocks_skipped), (1, 1));
        assert_eq!(r.stats.candidates_examined, 0);
        assert_eq!(d.store.pool().stats().logical_reads, 0, "no page touched");
        assert_eq!(d.store.pool().stats().pages_skipped, 1, "skip counted");
    }

    #[test]
    fn engine_matches_reference_end_to_end() {
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map.set(SubjectId(0), NodeId(5), false);
        for max_rec in [300, 2] {
            let d = db(DOC, Some(&map), max_rec);
            let engine = d.engine();
            for q in [
                "/site/regions/africa/item[name][quantity]",
                "//site//name",
                "//item[name=\"salt\"]",
                "//regions//name",
                "/site/*/africa/item/name",
                "//item[name]",
                "/regions",
                "//nosuchtag",
            ] {
                let pattern = parse_query(q).unwrap();
                let plan = QueryPlan::new(pattern.clone());
                for (sec, ref_sec) in [
                    (Security::None, RefSecurity::None),
                    (
                        Security::BindingLevel(SubjectId(0)),
                        RefSecurity::Binding(&map, SubjectId(0)),
                    ),
                    (
                        Security::SubtreeVisibility(SubjectId(0)),
                        RefSecurity::Subtree(&map, SubjectId(0)),
                    ),
                ] {
                    let expect = naive_eval(&d.doc, &pattern, ref_sec);
                    for page_skip in [true, false] {
                        let got = engine
                            .execute_plan_opts(
                                &plan,
                                sec,
                                ExecOptions {
                                    page_skip,
                                    ..ExecOptions::default()
                                },
                            )
                            .unwrap();
                        assert_eq!(
                            got.matches, expect,
                            "{q} {sec:?} page_skip={page_skip} max_rec={max_rec}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stale_compiled_plan_recompiles_and_answers() {
        let d = db(DOC, None, 300);
        let engine = d.engine();
        let plan = QueryPlan::new(parse_query("//item[name]").unwrap());
        // Lower against a *smaller* tag space (simulating a plan cached
        // before this document's tags were interned): the fence detects it
        // and the engine recompiles ephemerally — same answer.
        let mut old_tags = TagInterner::new();
        old_tags.intern("item");
        old_tags.intern("name");
        let stale = CompiledPlan::compile(&plan, &old_tags);
        assert!(!stale.is_current(d.doc.tags()));
        let r = engine
            .execute_compiled_opts(&plan, &stale, Security::None, ExecOptions::default())
            .unwrap();
        assert_eq!(r.matches, vec![3, 6]);
        // A current lowering is used as-is.
        let fresh = CompiledPlan::compile(&plan, d.doc.tags());
        let r2 = engine
            .execute_compiled_opts(&plan, &fresh, Security::None, ExecOptions::default())
            .unwrap();
        assert_eq!(r2.matches, vec![3, 6]);
    }

    #[test]
    fn value_index_narrows_candidates() {
        let d = db(DOC, None, 300);
        let engine = d.engine();
        // //name="gold": the value index seeds exactly the matching node.
        let narrowed = engine.execute("//name[=\"gold\"]", Security::None).unwrap();
        assert_eq!(narrowed.matches, vec![4]);
        assert_eq!(narrowed.stats.candidates, 1, "value index should seed 1");
        // The narrowed list is drawn from the tag's own candidates.
        let name = d.doc.tags().get("name");
        let wide = engine.candidates(name);
        assert!(wide.len() > 1);
        for p in engine.candidates_for(name, Some("gold")).iter() {
            assert!(wide.contains(p));
        }
    }

    #[test]
    fn following_sibling_queries() {
        // r: x, y, x, z — sibling order matters.
        let d = db("<r><x/><y/><x/><z/></r>", None, 300);
        // y with a following x sibling: only the first y qualifies; the
        // returning node is the x that follows it.
        assert_eq!(query(&d, "//y~x", Security::None), vec![3]);
        // x with following z: both x's have a later z sibling.
        assert_eq!(query(&d, "//x~z", Security::None), vec![4]);
        // z with following x: nothing follows z.
        assert_eq!(query(&d, "//z~x", Security::None), Vec::<u64>::new());
        // Predicate form: return the y that has a following x.
        assert_eq!(query(&d, "//y[~x]", Security::None), vec![2]);
    }

    #[test]
    fn following_sibling_respects_security() {
        let doc = parse("<r><a/><b/><c/></r>").unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        map.set(SubjectId(0), NodeId(3), false); // deny c
        let d = db("<r><a/><b/><c/></r>", Some(&map), 300);
        assert_eq!(query(&d, "//a~c", Security::None), vec![3]);
        assert_eq!(
            query(&d, "//a~c", Security::BindingLevel(SubjectId(0))),
            Vec::<u64>::new()
        );
        // Denied intermediate siblings do not matter (they are unbound).
        assert_eq!(
            query(&d, "//a~b", Security::BindingLevel(SubjectId(0))),
            vec![2]
        );
    }

    #[test]
    fn storage_failures_fail_closed_in_secure_modes() {
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        // Every page read fails once the faults are armed; the build and the
        // index scans run disarmed so layout and candidates are intact.
        let fault = Arc::new(FaultDisk::new(
            Arc::new(MemDisk::new()),
            FaultConfig {
                permanent_read_failure: 1.0,
                ..FaultConfig::default()
            },
        ));
        fault.set_armed(false);
        let pool = Arc::new(BufferPool::new(fault.clone(), 256));
        let cfg = StoreConfig {
            max_records_per_block: 2,
        };
        let (store, dol) = EmbeddedDol::build(pool.clone(), cfg, &doc, &map).unwrap();
        let mut values = ValueStore::new(pool.clone());
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v).unwrap();
            }
        }
        let index = NodeIndex::build(&store, &values).unwrap();
        let engine = QueryEngine::new(&store, &values, doc.tags(), Some(&dol), &index);
        pool.flush_all().unwrap();
        fault.set_armed(true);

        // Secure modes: unreadable blocks hide their nodes — the query
        // completes with a (possibly empty) answer and the stat records why.
        for sec in [
            Security::BindingLevel(SubjectId(0)),
            Security::SubtreeVisibility(SubjectId(0)),
        ] {
            pool.clear_cache().unwrap();
            let r = engine.execute("//item[name]", sec).unwrap();
            assert!(r.matches.is_empty(), "{sec:?}");
            assert!(r.stats.blocks_failed_closed > 0, "{sec:?}");
            // Masking never hides an expiry: the deadline is checked before
            // the read that would fail closed.
            pool.clear_cache().unwrap();
            let plan = QueryPlan::new(parse_query("//item[name]").unwrap());
            let opts = ExecOptions {
                deadline: Deadline::after(Duration::ZERO),
                ..ExecOptions::default()
            };
            assert!(
                matches!(
                    engine.execute_plan_opts(&plan, sec, opts),
                    Err(QueryError::DeadlineExceeded(_))
                ),
                "{sec:?}"
            );
        }

        // Unsecured evaluation has nothing to protect: the error surfaces.
        pool.clear_cache().unwrap();
        assert!(matches!(
            engine.execute("//item[name]", Security::None),
            Err(QueryError::Storage(_))
        ));

        // Disarmed again, everything is back to normal.
        fault.set_armed(false);
        pool.clear_cache().unwrap();
        let ok = engine
            .execute("//item[name]", Security::BindingLevel(SubjectId(0)))
            .unwrap();
        assert_eq!(ok.matches, vec![3, 6]);
        assert_eq!(ok.stats.blocks_failed_closed, 0);
    }

    #[test]
    fn expired_deadline_aborts_with_partial_stats_in_every_mode() {
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let d = db(DOC, Some(&map), 2);
        let engine = d.engine();
        let plan = QueryPlan::new(parse_query("//item[name]").unwrap());
        for sec in [
            Security::None,
            Security::BindingLevel(SubjectId(0)),
            Security::SubtreeVisibility(SubjectId(0)),
        ] {
            // Sanity: with no deadline the query answers.
            let ok = engine
                .execute_plan_opts(&plan, sec, ExecOptions::default())
                .unwrap();
            assert_eq!(ok.matches, vec![3, 6], "{sec:?}");
            // An already-expired deadline aborts — typed error with the
            // partial-work stats, never a (shrunken) answer.
            let opts = ExecOptions {
                deadline: Deadline::after(Duration::ZERO),
                ..ExecOptions::default()
            };
            match engine.execute_plan_opts(&plan, sec, opts) {
                Err(QueryError::DeadlineExceeded(stats)) => {
                    assert_eq!(stats.blocks_failed_closed, 0, "{sec:?}: not a data fault");
                }
                other => panic!("{sec:?}: expected deadline abort, got {other:?}"),
            }
            // Cancellation mid-flight behaves identically (token fired
            // before execution here; the matcher re-checks between loads).
            let deadline = Deadline::never();
            deadline.token().cancel();
            let opts = ExecOptions {
                deadline,
                ..ExecOptions::default()
            };
            assert!(matches!(
                engine.execute_plan_opts(&plan, sec, opts),
                Err(QueryError::DeadlineExceeded(_))
            ));
        }
    }

    #[test]
    fn breaker_open_surfaces_instead_of_masking() {
        use dol_storage::RetryPolicy;
        let doc = parse(DOC).unwrap();
        let mut map = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(0), NodeId(p), true);
        }
        let fault = Arc::new(FaultDisk::new(
            Arc::new(MemDisk::new()),
            FaultConfig {
                permanent_read_failure: 1.0,
                ..FaultConfig::default()
            },
        ));
        fault.set_armed(false);
        let pool = Arc::new(BufferPool::new(fault.clone(), 256));
        let cfg = StoreConfig {
            max_records_per_block: 2,
        };
        let (store, dol) = EmbeddedDol::build(pool.clone(), cfg, &doc, &map).unwrap();
        let mut values = ValueStore::new(pool.clone());
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v).unwrap();
            }
        }
        let index = NodeIndex::build(&store, &values).unwrap();
        let engine = QueryEngine::new(&store, &values, doc.tags(), Some(&dol), &index);
        pool.flush_all().unwrap();
        pool.set_retry_policy(RetryPolicy {
            max_attempts: 1,
            backoff_start: Duration::ZERO,
            breaker_threshold: 1,
            breaker_probe_every: 1_000,
            ..RetryPolicy::default()
        });
        fault.set_armed(true);
        pool.clear_cache().unwrap();

        // The first failed read is a data fault (masked, fail-closed); it
        // trips the breaker, and the very next read is refused with
        // `BreakerOpen` — which must surface even in secure mode: a tripped
        // breaker is unavailability, not "inaccessible".
        let err = engine.execute("//item[name]", Security::BindingLevel(SubjectId(0)));
        assert!(
            matches!(err, Err(QueryError::Storage(StorageError::BreakerOpen))),
            "expected BreakerOpen, got {err:?}"
        );
        assert!(pool.breaker_is_open());

        // Healing: disarm the faults, reset the breaker, and the same
        // engine answers again.
        fault.set_armed(false);
        pool.set_retry_policy(RetryPolicy::default());
        pool.clear_cache().unwrap();
        let ok = engine
            .execute("//item[name]", Security::BindingLevel(SubjectId(0)))
            .unwrap();
        assert_eq!(ok.matches, vec![3, 6]);
    }

    /// A labeling for subject 0 that grants everything but `denied`.
    fn all_but(xml: &str, denied: &[u32]) -> AccessibilityMap {
        let n = parse(xml).unwrap().len();
        let mut map = AccessibilityMap::new(1, n);
        for p in 0..n as u32 {
            map.set(SubjectId(0), NodeId(p), !denied.contains(&p));
        }
        map
    }

    /// Runs `q` in every mode and page-skip setting over `xml` labeled by
    /// `map` and both block sizes, asserting the reference answer and the
    /// three-way candidate partition; returns every run's stats.
    fn agree_everywhere(xml: &str, map: &AccessibilityMap, q: &str) -> Vec<ExecStats> {
        let pattern = parse_query(q).unwrap();
        let plan = QueryPlan::new(pattern.clone());
        let mut all = Vec::new();
        for max_rec in [300, 2] {
            let d = db(xml, Some(map), max_rec);
            for (sec, ref_sec) in [
                (Security::None, RefSecurity::None),
                (
                    Security::BindingLevel(SubjectId(0)),
                    RefSecurity::Binding(map, SubjectId(0)),
                ),
                (
                    Security::SubtreeVisibility(SubjectId(0)),
                    RefSecurity::Subtree(map, SubjectId(0)),
                ),
            ] {
                let expect = naive_eval(&d.doc, &pattern, ref_sec);
                for page_skip in [true, false] {
                    let opts = ExecOptions {
                        page_skip,
                        ..ExecOptions::default()
                    };
                    let got = d.engine().execute_plan_opts(&plan, sec, opts).unwrap();
                    let what = format!("{q} {sec:?} page_skip={page_skip} max_rec={max_rec}");
                    assert_eq!(got.matches, expect, "{what}");
                    let st = got.stats;
                    assert_eq!(
                        st.candidates_examined + st.blocks_skipped + st.candidates_outside_anchors,
                        st.candidates,
                        "{what}"
                    );
                    all.push(st);
                }
            }
        }
        all
    }

    #[test]
    fn walked_fragment_starts_only_inside_its_anchors() {
        // r0 a1 b2 c3 b4 d5 b6 c7 b8 c9 x10 b11 c12: the a covers [2, 8),
        // so b8 and b11 lie outside it.
        let xml = "<r><a><b><c/></b><b><d/></b><b><c/></b></a><b><c/></b>\
                   <x><b><c/></b></x></r>";
        let map = all_but(xml, &[7, 10]);
        for st in agree_everywhere(xml, &map, "//a//b/c") {
            assert_eq!(st.candidates_outside_anchors, 2, "{st:?}");
        }
        // The leaf form of the same join is left to the join's semi-join.
        for st in agree_everywhere(xml, &map, "//a//b") {
            assert_eq!(st.candidates_outside_anchors, 0, "{st:?}");
        }
    }

    #[test]
    fn nested_anchors_cover_once() {
        // r0 a1 a2 b3 c4 b5 c6 b7 c8: a2 nests in a1, whose cover [2, 7)
        // already holds it; b7 lies outside.
        let xml = "<r><a><a><b><c/></b></a><b><c/></b></a><b><c/></b></r>";
        let map = all_but(xml, &[2]);
        for st in agree_everywhere(xml, &map, "//a//b/c") {
            assert_eq!(st.candidates_outside_anchors, 1, "{st:?}");
        }
        agree_everywhere(xml, &map, "//a//a//b/c");
    }

    #[test]
    fn empty_anchor_table_walks_nothing() {
        let xml = "<r><a><b><c/></b></a><b><c/></b></r>";
        // Subject 0 may see no `a`: under Cho the anchor table is empty.
        let map = all_but(xml, &[1]);
        let d = db(xml, Some(&map), 2);
        let cho = d
            .engine()
            .execute("//a//b/c", Security::BindingLevel(SubjectId(0)))
            .unwrap();
        assert!(cho.matches.is_empty());
        assert_eq!(cho.stats.nodes_visited, 0, "no b was walked");
        assert_eq!(cho.stats.candidates_outside_anchors, 2);
        // No `a` at all: the same, unsecured.
        let none = d.engine().execute("//zz//b/c", Security::None).unwrap();
        assert!(none.matches.is_empty());
        assert_eq!(none.stats.nodes_visited, 0, "no b was walked");
        assert_eq!(none.stats.candidates_outside_anchors, 2);
    }

    #[test]
    fn unreadable_anchor_block_shrinks_the_cover_or_errors() {
        // r0 a1 b2 c3 b4 c5 x6 y7: with two records per block, a1 shares
        // block 0 with r0 and the b/c pairs sit in blocks of their own.
        let xml = "<r><a><b><c/></b><b><c/></b></a><x><y/></x></r>";
        let doc = parse(xml).unwrap();
        let map = all_but(xml, &[]);
        let fault = Arc::new(FaultDisk::new(
            Arc::new(MemDisk::new()),
            FaultConfig {
                permanent_read_failure: 1.0,
                ..FaultConfig::default()
            },
        ));
        fault.set_armed(false);
        let pool = Arc::new(BufferPool::new(fault.clone(), 256));
        let cfg = StoreConfig {
            max_records_per_block: 2,
        };
        let (store, dol) = EmbeddedDol::build(pool.clone(), cfg, &doc, &map).unwrap();
        let values = ValueStore::new(pool.clone());
        let index = NodeIndex::build(&store, &values).unwrap();
        let engine = QueryEngine::new(&store, &values, doc.tags(), Some(&dol), &index);
        let anchor_block = store.block_of_pos(1);
        // Every block but the anchor's is cached; once armed, only the
        // anchor's block is unreadable.
        let arm = || {
            pool.flush_all().unwrap();
            pool.clear_cache().unwrap();
            for b in (0..store.block_count()).filter(|&b| b != anchor_block) {
                store.block_snapshot(b).unwrap();
            }
            fault.set_armed(true);
        };
        let pattern = parse_query("//a//b/c").unwrap();
        let plan = QueryPlan::new(pattern.clone());
        for (sec, ref_sec) in [
            (
                Security::BindingLevel(SubjectId(0)),
                RefSecurity::Binding(&map, SubjectId(0)),
            ),
            (
                Security::SubtreeVisibility(SubjectId(0)),
                RefSecurity::Subtree(&map, SubjectId(0)),
            ),
        ] {
            let expect = naive_eval(&doc, &pattern, ref_sec);
            assert_eq!(expect, vec![3, 5]);
            arm();
            let got = engine.execute_plan(&plan, sec).unwrap();
            fault.set_armed(false);
            assert!(got.matches.iter().all(|m| expect.contains(m)), "{sec:?}");
            assert!(got.stats.blocks_failed_closed > 0, "{sec:?}");
        }
        arm();
        let plain = engine.execute_plan(&plan, Security::None);
        fault.set_armed(false);
        assert!(
            matches!(plain, Err(QueryError::Storage(_))),
            "unsecured must surface the read error, got {plain:?}"
        );
        // Readable again, every mode answers in full.
        pool.clear_cache().unwrap();
        let ok = engine.execute_plan(&plan, Security::None).unwrap();
        assert_eq!(ok.matches, vec![3, 5]);
    }

    #[test]
    fn anchored_root_must_be_document_root() {
        let d = db("<a><a><b/></a></a>", None, 300);
        assert_eq!(query(&d, "/a/b", Security::None), Vec::<u64>::new());
        assert_eq!(query(&d, "//a/b", Security::None), vec![2]);
        assert_eq!(query(&d, "/a/a/b", Security::None), vec![2]);
    }
}
