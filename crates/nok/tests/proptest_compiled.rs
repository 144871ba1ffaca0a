//! Differential property tests for compiled twig execution: the compiled
//! automaton must agree with [`naive_eval`] — byte-for-byte on the answer —
//! over random documents, random twig patterns, random two-subject
//! accessibility matrices, all three security semantics, both page-skip
//! settings, and block sizes that force multi-block layouts.
//!
//! Two further properties aim at the shapes the engine's cost model turns
//! on. *Narrow subjects* — granted one or two small contiguous subtrees of a
//! document spread over dozens of blocks — leave most blocks skippable, so
//! the visible extents have interior gaps and every candidate list is cut
//! by them; *three-fragment twigs* with the returning node in the top,
//! middle or bottom fragment drive both semi-join directions and the pair
//! join. There, besides the answer, `blocks_skipped` must equal an
//! independent count of the candidates lying in skippable blocks.
//!
//! Deadline behavior is part of the contract: at any injected abort point
//! the engine must return either the full correct answer or a typed
//! [`QueryError::DeadlineExceeded`] — never a partial or shrunken answer.
//! (An expired deadline need not abort: the leaf path can answer some
//! fragments with zero node loads.)

use dol_acl::{AccessibilityMap, SubjectId};
use dol_core::EmbeddedDol;
use dol_nok::reference::{naive_eval, RefSecurity};
use dol_nok::{
    Axis, ExecOptions, NodeIndex, PNodeId, PatternTree, QueryEngine, QueryError, QueryPlan,
    QueryResult, Security,
};
use dol_storage::{BufferPool, Deadline, MemDisk, StoreConfig, StructStore, ValueStore};
use dol_xml::{Document, DocumentBuilder, NodeId};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const VALUES: [&str; 2] = ["x", "y"];

fn arb_doc() -> impl Strategy<Value = Document> {
    proptest::collection::vec((0usize..4, 0u8..4, proptest::option::of(0usize..2)), 1..60).prop_map(
        |raw| {
            let mut b = DocumentBuilder::new();
            b.open(TAGS[0]);
            let mut depth = 1;
            for (tag, action, value) in raw {
                match action {
                    0 if depth < 6 => {
                        b.open(TAGS[tag]);
                        depth += 1;
                    }
                    1 | 2 => {
                        b.leaf(TAGS[tag], value.map(|v| VALUES[v]));
                    }
                    _ => {
                        if depth > 1 {
                            b.close();
                            depth -= 1;
                        }
                    }
                }
            }
            while depth > 0 {
                b.close();
                depth -= 1;
            }
            b.finish().unwrap()
        },
    )
}

fn arb_pattern() -> impl Strategy<Value = PatternTree> {
    (
        proptest::option::of(0usize..4),
        any::<bool>(),
        proptest::collection::vec(
            (
                0usize..6,
                proptest::option::of(0usize..4),
                0u8..3,
                proptest::option::of(0usize..2),
            ),
            0..5,
        ),
        0usize..6,
    )
        .prop_map(|(root_tag, anchored, children, ret)| {
            let mut p = PatternTree::new(root_tag.map(|t| TAGS[t]), anchored);
            for (parent, tag, axis_pick, value) in children {
                let parent = dol_nok::PNodeId((parent % p.len()) as u32);
                let axis = match axis_pick {
                    0 => Axis::Child,
                    1 => Axis::Descendant,
                    _ => Axis::FollowingSibling,
                };
                let id = p.add_child(parent, axis, tag.map(|t| TAGS[t]));
                if let Some(v) = value {
                    p.set_value(id, VALUES[v]);
                }
            }
            let ret = dol_nok::PNodeId((ret % p.len()) as u32);
            p.set_returning(ret);
            p
        })
}

struct Fixture {
    store: StructStore,
    values: ValueStore,
    dol: EmbeddedDol,
    doc: Document,
    index: NodeIndex,
}

impl Fixture {
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

fn build(doc: Document, map: &AccessibilityMap, max_rec: usize) -> Fixture {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
    let (store, dol) = EmbeddedDol::build(
        pool.clone(),
        StoreConfig {
            max_records_per_block: max_rec,
        },
        &doc,
        map,
    )
    .unwrap();
    let mut values = ValueStore::new(pool);
    for id in doc.preorder() {
        if let Some(v) = &doc.node(id).value {
            values.put(u64::from(id.0), v).unwrap();
        }
    }
    let index = NodeIndex::build(&store, &values).unwrap();
    Fixture {
        store,
        values,
        dol,
        doc,
        index,
    }
}

fn map_from_bits(bits: &[bool], n: usize) -> AccessibilityMap {
    let mut map = AccessibilityMap::new(2, n);
    for (i, bit) in bits.iter().enumerate() {
        if *bit {
            map.set(
                SubjectId((i / n.max(1) % 2) as u32),
                NodeId((i % n.max(1)) as u32),
                true,
            );
        }
    }
    map
}

/// A document of a few hundred nodes — a hundred-odd blocks at four records
/// a block — nested deep enough for three-step descendant chains.
fn arb_wide_doc() -> impl Strategy<Value = Document> {
    proptest::collection::vec((0usize..4, 0u8..5), 250..700).prop_map(|raw| {
        let mut b = DocumentBuilder::new();
        b.open(TAGS[0]);
        let mut depth = 1;
        for (tag, action) in raw {
            match action {
                0 | 1 if depth < 10 => {
                    b.open(TAGS[tag]);
                    depth += 1;
                }
                2 | 3 => {
                    b.leaf(TAGS[tag], None);
                }
                _ => {
                    if depth > 1 {
                        b.close();
                        depth -= 1;
                    }
                }
            }
        }
        while depth > 0 {
            b.close();
            depth -= 1;
        }
        b.finish().unwrap()
    })
}

/// One subject's narrow grant: one or two picks, each resolved to a subtree
/// of at most 1/16 of the document, optionally with the path down to it (so
/// that subtree-visibility answers are not all empty).
type Grant = Vec<(usize, bool)>;

fn arb_grant() -> impl Strategy<Value = Grant> {
    proptest::collection::vec((0usize..10_000, any::<bool>()), 1..3)
}

fn narrow_map(doc: &Document, grants: [&Grant; 2]) -> AccessibilityMap {
    let n = doc.len();
    let small = |id: NodeId| doc.subtree_range(id).len() <= (n / 16).max(1);
    // The maximal small subtrees, largest first; picks land in the larger
    // half so that a grant usually spans several blocks.
    let mut roots: Vec<NodeId> = doc
        .preorder()
        .filter(|&id| small(id) && doc.parent(id).is_none_or(|p| !small(p)))
        .collect();
    roots.sort_by_key(|&id| std::cmp::Reverse(doc.subtree_range(id).len()));
    let mut map = AccessibilityMap::new(2, n);
    for (s, grant) in grants.into_iter().enumerate() {
        let s = SubjectId(s as u32);
        for &(pick, with_path) in grant {
            let node = roots[pick % roots.len().div_ceil(2)];
            for p in doc.subtree_range(node) {
                map.set(s, NodeId(p), true);
            }
            if with_path {
                for a in doc.ancestors(node) {
                    map.set(s, a, true);
                }
            }
        }
    }
    map
}

/// A three-fragment twig: a chain `//A//B//C` or a fork `//A[.//B]//C`, each
/// fragment optionally widened by a child step (which takes it off the leaf
/// fast path), returning from the chosen fragment.
fn arb_three_fragment_twig() -> impl Strategy<Value = PatternTree> {
    (
        proptest::collection::vec(
            (
                proptest::option::of(0usize..4),
                proptest::option::of(0usize..4),
            ),
            3,
        ),
        any::<bool>(),
        0usize..3,
        any::<bool>(),
    )
        .prop_map(|(frags, fork, returning_frag, return_kid)| {
            let tag = |t: Option<usize>| t.map(|t| TAGS[t]);
            let mut p = PatternTree::new(tag(frags[0].0), false);
            let mut roots = vec![PNodeId(0)];
            roots.push(p.add_child(roots[0], Axis::Descendant, tag(frags[1].0)));
            let third_parent = if fork { roots[0] } else { roots[1] };
            roots.push(p.add_child(third_parent, Axis::Descendant, tag(frags[2].0)));
            let mut kids = [None; 3];
            for (i, &(_, kid)) in frags.iter().enumerate() {
                if let Some(k) = kid {
                    kids[i] = Some(p.add_child(roots[i], Axis::Child, Some(TAGS[k])));
                }
            }
            let ret = match kids[returning_frag] {
                Some(kid) if return_kid => kid,
                _ => roots[returning_frag],
            };
            p.set_returning(ret);
            p
        })
}

/// The candidates of `plan`'s fragments that lie in blocks `subject` may
/// skip, counted from the document and the per-block scalar test alone.
fn candidates_in_skippable_blocks(f: &Fixture, plan: &QueryPlan, subject: SubjectId) -> u64 {
    let mut n = 0;
    for (i, tree) in plan.trees.iter().enumerate() {
        let tag_of = |m: PNodeId| plan.pattern.node(m).tag.as_deref();
        // A fragment naming a tag the document lacks seeds no candidate.
        if tree
            .members
            .iter()
            .any(|&m| tag_of(m).is_some_and(|t| f.doc.tags().get(t).is_none()))
        {
            continue;
        }
        let root = plan.pattern.node(tree.root);
        for id in f.doc.preorder() {
            let seeded = if i == 0 && plan.pattern.anchored() {
                // An anchored query starts from the document root alone.
                id == f.doc.root()
            } else {
                // The tag index, narrowed by the tag+value index when the
                // root names both.
                root.tag.as_deref().is_none_or(|t| {
                    f.doc.name_of(id) == t
                        && (root.value.is_none()
                            || f.doc.node(id).value.as_deref() == root.value.as_deref())
                })
            };
            let block = f.store.block_of_pos(u64::from(id.0));
            if seeded && f.dol.block_skippable(&f.store, block, subject) {
                n += 1;
            }
        }
    }
    n
}

/// Everything the new shapes must satisfy for one (document, labeling,
/// twig): see the module docs.
fn check_narrow_case(f: &Fixture, map: &AccessibilityMap, pattern: &PatternTree) {
    let engine = f.engine();
    let plan = QueryPlan::new(pattern.clone());
    let run = |sec: Security, opts: ExecOptions| -> Result<QueryResult, QueryError> {
        engine.execute_plan_opts(&plan, sec, opts)
    };
    let subjects = [SubjectId(0), SubjectId(1)];
    let modes = std::iter::once((Security::None, RefSecurity::None)).chain(
        subjects.into_iter().flat_map(|s| {
            [
                (Security::BindingLevel(s), RefSecurity::Binding(map, s)),
                (Security::SubtreeVisibility(s), RefSecurity::Subtree(map, s)),
            ]
        }),
    );
    for (sec, ref_sec) in modes {
        let what = format!("query {} sec {:?}", pattern.to_query_string(), sec);
        let expect = naive_eval(&f.doc, pattern, ref_sec);
        let seq = run(sec, ExecOptions::default()).unwrap();
        prop_assert_eq!(&seq.matches, &expect, "{}: compiled vs reference", &what);
        let unskipped = run(
            sec,
            ExecOptions {
                page_skip: false,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        prop_assert_eq!(&unskipped.matches, &expect, "{}: page_skip off", &what);
        prop_assert_eq!(unskipped.stats.blocks_skipped, 0);

        // The counters: skipped + examined = candidates, and skipped is
        // exactly the candidates in skippable blocks, however it was counted.
        let st = &seq.stats;
        prop_assert_eq!(
            st.candidates_examined + st.blocks_skipped,
            st.candidates,
            "{}",
            &what
        );
        prop_assert_eq!(st.blocks_skipped, st.io.pages_skipped, "{}", &what);
        let independent = match sec {
            Security::None => 0,
            Security::BindingLevel(s) | Security::SubtreeVisibility(s) => {
                candidates_in_skippable_blocks(f, &plan, s)
            }
        };
        prop_assert_eq!(
            st.blocks_skipped,
            independent,
            "{}: independent count",
            &what
        );

        // Both abort points: the full answer or a typed abort, never less.
        for cancel in [false, true] {
            let deadline = if cancel {
                let d = Deadline::never();
                d.token().cancel();
                d
            } else {
                Deadline::after(Duration::ZERO)
            };
            let opts = ExecOptions {
                deadline,
                ..ExecOptions::default()
            };
            match run(sec, opts) {
                Ok(r) => prop_assert_eq!(
                    &r.matches,
                    &expect,
                    "{}: completed answer must be full",
                    &what
                ),
                Err(QueryError::DeadlineExceeded(stats)) => {
                    prop_assert_eq!(stats.blocks_failed_closed, 0, "{}", &what)
                }
                Err(other) => prop_assert!(false, "{}: unexpected error {:?}", &what, other),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The core differential property: compiled ≡ reference on the answer,
    /// for every security mode × page-skip setting × block size.
    #[test]
    fn compiled_execution_matches_reference(
        doc in arb_doc(),
        pattern in arb_pattern(),
        bits in proptest::collection::vec(any::<bool>(), 0..120),
        max_rec in prop_oneof![Just(4usize), Just(300usize)],
        page_skip in any::<bool>(),
    ) {
        let map = map_from_bits(&bits, doc.len());
        let f = build(doc, &map, max_rec);
        let engine = f.engine();
        let plan = QueryPlan::new(pattern.clone());
        let (s0, s1) = (SubjectId(0), SubjectId(1));
        for (sec, ref_sec) in [
            (Security::None, RefSecurity::None),
            (Security::BindingLevel(s0), RefSecurity::Binding(&map, s0)),
            (Security::BindingLevel(s1), RefSecurity::Binding(&map, s1)),
            (Security::SubtreeVisibility(s0), RefSecurity::Subtree(&map, s0)),
            (Security::SubtreeVisibility(s1), RefSecurity::Subtree(&map, s1)),
        ] {
            let compiled = engine
                .execute_plan_opts(&plan, sec, ExecOptions { page_skip, ..ExecOptions::default() })
                .unwrap();
            prop_assert_eq!(
                &compiled.matches,
                &naive_eval(&f.doc, &pattern, ref_sec),
                "query {} sec {:?} page_skip {}",
                pattern.to_query_string(),
                sec,
                page_skip
            );
        }
    }

    /// Deadline contract inside the compiled loop: at every injected abort
    /// point the result is either the full correct answer or a typed
    /// `DeadlineExceeded` with partial stats and no data fault — never a
    /// partial answer. Cancellation tokens behave identically.
    #[test]
    fn compiled_deadline_aborts_are_typed_and_never_partial(
        doc in arb_doc(),
        pattern in arb_pattern(),
        bits in proptest::collection::vec(any::<bool>(), 0..120),
        cancel in any::<bool>(),
    ) {
        let map = map_from_bits(&bits, doc.len());
        let f = build(doc, &map, 4);
        let engine = f.engine();
        let plan = QueryPlan::new(pattern.clone());
        for sec in [
            Security::None,
            Security::BindingLevel(SubjectId(0)),
            Security::SubtreeVisibility(SubjectId(1)),
        ] {
            // The full answer, compiled, no deadline.
            let full = engine
                .execute_plan_opts(&plan, sec, ExecOptions::default())
                .unwrap()
                .matches;
            // An abort point that fires at the first check.
            let deadline = if cancel {
                let d = Deadline::never();
                d.token().cancel();
                d
            } else {
                Deadline::after(Duration::ZERO)
            };
            let opts = ExecOptions { deadline, ..ExecOptions::default() };
            match engine.execute_plan_opts(&plan, sec, opts) {
                // Zero-I/O fast paths may legitimately complete even with an
                // expired deadline — but then the answer must be the full one.
                Ok(r) => prop_assert_eq!(
                    &r.matches, &full,
                    "query {} sec {:?}: completed answer must be full",
                    pattern.to_query_string(), sec
                ),
                Err(QueryError::DeadlineExceeded(stats)) => {
                    prop_assert_eq!(
                        stats.blocks_failed_closed, 0,
                        "deadline is availability, not a data fault"
                    );
                }
                Err(other) => prop_assert!(
                    false,
                    "query {} sec {:?}: unexpected error {:?}",
                    pattern.to_query_string(), sec, other
                ),
            }
        }
    }
    /// Narrow subjects over multi-block documents, with the random twigs of
    /// the core property: most blocks are skippable and the extents have
    /// interior gaps.
    #[test]
    fn narrow_subjects_agree_everywhere(
        doc in arb_wide_doc(),
        pattern in arb_pattern(),
        g0 in arb_grant(),
        g1 in arb_grant(),
    ) {
        let map = narrow_map(&doc, [&g0, &g1]);
        let f = build(doc, &map, 4);
        check_narrow_case(&f, &map, &pattern);
    }

    /// Three-fragment twigs returning from the top, middle and bottom
    /// fragment, under the same narrow subjects: both semi-join directions
    /// and the pair join.
    #[test]
    fn three_fragment_twigs_agree_everywhere(
        doc in arb_wide_doc(),
        pattern in arb_three_fragment_twig(),
        g0 in arb_grant(),
        g1 in arb_grant(),
    ) {
        let map = narrow_map(&doc, [&g0, &g1]);
        let f = build(doc, &map, 4);
        check_narrow_case(&f, &map, &pattern);
    }
}
