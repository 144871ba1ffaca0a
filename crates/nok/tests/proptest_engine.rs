//! Property tests: the full query engine against the naive reference
//! evaluator, over random documents, random twig patterns, random
//! accessibility labelings and all three security semantics.

use dol_acl::{AccessibilityMap, SubjectId};
use dol_core::EmbeddedDol;
use dol_nok::reference::{naive_eval, RefSecurity};
use dol_nok::{fnv1a, Axis, NodeIndex, PatternTree, QueryEngine, QueryPlan, Security};
use dol_storage::{BufferPool, MemDisk, StoreConfig, StructStore, ValueStore};
use dol_xml::{Document, DocumentBuilder, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const VALUES: [&str; 2] = ["x", "y"];

/// Random document: a stack-disciplined walk over a small tag alphabet,
/// some nodes carrying values.
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

/// Random twig pattern of up to 6 nodes.
fn arb_pattern() -> impl Strategy<Value = PatternTree> {
    (
        proptest::option::of(0usize..4), // root tag (None = wildcard)
        any::<bool>(),                   // anchored
        proptest::collection::vec(
            (
                0usize..6,                       // parent (mod current size)
                proptest::option::of(0usize..4), // tag
                0u8..3,                          // axis pick
                proptest::option::of(0usize..2), // value constraint
            ),
            0..5,
        ),
        0usize..6, // returning pick
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

fn arb_map(nodes: usize) -> impl Strategy<Value = AccessibilityMap> {
    proptest::collection::vec(any::<bool>(), nodes * 2..=nodes * 2).prop_map(move |bits| {
        let mut m = AccessibilityMap::new(2, nodes);
        for (i, bit) in bits.into_iter().enumerate() {
            if bit {
                m.set(
                    SubjectId((i / nodes) as u32),
                    NodeId((i % nodes) as u32),
                    true,
                );
            }
        }
        m
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_matches_reference(
        doc in arb_doc(),
        pattern in arb_pattern(),
        seed_map in proptest::bool::ANY,
        max_rec in prop_oneof![Just(4usize), Just(300usize)],
    ) {
        let map = if seed_map {
            // Mostly-accessible labeling.
            let mut m = AccessibilityMap::new(2, doc.len());
            for p in 0..doc.len() {
                m.set(SubjectId(0), NodeId(p as u32), true);
                if p % 3 != 0 {
                    m.set(SubjectId(1), NodeId(p as u32), true);
                }
            }
            m
        } else {
            let mut m = AccessibilityMap::new(2, doc.len());
            for p in 0..doc.len() {
                if p % 2 == 0 {
                    m.set(SubjectId(0), NodeId(p as u32), true);
                }
            }
            m
        };
        let f = build(doc, &map, max_rec);
        let engine = f.engine();
        let plan = QueryPlan::new(pattern.clone());

        let got = engine.execute_plan(&plan, Security::None).unwrap().matches;
        let expect = naive_eval(&f.doc, &pattern, RefSecurity::None);
        prop_assert_eq!(&got, &expect, "unsecured, query {}", pattern.to_query_string());

        for s in [SubjectId(0), SubjectId(1)] {
            let got = engine
                .execute_plan(&plan, Security::BindingLevel(s))
                .unwrap()
                .matches;
            let expect = naive_eval(&f.doc, &pattern, RefSecurity::Binding(&map, s));
            prop_assert_eq!(&got, &expect, "binding {} query {}", s, pattern.to_query_string());

            let got = engine
                .execute_plan(&plan, Security::SubtreeVisibility(s))
                .unwrap()
                .matches;
            let expect = naive_eval(&f.doc, &pattern, RefSecurity::Subtree(&map, s));
            prop_assert_eq!(&got, &expect, "subtree {} query {}", s, pattern.to_query_string());
        }
    }

    #[test]
    fn random_map_engine_matches_reference(
        doc in arb_doc(),
        pattern in arb_pattern(),
        bits in proptest::collection::vec(any::<bool>(), 0..120),
    ) {
        let n = doc.len();
        let mut map = AccessibilityMap::new(2, n);
        for (i, bit) in bits.iter().enumerate() {
            if *bit {
                map.set(SubjectId((i / n.max(1) % 2) as u32), NodeId((i % n.max(1)) as u32), true);
            }
        }
        let f = build(doc, &map, 4);
        let engine = f.engine();
        let plan = QueryPlan::new(pattern.clone());
        for s in [SubjectId(0), SubjectId(1)] {
            let got = engine
                .execute_plan(&plan, Security::BindingLevel(s))
                .unwrap()
                .matches;
            let expect = naive_eval(&f.doc, &pattern, RefSecurity::Binding(&map, s));
            prop_assert_eq!(&got, &expect, "query {}", pattern.to_query_string());
        }
    }

    #[test]
    fn node_index_matches_a_naive_scan(
        doc in arb_doc(),
        max_rec in prop_oneof![Just(4usize), Just(300usize)],
    ) {
        let map = AccessibilityMap::new(1, doc.len());
        let f = build(doc, &map, max_rec);
        let engine = f.engine();
        let scan = |keep: &dyn Fn(NodeId) -> bool| -> Vec<u64> {
            f.doc.preorder().filter(|&id| keep(id)).map(|id| u64::from(id.0)).collect()
        };
        let ascending = |list: &[u64]| list.windows(2).all(|w| w[0] < w[1]);
        for (tag, name) in f.doc.tags().iter() {
            let by_tag = scan(&|id| f.doc.node(id).tag == tag);
            prop_assert_eq!(f.index.by_tag(tag), &by_tag[..], "tag {}", name);
            prop_assert!(ascending(f.index.by_tag(tag)));
            // "z" is a value no node carries.
            for v in VALUES.into_iter().chain(["z"]) {
                let by_value = scan(&|id| {
                    let n = f.doc.node(id);
                    n.tag == tag && n.value.as_deref().is_some_and(|x| fnv1a(x) == fnv1a(v))
                });
                prop_assert_eq!(f.index.by_value(tag, v), &by_value[..], "{}={}", name, v);
                prop_assert!(ascending(f.index.by_value(tag, v)));
                let wide = engine.candidates(Some(tag));
                let narrow = engine.candidates_for(Some(tag), Some(v));
                prop_assert!(narrow.iter().all(|p| wide.binary_search(p).is_ok()));
            }
        }
    }

    #[test]
    fn canonical_query_string_roundtrips_through_engine(
        doc in arb_doc(),
        pattern in arb_pattern(),
    ) {
        // Rendering the pattern and re-parsing it must not change results
        // when the returning node lies on the main path (the renderer picks
        // a main path through the returning node).
        let map = arb_map(doc.len());
        let _ = map; // strategy unused here; all-grant suffices
        let mut grant = AccessibilityMap::new(1, doc.len());
        for p in 0..doc.len() {
            grant.set(SubjectId(0), NodeId(p as u32), true);
        }
        let f = build(doc, &grant, 300);
        let engine = f.engine();
        let rendered = pattern.to_query_string();
        if let Ok(reparsed) = dol_nok::parse_query(&rendered) {
            if reparsed == pattern {
                let a = engine
                    .execute_plan(&QueryPlan::new(pattern.clone()), Security::None)
                    .unwrap()
                    .matches;
                let b = engine.execute(&rendered, Security::None).unwrap().matches;
                prop_assert_eq!(a, b, "query {}", rendered);
            }
        }
    }
}
