//! Property tests for fail-closed semantics under storage faults: over
//! random documents, random twig patterns, random labelings and random
//! deterministic fault schedules, a secure query on a faulty store must
//! never error, never panic, and never return an answer the fault-free
//! oracle would not — corruption may *hide* nodes, never *leak* them.
//! Unsecured queries have nothing to protect, so they may surface the
//! storage error instead; but when they succeed they must be exact.

use dol_acl::{AccessibilityMap, SubjectId};
use dol_core::EmbeddedDol;
use dol_nok::{Axis, NodeIndex, PatternTree, QueryEngine, QueryPlan, Security};
use dol_storage::{
    BufferPool, FaultConfig, FaultDisk, MemDisk, StoreConfig, StructStore, ValueStore,
};
use dol_xml::{Document, DocumentBuilder, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const VALUES: [&str; 2] = ["x", "y"];

/// Random document: a stack-disciplined walk over a small tag alphabet,
/// some nodes carrying values (same shape as `proptest_engine`).
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

/// Random fault schedule. Rates are deliberately brutal compared to any
/// real disk — small documents need dense faults to hit the interesting
/// paths — and include `0.0` so some cases double as a no-fault control.
fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (
        any::<u64>(),
        prop_oneof![Just(0.0), Just(0.1), Just(0.5)], // transient_read_error
        prop_oneof![Just(0.0), Just(0.1), Just(0.4)], // sticky_bit_flip
        prop_oneof![Just(0.0), Just(0.1), Just(0.4)], // permanent_read_failure
        prop_oneof![Just(0.0), Just(0.2)],            // read_bit_flip
    )
        .prop_map(
            |(
                seed,
                transient_read_error,
                sticky_bit_flip,
                permanent_read_failure,
                read_bit_flip,
            )| {
                FaultConfig {
                    seed,
                    transient_read_error,
                    sticky_bit_flip,
                    permanent_read_failure,
                    read_bit_flip,
                    ..FaultConfig::default()
                }
            },
        )
}

struct Fixture {
    store: StructStore,
    values: ValueStore,
    dol: EmbeddedDol,
    doc: Document,
    pool: Arc<BufferPool>,
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

fn build(disk: Arc<dyn dol_storage::Disk>, doc: Document, map: &AccessibilityMap) -> Fixture {
    let pool = Arc::new(BufferPool::new(disk, 64));
    let (store, dol) = EmbeddedDol::build(
        pool.clone(),
        StoreConfig {
            max_records_per_block: 4,
        },
        &doc,
        map,
    )
    .unwrap();
    let mut values = ValueStore::new(pool.clone());
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
        pool,
        index,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn faulty_secure_answers_are_a_subset_of_the_oracle(
        doc in arb_doc(),
        pattern in arb_pattern(),
        bits in proptest::collection::vec(any::<bool>(), 0..120),
        faults in arb_faults(),
    ) {
        let n = doc.len();
        let mut map = AccessibilityMap::new(2, n);
        for (i, bit) in bits.iter().enumerate() {
            if *bit {
                map.set(SubjectId((i / n.max(1) % 2) as u32), NodeId((i % n.max(1)) as u32), true);
            }
        }

        // Twin builds: the fault decorator is disarmed during the build and
        // allocation always passes through, so the faulty twin's page layout
        // is byte-identical to the fault-free oracle's.
        let oracle = build(Arc::new(MemDisk::new()), doc.clone(), &map);
        let fault = Arc::new(FaultDisk::new(Arc::new(MemDisk::new()), faults));
        fault.set_armed(false);
        let faulty = build(fault.clone(), doc, &map);
        let oracle_engine = oracle.engine();
        let faulty_engine = faulty.engine();
        faulty.pool.flush_all().unwrap();
        fault.set_armed(true);
        faulty.pool.clear_cache().unwrap();

        let plan = QueryPlan::new(pattern.clone());
        for s in [SubjectId(0), SubjectId(1)] {
            for sec in [Security::BindingLevel(s), Security::SubtreeVisibility(s)] {
                let expect = oracle_engine.execute_plan(&plan, sec).unwrap();
                faulty.pool.clear_cache().unwrap();
                // Fail-closed: secure execution never errors, whatever the
                // schedule throws at it.
                let got = faulty_engine.execute_plan(&plan, sec).unwrap_or_else(|e| {
                    panic!(
                        "secure query errored under faults ({sec:?}): {e} — query {}",
                        pattern.to_query_string()
                    )
                });
                for m in &got.matches {
                    prop_assert!(
                        expect.matches.contains(m),
                        "{sec:?}: faulty store leaked {m:?} absent from the oracle — query {}",
                        pattern.to_query_string()
                    );
                }
                if got.matches.len() < expect.matches.len() {
                    // Losing answers is only legitimate if something
                    // actually failed closed along the way.
                    prop_assert!(
                        got.stats.blocks_failed_closed > 0,
                        "{sec:?}: answers disappeared without a recorded fail-closed block"
                    );
                }
            }
        }

        // Unsecured runs may propagate the storage error; a successful run
        // must be exact.
        let expect = oracle_engine.execute_plan(&plan, Security::None).unwrap();
        faulty.pool.clear_cache().unwrap();
        if let Ok(got) = faulty_engine.execute_plan(&plan, Security::None) {
            prop_assert_eq!(
                &got.matches,
                &expect.matches,
                "unsecured run succeeded but differs — query {}",
                pattern.to_query_string()
            );
            prop_assert_eq!(got.stats.blocks_failed_closed, 0);
        }
    }
}
