//! Property tests for the DOL: logical builds and updates against a
//! materialized accessibility-map model, and the physical embedding against
//! the logical representation.

use dol_acl::{AccessibilityMap, BitVec, SubjectId};
use dol_core::{Dol, EmbeddedDol};
use dol_storage::{BufferPool, MemDisk, StoreConfig};
use dol_xml::{Document, DocumentBuilder, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_doc(max: usize) -> impl Strategy<Value = Document> {
    proptest::collection::vec(0u8..4, 1..max).prop_map(|raw| {
        let mut b = DocumentBuilder::new();
        b.open("r");
        let mut depth = 1;
        for action in raw {
            match action {
                0 if depth < 7 => {
                    b.open("n");
                    depth += 1;
                }
                1 | 2 => {
                    b.leaf("n", None);
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

fn arb_map(nodes: usize, subjects: usize) -> impl Strategy<Value = AccessibilityMap> {
    proptest::collection::vec(any::<u8>(), nodes).prop_map(move |bytes| {
        let mut m = AccessibilityMap::new(subjects, nodes);
        for (i, b) in bytes.iter().enumerate() {
            for s in 0..subjects {
                // Runs of equal bytes give DOL-ish locality.
                let v = (b >> (s % 8)) & 1 == 1;
                if v {
                    m.set(SubjectId(s as u32), NodeId(i as u32), true);
                }
            }
        }
        m
    })
}

#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)] // the Set* prefix mirrors the API names
enum Update {
    SetNode(u32, u8, bool),
    SetSubtree(u32, u8, bool),
    SetRun(u32, u32, u8),
}

fn arb_updates() -> impl Strategy<Value = Vec<Update>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u32>(), 0u8..3, any::<bool>()).prop_map(|(p, s, a)| Update::SetNode(p, s, a)),
            (any::<u32>(), 0u8..3, any::<bool>()).prop_map(|(p, s, a)| Update::SetSubtree(p, s, a)),
            (any::<u32>(), any::<u32>(), any::<u8>()).prop_map(|(a, b, v)| Update::SetRun(a, b, v)),
        ],
        0..25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn logical_dol_tracks_model_through_updates(
        doc in arb_doc(50),
        map in prop::strategy::Just(()).prop_flat_map(|_| arb_map(50, 3)),
        updates in arb_updates(),
    ) {
        let n = doc.len();
        let map = map.project(&(0..3).map(|s| SubjectId(s as u32)).collect::<Vec<_>>());
        // Clamp the map to the document's node count.
        let mut truth = AccessibilityMap::new(3, n);
        for s in 0..3u32 {
            for p in 0..n {
                if map.accessible(SubjectId(s), NodeId(p as u32)) {
                    truth.set(SubjectId(s), NodeId(p as u32), true);
                }
            }
        }
        let mut dol = Dol::build(&doc, &truth);
        dol.verify_against(&truth).unwrap();

        for u in updates {
            let before = dol.transition_count();
            match u {
                Update::SetNode(p, s, allow) => {
                    let p = u64::from(p) % n as u64;
                    let s = SubjectId(u32::from(s));
                    dol.set_node(p, s, allow);
                    truth.set(s, NodeId(p as u32), allow);
                }
                Update::SetSubtree(p, s, allow) => {
                    let p = (u64::from(p) % n as u64) as u32;
                    let s = SubjectId(u32::from(s));
                    let size = doc.node(NodeId(p)).size;
                    dol.set_subtree(u64::from(p), u64::from(p + size), s, allow);
                    for q in p..p + size {
                        truth.set(s, NodeId(q), allow);
                    }
                }
                Update::SetRun(a, b, v) => {
                    let a = u64::from(a) % n as u64;
                    let b = a + 1 + u64::from(b) % (n as u64 - a);
                    let acl = BitVec::from_fn(3, |i| (v >> i) & 1 == 1);
                    dol.set_run(a, b, &acl);
                    for q in a..b {
                        for s in 0..3usize {
                            truth.set(SubjectId(s as u32), NodeId(q as u32), acl.get(s));
                        }
                    }
                }
            }
            dol.check_invariants().unwrap();
            prop_assert!(dol.transition_count() <= before + 2, "Proposition 1");
            dol.verify_against(&truth).unwrap();
        }
    }

    #[test]
    fn embedded_equals_logical_through_updates(
        doc in arb_doc(40),
        updates in arb_updates(),
        max_rec in prop_oneof![Just(3usize), Just(300usize)],
    ) {
        let n = doc.len();
        let mut truth = AccessibilityMap::new(3, n);
        for p in 0..n {
            if p % 2 == 0 {
                truth.set(SubjectId(0), NodeId(p as u32), true);
            }
            if p % 5 < 3 {
                truth.set(SubjectId(1), NodeId(p as u32), true);
            }
        }
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
        let (mut store, mut emb) = EmbeddedDol::build(
            pool,
            StoreConfig { max_records_per_block: max_rec },
            &doc,
            &truth,
        ).unwrap();
        let mut logical = Dol::build(&doc, &truth);

        for u in updates {
            match u {
                Update::SetNode(p, s, allow) => {
                    let p = u64::from(p) % n as u64;
                    let s = SubjectId(u32::from(s));
                    emb.set_node(&mut store, p, s, allow).unwrap();
                    logical.set_node(p, s, allow);
                }
                Update::SetSubtree(p, s, allow) => {
                    let p = (u64::from(p) % n as u64) as u32;
                    let s = SubjectId(u32::from(s));
                    let size = doc.node(NodeId(p)).size;
                    emb.set_subtree(&mut store, u64::from(p), u64::from(p + size), s, allow)
                        .unwrap();
                    logical.set_subtree(u64::from(p), u64::from(p + size), s, allow);
                }
                Update::SetRun(a, b, v) => {
                    let a = u64::from(a) % n as u64;
                    let b = a + 1 + u64::from(b) % (n as u64 - a);
                    let acl = BitVec::from_fn(3, |i| (v >> i) & 1 == 1);
                    emb.set_run(&mut store, a, b, &acl).unwrap();
                    logical.set_run(a, b, &acl);
                }
            }
            store.check_integrity().unwrap();
            // The embedded representation must express the same function
            // (codes may be interned in a different order).
            for p in 0..n as u64 {
                for s in 0..3u32 {
                    prop_assert_eq!(
                        emb.accessible(&store, p, SubjectId(s)).unwrap(),
                        logical.accessible(p, SubjectId(s)),
                        "pos {} subject {}", p, s
                    );
                }
            }
            // And with the same compactness (transition-for-transition).
            prop_assert_eq!(
                store.logical_transition_count().unwrap() as usize,
                logical.transition_count()
            );
        }
    }
}
