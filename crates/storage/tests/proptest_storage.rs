//! Property tests for the storage substrate: the NoK block store's code
//! runs and structural splices vs flat models.

use dol_storage::{BufferPool, BulkItem, MemDisk, StoreConfig, StructStore};
use dol_xml::{Document, DocumentBuilder, TagId};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// NoK store: code runs + structural splices vs flat models
// ---------------------------------------------------------------------

fn arb_tree_doc(max: usize) -> impl Strategy<Value = Document> {
    proptest::collection::vec((0u8..3, 0u8..4), 1..max).prop_map(|raw| {
        let mut b = DocumentBuilder::new();
        b.open("r");
        let mut depth = 1;
        for (tag, action) in raw {
            match action {
                0 if depth < 7 => {
                    b.open(["x", "y", "z"][tag as usize]);
                    depth += 1;
                }
                1 | 2 => {
                    b.leaf(["x", "y", "z"][tag as usize], None);
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

fn build_store(doc: &Document, codes: &[u32], max_rec: usize) -> StructStore {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256));
    let items: Vec<BulkItem> = doc
        .preorder()
        .map(|id| {
            let n = doc.node(id);
            let i = id.index();
            BulkItem {
                tag: n.tag,
                size: n.size,
                depth: n.depth,
                has_value: false,
                code: codes[i],
                is_transition: i == 0 || codes[i] != codes[i - 1],
            }
        })
        .collect();
    StructStore::build(
        pool,
        StoreConfig {
            max_records_per_block: max_rec,
        },
        items,
    )
    .unwrap()
}

fn model_transitions(codes: &[u32]) -> u64 {
    let mut t = 1;
    for w in codes.windows(2) {
        if w[0] != w[1] {
            t += 1;
        }
    }
    t
}

proptest! {
    #[test]
    fn code_runs_match_flat_model(
        doc in arb_tree_doc(50),
        initial in proptest::collection::vec(0u32..4, 50),
        runs in proptest::collection::vec((any::<u16>(), any::<u16>(), 0u32..4), 0..20),
        max_rec in prop_oneof![Just(3usize), Just(8usize), Just(300usize)],
    ) {
        let n = doc.len();
        let mut model: Vec<u32> = initial[..n].to_vec();
        // Smooth the initial assignment a bit so transition tables fit.
        for i in 1..n {
            if i % 3 != 0 {
                model[i] = model[i - 1];
            }
        }
        let mut store = build_store(&doc, &model, max_rec);
        store.check_integrity().unwrap();
        for (a, b, code) in runs {
            let start = u64::from(a) % n as u64;
            let end = (start + 1 + u64::from(b) % (n as u64 - start)).min(n as u64);
            let before = store.logical_transition_count().unwrap();
            store.set_code_run(start, end, code).unwrap();
            for p in start..end {
                model[p as usize] = code;
            }
            store.check_integrity().unwrap();
            let after = store.logical_transition_count().unwrap();
            prop_assert!(after <= before + 2, "Proposition 1: {before} -> {after}");
            prop_assert_eq!(after, model_transitions(&model));
            for p in 0..n as u64 {
                prop_assert_eq!(store.code_at(p).unwrap(), model[p as usize], "pos {}", p);
            }
            // runs_in reconstructs the model over random windows too.
            let w_end = end.min(n as u64);
            let w_start = start.min(w_end - 1);
            let rs = store.runs_in(w_start, w_end).unwrap();
            for p in w_start..w_end {
                let i = rs.partition_point(|&(q, _)| q <= p) - 1;
                prop_assert_eq!(rs[i].1, model[p as usize]);
            }
        }
    }

    #[test]
    fn delete_subtrees_matches_document_model(
        doc in arb_tree_doc(60),
        picks in proptest::collection::vec(any::<u32>(), 1..6),
        max_rec in prop_oneof![Just(3usize), Just(300usize)],
    ) {
        let codes: Vec<u32> = (0..doc.len()).map(|i| (i / 5) as u32 % 3).collect();
        let mut store = build_store(&doc, &codes, max_rec);
        let mut model_doc = doc.clone();
        let mut model_codes = codes;
        for pick in picks {
            if model_doc.len() < 2 {
                break;
            }
            let victim = 1 + (pick as usize % (model_doc.len() - 1));
            let id = dol_xml::NodeId(victim as u32);
            let size = model_doc.node(id).size as usize;
            store.delete_run(victim as u64, (victim + size) as u64).unwrap();
            model_doc.delete_subtree(id).unwrap();
            // Flat model: remove the range, then the boundary-transition
            // semantics of the store must still reproduce the codes.
            model_codes.drain(victim..victim + size);
            store.check_integrity().unwrap();
            prop_assert_eq!(store.total_nodes(), model_doc.len() as u64);
            for (p, &mc) in model_codes.iter().enumerate() {
                prop_assert_eq!(store.code_at(p as u64).unwrap(), mc);
                let rec = store.node(p as u64).unwrap();
                prop_assert_eq!(rec.size, model_doc.node(dol_xml::NodeId(p as u32)).size);
            }
            prop_assert_eq!(
                store.logical_transition_count().unwrap(),
                model_transitions(&model_codes)
            );
        }
    }

    #[test]
    fn insert_subtrees_matches_document_model(
        doc in arb_tree_doc(40),
        sub in arb_tree_doc(12),
        parent_pick in any::<u32>(),
        code in 0u32..4,
    ) {
        let codes: Vec<u32> = (0..doc.len()).map(|i| (i / 4) as u32 % 3).collect();
        let mut store = build_store(&doc, &codes, 4);
        let mut model_doc = doc.clone();
        let mut model_codes = codes;

        let parent = dol_xml::NodeId(parent_pick % model_doc.len() as u32);
        let at = parent.0 as u64 + model_doc.node(parent).size as u64;
        let parent_depth = model_doc.node(parent).depth;
        // Encode `sub` with a uniform code.
        let mut tags = model_doc.tags().clone();
        let items: Vec<BulkItem> = sub
            .preorder()
            .map(|id| {
                let n = sub.node(id);
                BulkItem {
                    tag: TagId(tags.intern(sub.tags().name(n.tag)).0),
                    size: n.size,
                    depth: n.depth + parent_depth + 1,
                    has_value: false,
                    code,
                    is_transition: false,
                }
            })
            .collect();
        let mut ancestors: Vec<u64> = store.ancestors_of(parent.0 as u64).unwrap();
        ancestors.push(parent.0 as u64);
        store.insert_run(at, &ancestors, &items).unwrap();
        model_doc.insert_subtree(parent, None, &sub).unwrap();
        model_codes.splice(at as usize..at as usize, vec![code; sub.len()]);

        store.check_integrity().unwrap();
        prop_assert_eq!(store.total_nodes(), model_doc.len() as u64);
        for (p, &mc) in model_codes.iter().enumerate() {
            prop_assert_eq!(store.code_at(p as u64).unwrap(), mc, "pos {}", p);
            let rec = store.node(p as u64).unwrap();
            prop_assert_eq!(rec.size, model_doc.node(dol_xml::NodeId(p as u32)).size);
            prop_assert_eq!(rec.depth, model_doc.node(dol_xml::NodeId(p as u32)).depth);
        }
    }
}
