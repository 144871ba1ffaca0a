//! End-to-end update tests: accessibility and structural updates through the
//! full stack, re-validated against ground truth after every step. The
//! ground truth is a model kept beside the database — an access map, and a
//! `Document` that takes the same structural edits — never the database's
//! own view of itself.

mod common;

use common::{naive_eval, RefSecurity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::acl::{AccessibilityMap, SubjectId};
use secure_xml::workloads::{synth_multi, xmark, SynthAclConfig, XmarkConfig};
use secure_xml::xml::{Document, NodeId};
use secure_xml::{DbConfig, SecureXmlDb, Security};

fn setup() -> (SecureXmlDb, AccessibilityMap, Document) {
    let doc = xmark(&XmarkConfig {
        scale: 0.02,
        seed: 5,
    });
    let map = synth_multi(
        &doc,
        &SynthAclConfig {
            propagation_ratio: 0.04,
            accessibility_ratio: 0.5,
            sibling_locality: 0.5,
            seed: 77,
        },
        3,
    );
    let db = SecureXmlDb::with_config(
        doc.clone(),
        &map,
        DbConfig {
            buffer_pool_pages: 48,
            max_records_per_block: 16,
            epoch_retain: 8,
        },
    )
    .unwrap();
    (db, map, doc)
}

#[test]
fn random_accessibility_updates_stay_consistent() {
    let (mut db, map, _) = setup();
    let mut truth = map.clone();
    let n = db.len() as u64;
    let mut rng = StdRng::seed_from_u64(123);
    for step in 0..120 {
        let s = SubjectId(rng.gen_range(0..3));
        let allow = rng.gen_bool(0.5);
        let pos = rng.gen_range(0..n);
        if rng.gen_bool(0.4) {
            // Subtree update.
            let size = db.store().node(pos).unwrap().size as u64;
            db.set_subtree_access(pos, s, allow).unwrap();
            for p in pos..pos + size {
                truth.set(s, NodeId(p as u32), allow);
            }
        } else {
            db.set_node_access(pos, s, allow).unwrap();
            truth.set(s, NodeId(pos as u32), allow);
        }
        // Spot-check a sample of positions every step, all of them sometimes.
        let stride = if step % 20 == 19 { 1 } else { 97 };
        for p in (0..n).step_by(stride) {
            for subj in 0..3u32 {
                assert_eq!(
                    db.accessible(p, SubjectId(subj)).unwrap(),
                    truth.accessible(SubjectId(subj), NodeId(p as u32)),
                    "step {step} pos {p} subject {subj}"
                );
            }
        }
    }
    db.store().check_integrity().unwrap();
}

#[test]
fn updates_change_query_results_correctly() {
    let (mut db, map, _) = setup();
    let q = "//item[name][quantity]";
    let s = SubjectId(0);
    // Grant everything to subject 0: secure results equal unsecured results.
    db.set_subtree_access(0, s, true).unwrap();
    let all = db.query(q, Security::None).unwrap().matches;
    let sec = db.query(q, Security::BindingLevel(s)).unwrap().matches;
    assert_eq!(all, sec);
    // Revoke everything: no results.
    db.set_subtree_access(0, s, false).unwrap();
    assert!(db
        .query(q, Security::BindingLevel(s))
        .unwrap()
        .matches
        .is_empty());
    let _ = map;
}

#[test]
fn structural_updates_keep_queries_correct() {
    let (mut db, _, mut model) = setup();
    // Delete a handful of item subtrees from the database and the model,
    // re-validating the document and the queries against the model each
    // time.
    for _ in 0..5 {
        let items = db.query("//item", Security::None).unwrap().matches;
        if items.len() < 2 {
            break;
        }
        let victim = items[items.len() / 2];
        db.delete_subtree(victim).unwrap();
        model.delete_subtree(NodeId(victim as u32)).unwrap();
        db.store().check_integrity().unwrap();
        assert_eq!(db.document().to_xml(), model.to_xml());
        for q in ["//item/name", "//parlist//parlist", "//item//emph"] {
            let got = db.query(q, Security::None).unwrap().matches;
            let expect = naive_eval(&model, q, RefSecurity::None);
            assert_eq!(got, expect, "after delete, query {q}");
        }
    }
}

#[test]
fn insert_then_query_finds_new_content() {
    let (mut db, _, mut model) = setup();
    let africa = db.query("//africa", Security::None).unwrap().matches[0];
    let sub = secure_xml::xml::parse(
        "<item><location>zanzibar</location><quantity>3</quantity><name>unobtainium</name></item>",
    )
    .unwrap();
    let before = db
        .query("//item[name=\"unobtainium\"]", Security::None)
        .unwrap();
    assert!(before.matches.is_empty());
    let at = db.insert_subtree(africa, &sub).unwrap();
    let model_at = model
        .insert_subtree(NodeId(africa as u32), None, &sub)
        .unwrap();
    assert_eq!(u64::from(model_at.0), at);
    db.store().check_integrity().unwrap();
    assert_eq!(db.document().to_xml(), model.to_xml());
    let after = db
        .query("//item[name=\"unobtainium\"]", Security::None)
        .unwrap();
    assert_eq!(after.matches, vec![at]);
    // Cross-check everything against the model.
    for q in ["//africa/item", "//item/quantity"] {
        let got = db.query(q, Security::None).unwrap().matches;
        let expect = naive_eval(&model, q, RefSecurity::None);
        assert_eq!(got, expect, "after insert, query {q}");
    }
}

#[test]
fn subject_add_remove_lifecycle_end_to_end() {
    let (mut db, _, _) = setup();
    let clone = db.add_subject(Some(SubjectId(1))).unwrap();
    for p in (0..db.len() as u64).step_by(41) {
        assert_eq!(
            db.accessible(p, clone).unwrap(),
            db.accessible(p, SubjectId(1)).unwrap()
        );
    }
    // Diverge the clone, then remove the original.
    db.set_subtree_access(0, clone, true).unwrap();
    db.remove_subject(SubjectId(1)).unwrap();
    assert!(db.accessible(0, clone).unwrap());
    assert!(!db.accessible(0, SubjectId(1)).unwrap());
}
