//! End-to-end dissemination: the pruned-view export and the subtree-secure
//! query semantics must tell one consistent story.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::acl::{AccessibilityMap, SubjectId};
use secure_xml::workloads::{synth_multi, xmark, SynthAclConfig, XmarkConfig};
use secure_xml::xml::{Document, NodeId};
use secure_xml::{SecureXmlDb, Security};

fn setup() -> (SecureXmlDb, AccessibilityMap) {
    let doc = xmark(&XmarkConfig {
        scale: 0.03,
        seed: 21,
    });
    let mut map = synth_multi(
        &doc,
        &SynthAclConfig {
            propagation_ratio: 0.05,
            accessibility_ratio: 0.7,
            sibling_locality: 0.5,
            seed: 5,
        },
        2,
    );
    // Keep the root visible so the export is non-empty.
    map.set(SubjectId(0), NodeId(0), true);
    let db = SecureXmlDb::from_document(doc, &map).unwrap();
    (db, map)
}

#[test]
fn export_contains_exactly_the_visible_nodes() {
    let (db, map) = setup();
    let s = SubjectId(0);
    let out = db.export_visible(s).unwrap().expect("root visible");
    let exported = secure_xml::xml::parse(&out).unwrap();
    // Expected: nodes whose whole ancestor path is accessible.
    let doc = db.document();
    let visible: Vec<NodeId> = doc
        .preorder()
        .filter(|&n| map.accessible(s, n) && doc.ancestors(n).all(|a| map.accessible(s, a)))
        .collect();
    // `#text` boundaries cannot survive an XML round trip: pruning an element
    // between two text runs leaves adjacent character data, which serializes
    // as one run (and a lone run coalesces into the parent's value). So the
    // export may hold *fewer* text nodes than the oracle, never more, and
    // element/attribute nodes must match one-for-one in document order.
    let is_text = |name: &str| name == "#text";
    let exported_elems: Vec<_> = exported
        .preorder()
        .filter(|&e| !is_text(exported.name_of(e)))
        .collect();
    let visible_elems: Vec<_> = visible
        .iter()
        .copied()
        .filter(|&v| !is_text(doc.name_of(v)))
        .collect();
    assert_eq!(exported_elems.len(), visible_elems.len());
    for (&e, &v) in exported_elems.iter().zip(&visible_elems) {
        assert_eq!(exported.name_of(e), doc.name_of(v));
    }
    assert!(exported.len() <= visible.len());
    let text_count =
        |d: &secure_xml::xml::Document| d.preorder().filter(|&n| is_text(d.name_of(n))).count();
    assert!(text_count(&exported) <= visible.len() - visible_elems.len());
}

#[test]
fn export_agrees_with_subtree_visibility_queries() {
    let (db, _) = setup();
    let s = SubjectId(0);
    let out = db.export_visible(s).unwrap().expect("root visible");
    let exported = secure_xml::xml::parse(&out).unwrap();
    // Every tag's GB-secure match count on the full database equals its
    // node count in the exported fragment.
    for tag in ["item", "keyword", "category", "parlist", "person"] {
        let gb = db
            .query(&format!("//{tag}"), Security::SubtreeVisibility(s))
            .unwrap();
        let in_export = exported
            .tags()
            .get(tag)
            .map(|t| exported.nodes_with_tag(t).len())
            .unwrap_or(0);
        assert_eq!(gb.matches.len(), in_export, "tag {tag}");
    }
}

#[test]
fn export_for_blind_subject_is_none() {
    let (mut db, _) = setup();
    let blind = db.add_subject(None).unwrap();
    assert!(db.export_visible(blind).unwrap().is_none());
}

/// The reference export: `doc` with the subtree of every node `s` may not
/// see deleted (topmost first found, deleted back to front so the earlier
/// ids stay put); `None` if that is the root.
fn pruned(doc: &Document, map: &AccessibilityMap, s: SubjectId) -> Option<String> {
    let mut doomed = Vec::new();
    let mut p = 0;
    while p < doc.len() {
        if map.accessible(s, NodeId(p as u32)) {
            p += 1;
        } else {
            doomed.push(NodeId(p as u32));
            p += doc.node(NodeId(p as u32)).size as usize;
        }
    }
    if doomed.first() == Some(&doc.root()) {
        return None;
    }
    let mut out = doc.clone();
    for &n in doomed.iter().rev() {
        out.delete_subtree(n).unwrap();
    }
    Some(out.to_xml())
}

#[test]
fn export_equals_the_pruned_model_for_random_subjects() {
    const SUBJECTS: u32 = 6;
    let model = xmark(&XmarkConfig {
        scale: 0.03,
        seed: 21,
    });
    let acl = SynthAclConfig {
        propagation_ratio: 0.05,
        accessibility_ratio: 0.8,
        sibling_locality: 0.5,
        seed: 9,
    };
    let mut map = synth_multi(&model, &acl, SUBJECTS as usize);
    let mut db = SecureXmlDb::from_document(model.clone(), &map).unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let mut shown = 0;
    for _ in 0..24 {
        // Grant or revoke a random subtree, in the database and the map,
        // then export for a random subject.
        let s = SubjectId(rng.gen_range(0..SUBJECTS));
        let pos = rng.gen_range(0..model.len() as u32);
        let allow = rng.gen_bool(0.6);
        db.set_subtree_access(u64::from(pos), s, allow).unwrap();
        for p in model.subtree_range(NodeId(pos)) {
            map.set(s, NodeId(p), allow);
        }
        let s = SubjectId(rng.gen_range(0..SUBJECTS));
        let want = pruned(&model, &map, s);
        shown += usize::from(want.is_some());
        assert_eq!(db.export_visible(s).unwrap(), want, "subject {s}");
    }
    assert!(
        shown > 8,
        "the sequence must keep exports non-empty: {shown}"
    );
}
