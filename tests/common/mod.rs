//! Shared test infrastructure: re-exports the engine's reference evaluator
//! (see `dol_nok::reference`) under the names the integration tests use,
//! and the whole-database fingerprint the persistence tests compare.

#![allow(dead_code)] // each integration test binary uses a subset

use secure_xml::acl::{AccessibilityMap, SubjectId};
use secure_xml::xml::{Document, NodeId};
use secure_xml::{SecureXmlDb, Security};

pub use secure_xml::query::reference::RefSecurity;

/// Evaluates `query` over `doc` with the naive reference algorithm.
pub fn naive_eval(doc: &Document, query: &str, sec: RefSecurity<'_>) -> Vec<u64> {
    secure_xml::query::reference::naive_eval_str(doc, query, sec)
}

/// Builds an all-grant map.
pub fn grant_all(subjects: usize, nodes: usize) -> AccessibilityMap {
    let mut m = AccessibilityMap::new(subjects, nodes);
    for s in 0..subjects {
        for p in 0..nodes {
            m.set(SubjectId(s as u32), NodeId(p as u32), true);
        }
    }
    m
}

/// Everything the database can answer, as one comparable string: the
/// serialized XML, the full subject × node accessibility matrix, every node
/// value, and `suite` under all three security semantics.
pub fn fingerprint(db: &SecureXmlDb, suite: &[&str]) -> String {
    let mut out = String::new();
    out.push_str(&db.document().to_xml());
    out.push('\n');
    let subjects = db.dol_stats().unwrap().subjects;
    for s in 0..subjects {
        for p in 0..db.len() as u64 {
            out.push(if db.accessible(p, SubjectId(s as u32)).unwrap() {
                '1'
            } else {
                '0'
            });
        }
        out.push('\n');
    }
    for p in 0..db.len() as u64 {
        if let Some(v) = db.value(p).unwrap() {
            out.push_str(&format!("{p}={v};"));
        }
    }
    out.push('\n');
    for q in suite {
        out.push_str(&format!(
            "{:?}",
            db.query(q, Security::None).unwrap().matches
        ));
        for s in 0..subjects {
            let sid = SubjectId(s as u32);
            out.push_str(&format!(
                "|{:?}/{:?}",
                db.query(q, Security::BindingLevel(sid)).unwrap().matches,
                db.query(q, Security::SubtreeVisibility(sid))
                    .unwrap()
                    .matches,
            ));
        }
        out.push('\n');
    }
    out
}
