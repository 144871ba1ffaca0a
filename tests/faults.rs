//! End-to-end fault robustness through the public API: a [`SecureXmlDb`]
//! built over a [`FaultDisk`] must fail closed under secure semantics
//! (answers shrink, queries never error) and fail loudly — a typed error,
//! never a wrong answer — when unsecured.

mod common;

use common::{naive_eval, RefSecurity};
use secure_xml::acl::{AccessibilityMap, SubjectId};
use secure_xml::storage::{FaultConfig, FaultDisk, MemDisk};
use secure_xml::workloads::{synth_multi, xmark, SynthAclConfig, XmarkConfig};
use secure_xml::xml::Document;
use secure_xml::{DbConfig, SecureXmlDb, Security};
use std::sync::Arc;

const QUERIES: &[&str] = &[
    "/site/regions/africa/item[location][name][quantity]",
    "//listitem//keyword",
    "//item//emph",
    "//category[name]",
];

/// The database over a faulty disk, the disk, and the model the oracle
/// evaluates: the generated document and its access map, kept in memory.
fn build_on_faulty(cfg: FaultConfig) -> (SecureXmlDb, Arc<FaultDisk>, AccessibilityMap, Document) {
    let doc = xmark(&XmarkConfig {
        scale: 0.04,
        seed: 99,
    });
    let map = synth_multi(
        &doc,
        &SynthAclConfig {
            propagation_ratio: 0.05,
            accessibility_ratio: 0.6,
            sibling_locality: 0.5,
            seed: 41,
        },
        2,
    );
    let fault = Arc::new(FaultDisk::new(Arc::new(MemDisk::new()), cfg));
    fault.set_armed(false);
    let db = SecureXmlDb::with_config_on(
        fault.clone(),
        doc.clone(),
        &map,
        DbConfig {
            buffer_pool_pages: 64,
            max_records_per_block: 24,
            epoch_retain: 8,
        },
    )
    .unwrap();
    db.store().pool().flush_all().unwrap();
    fault.set_armed(true);
    db.store().pool().clear_cache().unwrap();
    (db, fault, map, doc)
}

#[test]
fn secure_queries_fail_closed_through_the_public_api() {
    // Every read of an unlucky page fails; bit flips corrupt some others.
    let (db, fault, map, model) = build_on_faulty(FaultConfig {
        seed: 77,
        transient_read_error: 0.05,
        sticky_bit_flip: 0.05,
        permanent_read_failure: 0.1,
        ..FaultConfig::default()
    });
    let subject = SubjectId(0);
    for q in QUERIES {
        // The oracle evaluates the in-memory model — no storage involved,
        // so faults cannot touch it.
        let expect = naive_eval(&model, q, RefSecurity::Binding(&map, subject));
        db.store().pool().clear_cache().unwrap();
        let got = db
            .query(q, Security::BindingLevel(subject))
            .unwrap_or_else(|e| panic!("{q}: secure query must not error: {e}"));
        for m in &got.matches {
            assert!(
                expect.contains(m),
                "{q}: faulty store leaked {m} absent from the reference answer"
            );
        }
    }
    assert!(
        fault.stats().total_injected() > 0,
        "the schedule must actually have fired"
    );

    // Disarmed, the same database answers exactly.
    fault.set_armed(false);
    db.store().pool().clear_cache().unwrap();
    for q in QUERIES {
        let expect = naive_eval(&model, q, RefSecurity::Binding(&map, SubjectId(0)));
        let got = db.query(q, Security::BindingLevel(SubjectId(0))).unwrap();
        assert_eq!(got.matches, expect, "{q}: clean store must be exact");
        assert_eq!(got.stats.blocks_failed_closed, 0);
    }
}

/// A fail-closed answer is a subset, not the answer: the shared result
/// cache must not keep it, or every reader — and the wire's pre-encoded
/// hit path — goes on serving the subset after the fault clears.
#[test]
fn a_fail_closed_answer_is_never_cached() {
    let (db, fault, map, model) = build_on_faulty(FaultConfig {
        seed: 5,
        permanent_read_failure: 1.0,
        ..FaultConfig::default()
    });
    let (q, subject) = ("//item//emph", SubjectId(0));
    let sec = Security::BindingLevel(subject);
    let encode = |m: &[u64]| Arc::from(format!("{m:?}").into_bytes());
    let reader = db.reader();
    let faulted = reader.query(q, sec).unwrap();
    assert!(faulted.stats.blocks_failed_closed > 0);
    assert!(reader.cached_encoded(q, sec, encode).is_none());

    fault.set_armed(false);
    db.store().pool().clear_cache().unwrap();
    let expect = naive_eval(&model, q, RefSecurity::Binding(&map, subject));
    assert!(!expect.is_empty(), "the probe must have something to lose");
    for r in [&reader, &db.reader()] {
        let got = r.query(q, sec).unwrap();
        assert_eq!(got.matches, expect, "{q}: a healed store answers exactly");
        assert_eq!(got.stats.blocks_failed_closed, 0);
    }
    // The exact answer is cached like any other.
    assert!(reader.cached_encoded(q, sec, encode).is_some());
}

#[test]
fn unsecured_queries_surface_the_storage_error() {
    let (db, _fault, _map, _) = build_on_faulty(FaultConfig {
        seed: 5,
        permanent_read_failure: 1.0,
        ..FaultConfig::default()
    });
    for q in QUERIES {
        db.store().pool().clear_cache().unwrap();
        let res = db.query(q, Security::None);
        assert!(
            res.is_err(),
            "{q}: with every page dead, an unsecured query must error, not answer"
        );
    }
}

#[test]
fn failed_update_poisons_the_handle() {
    use secure_xml::DbError;
    // Arm every read permanently: the first storage access inside the update
    // transaction fails, the dirtied pages roll back, the handle poisons.
    let (mut db, fault, map, _) = build_on_faulty(FaultConfig {
        seed: 7,
        permanent_read_failure: 1.0,
        ..FaultConfig::default()
    });
    // Revoke a currently granted bit so the update really touches a block
    // (a no-op grant/revoke never reaches the storage layer).
    let pos = (1..db.len() as u64)
        .find(|&p| map.accessible(SubjectId(0), dol_xml::NodeId(p as u32)))
        .expect("subject 0 can access something");
    let err = db.set_node_access(pos, SubjectId(0), false).unwrap_err();
    assert!(
        !matches!(err, DbError::Poisoned),
        "the first failure surfaces its real cause, got: {err}"
    );
    assert!(db.is_poisoned());
    // Every further update is refused outright, even with the disk healthy
    // again — the in-memory mirrors can no longer be trusted.
    fault.set_armed(false);
    assert!(matches!(
        db.set_node_access(pos, SubjectId(0), false),
        Err(DbError::Poisoned)
    ));
    // Queries still answer: the committed pages were never touched.
    db.store().pool().clear_cache().unwrap();
    db.query(QUERIES[0], Security::None).unwrap();
}

/// A node record whose subtree size is corrupt — 0, or past the end of its
/// parent's subtree — must neither stall a query nor widen its answer: a
/// secure query hides what it cannot trust (a subset of the reference
/// answer), an unsecured one returns a typed error. Each case runs on its
/// own thread under a watchdog, so a walk that stands still fails the test
/// instead of hanging it.
#[test]
fn corrupt_subtree_sizes_terminate_and_fail_closed() {
    use secure_xml::query::QueryError;
    use secure_xml::storage::StorageError;
    use secure_xml::xml::parse;
    use secure_xml::DbError;
    use std::sync::mpsc;
    use std::time::Duration;

    const XML: &str = "<site><regions>\
        <africa><item><name/></item><item><name/></item></africa>\
        <asia><item><name/></item><item><name/></item></asia>\
        </regions><people><person><name/></person></people></site>";
    // The record size field sits 4 bytes into a 12-byte record, after the
    // block's 24-byte header.
    const RECORDS: usize = 24;
    const REC_SIZE: usize = 12;
    const AFRICA: u64 = 2;
    let cho = "/site/regions/asia/item";
    let gb = "//item";
    let model = parse(XML).unwrap();
    let map = common::grant_all(1, model.len());
    let s = SubjectId(0);

    let size_of = |pos: u64| model.node(dol_xml::NodeId(pos as u32)).size;
    // One past its parent's end: `africa` would swallow `people`.
    let overrun = (1 + u64::from(size_of(1)) - AFRICA + 1) as u32;
    for (case, size) in [("size 0", 0), ("overrun", overrun)] {
        let db = SecureXmlDb::from_document(model.clone(), &map).unwrap();
        let store = db.store();
        let info = store.block_info(store.block_of_pos(AFRICA));
        let off = RECORDS + (AFRICA - info.first_pos) as usize * REC_SIZE + 4;
        store
            .pool()
            .with_page_mut(info.page, |p| {
                assert_eq!(p.get_u32(off), size_of(AFRICA), "the record's size field");
                p.put_u32(off, size);
            })
            .unwrap();

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let answers = (
                db.query(cho, Security::BindingLevel(s)),
                db.query(gb, Security::SubtreeVisibility(s)),
                db.query(cho, Security::None),
            );
            let _ = tx.send(answers);
        });
        let (cho_got, gb_got, plain) = rx
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("{case}: a query stalled on the corrupt record"));

        for (q, got, sec) in [
            (cho, cho_got, RefSecurity::Binding(&map, s)),
            (gb, gb_got, RefSecurity::Subtree(&map, s)),
        ] {
            let got = got.unwrap_or_else(|e| panic!("{case}: {q} must fail closed: {e}"));
            let expect = naive_eval(&model, q, sec);
            assert!(
                got.matches.iter().all(|m| expect.contains(m)),
                "{case}: {q} answered {:?}, beyond the reference {expect:?}",
                got.matches
            );
            assert!(got.stats.blocks_failed_closed > 0, "{case}: {q}");
        }
        assert!(
            matches!(
                plain,
                Err(DbError::Query(QueryError::Storage(
                    StorageError::CorruptSubtree { pos: AFRICA, .. }
                )))
            ),
            "{case}: unsecured query must return the typed corruption, got {plain:?}"
        );
    }
}
