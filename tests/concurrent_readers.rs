//! Concurrent snapshot readers vs. updates: whole-epoch answers or nothing.
//!
//! The contract under test (see DESIGN.md §11 and §14): a [`DbReader`] query
//! either returns the answer of *one* update epoch — byte-identical to a
//! sequential oracle taken at that epoch — or fails typed. A reader inside
//! the retention window keeps serving its pinned epoch's answer across
//! concurrent updates; only a reader that outlives the window fails, with
//! [`DbError::RetentionExceeded`]. Nothing in between ever escapes: no
//! mixed-epoch answer, no torn page, no panic.
//!
//! Two attacks:
//!
//! * a threaded run where readers hammer the full secure query suite while
//!   the owner performs ACL updates (access-only: structural updates change
//!   the block directory, which snapshot readers pin by `Arc`, so threaded
//!   structural interleavings are exercised single-threaded below);
//! * a deterministic proptest over single-threaded interleavings of
//!   snapshots, queries, access updates, subject churn, and *structural*
//!   updates (insert/delete) at retention windows of one and two epochs,
//!   checking the reader against the uncached `SecureXmlDb::query` answers
//!   taken when its snapshot was.

use secure_xml::acl::SubjectId;
use secure_xml::workloads::{synth_multi, xmark, SynthAclConfig, XmarkConfig};
use secure_xml::{DbError, SecureXmlDb, Security};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// The secure query suite: XMark-shaped twigs of each structural class.
const SUITE: [&str; 4] = [
    "//item//emph",
    "//listitem//keyword",
    "//parlist//parlist",
    "/site/categories/category/description/text/bold",
];

fn modes() -> Vec<Security> {
    vec![
        Security::None,
        Security::BindingLevel(SubjectId(0)),
        Security::BindingLevel(SubjectId(1)),
        Security::SubtreeVisibility(SubjectId(0)),
        Security::SubtreeVisibility(SubjectId(1)),
    ]
}

fn xmark_db(scale: f64, subjects: usize, seed: u64) -> SecureXmlDb {
    let doc = xmark(&XmarkConfig {
        scale,
        seed: 20050405,
    });
    let map = synth_multi(
        &doc,
        &SynthAclConfig {
            propagation_ratio: 0.05,
            accessibility_ratio: 0.6,
            sibling_locality: 0.5,
            seed,
        },
        subjects,
    );
    SecureXmlDb::from_document(doc, &map).unwrap()
}

/// Sequential answers of the whole suite at the database's current state.
fn suite_oracle(db: &SecureXmlDb) -> HashMap<(usize, usize), Vec<u64>> {
    let mut out = HashMap::new();
    for (qi, q) in SUITE.iter().enumerate() {
        for (mi, sec) in modes().iter().enumerate() {
            out.insert((qi, mi), db.query(q, *sec).unwrap().matches);
        }
    }
    out
}

#[test]
fn concurrent_readers_return_whole_epoch_answers() {
    let db = xmark_db(0.03, 2, 42);
    let oracle_before = suite_oracle(&db);
    let db = RwLock::new(db);
    let done = AtomicBool::new(false);
    // (epoch, query idx, mode idx, matches) per successful reader query.
    type Record = (u64, usize, usize, Vec<u64>);

    let (records, oracle_after) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let mut recs: Vec<Record> = Vec::new();
                    while !done.load(Ordering::Relaxed) {
                        let reader = db.read().unwrap().reader();
                        let epoch = reader.epoch();
                        for (qi, q) in SUITE.iter().enumerate() {
                            for (mi, sec) in modes().iter().enumerate() {
                                // Two commits never exhaust the default
                                // retention window: every query answers.
                                let r = reader.query(q, *sec).expect("reader query");
                                recs.push((epoch, qi, mi, r.matches));
                            }
                        }
                    }
                    recs
                })
            })
            .collect();

        // Let the readers spin at epoch 0, then update (access-only), then
        // let them spin at epoch 1.
        std::thread::sleep(std::time::Duration::from_millis(60));
        {
            let mut g = db.write().unwrap();
            g.set_subtree_access(1, SubjectId(1), false).unwrap();
            g.set_node_access(2, SubjectId(0), false).unwrap();
        }
        let oracle_after = suite_oracle(&db.read().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(60));
        done.store(true, Ordering::Relaxed);

        let mut records = Vec::new();
        for h in handles {
            records.extend(h.join().expect("reader thread"));
        }
        (records, oracle_after)
    });

    assert!(!records.is_empty(), "readers never completed a query");
    let mut at_before = 0u64;
    let mut at_after = 0u64;
    for (epoch, qi, mi, matches) in &records {
        let oracle = match epoch {
            0 => {
                at_before += 1;
                &oracle_before
            }
            // The two updates run inside main's single write-lock hold, so
            // readers can observe epochs 0 and 2 but never an Ok at 1 with
            // answers differing from either boundary; epoch-1 readers exist
            // only between the two set-calls (same lock hold → impossible).
            2 => {
                at_after += 1;
                &oracle_after
            }
            other => panic!("query succeeded at unexpected epoch {other}"),
        };
        assert_eq!(
            &oracle[&(*qi, *mi)],
            matches,
            "epoch {epoch} answer diverged for query {qi} mode {mi}"
        );
    }
    assert!(at_before > 0, "no reader ran before the update");
    assert!(at_after > 0, "no reader ran after the update");
}

#[test]
fn query_with_retry_rides_through_concurrent_updates() {
    // The serving idiom: a reader that auto-re-snapshots on
    // RetentionExceeded keeps answering while the owner updates, and never
    // returns a mixed-epoch answer (the retry loop only ever swallows
    // staleness).
    let db = xmark_db(0.02, 2, 9);
    let db = RwLock::new(db);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let mut reader = db.read().unwrap().reader();
            let mut served = 0u64;
            while !done.load(Ordering::Relaxed) {
                for q in SUITE {
                    reader
                        .query_with_retry(q, Security::BindingLevel(SubjectId(1)), 1_000, || {
                            db.read().unwrap().reader()
                        })
                        .expect("bounded re-snapshot must absorb staleness");
                    served += 1;
                }
            }
            served
        });
        for i in 0..20u64 {
            {
                let mut g = db.write().unwrap();
                g.set_node_access(1 + (i % 5), SubjectId(1), i % 2 == 0)
                    .unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        done.store(true, Ordering::Relaxed);
        let served = server.join().expect("server thread");
        assert!(served > 0, "the retry loop never completed a query");
    });
    // Terminal agreement with the sequential oracle.
    let g = db.read().unwrap();
    let mut reader = g.reader();
    for q in SUITE {
        let sec = Security::BindingLevel(SubjectId(1));
        assert_eq!(
            reader
                .query_with_retry(q, sec, 4, || g.reader())
                .unwrap()
                .matches,
            g.query(q, sec).unwrap().matches
        );
    }
}

#[test]
fn readers_cache_refills_after_each_epoch() {
    // Same shape as above, single-threaded: prove the serving path re-warms
    // after invalidation and warm hits still do zero page I/O post-update.
    let mut db = xmark_db(0.02, 2, 7);
    let sec = Security::BindingLevel(SubjectId(1));
    let r0 = db.reader();
    let before = r0.query(SUITE[0], sec).unwrap();
    db.set_subtree_access(1, SubjectId(1), false).unwrap();
    let r1 = db.reader();
    let after_cold = r1.query(SUITE[0], sec).unwrap();
    assert!(
        after_cold.stats.io.logical_reads > 0,
        "post-update query must re-execute, not reuse the stale cache"
    );
    let io0 = db.io_stats();
    let after_warm = r1.query(SUITE[0], sec).unwrap();
    assert_eq!(db.io_stats().since(&io0).logical_reads, 0);
    assert_eq!(after_warm.matches, after_cold.matches);
    // And the old snapshot keeps serving its own epoch (the update did not
    // evict it — it answers epoch-0 truth for as long as the retention
    // window holds it).
    assert_eq!(r0.query(SUITE[0], sec).unwrap().matches, before.matches);
}

// ---------------------------------------------------------------------
// Proptest: single-threaded interleavings, including structural updates
// ---------------------------------------------------------------------

mod interleavings {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Step {
        /// Take a fresh snapshot reader.
        Snapshot,
        /// Query through the current reader (query idx, mode idx).
        Query(u8, u8),
        /// Access update: single node (pos seed, subject, allow).
        SetNode(u16, bool, bool),
        /// Access update: whole subtree.
        SetSubtree(u16, bool, bool),
        /// Structural: delete the subtree at a position.
        Delete(u16),
        /// Structural: insert a small subtree under a parent.
        Insert(u16),
        /// Codebook-only: add a subject copying subject 0.
        AddSubject,
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            prop_oneof![
                Just(Step::Snapshot),
                (any::<u8>(), any::<u8>()).prop_map(|(q, m)| Step::Query(q, m)),
                (any::<u16>(), any::<bool>(), any::<bool>())
                    .prop_map(|(p, s, a)| Step::SetNode(p, s, a)),
                (any::<u16>(), any::<bool>(), any::<bool>())
                    .prop_map(|(p, s, a)| Step::SetSubtree(p, s, a)),
                any::<u16>().prop_map(Step::Delete),
                any::<u16>().prop_map(Step::Insert),
                Just(Step::AddSubject),
            ],
            1..32,
        )
    }

    /// A non-root position derived from the seed, or `None` if only the
    /// root remains (deletes can strip the tree bare).
    fn pick_pos(db: &SecureXmlDb, seed: u16) -> Option<u64> {
        let len = db.len() as u64;
        (len > 1).then(|| 1 + u64::from(seed) % (len - 1))
    }

    const XML: &str = "<site><regions><africa><item><location>x</location><name>n</name>\
                       <quantity>1</quantity><description><parlist><listitem><keyword>k\
                       </keyword></listitem></parlist></description><emph>e</emph></item>\
                       </africa></regions><categories><category><description><text><bold>b\
                       </bold></text></description></category></categories></site>";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn reader_matches_model_at_every_interleaving(steps in arb_steps()) {
            for retain in [1usize, 2] {
                check_interleaving(&steps, retain);
            }
        }
    }

    /// Replays `steps` against a database retaining `retain` epochs. Every
    /// snapshot records the suite's answers at its epoch; a query through
    /// the reader then answers exactly those, or — only once more than
    /// `retain` commits have overtaken it — is refused with the typed
    /// `RetentionExceeded` triple.
    fn check_interleaving(steps: &[Step], retain: usize) {
        let doc = secure_xml::xml::parse(XML).unwrap();
        let nodes = doc.len();
        let mut map = secure_xml::acl::AccessibilityMap::new(2, nodes);
        for p in 0..nodes as u32 {
            map.set(SubjectId(0), secure_xml::xml::NodeId(p), true);
            map.set(
                SubjectId(1),
                secure_xml::xml::NodeId(p),
                p % 3 != 0 || p == 0,
            );
        }
        let cfg = secure_xml::DbConfig {
            epoch_retain: retain,
            ..secure_xml::DbConfig::default()
        };
        let mut db = SecureXmlDb::with_config(doc, &map, cfg).unwrap();
        let sub =
            secure_xml::xml::parse("<parlist><listitem><keyword>z</keyword></listitem></parlist>")
                .unwrap();
        let mut reader = db.reader();
        let mut pinned = suite_oracle(&db);
        let all_modes = modes();
        for step in steps.iter().cloned() {
            match step {
                Step::Snapshot => {
                    reader = db.reader();
                    pinned = suite_oracle(&db);
                }
                Step::Query(q, m) => {
                    let (qi, mi) = (q as usize % SUITE.len(), m as usize % all_modes.len());
                    let behind = db.epoch() - reader.epoch();
                    match reader.query(SUITE[qi], all_modes[mi]) {
                        Ok(r) => {
                            prop_assert!(
                                behind <= retain as u64,
                                "reader {} epochs behind answered at retain {}",
                                behind,
                                retain
                            );
                            prop_assert_eq!(&r.matches, &pinned[&(qi, mi)]);
                        }
                        Err(DbError::RetentionExceeded { seen, oldest, now }) => {
                            prop_assert!(
                                behind > retain as u64,
                                "reader {} epochs behind refused at retain {}",
                                behind,
                                retain
                            );
                            prop_assert_eq!(seen, reader.epoch());
                            prop_assert_eq!(now, db.epoch());
                            prop_assert_eq!(oldest, now - retain as u64);
                        }
                        Err(e) => panic!("unexpected query error: {e}"),
                    }
                }
                Step::SetNode(p, s, allow) => {
                    if let Some(pos) = pick_pos(&db, p) {
                        db.set_node_access(pos, SubjectId(u32::from(s)), allow)
                            .unwrap();
                    }
                }
                Step::SetSubtree(p, s, allow) => {
                    if let Some(pos) = pick_pos(&db, p) {
                        db.set_subtree_access(pos, SubjectId(u32::from(s)), allow)
                            .unwrap();
                    }
                }
                Step::Delete(p) => {
                    if db.len() > 4 {
                        if let Some(pos) = pick_pos(&db, p) {
                            db.delete_subtree(pos).unwrap();
                        }
                    }
                }
                Step::Insert(p) => {
                    if db.len() < 120 {
                        let parent = u64::from(p) % db.len() as u64;
                        db.insert_subtree(parent, &sub).unwrap();
                    }
                }
                Step::AddSubject => {
                    db.add_subject(Some(SubjectId(0))).unwrap();
                }
            }
        }
        // Terminal sanity: a fresh reader always agrees with the handle.
        let reader = db.reader();
        for q in SUITE {
            for sec in &all_modes {
                prop_assert_eq!(
                    reader.query(q, *sec).unwrap().matches,
                    db.query(q, *sec).unwrap().matches
                );
            }
        }
        db.store().check_integrity().unwrap();
    }
}
