//! Secure-result cache fencing.
//!
//! A reader files a result under `(fnv1a(query), security, view stamp)` and
//! keeps the query string and the subject's closure — the physical columns
//! whose OR is its view — in the entry; a hit must match both. The view
//! stamp (`Codebook::view_stamp`) moves when one of the closure's columns
//! is edited, or when a structural update, a compaction step or any other
//! change moves every view. So an ACL commit on one subject leaves every
//! other subject's entries warm.
//!
//! These tests prove both halves of that contract. The dangerous half: a
//! warm entry is never served once anything its subject can observe
//! changed — serving one would be an access-control hole (a removed subject
//! still receiving its pre-removal answers, a user moved out of a group
//! still seeing the group's nodes). The differential property test checks
//! it over random histories on a flat and on a factored database; the
//! pinned cases check it, and the warm half, at the edges.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use secure_xml::acl::{AccessibilityMap, GroupSpace, SubjectId};
use secure_xml::xml::NodeId;
use secure_xml::{DbError, DbReader, SecureXmlDb, Security, UpdateFn};

/// Subject 0 sees everything; subject 1 sees {a, d, e, f} (positions
/// 0, 3, 4, 5) of `<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>`.
fn two_subject_db() -> SecureXmlDb {
    let doc = secure_xml::xml::parse("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>").unwrap();
    let mut map = AccessibilityMap::new(2, doc.len());
    for p in 0..doc.len() as u32 {
        map.set(SubjectId(0), NodeId(p), true);
    }
    for p in [0u32, 3, 4, 5] {
        map.set(SubjectId(1), NodeId(p), true);
    }
    SecureXmlDb::from_document(doc, &map).unwrap()
}

/// The same document factored: groups A (logical 0, column 0) and B
/// (logical 1, column 1), A seeing {a, b, c}, B seeing {a, d, e, f}, and
/// one user (logical 2) in A.
fn two_group_db() -> (SecureXmlDb, SubjectId) {
    let doc = secure_xml::xml::parse("<a><b><c>v1</c></b><d><e>v2</e><f/></d></a>").unwrap();
    let mut map = AccessibilityMap::new(2, doc.len());
    for p in [0u32, 1, 2] {
        map.set(SubjectId(0), NodeId(p), true);
    }
    for p in [0u32, 3, 4, 5] {
        map.set(SubjectId(1), NodeId(p), true);
    }
    let mut space = GroupSpace::new();
    let a = space.add_subject(&[]);
    space.bind_direct(a, 0);
    let b = space.add_subject(&[]);
    space.bind_direct(b, 1);
    let user = space.add_subject(&[a]);
    (
        SecureXmlDb::from_document_factored(doc, &map, space).unwrap(),
        user,
    )
}

/// Runs `query` through a fresh reader and asserts it executed against the
/// pages (result-cache miss + real page reads) rather than serving a warm
/// entry; returns the matches.
fn assert_re_executes(db: &SecureXmlDb, query: &str, sec: Security) -> Vec<u64> {
    let misses_before = db.cache_stats().result_misses;
    let io_before = db.io_stats();
    let r = db.reader();
    let res = r.query(query, sec).unwrap();
    assert_eq!(
        db.cache_stats().result_misses,
        misses_before + 1,
        "query must miss the result cache"
    );
    assert!(
        db.io_stats().since(&io_before).logical_reads > 0,
        "query must touch pages, not a warm entry"
    );
    res.matches
}

/// Runs `query` through a fresh reader and asserts it was a warm hit with
/// zero page I/O; returns the matches.
fn assert_warm(db: &SecureXmlDb, query: &str, sec: Security) -> Vec<u64> {
    let hits_before = db.cache_stats().result_hits;
    let io_before = db.io_stats();
    let res = db.reader().query(query, sec).unwrap();
    assert_eq!(
        db.cache_stats().result_hits,
        hits_before + 1,
        "query must hit the result cache"
    );
    assert_eq!(
        db.io_stats().since(&io_before).logical_reads,
        0,
        "a warm hit reads no page"
    );
    res.matches
}

#[test]
fn add_subject_fences_warm_results() {
    let mut db = two_subject_db();
    let sec0 = Security::BindingLevel(SubjectId(0));
    // Warm subject 0, and the id the next subject will get: unknown, so
    // all-deny.
    let next = Security::BindingLevel(SubjectId(2));
    let warm = db.reader();
    assert_eq!(warm.query("//d/e", sec0).unwrap().matches, vec![4]);
    assert_eq!(
        warm.query("//d/e", next).unwrap().matches,
        Vec::<u64>::new()
    );
    let version_before = db.dol().codebook().version();

    let s2 = db.add_subject(Some(SubjectId(1))).unwrap();
    assert_eq!(Security::BindingLevel(s2), next);
    assert!(
        db.dol().codebook().version() > version_before,
        "add_subject must bump the codebook version"
    );
    // Subject 0's view did not change: its entry stays warm ...
    assert_eq!(assert_warm(&db, "//d/e", sec0), vec![4]);
    // ... while the new subject's all-deny entry is fenced, and it gets its
    // own (copied) rights at once.
    assert_eq!(assert_re_executes(&db, "//d/e", next), vec![4]);
    assert_eq!(
        db.reader().query("//b/c", next).unwrap().matches,
        Vec::<u64>::new(),
        "copied from subject 1, so b's subtree stays hidden"
    );

    // Factored: registering a user under a group bumps no codebook version,
    // so nothing decoded for its id while it was unknown may outlive it.
    let (mut db, _) = two_group_db();
    let next = Security::BindingLevel(SubjectId(3));
    assert_eq!(
        db.reader().query("//b/c", next).unwrap().matches,
        Vec::<u64>::new()
    );
    let user = db.add_grouped_subject(&[SubjectId(0)]).unwrap();
    assert_eq!(Security::BindingLevel(user), next);
    assert_eq!(assert_re_executes(&db, "//b/c", next), vec![2]);
}

#[test]
fn remove_subject_never_serves_the_removed_subjects_warm_answers() {
    let mut db = two_subject_db();
    let sec1 = Security::BindingLevel(SubjectId(1));
    let warm = db.reader();
    assert_eq!(warm.query("//d/e", sec1).unwrap().matches, vec![4]);

    db.remove_subject(SubjectId(1)).unwrap();
    // The removed subject's query re-executes and now sees nothing — the
    // pre-removal answer in the cache must not leak.
    assert_eq!(
        assert_re_executes(&db, "//d/e", sec1),
        Vec::<u64>::new(),
        "a removed subject must lose access immediately"
    );
    // The stale snapshot itself is fenced too.
    assert!(warm.is_stale());
}

#[test]
fn compact_subjects_fences_despite_subject_id_reuse() {
    let mut db = two_subject_db();
    // Warm an entry for subject 0 (sees everything, including //b/c).
    let warm = db.reader();
    assert_eq!(
        warm.query("//b/c", Security::BindingLevel(SubjectId(0)))
            .unwrap()
            .matches,
        vec![2]
    );

    // Remove subject 0 and compact: subject 1 shifts into id 0. The same
    // (query, security) pair now means a *different* principal — serving
    // the warm entry would hand subject 1 subject 0's answers.
    db.remove_subject(SubjectId(0)).unwrap();
    db.compact_subjects().unwrap();
    assert_eq!(
        assert_re_executes(&db, "//b/c", Security::BindingLevel(SubjectId(0))),
        Vec::<u64>::new(),
        "the shifted subject must not inherit the old subject's cached answer"
    );
    assert_eq!(
        assert_re_executes(&db, "//d/e", Security::BindingLevel(SubjectId(0))),
        vec![4],
        "the shifted subject keeps its own rights"
    );
}

/// Pinned case (a): a user moved from group A to B and back finds its
/// A-era entry warm, and that entry is still the right answer.
#[test]
fn membership_round_trip_finds_the_old_entry_warm() {
    let (mut db, user) = two_group_db();
    let (a, b) = (SubjectId(0), SubjectId(1));
    let sec = Security::BindingLevel(user);
    // Give B's column a stamp of its own, so the A- and B-era entries are
    // filed under different keys.
    db.set_node_access(5, b, false).unwrap();
    assert_eq!(db.reader().query("//b/c", sec).unwrap().matches, vec![2]);

    db.set_group_membership(user, a, false).unwrap();
    db.set_group_membership(user, b, true).unwrap();
    assert_eq!(assert_re_executes(&db, "//b/c", sec), Vec::<u64>::new());

    db.set_group_membership(user, b, false).unwrap();
    db.set_group_membership(user, a, true).unwrap();
    assert_eq!(assert_warm(&db, "//b/c", sec), vec![2]);
    assert_eq!(db.query("//b/c", sec).unwrap().matches, vec![2]);
}

/// Pinned case (b): a move between two groups whose columns carry equal
/// stamps leaves the key unchanged; only the closure tells the entries
/// apart, and it must.
#[test]
fn equal_stamp_closure_swap_misses() {
    let (mut db, user) = two_group_db();
    let (a, b) = (SubjectId(0), SubjectId(1));
    let sec = Security::SubtreeVisibility(user);
    assert_eq!(db.reader().query("//b/c", sec).unwrap().matches, vec![2]);

    db.set_group_membership(user, a, false).unwrap();
    db.set_group_membership(user, b, true).unwrap();
    let codebook = db.dol().codebook();
    assert_eq!(
        codebook.view_stamp(&[0]),
        codebook.view_stamp(&[1]),
        "the case needs equal stamps"
    );
    assert_eq!(
        assert_re_executes(&db, "//b/c", sec),
        Vec::<u64>::new(),
        "B's member must not be served A's answer"
    );
}

/// Pinned case (c): an edit on subject 1 leaves subject 0's entry warm.
#[test]
fn an_edit_on_one_subject_keeps_the_others_warm() {
    let mut db = two_subject_db();
    let (sec0, sec1) = (
        Security::BindingLevel(SubjectId(0)),
        Security::BindingLevel(SubjectId(1)),
    );
    for sec in [Security::None, sec0, sec1] {
        db.reader().query("//d/e", sec).unwrap();
    }
    db.set_subtree_access(3, SubjectId(1), false).unwrap();
    assert_eq!(assert_warm(&db, "//d/e", sec0), vec![4]);
    assert_eq!(assert_warm(&db, "//d/e", Security::None), vec![4]);
    assert_eq!(assert_re_executes(&db, "//d/e", sec1), Vec::<u64>::new());
}

/// Pinned case (d): a structural insert moves every view.
#[test]
fn a_structural_insert_misses_every_key() {
    let mut db = two_subject_db();
    let mut keys = vec![Security::None];
    for s in [SubjectId(0), SubjectId(1)] {
        keys.extend([Security::BindingLevel(s), Security::SubtreeVisibility(s)]);
    }
    let queries = ["//d/e", "//b/c", "//a//e"];
    let warm = db.reader();
    for q in queries {
        for &sec in &keys {
            warm.query(q, sec).unwrap();
        }
    }
    let sub = secure_xml::xml::parse("<e>v3</e>").unwrap();
    db.insert_subtree(3, &sub).unwrap();
    let before = db.cache_stats();
    let fresh = db.reader();
    for q in queries {
        for &sec in &keys {
            assert_eq!(
                fresh.query(q, sec).unwrap().matches,
                db.query(q, sec).unwrap().matches
            );
        }
    }
    let after = db.cache_stats();
    assert_eq!(after.result_hits, before.result_hits);
    assert_eq!(
        after.result_misses - before.result_misses,
        (queries.len() * keys.len()) as u64
    );
}

/// A reader taken inside a transaction that then aborts may file answers
/// under stamps the rolled-back codebook would issue again; it must not.
#[test]
fn an_aborted_transactions_stamps_are_never_reissued() {
    let mut db = two_subject_db();
    let sec1 = Security::BindingLevel(SubjectId(1));
    let member: UpdateFn = Box::new(move |db| {
        db.set_node_access(4, SubjectId(1), false)?;
        db.reader().query("//d/e", sec1)?;
        Err(DbError::InvalidNode(u64::MAX))
    });
    assert!(db.run_batch(&[member]).unwrap()[0].is_err());
    // The same edit again, committed: it takes the next stamp, which the
    // aborted transaction's reader already filed an answer under.
    db.set_node_access(4, SubjectId(1), false).unwrap();
    assert_eq!(assert_re_executes(&db, "//d/e", sec1), Vec::<u64>::new());
}

// ---------------------------------------------------------------------
// Differential: cached answers equal uncached ones over random histories.
// ---------------------------------------------------------------------

const SUITE: [&str; 5] = ["//d/e", "//b/c", "/r/s[b]//e", "//s//f", "//c[=\"v1\"]"];

/// Subtrees a structural insert grafts.
const GRAFTS: [&str; 3] = ["<b><c>v1</c></b>", "<d><e>v2</e></d>", "<s><f/></s>"];

#[derive(Debug, Clone)]
enum Op {
    Node {
        pos: u16,
        subject: u8,
        allow: bool,
    },
    Subtree {
        pos: u16,
        subject: u8,
        allow: bool,
    },
    /// A membership edge between a user and a group (factored only).
    Membership {
        subject: u8,
        group: u8,
        member: bool,
    },
    AddSubject {
        copy_from: Option<u8>,
    },
    RemoveSubject {
        subject: u8,
    },
    /// Arm a compaction if there is anything to compact, then run one
    /// bounded step.
    Tick,
    Insert {
        parent: u16,
        graft: u8,
    },
    Delete {
        pos: u16,
    },
    Move {
        pos: u16,
        parent: u16,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u8>(), any::<bool>()).prop_map(|(pos, subject, allow)| Op::Node {
            pos,
            subject,
            allow
        }),
        (any::<u16>(), any::<u8>(), any::<bool>()).prop_map(|(pos, subject, allow)| Op::Subtree {
            pos,
            subject,
            allow
        }),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(subject, group, member)| {
            Op::Membership {
                subject,
                group,
                member,
            }
        }),
        prop::option::of(any::<u8>()).prop_map(|copy_from| Op::AddSubject { copy_from }),
        any::<u8>().prop_map(|subject| Op::RemoveSubject { subject }),
        Just(Op::Tick),
        (any::<u16>(), 0u8..3).prop_map(|(parent, graft)| Op::Insert { parent, graft }),
        any::<u16>().prop_map(|pos| Op::Delete { pos }),
        (any::<u16>(), any::<u16>()).prop_map(|(pos, parent)| Op::Move { pos, parent }),
    ]
}

/// Groups of the factored database: logical ids (and columns) `0..GROUPS`.
const GROUPS: u32 = 2;

/// A `<r>` of six `<s>` sections, labelled at random over `columns`
/// physical columns from `seed`.
fn build(seed: u64, factored: bool) -> SecureXmlDb {
    let section = "<s><b><c>v1</c></b><d><e>v2</e><f/></d></s>";
    let xml = format!("<r>{}</r>", section.repeat(6));
    let doc = secure_xml::xml::parse(&xml).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let columns = if factored { GROUPS } else { 3 };
    let mut map = AccessibilityMap::new(columns as usize, doc.len());
    for s in 0..columns {
        for p in 0..doc.len() as u32 {
            map.set(SubjectId(s), NodeId(p), p == 0 || rng.gen_bool(0.6));
        }
    }
    if !factored {
        return SecureXmlDb::from_document(doc, &map).unwrap();
    }
    let mut space = GroupSpace::new();
    let groups: Vec<SubjectId> = (0..GROUPS)
        .map(|c| {
            let g = space.add_subject(&[]);
            space.bind_direct(g, c);
            g
        })
        .collect();
    for parents in [&groups[..1], &groups[1..], &groups[..]] {
        space.add_subject(parents);
    }
    SecureXmlDb::from_document_factored(doc, &map, space).unwrap()
}

/// Every (query, mode) key the databases are checked on: the unsecured mode
/// and both semantics for every subject id the codebook knows.
fn keys(db: &SecureXmlDb) -> Vec<(&'static str, Security)> {
    let mut modes = vec![Security::None];
    for s in 0..db.dol().codebook().logical_subjects() as u32 {
        let s = SubjectId(s);
        modes.extend([Security::BindingLevel(s), Security::SubtreeVisibility(s)]);
    }
    SUITE
        .iter()
        .flat_map(|&q| modes.iter().map(move |&m| (q, m)))
        .collect()
}

/// Applies `op`; refusals (a move under the subtree's own descendant) are
/// part of the history like any other outcome.
fn apply(db: &mut SecureXmlDb, op: &Op) {
    let n = db.len() as u64;
    let subjects = db.dol().codebook().logical_subjects() as u32;
    let subject = |raw: u8| SubjectId(u32::from(raw) % subjects);
    match *op {
        Op::Node {
            pos,
            subject: s,
            allow,
        } => db
            .set_node_access(u64::from(pos) % n, subject(s), allow)
            .unwrap(),
        Op::Subtree {
            pos,
            subject: s,
            allow,
        } => db
            .set_subtree_access(u64::from(pos) % n, subject(s), allow)
            .unwrap(),
        Op::Membership {
            subject: s,
            group,
            member,
        } => {
            if db.dol().codebook().is_factored() && subjects > GROUPS {
                let user = SubjectId(GROUPS + u32::from(s) % (subjects - GROUPS));
                let group = SubjectId(u32::from(group) % GROUPS);
                db.set_group_membership(user, group, member).unwrap();
            }
        }
        Op::AddSubject { copy_from } => {
            db.add_subject(copy_from.map(subject)).unwrap();
        }
        Op::RemoveSubject { subject: s } => {
            if db.dol().codebook().live_subjects() > 1 {
                db.remove_subject(subject(s)).unwrap();
            }
        }
        Op::Tick => {
            db.begin_compaction().unwrap();
            db.compaction_tick(2).unwrap();
        }
        Op::Insert { parent, graft } => {
            let sub = secure_xml::xml::parse(GRAFTS[usize::from(graft)]).unwrap();
            db.insert_subtree(u64::from(parent) % n, &sub).unwrap();
        }
        Op::Delete { pos } => {
            if n > 24 {
                db.delete_subtree(1 + u64::from(pos) % (n - 1)).unwrap();
            }
        }
        Op::Move { pos, parent } => {
            let _ = db.move_subtree(1 + u64::from(pos) % (n - 1), u64::from(parent) % n);
        }
    }
}

/// A reader's answer to every key it was asked.
type Answers = Vec<((&'static str, Security), Vec<u64>)>;

/// Checks `old`, the reader taken before the last op, against the answers
/// `recorded` at its own epoch, then a fresh reader against the uncached
/// `SecureXmlDb::query` on every key. Returns the fresh reader and its
/// answers for the next step.
fn check_step(db: &SecureXmlDb, old: &DbReader, recorded: &Answers) -> (DbReader, Answers) {
    for ((q, sec), want) in recorded {
        assert_eq!(
            &old.query(q, *sec).unwrap().matches,
            want,
            "reader pinned at epoch {} changed its answer to {q} under {sec:?}",
            old.epoch()
        );
    }
    let fresh = db.reader();
    let answers = keys(db)
        .into_iter()
        .map(|(q, sec)| {
            let got = fresh.query(q, sec).unwrap().matches;
            assert_eq!(
                got,
                db.query(q, sec).unwrap().matches,
                "cached answer to {q} under {sec:?} at epoch {}",
                db.epoch()
            );
            ((q, sec), got)
        })
        .collect();
    (fresh, answers)
}

fn run_history(seed: u64, factored: bool, ops: &[Op]) {
    let mut db = build(seed, factored);
    let (mut old, mut recorded) = check_step(&db, &db.reader(), &Vec::new());
    for op in ops {
        apply(&mut db, op);
        db.verify_integrity().unwrap();
        (old, recorded) = check_step(&db, &old, &recorded);
    }
    let stats = db.cache_stats();
    assert!(
        stats.result_hits > 0 && stats.result_misses > 0,
        "a history must exercise both hits and misses: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_answers_equal_uncached_ones_flat(
        seed in any::<u64>(),
        ops in prop::collection::vec(arb_op(), 1..16),
    ) {
        run_history(seed, false, &ops);
    }

    #[test]
    fn cached_answers_equal_uncached_ones_factored(
        seed in any::<u64>(),
        ops in prop::collection::vec(arb_op(), 1..16),
    ) {
        run_history(seed, true, &ops);
    }
}
