//! A power cut inside a compaction recovers to exactly the state before it
//! or the state after it.
//!
//! A factored database whose churn left dead columns and duplicate entries
//! first takes a few ordinary commits (a structural insert, then an ACL edit
//! that reuses the clean values and tags sections the insert rewrote), then
//! one [`SecureXmlDb::compact_subjects`] transaction. The power rail cuts
//! the transaction's `k`-th physical write, for every `k` it issues: its log
//! records, and the checkpoint a tiny log bound makes every commit end in.
//! After each cut, [`SecureXmlDb::recover`] must land the handle on the
//! uncut run's before-compaction or after-compaction state — compared
//! structurally (codebook size, width, live columns) and by answers — and
//! re-running the compaction must reach the after-state. Cuts must land on
//! both sides.

use secure_xml::acl::{BitVec, FnOracle, GroupSpace, SubjectId};
use secure_xml::storage::{CrashDisk, CrashState, Disk, MemDisk};
use secure_xml::xml::NodeId;
use secure_xml::{DbConfig, DbError, SecureXmlDb, Security};
use std::sync::Arc;

const SEED: u64 = 13_639_585;
const CFG: DbConfig = DbConfig {
    buffer_pool_pages: 16,
    max_records_per_block: 4,
    epoch_retain: 8,
};
/// Ordinary commits before the compaction.
const STEPS: u64 = 6;
const GROUPS: usize = 3;
const USERS: usize = 3;

const XML: &str = "<a><b><c>v1</c><c>v2</c></b><d><e/><e/><f><e/></f></d>\
                   <b><c/><c/></b><d><e/><f><e/><e/></f></d></a>";

/// Builds the factored base image: group triangle + users, and churned
/// direct columns whose removal left work for the compactor.
fn base_image() -> (Arc<MemDisk>, Arc<MemDisk>) {
    let doc = secure_xml::xml::parse(XML).unwrap();
    let nodes = doc.len();
    let mut space = GroupSpace::new();
    let company = space.add_subject(&[]);
    space.bind_direct(company, 0);
    for g in 1..GROUPS as u32 {
        let id = space.add_subject(&[company]);
        space.bind_direct(id, g);
    }
    for u in 0..USERS {
        space.add_subject(&[SubjectId(1 + (u as u32) % (GROUPS as u32 - 1))]);
    }
    let cols: Vec<BitVec> = (0..GROUPS)
        .map(|g| {
            let mut c = BitVec::zeros(nodes);
            for p in 0..nodes {
                c.set(p, (p / 2 + g) % 3 != 1);
            }
            c
        })
        .collect();
    let oracle = FnOracle::new(GROUPS, move |n: NodeId, s| cols[s].get(n.index()));
    let mut db = SecureXmlDb::from_document_factored(doc, &oracle, space).unwrap();

    // Churn: direct grants materialize columns; removal leaves dead columns
    // and duplicate entries — the compactor's work.
    for i in 0..4u64 {
        let s = db.add_subject(None).unwrap();
        db.set_subtree_access(i % db.len() as u64, s, true).unwrap();
        db.remove_subject(s).unwrap();
    }
    assert!(!db.dol().codebook().is_compact(), "churn must leave work");

    let data = Arc::new(MemDisk::new());
    db.save_to_disk(data.clone()).unwrap();
    (data, Arc::new(MemDisk::new()))
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

/// One ordinary commit: a structural insert on even steps, an ACL edit
/// (which reuses the clean values and tags sections) on odd ones.
fn apply(db: &mut SecureXmlDb, t: u64) -> Result<(), DbError> {
    if t.is_multiple_of(2) {
        let parent = mix(SEED ^ t) % db.len() as u64;
        let graft = secure_xml::xml::parse("<e>v3</e>").unwrap();
        db.insert_subtree(parent, &graft).map(|_| ())
    } else {
        let pos = 1 + mix(SEED ^ t) % (db.len() as u64 - 1);
        let user = SubjectId((GROUPS + (t as usize) % USERS) as u32);
        db.set_node_access(pos, user, t % 4 == 1)
    }
}

/// Structural + answer fingerprint. The structural half tells the
/// before-state from the after-state; the answers are equal in both.
fn fingerprint(db: &SecureXmlDb) -> String {
    let cb = db.dol().codebook();
    let mut out = format!(
        "entries={} width={} live={}\n",
        cb.len(),
        cb.width(),
        cb.live_columns(),
    );
    for s in 0..(GROUPS + USERS) as u32 {
        for p in 0..db.len() as u64 {
            out.push(if db.accessible(p, SubjectId(s)).unwrap() {
                '1'
            } else {
                '0'
            });
        }
        out.push('|');
    }
    out.push('\n');
    for q in ["//c", "//e", "/a/d//e"] {
        for s in 0..(GROUPS + USERS) as u32 {
            out.push_str(&format!(
                "{:?};{:?};",
                db.query(q, Security::BindingLevel(SubjectId(s)))
                    .unwrap()
                    .matches,
                db.query(q, Security::SubtreeVisibility(SubjectId(s)))
                    .unwrap()
                    .matches,
            ));
        }
        out.push('\n');
    }
    out
}

/// Opens the base image behind `state`'s power rail, with the log bound
/// so low that every commit ends in a checkpoint — the data-page writes
/// after the commit record are cut points too — and runs the ordinary
/// commits.
fn open(data: &MemDisk, log: &MemDisk, state: &Arc<CrashState>) -> SecureXmlDb {
    let cdata: Arc<dyn Disk> = Arc::new(CrashDisk::new(Arc::new(data.fork()), state.clone()));
    let clog: Arc<dyn Disk> = Arc::new(CrashDisk::new(Arc::new(log.fork()), state.clone()));
    let mut db = SecureXmlDb::open_on(cdata, clog, CFG).unwrap();
    db.store().pool().set_checkpoint_threshold(1);
    for t in 0..STEPS {
        apply(&mut db, t).unwrap();
    }
    db
}

#[test]
fn every_power_cut_inside_a_compaction_recovers_before_or_after_it() {
    let (base_data, base_log) = base_image();

    // Uncut run: the state on each side of the compaction and the writes
    // it issues.
    let state = CrashState::unlimited();
    let mut db = open(&base_data, &base_log, &state);
    let before = fingerprint(&db);
    let (epoch, first) = (db.epoch(), state.writes_issued());
    db.compact_subjects().unwrap();
    let writes = state.writes_issued() - first;
    assert_eq!(db.epoch(), epoch + 1, "a compaction is one epoch");
    assert!(db.dol().codebook().is_compact());
    let after = fingerprint(&db);
    assert_ne!(before, after);
    assert!(writes > 4, "compaction too small: {writes} writes");

    let (mut landed_before, mut landed_after) = (0u64, 0u64);
    for k in 0..writes {
        // The rail cuts the compaction's write `k`, tearing every other one.
        let state = CrashState::new(u64::MAX, k % 2 == 1, SEED ^ k);
        let mut db = open(&base_data, &base_log, &state);
        state.restore_power(k);
        assert!(
            db.compact_subjects().is_err(),
            "the cut at write {k} must fail the compaction"
        );
        state.restore_power(u64::MAX);
        assert!(
            db.is_poisoned(),
            "a failed compaction must poison the handle"
        );
        db.recover()
            .expect("recovery must succeed")
            .expect("replay");
        db.verify_integrity().unwrap();
        let fp = fingerprint(&db);
        if fp == before {
            landed_before += 1;
        } else if fp == after {
            landed_after += 1;
        } else {
            panic!("a cut at write {k} recovered to a mixed state:\n{fp}");
        }
        db.compact_subjects().unwrap();
        assert_eq!(fingerprint(&db), after, "re-running after the cut at {k}");
    }
    assert!(landed_before > 0, "no cut recovered to the before-state");
    assert!(landed_after > 0, "no cut recovered to the after-state");
}
