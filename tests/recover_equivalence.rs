//! In-process recovery ≡ reopen, at every crash point.
//!
//! The contract under test: after a power cut poisons a live persistent
//! [`SecureXmlDb`], calling [`SecureXmlDb::recover`] on the surviving handle
//! lands in **exactly** the state a drop + fresh [`SecureXmlDb::open_on`] of
//! the same disks would produce — at *every* physical write point of a mixed
//! update workload, with alternating torn final writes (the same sweep shape
//! as `crates/storage/tests/crash_recovery.rs`, lifted to the full
//! database).
//!
//! Equality is judged by a fingerprint covering everything the database can
//! answer: the serialized XML, the full subject × node accessibility
//! matrix, every node value, and a secure query suite under all three
//! security semantics.

mod common;

use secure_xml::acl::SubjectId;
use secure_xml::storage::{CrashDisk, CrashState, Disk, MemDisk};
use secure_xml::{DbConfig, DbError, SecureXmlDb};
use std::sync::Arc;

const SEED: u64 = 13_639_585;
/// Small blocks + small pool: more pages in play, more eviction traffic,
/// more distinct crash points per transaction.
const CFG: DbConfig = DbConfig {
    buffer_pool_pages: 16,
    max_records_per_block: 4,
    epoch_retain: 8,
};
const STEPS: u64 = 21;
const SUITE: [&str; 3] = ["//b/c", "//d/e", "//d//keyword"];

const XML: &str = "<a><b><c>v1</c></b><d><e>v2</e><f/><parlist><listitem><keyword>k\
                   </keyword></listitem></parlist></d></a>";

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

/// Builds the initial two-subject image on a raw [`MemDisk`] pair.
fn base_image() -> (Arc<MemDisk>, Arc<MemDisk>) {
    let doc = secure_xml::xml::parse(XML).unwrap();
    let mut map = secure_xml::acl::AccessibilityMap::new(2, doc.len());
    for p in 0..doc.len() as u32 {
        map.set(SubjectId(0), secure_xml::xml::NodeId(p), true);
        map.set(SubjectId(1), secure_xml::xml::NodeId(p), p % 3 != 1);
    }
    let db = SecureXmlDb::from_document(doc, &map).unwrap();
    let data = Arc::new(MemDisk::new());
    db.save_to_disk(data.clone()).unwrap();
    (data, Arc::new(MemDisk::new()))
}

/// One deterministic workload step: access updates, subject churn,
/// structural updates, and an explicit checkpoint — every write path the
/// real database exercises. Step `t % 7 == 5` is an ACL-only transaction
/// right after the structural insert of `t % 7 == 4`: its commit reuses the
/// values and tags sections the insert just rewrote.
fn apply(db: &mut SecureXmlDb, t: u64) -> Result<(), DbError> {
    let len = db.len() as u64;
    let pos = 1 + mix(SEED ^ t) % (len - 1);
    match t % 7 {
        0 | 5 => db.set_node_access(pos, SubjectId(1), t.is_multiple_of(2)),
        1 => db.set_subtree_access(pos, SubjectId(1), t % 4 == 1),
        2 => db.add_subject(Some(SubjectId(1))).map(|_| ()),
        3 => {
            if len > 6 {
                db.delete_subtree(pos)
            } else {
                db.set_node_access(pos, SubjectId(0), false)
            }
        }
        4 => {
            let sub = secure_xml::xml::parse("<g><h>v3</h></g>").unwrap();
            db.insert_subtree(pos - 1, &sub).map(|_| ())
        }
        _ => db.checkpoint(),
    }
}

fn fingerprint(db: &SecureXmlDb) -> String {
    common::fingerprint(db, &SUITE)
}

struct RunOutcome {
    fp: String,
    crashed: bool,
    writes_issued: u64,
}

impl RunOutcome {
    fn assert_matches(&self, other: &str) {
        assert_eq!(self.fp, other, "oracle fingerprint diverged");
    }
}

/// Opens the image behind a power rail cutting after `crash_after` writes,
/// runs the workload, then (power restored) heals the surviving handle with
/// [`SecureXmlDb::recover`] and fingerprints it. Returns `None` when the
/// cut felled `open_on` itself (no live handle to recover — the reopen path
/// is storage-tested elsewhere).
fn run_and_recover(
    data: Arc<MemDisk>,
    log: Arc<MemDisk>,
    crash_after: u64,
    tear: bool,
) -> Option<RunOutcome> {
    let state = if crash_after == u64::MAX {
        CrashState::unlimited()
    } else {
        CrashState::new(crash_after, tear, SEED ^ crash_after)
    };
    let cdata: Arc<dyn Disk> = Arc::new(CrashDisk::new(data, state.clone()));
    let clog: Arc<dyn Disk> = Arc::new(CrashDisk::new(log, state.clone()));
    let mut live = SecureXmlDb::open_on(cdata, clog, CFG).ok()?;
    let mut crashed = false;
    for t in 0..STEPS {
        if apply(&mut live, t).is_err() {
            crashed = true;
            break;
        }
    }
    let writes_issued = state.writes_issued();
    state.restore_power(u64::MAX);
    if crashed {
        assert!(live.is_poisoned(), "failed update must poison the handle");
        let report = live
            .recover()
            .expect("recovery with power restored must succeed");
        assert!(report.is_some(), "persistent recovery replays the log");
        assert!(!live.is_poisoned());
        live.verify_integrity().unwrap();
    }
    Some(RunOutcome {
        fp: fingerprint(&live),
        crashed,
        writes_issued,
    })
}

#[test]
fn recover_equals_reopen_at_every_crash_point() {
    let (base_data, base_log) = base_image();

    // Oracle run: no cut; its write count sizes the sweep.
    let oracle_data = Arc::new(base_data.fork());
    let oracle_log = Arc::new(base_log.fork());
    let oracle = run_and_recover(oracle_data.clone(), oracle_log.clone(), u64::MAX, false)
        .expect("oracle open cannot crash");
    assert!(!oracle.crashed);
    // Sanity: reopening the completed image reproduces the oracle answers.
    oracle.assert_matches(&fingerprint(
        &SecureXmlDb::open_on(oracle_data, oracle_log, CFG).unwrap(),
    ));
    let total_writes = oracle.writes_issued;
    assert!(
        total_writes > 60,
        "workload too small: {total_writes} writes"
    );

    let mut recovered_in_process = 0u64;
    let mut open_crashes = 0u64;
    for k in 0..total_writes {
        let data = Arc::new(base_data.fork());
        let log = Arc::new(base_log.fork());
        // Fork the raw disks *before* recovery mutates them, so the reopen
        // sees exactly the post-crash bytes.
        let (pre_data, pre_log);
        let outcome = {
            let tear = k % 2 == 1;
            let state = if k == u64::MAX {
                unreachable!()
            } else {
                CrashState::new(k, tear, SEED ^ k)
            };
            let cdata: Arc<dyn Disk> = Arc::new(CrashDisk::new(data.clone(), state.clone()));
            let clog: Arc<dyn Disk> = Arc::new(CrashDisk::new(log.clone(), state.clone()));
            let live = SecureXmlDb::open_on(cdata, clog, CFG);
            let mut live = match live {
                Ok(db) => db,
                Err(_) => {
                    open_crashes += 1;
                    continue;
                }
            };
            // Some ops fail *without* poisoning (reads performed before the
            // transaction opens); with the power still cut, a later op's
            // in-transaction failure latches the poison. Keep driving until
            // it does.
            let mut crashed = false;
            for t in 0..STEPS {
                if apply(&mut live, t).is_err() {
                    crashed = true;
                    if live.is_poisoned() {
                        break;
                    }
                }
            }
            pre_data = Arc::new(data.fork());
            pre_log = Arc::new(log.fork());
            state.restore_power(u64::MAX);
            if live.is_poisoned() {
                let report = live
                    .recover()
                    .unwrap_or_else(|e| panic!("crash point {k}: recover failed: {e}"));
                assert!(report.is_some(), "crash point {k}: no log replay");
                live.verify_integrity()
                    .unwrap_or_else(|e| panic!("crash point {k}: {e}"));
                recovered_in_process += 1;
            } else if crashed {
                // Every failure happened outside a transaction: nothing to
                // heal, and recover() must be a cheap no-op.
                assert!(live.recover().unwrap().is_none(), "crash point {k}");
            }
            fingerprint(&live)
        };

        let back = SecureXmlDb::open_on(pre_data, pre_log, CFG)
            .unwrap_or_else(|e| panic!("crash point {k}: reopen failed: {e}"));
        back.verify_integrity()
            .unwrap_or_else(|e| panic!("crash point {k}: reopened image corrupt: {e}"));
        assert_eq!(
            outcome,
            fingerprint(&back),
            "crash point {k}: in-process recovery diverged from a fresh reopen"
        );
    }
    assert!(
        recovered_in_process > total_writes / 2,
        "only {recovered_in_process} of {total_writes} crash points exercised \
         in-process recovery ({open_crashes} felled the open itself)"
    );
}
