//! Mid-compaction power cuts recover to a consistent slice boundary.
//!
//! A factored database with an armed incremental-compaction plan is driven
//! through bounded ticks (plus interleaved updates that dirty the plan)
//! behind a power rail that cuts after `k` physical writes, for every `k`
//! the uncut run issues. After each cut, [`SecureXmlDb::recover`] must land
//! the handle on **exactly** one of the states the uncut run passed through
//! at a step boundary — compared structurally (codebook size, width, and
//! the full plan state) *and* by answers — never on a torn intermediate
//! where some blocks of a slice were remapped and others were not. Draining
//! the recovered plan must then converge to the oracle's final state.

use secure_xml::acl::{BitVec, FnOracle, GroupSpace, SubjectId};
use secure_xml::storage::{CrashDisk, CrashState, Disk, MemDisk};
use secure_xml::xml::NodeId;
use secure_xml::{DbConfig, DbError, SecureXmlDb, Security};
use std::sync::Arc;

const SEED: u64 = 13_639_585;
/// Small blocks: more blocks per slice, more crash points per tick.
const CFG: DbConfig = DbConfig {
    buffer_pool_pages: 16,
    max_records_per_block: 4,
    epoch_retain: 8,
};
const STEPS: u64 = 30;
/// Tiny per-tick budget so one drain spans many transactions.
const TICK_BLOCKS: usize = 2;
const GROUPS: usize = 3;
const USERS: usize = 3;

const XML: &str = "<a><b><c>v1</c><c>v2</c></b><d><e/><e/><f><e/></f></d>\
                   <b><c/><c/></b><d><e/><f><e/><e/></f></d></a>";

/// Builds the factored base image: group triangle + users, churned direct
/// columns, and an **armed** compaction plan with real backlog.
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
    // and duplicate entries — the compactor's backlog.
    for i in 0..4u64 {
        let s = db.add_subject(None).unwrap();
        db.set_subtree_access(i % db.len() as u64, s, true).unwrap();
        db.remove_subject(s).unwrap();
    }
    let armed = db.begin_compaction().unwrap();
    assert!(armed, "churn must leave compaction work");
    assert!(db.compaction_backlog() > 0);

    let data = Arc::new(MemDisk::new());
    db.save_to_disk(data.clone()).unwrap();
    (data, Arc::new(MemDisk::new()))
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

/// One deterministic step: mostly bounded ticks, with interleaved updates
/// that dirty the in-flight plan (forcing a crash-consistent re-plan). The
/// ACL edit follows a structural insert, so a commit that reuses the clean
/// values and tags sections comes right after one that rewrote them.
fn apply(db: &mut SecureXmlDb, t: u64) -> Result<(), DbError> {
    match t % 5 {
        3 => {
            let parent = mix(SEED ^ t) % db.len() as u64;
            let graft = secure_xml::xml::parse("<e>v3</e>").unwrap();
            db.insert_subtree(parent, &graft).map(|_| ())
        }
        4 => {
            let pos = 1 + mix(SEED ^ t) % (db.len() as u64 - 1);
            let user = SubjectId((GROUPS + (t as usize) % USERS) as u32);
            db.set_node_access(pos, user, t.is_multiple_of(2))
        }
        _ => db.compaction_tick(TICK_BLOCKS).map(|p| {
            assert!(p.blocks_done <= TICK_BLOCKS, "tick over budget");
        }),
    }
}

/// Structural + answer fingerprint. The structural half (codebook shape and
/// exact plan state) is what distinguishes slice boundaries from torn
/// intermediates — answers alone are invariant across the whole drain.
fn fingerprint(db: &SecureXmlDb) -> String {
    let cb = db.dol().codebook();
    let mut out = format!(
        "entries={} width={} live={} plan={:?}\n",
        cb.len(),
        cb.width(),
        cb.live_columns(),
        cb.compaction(),
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

/// Drains any in-flight plan to completion.
fn drain(db: &mut SecureXmlDb) {
    while db.dol().codebook().compaction().is_some() {
        if db.compaction_tick(64).unwrap().finished {
            break;
        }
    }
}

#[test]
fn power_cuts_land_on_slice_boundaries() {
    let (base_data, base_log) = base_image();

    // Uncut oracle: record the fingerprint at every step boundary, then the
    // fully drained end state.
    let mut boundaries = Vec::new();
    let total_writes = {
        let state = CrashState::unlimited();
        let cdata: Arc<dyn Disk> =
            Arc::new(CrashDisk::new(Arc::new(base_data.fork()), state.clone()));
        let clog: Arc<dyn Disk> =
            Arc::new(CrashDisk::new(Arc::new(base_log.fork()), state.clone()));
        let mut db = SecureXmlDb::open_on(cdata, clog, CFG).unwrap();
        assert!(
            db.dol().codebook().compaction().is_some(),
            "the armed plan must survive the reopen"
        );
        boundaries.push(fingerprint(&db));
        for t in 0..STEPS {
            apply(&mut db, t).unwrap();
            boundaries.push(fingerprint(&db));
        }
        drain(&mut db);
        boundaries.push(fingerprint(&db));
        state.writes_issued()
    };
    let final_fp = boundaries.last().unwrap().clone();
    assert!(
        total_writes > 40,
        "workload too small: {total_writes} writes"
    );

    let mut cut_runs = 0u64;
    let mut mid_drain_recoveries = 0u64;
    for k in 0..total_writes {
        let state = CrashState::new(k, k % 2 == 1, SEED ^ k);
        let cdata: Arc<dyn Disk> =
            Arc::new(CrashDisk::new(Arc::new(base_data.fork()), state.clone()));
        let clog: Arc<dyn Disk> =
            Arc::new(CrashDisk::new(Arc::new(base_log.fork()), state.clone()));
        let mut db = match SecureXmlDb::open_on(cdata, clog, CFG) {
            Ok(db) => db,
            Err(_) => continue, // the cut felled open itself; storage-tested
        };
        let mut crashed = false;
        for t in 0..STEPS {
            if apply(&mut db, t).is_err() {
                crashed = true;
                break;
            }
        }
        state.restore_power(u64::MAX);
        if crashed {
            cut_runs += 1;
            assert!(db.is_poisoned(), "a failed step must poison the handle");
            db.recover()
                .expect("recovery must succeed")
                .expect("replay");
            db.verify_integrity().unwrap();
            let fp = fingerprint(&db);
            let landed = boundaries.iter().position(|b| *b == fp);
            let Some(landed) = landed else {
                panic!(
                    "crash at write {k} recovered to a state no uncut boundary \
                     produced:\n{fp}"
                );
            };
            if db.dol().codebook().compaction().is_some() {
                mid_drain_recoveries += 1;
            }
            // Resume the workload from the boundary recovery landed on —
            // the crash-restart-continue path a maintenance loop takes.
            for t in landed as u64..STEPS {
                apply(&mut db, t).unwrap();
            }
        }
        // The backlog must drain to the oracle's end state regardless of
        // where the cut landed.
        drain(&mut db);
        assert_eq!(
            fingerprint(&db),
            final_fp,
            "post-recovery drain diverged (cut at write {k})"
        );
    }
    assert!(cut_runs > 10, "sweep too shallow: {cut_runs} cut runs");
    assert!(
        mid_drain_recoveries > 0,
        "no cut ever recovered with the plan still in flight"
    );
}
