//! MVCC epoch ring + group commit: the acceptance gate for "writers that
//! never evict readers".
//!
//! Four sections, one database protocol:
//!
//! 1. **Fsyncs at equal durability** — the same update sequence on a
//!    real file-backed database, committed solo (one WAL transaction and
//!    one fsync per update) vs group-committed (`run_batch`, K updates
//!    per WAL transaction and fsync). Both end in byte-equal query
//!    answers; the batched column amortizes the per-transaction page
//!    images and the sync. What that buys in time is `perf/`'s to
//!    measure; here it is counted.
//! 2. **Pinned readers under a writer** — snapshot readers pinned to
//!    every retained epoch keep answering their own epoch's oracle
//!    exactly while batches commit over them; a reader that outlives the
//!    retention window gets typed [`DbError::RetentionExceeded`] (never a
//!    wrong or torn answer) and [`DbReader::query_with_retry`] refreshes
//!    it onto the live epoch.
//! 3. **Concurrent group commit** — writer threads submit two-node
//!    atomic updates through the [`GroupCommitter`] while reader threads
//!    check the pair invariant on every snapshot: members land whole or
//!    not at all, rejected members never disturb their batch peers, and
//!    the committer's counters reconcile exactly.
//! 4. **Write path at two scales** — one persistent database per xmark
//!    scale (the base scale and 4× it), factored over three roles, and
//!    three ACL updates on the same kind of target: a `set_node_access` that
//!    interns a new code, one that interns none, and a `set_subtree_access`
//!    on a subtree of at most 64 nodes; then three subject-lifecycle
//!    updates: a user registered under one role, given a second, and
//!    removed. Per update: data pages written, WAL bytes appended and image
//!    growth. An ACL or subject commit costs what it changes, so each of
//!    these rows must be equal at both scales, within 8 pages and 64 KiB of
//!    WAL, with no growth when no code is interned and at most two pages
//!    otherwise. Three structural updates on the ACL target (a 13-node
//!    graft under it, a move and a delete of it) are recorded, not gated:
//!    they still rewrite the values section, so their rows grow with the
//!    document. Every row, structural ones included, also counts the
//!    whole-page copies over the update and its checkpoint and must make at
//!    most one per page written: the commit logs each dirtied page itself,
//!    so the pre-image's copy on write is the only one.
//!
//! 5. **Result fence** — a factored xmark database with 8 roles and 16
//!    users, every (Table-1 query × semantics × user) key and the unsecured
//!    keys warmed in a reader's result cache. Then, one at a time, five
//!    state-changing updates, each followed by a re-query of every key
//!    through a fresh reader: a user's `set_node_access`,
//!    `set_subtree_access` and `set_group_membership` must re-run exactly
//!    that user's keys, a role's `set_node_access` exactly its members'
//!    keys, and an `insert_subtree` every key. Every answer is checked
//!    against the uncached `SecureXmlDb::query`.
//!
//! The correctness gates (zero untyped reader failures, zero invariant violations,
//! solo ≡ batched answers, counter reconciliation, batched fsyncs/update
//! at most a fifth of solo, scale-free write costs, the fence's miss
//! counts) are asserted in
//! **every** mode; `--smoke` only pins the effort so CI runs a
//! deterministic small instance. Nothing is timed.

use crate::setup::TABLE1;
use crate::table::Table;
use crate::Effort;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::acl::{GroupSpace, SubjectId};
use secure_xml::storage::{Disk, FileDisk, MemDisk, PAGE_SIZE};
use secure_xml::workloads::{synth_multi, xmark, SynthAclConfig, XmarkConfig};
use secure_xml::{
    DbConfig, DbError, DbReader, GroupCommitConfig, GroupCommitter, SecureXmlDb, Security, UpdateFn,
};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Epochs the version ring retains in every section.
const RETAIN: usize = 4;
/// Members folded into one WAL transaction by the batched column.
const BATCH_K: usize = 16;
/// The subject whose accessibility the update storm flips.
const SUBJECT: SubjectId = SubjectId(1);

/// The query suite every oracle check replays.
const SUITE: &[&str] = &["//listitem//keyword", "//item//emph", "//category[name]"];
/// The security modes the suite runs under.
const MODES: &[Security] = &[Security::None, Security::BindingLevel(SUBJECT)];

/// Runs the MVCC + group-commit experiment.
pub fn run(effort: Effort, seed: u64, smoke: bool) {
    let effort = if smoke { Effort::Quick } else { effort };
    println!("MVCC epoch ring + group commit (seed {seed}, retain {RETAIN}, K={BATCH_K})\n");

    let durability = equal_durability(effort, seed);
    let pr = pinned_readers(effort, seed);
    let cc = concurrent(effort, seed);
    let wp = write_path(effort);
    let fence = result_fence(seed);

    let mut t = Table::new("mvcc", &["section", "updates", "metric", "value"]);
    t.row(&[
        "equal durability".into(),
        durability.updates.to_string(),
        "fsyncs/update solo".into(),
        format!("{:.3}", durability.solo_fsyncs_per_update),
    ]);
    t.row(&[
        "equal durability".into(),
        durability.updates.to_string(),
        "fsyncs/update batched".into(),
        format!("{:.3}", durability.batched_fsyncs_per_update),
    ]);
    t.row(&[
        "pinned readers".into(),
        pr.commits.to_string(),
        "oracle checks".into(),
        pr.oracle_checks.to_string(),
    ]);
    t.row(&[
        "pinned readers".into(),
        pr.commits.to_string(),
        "retention refusals".into(),
        pr.retention_refusals.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "batches".into(),
        cc.batches.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "max batch".into(),
        cc.max_batch_seen.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "rejected members".into(),
        cc.rejected.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "overload pushbacks".into(),
        cc.overloads.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "reader snapshots".into(),
        cc.reader_checks.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "reader retry refreshes".into(),
        cc.retry_refreshes.to_string(),
    ]);
    t.row(&[
        "group commit".into(),
        cc.submitted.to_string(),
        "reader probe refusals".into(),
        cc.probe_refusals.to_string(),
    ]);
    t.print();
    println!(
        "(Solo and batched columns run the identical update sequence to byte-equal\n\
         answers; the batched column folds {BATCH_K} updates into one WAL transaction\n\
         and one fsync. Pinned readers replay their epoch's oracle after every\n\
         commit; past the {RETAIN}-epoch window they fail typed and refresh.)\n"
    );

    let mut t = Table::new(
        "mvcc write path",
        &[
            "update",
            "nodes",
            "codes interned",
            "pages",
            "page copies",
            "WAL bytes",
            "growth bytes",
        ],
    );
    for (&nodes, costs) in wp.nodes.iter().zip(&wp.costs) {
        let updates = WRITE_UPDATES
            .iter()
            .chain(&SUBJECT_UPDATES)
            .chain(&STRUCT_UPDATES);
        for (update, c) in updates.zip(costs) {
            t.row(&[
                update.to_string(),
                nodes.to_string(),
                c.interned.to_string(),
                c.pages.to_string(),
                c.copies.to_string(),
                c.wal_bytes.to_string(),
                c.growth_bytes.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "(One persistent database per scale; each update runs between two\n\
         checkpoints, so its pages are exactly the ones the commit dirtied.\n\
         Every ACL and subject row is asserted equal across the scales; the\n\
         structural rows are recorded. Every row's page copies are asserted\n\
         at most its pages: a commit logs its pages without copying them.)\n"
    );

    let mut t = Table::new(
        "mvcc result fence",
        &["update", "target", "keys", "re-run expected", "misses"],
    );
    for row in &fence.rows {
        t.row(&[
            row.update.into(),
            row.target.clone(),
            fence.keys.to_string(),
            row.expected.to_string(),
            row.misses.to_string(),
        ]);
    }
    t.print();
    println!(
        "(Every key warm before each update; \"misses\" counts the keys a fresh\n\
         reader re-ran after it. Each row is asserted equal to its expectation.)\n"
    );

    write_json(seed, &durability, &pr, &cc, &wp, &fence);

    if smoke {
        println!("mvcc --smoke: all assertions passed\n");
    }
}

/// Section 1 results: solo vs group-committed fsyncs per update.
struct EqualDurability {
    updates: usize,
    solo_fsyncs_per_update: f64,
    batched_fsyncs_per_update: f64,
}

/// Section 2 results: pinned readers against per-epoch oracles.
struct Pinned {
    commits: usize,
    oracle_checks: usize,
    retention_refusals: usize,
}

/// Section 3 results: the concurrent committer's reconciled counters.
struct Concurrent {
    submitted: u64,
    committed: u64,
    rejected: u64,
    batches: u64,
    max_batch_seen: u64,
    overloads: u64,
    reader_checks: u64,
    retry_refreshes: u64,
    probe_refusals: u64,
}

/// Section 5 results: the warmed key count and one row per update.
struct Fence {
    keys: usize,
    rows: Vec<FenceRow>,
}

/// One update of section 5: the keys it must re-run and the misses seen.
struct FenceRow {
    update: &'static str,
    target: String,
    expected: usize,
    misses: u64,
}

/// The updates section 4 gates, in the order they run on one target.
const WRITE_UPDATES: [&str; 3] = [
    "set_node_access, new code",
    "set_node_access, no new code",
    "set_subtree_access",
];

/// The subject-lifecycle updates section 4 gates after them: a user
/// registered under one role, given a second, and removed.
const SUBJECT_UPDATES: [&str; 3] = ["register_subject", "set_group_membership", "remove_subject"];

/// The structural updates section 4 records last, on the ACL target.
const STRUCT_UPDATES: [&str; 3] = ["insert_subtree", "move_subtree", "delete_subtree"];

/// The subtree `insert_subtree` grafts: 13 nodes, xmark's own tags.
const GRAFT: &str = "<item><location>x</location><quantity>1</quantity><name>n</name>\
    <payment>p</payment><description><text>t</text></description><shipping>s</shipping>\
    <incategory/><mailbox><mail><from>f</from><to>t</to></mail></mailbox></item>";

/// What one committed update wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteCost {
    interned: usize,
    pages: u64,
    /// Whole-page copies over the update and its checkpoint.
    copies: u64,
    wal_bytes: u64,
    growth_bytes: u64,
}

/// Section 4 results: per scale, the node count and one cost per update of
/// [`WRITE_UPDATES`], then of [`SUBJECT_UPDATES`] and [`STRUCT_UPDATES`].
struct WritePath {
    scales: Vec<f64>,
    nodes: Vec<usize>,
    costs: Vec<Vec<WriteCost>>,
}

fn acl_config() -> SynthAclConfig {
    SynthAclConfig {
        propagation_ratio: 0.05,
        accessibility_ratio: 0.6,
        sibling_locality: 0.5,
        seed: 9,
    }
}

fn build_mem(effort: Effort, scale_quick: f64, scale_full: f64) -> SecureXmlDb {
    let doc = xmark(&XmarkConfig {
        scale: effort.scale(scale_quick, scale_full),
        seed: 20050405,
    });
    let map = synth_multi(&doc, &acl_config(), 3);
    SecureXmlDb::with_config(
        doc,
        &map,
        DbConfig {
            epoch_retain: RETAIN,
            ..DbConfig::default()
        },
    )
    .expect("build")
}

/// The full suite's answers on one handle, used as a whole-epoch oracle.
fn suite_answers(reader: &DbReader) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    for q in SUITE {
        for &sec in MODES {
            out.push(reader.query(q, sec).expect("oracle query").matches);
        }
    }
    out
}

/// Flips [`SUBJECT`]'s access to `pos`. An update that changes nothing
/// dirties no page and commits nothing, so the durability comparison runs
/// updates that all change the image.
fn flip(db: &mut SecureXmlDb, pos: u64) -> Result<(), DbError> {
    let allow = !db.accessible(pos, SUBJECT)?;
    db.set_node_access(pos, SUBJECT, allow)
}

/// Solo vs batched commits of the same update sequence on file-backed
/// disks (real fsyncs), ending in identical states.
fn equal_durability(effort: Effort, seed: u64) -> EqualDurability {
    let dir = std::env::temp_dir().join(format!("dol-bench-mvcc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let doc = xmark(&XmarkConfig {
        scale: effort.scale(0.02, 0.1),
        seed: 20050405,
    });
    let map = synth_multi(&doc, &acl_config(), 3);
    let cfg = DbConfig {
        epoch_retain: RETAIN,
        ..DbConfig::default()
    };
    let image = SecureXmlDb::with_config(doc, &map, cfg).expect("build");
    let n = image.len() as u64;
    let updates = effort.pick(12, 120) * BATCH_K;
    let ops: Vec<u64> = {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..updates).map(|_| rng.gen_range(1..n)).collect()
    };

    let open = |name: &str| -> SecureXmlDb {
        let data: Arc<dyn Disk> =
            Arc::new(FileDisk::create(&dir.join(format!("{name}.img"))).expect("data disk"));
        image.save_to_disk(data.clone()).expect("save image");
        let wal: Arc<dyn Disk> =
            Arc::new(FileDisk::create(&dir.join(format!("{name}.wal"))).expect("wal disk"));
        SecureXmlDb::open_on(data, wal, cfg).expect("open")
    };

    // Solo: every update is its own WAL transaction and fsync.
    let mut solo = open("solo");
    let wal = solo.store().pool().wal().expect("wal attached");
    let fsyncs_before = wal.stats().commits;
    for &pos in &ops {
        flip(&mut solo, pos).expect("solo set");
    }
    let solo_fsyncs = wal.stats().commits - fsyncs_before;

    // Batched: K updates fold into one WAL transaction and one fsync.
    let mut batched = open("batched");
    let wal = batched.store().pool().wal().expect("wal attached");
    let fsyncs_before = wal.stats().commits;
    let epoch_before = batched.epoch();
    for chunk in ops.chunks(BATCH_K) {
        let members: Vec<UpdateFn> = chunk
            .iter()
            .map(|&pos| -> UpdateFn { Box::new(move |db: &mut SecureXmlDb| flip(db, pos)) })
            .collect();
        let results = batched.run_batch(&members).expect("batch commit");
        assert!(
            results.iter().all(|r| r.is_ok()),
            "every member is a valid update"
        );
    }
    let batched_fsyncs = wal.stats().commits - fsyncs_before;
    let batches = updates.div_ceil(BATCH_K) as u64;
    assert_eq!(
        batched.epoch() - epoch_before,
        batches,
        "one epoch per batch, not per member"
    );
    let ws = wal.stats();
    assert_eq!(
        ws.batch_commits, batches,
        "every batch logged a batch record"
    );
    assert_eq!(
        ws.batched_members, updates as u64,
        "the WAL accounted every batch member"
    );

    // Equal durability must also mean equal answers: the two databases saw
    // the same updates and must agree query-for-query.
    let solo_answers = suite_answers(&solo.reader());
    let batched_answers = suite_answers(&batched.reader());
    assert_eq!(
        solo_answers, batched_answers,
        "solo and group-committed histories diverged"
    );

    std::fs::remove_dir_all(&dir).ok();

    let solo_fpu = solo_fsyncs as f64 / updates as f64;
    let batched_fpu = batched_fsyncs as f64 / updates as f64;
    assert!(
        solo_fpu >= 1.0,
        "solo commits must fsync at least once per update (got {solo_fpu:.3})"
    );
    assert!(
        batched_fpu * 5.0 <= solo_fpu,
        "group commit must amortize fsyncs at least 5x \
         (solo {solo_fpu:.3}/update, batched {batched_fpu:.3}/update)"
    );
    EqualDurability {
        updates,
        solo_fsyncs_per_update: solo_fpu,
        batched_fsyncs_per_update: batched_fpu,
    }
}

/// Readers pinned to every retained epoch answer their own oracle after
/// every group commit; past the window they fail typed and refresh.
fn pinned_readers(effort: Effort, seed: u64) -> Pinned {
    let mut db = build_mem(effort, 0.02, 0.05);
    let n = db.len() as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let commits = RETAIN + effort.pick(3, 8);
    let mut pinned: Vec<(DbReader, Vec<Vec<u64>>)> = Vec::new();
    let mut oracle_checks = 0usize;
    let mut retention_refusals = 0usize;

    for _ in 0..commits {
        let r = db.reader();
        let oracle = suite_answers(&r);
        pinned.push((r, oracle));

        let members: Vec<UpdateFn> = (0..4)
            .map(|_| -> UpdateFn {
                let pos = rng.gen_range(1..n);
                let allow = rng.gen_bool(0.5);
                Box::new(move |db: &mut SecureXmlDb| db.set_node_access(pos, SUBJECT, allow))
            })
            .collect();
        let results = db.run_batch(&members).expect("batch");
        assert!(results.iter().all(|r| r.is_ok()));

        let floor = db.retention_floor();
        assert_eq!(
            floor,
            db.epoch().saturating_sub(RETAIN as u64),
            "the ring floor tracks the epoch minus the retention window"
        );
        for (r, oracle) in &pinned {
            let mut i = 0;
            for q in SUITE {
                for &sec in MODES {
                    match r.query(q, sec) {
                        Ok(res) if r.epoch() >= floor => {
                            oracle_checks += 1;
                            assert_eq!(
                                res.matches,
                                oracle[i],
                                "pinned epoch {} answered off its own oracle on {q}",
                                r.epoch()
                            );
                        }
                        Ok(_) => panic!(
                            "reader pinned below the floor ({} < {floor}) must refuse, not answer",
                            r.epoch()
                        ),
                        Err(DbError::RetentionExceeded { seen, oldest, now }) => {
                            retention_refusals += 1;
                            assert!(seen < floor, "refusal for a servable epoch {seen}");
                            assert_eq!(seen, r.epoch());
                            assert_eq!(oldest, floor);
                            assert_eq!(now, db.epoch());
                        }
                        Err(e) => panic!("pinned reader failed untyped on {q}: {e}"),
                    }
                    i += 1;
                }
            }
        }
    }

    assert!(
        retention_refusals > 0,
        "the sweep must outlive the window to exercise RetentionExceeded"
    );
    // The refresh path: the oldest reader re-snapshots and serves the
    // *live* epoch's answers.
    let (mut oldest, _) = pinned.swap_remove(0);
    let live = suite_answers(&db.reader());
    let refreshed = oldest
        .query_with_retry(SUITE[0], MODES[1], 1, || db.reader())
        .expect("refresh path");
    assert_eq!(
        refreshed.matches, live[1],
        "refreshed reader serves the live epoch"
    );
    Pinned {
        commits,
        oracle_checks,
        retention_refusals,
    }
}

/// Writer threads push two-node atomic members through the group
/// committer while reader threads check the pair invariant on every
/// snapshot; the counters must reconcile exactly.
fn concurrent(effort: Effort, seed: u64) -> Concurrent {
    let mut db = build_mem(effort, 0.02, 0.05);
    let n = db.len() as u64;
    // Two probe nodes whose accessibility every member sets *together*:
    // readers must never observe them split.
    let (a, b) = (1u64, n / 2);
    db.run_update(|d| {
        d.set_node_access(a, SUBJECT, true)?;
        d.set_node_access(b, SUBJECT, true)
    })
    .expect("seed the probe pair");

    let gc = GroupCommitter::new(
        Arc::new(RwLock::new(db)),
        GroupCommitConfig {
            queue_capacity: 32,
            max_batch: 8,
        },
    );
    let writers = 4;
    let per_writer = effort.pick(40, 200);
    let done = AtomicBool::new(false);
    let committed_ok = AtomicU64::new(0);
    let rejected_members = AtomicU64::new(0);
    let overload_retries = AtomicU64::new(0);
    let reader_checks = AtomicU64::new(0);
    let invariant_violations = AtomicU64::new(0);
    let retry_refreshes = AtomicU64::new(0);
    let probe_refusals = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..writers {
            let gc = &gc;
            let committed_ok = &committed_ok;
            let rejected_members = &rejected_members;
            let overload_retries = &overload_retries;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (w as u64) << 32);
                for i in 0..per_writer {
                    // Every 11th member fails validation on purpose: it must
                    // be rejected alone, leaving its batch peers intact.
                    let poison_pill = i % 11 == 10;
                    let v = rng.gen_bool(0.5);
                    let submit = || {
                        gc.submit_fn(move |db| {
                            if poison_pill {
                                return db.set_node_access(u64::MAX, SUBJECT, v);
                            }
                            db.set_node_access(a, SUBJECT, v)?;
                            db.set_node_access(b, SUBJECT, v)
                        })
                    };
                    loop {
                        match submit() {
                            Ok(()) => {
                                assert!(!poison_pill, "an invalid member cannot commit");
                                committed_ok.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(DbError::Overloaded) => {
                                // Backpressure: nothing was queued; yield and
                                // resubmit.
                                overload_retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(DbError::InvalidNode(_)) if poison_pill => {
                                rejected_members.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e) => panic!("writer {w} update {i} failed: {e}"),
                        }
                    }
                }
            });
        }
        for _ in 0..3 {
            let gc = &gc;
            let done = &done;
            let reader_checks = &reader_checks;
            let invariant_violations = &invariant_violations;
            let retry_refreshes = &retry_refreshes;
            let probe_refusals = &probe_refusals;
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let mut r = gc.reader();
                    // A snapshot is a whole epoch: the pair moves together.
                    match (r.accessible(a, SUBJECT), r.accessible(b, SUBJECT)) {
                        (Ok(x), Ok(y)) => {
                            reader_checks.fetch_add(1, Ordering::Relaxed);
                            if x != y {
                                invariant_violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // The snapshot aged past the window between mint and
                        // probe: legal under a fast writer storm, typed,
                        // never wrong — the next loop iteration refreshes.
                        (Err(DbError::RetentionExceeded { .. }), _)
                        | (_, Err(DbError::RetentionExceeded { .. })) => {
                            probe_refusals.fetch_add(1, Ordering::Relaxed);
                        }
                        (Err(e), _) | (_, Err(e)) => panic!("reader probe failed: {e}"),
                    }
                    let before = r.epoch();
                    let res = r.query_with_retry(SUITE[0], MODES[1], 8, || gc.reader());
                    res.expect("retry query rides through the writer storm");
                    if r.epoch() != before {
                        retry_refreshes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // The writer threads spawned first; wait for them by joining the
        // scope's writer handles implicitly: spawn a sentinel that flips
        // `done` once all submissions are accounted for.
        let gc = &gc;
        let done = &done;
        let committed_ok = &committed_ok;
        let rejected_members = &rejected_members;
        s.spawn(move || {
            let total = (writers * per_writer) as u64;
            while committed_ok.load(Ordering::Relaxed) + rejected_members.load(Ordering::Relaxed)
                < total
            {
                std::thread::yield_now();
            }
            // One final coherent look before stopping the readers.
            let r = gc.reader();
            let x = r.accessible(a, SUBJECT).expect("final probe");
            let y = r.accessible(b, SUBJECT).expect("final probe");
            assert_eq!(x, y, "the final epoch must hold the pair invariant");
            done.store(true, Ordering::Release);
        });
    });

    let stats = gc.stats();
    let db = Arc::clone(gc.db());
    gc.close();
    let db = db.read().unwrap_or_else(|e| e.into_inner());
    assert!(!db.is_poisoned(), "the storm must end on a healthy handle");

    // Counter reconciliation: every submission is accounted exactly once.
    let ok = committed_ok.load(Ordering::Relaxed);
    let rejected = rejected_members.load(Ordering::Relaxed);
    assert_eq!(ok + rejected, (writers * per_writer) as u64);
    assert_eq!(stats.committed, ok, "committer lost or invented commits");
    assert_eq!(stats.rejected, rejected, "committer miscounted rejections");
    assert_eq!(
        stats.submitted,
        stats.committed + stats.rejected,
        "submissions must partition into commits and rejections"
    );
    assert_eq!(
        stats.overloads,
        overload_retries.load(Ordering::Relaxed),
        "every Overloaded the writers saw is an admission-control pushback"
    );
    assert!(stats.batches >= 1);
    assert_eq!(
        invariant_violations.load(Ordering::Relaxed),
        0,
        "a reader saw the probe pair split: a batch member tore"
    );

    Concurrent {
        submitted: stats.submitted,
        committed: stats.committed,
        rejected: stats.rejected,
        batches: stats.batches,
        max_batch_seen: stats.max_batch_seen,
        overloads: stats.overloads,
        reader_checks: reader_checks.load(Ordering::Relaxed),
        retry_refreshes: retry_refreshes.load(Ordering::Relaxed),
        probe_refusals: probe_refusals.load(Ordering::Relaxed),
    }
}

/// The same updates on a persistent database at two scales: an ACL commit
/// that costs what it changes costs the same at both.
fn write_path(effort: Effort) -> WritePath {
    let base = effort.scale(0.02, 0.1);
    let scales = vec![base, 4.0 * base];
    let (nodes, costs): (Vec<usize>, Vec<Vec<WriteCost>>) =
        scales.iter().map(|&s| write_costs(s)).unzip();
    let gated = WRITE_UPDATES.iter().chain(&SUBJECT_UPDATES);
    for (i, update) in gated.enumerate() {
        let c = costs[0][i];
        assert_eq!(
            c, costs[1][i],
            "{update}: the write cost depends on the document size ({} vs {} nodes)",
            nodes[0], nodes[1]
        );
        assert!(c.pages <= 8, "{update}: {} pages written", c.pages);
        assert!(
            c.wal_bytes <= 64 << 10,
            "{update}: {} WAL bytes",
            c.wal_bytes
        );
        let max_growth = if c.interned == 0 {
            0
        } else {
            2 * PAGE_SIZE as u64
        };
        assert!(
            c.growth_bytes <= max_growth,
            "{update}: the image grew {} bytes",
            c.growth_bytes
        );
    }
    // A commit logs the pages it dirtied without copying them: the only
    // copy is the pre-image's copy on write.
    for scale_costs in &costs {
        let updates = WRITE_UPDATES
            .iter()
            .chain(&SUBJECT_UPDATES)
            .chain(&STRUCT_UPDATES);
        for (update, c) in updates.zip(scale_costs) {
            assert!(
                c.copies <= c.pages,
                "{update}: {} page copies for {} pages written",
                c.copies,
                c.pages
            );
        }
    }
    let interned: Vec<usize> = costs[0].iter().map(|c| c.interned).collect();
    assert!(
        interned[0] > 0 && interned[1] == 0 && interned[2] > 0,
        "the updates must intern codes as labelled: {interned:?}"
    );
    WritePath {
        scales,
        nodes,
        costs,
    }
}

/// Builds and persists the xmark database at `scale`, factored over three
/// roles, then measures each update of [`WRITE_UPDATES`],
/// [`SUBJECT_UPDATES`] and [`STRUCT_UPDATES`] between two checkpoints: the
/// data pages the second flushes, the WAL bytes the commit appended, and
/// the pages it allocated.
fn write_costs(scale: f64) -> (usize, Vec<WriteCost>) {
    let doc = xmark(&XmarkConfig {
        scale,
        seed: 20050405,
    });
    let map = synth_multi(&doc, &acl_config(), 3);
    let (space, roles) = role_space(3);
    let cfg = DbConfig {
        epoch_retain: RETAIN,
        ..DbConfig::default()
    };
    let data = Arc::new(MemDisk::new());
    SecureXmlDb::from_document_factored(doc, &map, space)
        .expect("build")
        .save_to_disk(data.clone())
        .expect("save image");
    let mut db = SecureXmlDb::open_on(data.clone(), Arc::new(MemDisk::new()), cfg).expect("open");
    // Subjects no node grants yet: granting one interns a new code, and
    // revoking it again restores the node's old one.
    let f1 = db.add_subject(None).expect("add subject");
    let f2 = db.add_subject(None).expect("add subject");
    let (user, first, second) = (SubjectId(f2.0 + 1), roles[0], roles[1]);
    let root = quiet_subtree(&db);
    let wal = db.store().pool().wal().expect("wal attached");
    let graft = secure_xml::xml::parse(GRAFT).expect("graft");
    // After the graft the subtree is `size` nodes; it moves to the end of
    // the document, where the delete finds it.
    let size = u64::from(db.store().node(root).expect("root").size) + graft.len() as u64;
    let updates: [UpdateFn; 9] = [
        Box::new(move |db| db.set_node_access(root, f1, true)),
        Box::new(move |db| db.set_node_access(root, f1, false)),
        Box::new(move |db| db.set_subtree_access(root, f2, true)),
        Box::new(move |db| {
            assert_eq!(db.add_grouped_subject(&[first])?, user);
            Ok(())
        }),
        Box::new(move |db| db.set_group_membership(user, second, true).map(drop)),
        Box::new(move |db| db.remove_subject(user)),
        Box::new(move |db| db.insert_subtree(root, &graft).map(drop)),
        Box::new(move |db| db.move_subtree(root, 0).map(drop)),
        Box::new(move |db| db.delete_subtree(db.len() as u64 - size)),
    ];
    let costs = updates
        .iter()
        .map(|update| {
            db.checkpoint().expect("checkpoint");
            let io = db.io_stats();
            let logged = wal.stats().bytes_logged;
            let (pages, codes) = (data.num_pages(), db.dol().codebook().len());
            update(&mut db).expect("update");
            let wal_bytes = wal.stats().bytes_logged - logged;
            db.checkpoint().expect("checkpoint");
            let io = db.io_stats().since(&io);
            WriteCost {
                interned: db.dol().codebook().len() - codes,
                pages: io.physical_writes,
                copies: io.page_copies,
                wal_bytes,
                growth_bytes: u64::from(data.num_pages() - pages) * PAGE_SIZE as u64,
            }
        })
        .collect();
    (db.len(), costs)
}

/// Roles and users of the result-fence database (the wire benchmark's
/// xmark dataset shape).
const FENCE_ROLES: u32 = 8;
const FENCE_USERS: usize = 16;

/// Warms every result-cache key of a factored database, then applies five
/// state-changing updates one at a time and counts the keys each one makes
/// a fresh reader re-run.
fn result_fence(seed: u64) -> Fence {
    let doc = xmark(&XmarkConfig {
        scale: 0.02,
        seed: 20050405,
    });
    let map = synth_multi(&doc, &acl_config(), FENCE_ROLES as usize);
    let (mut space, roles) = role_space(FENCE_ROLES);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfe9c);
    let mut members: Vec<(SubjectId, Vec<SubjectId>)> = (0..FENCE_USERS)
        .map(|_| {
            let a = rng.gen_range(0..FENCE_ROLES);
            let mut parents = vec![roles[a as usize]];
            if rng.gen_bool(0.5) {
                let b = (a + rng.gen_range(1..FENCE_ROLES)) % FENCE_ROLES;
                parents.push(roles[b as usize]);
            }
            (space.add_subject(&parents), parents)
        })
        .collect();
    let mut db = SecureXmlDb::from_document_factored(doc, &map, space).expect("build");

    let mut keys: Vec<(&str, Security)> = Vec::new();
    for (_, q) in TABLE1 {
        keys.push((q, Security::None));
        for &(user, _) in &members {
            keys.push((q, Security::BindingLevel(user)));
            keys.push((q, Security::SubtreeVisibility(user)));
        }
    }
    let per_user = 2 * TABLE1.len();
    // Re-queries every key through a fresh reader, checking each answer
    // against the uncached path; returns the result-cache misses.
    let requery = |db: &SecureXmlDb| -> u64 {
        let before = db.cache_stats().result_misses;
        let reader = db.reader();
        for &(q, sec) in &keys {
            let got = reader.query(q, sec).expect("fence query").matches;
            let want = db.query(q, sec).expect("uncached query").matches;
            assert_eq!(got, want, "cached answer to {q} under {sec:?}");
        }
        db.cache_stats().result_misses - before
    };
    assert_eq!(requery(&db), keys.len() as u64, "a cold cache misses");
    assert_eq!(requery(&db), 0, "a warm cache hits every key");

    let n = db.len() as u64;
    let (user, _) = members[0];
    // A node the user cannot see, and a subtree of 2–64 nodes holding one.
    let hidden = |db: &SecureXmlDb, s: SubjectId, p: u64| !db.accessible(p, s).expect("probe");
    let node = (1..n)
        .find(|&p| hidden(&db, user, p))
        .expect("a hidden node");
    let subtree = (1..n)
        .find(|&p| {
            let size = u64::from(db.store().node(p).expect("node").size);
            (2..=64).contains(&size) && (p..p + size).any(|q| hidden(&db, user, q))
        })
        .expect("a subtree with a hidden node");
    let joined = *roles
        .iter()
        .find(|r| !members[0].1.contains(r))
        .expect("a role the user is not in");
    members[0].1.push(joined);
    let role = members[1].1[0];
    let role_node = (1..n)
        .find(|&p| hidden(&db, role, p))
        .expect("a node the role cannot see");
    let role_members = members.iter().filter(|(_, ps)| ps.contains(&role)).count();

    let steps: [(&'static str, String, usize, UpdateFn); 5] = [
        (
            "set_node_access",
            format!("user {}", user.0),
            per_user,
            Box::new(move |db| db.set_node_access(node, user, true)),
        ),
        (
            "set_subtree_access",
            format!("user {}", user.0),
            per_user,
            Box::new(move |db| db.set_subtree_access(subtree, user, true)),
        ),
        (
            "set_group_membership",
            format!("user {}", user.0),
            per_user,
            Box::new(move |db| db.set_group_membership(user, joined, true).map(drop)),
        ),
        (
            "set_node_access",
            format!("role {} ({role_members} members)", role.0),
            per_user * role_members,
            Box::new(move |db| db.set_node_access(role_node, role, true)),
        ),
        (
            "insert_subtree",
            "document".into(),
            keys.len(),
            Box::new(|db| {
                let graft = secure_xml::xml::parse(GRAFT).expect("graft");
                db.insert_subtree(1, &graft).map(drop)
            }),
        ),
    ];
    let rows = steps
        .into_iter()
        .map(|(update, target, expected, apply)| {
            let epoch = db.epoch();
            apply(&mut db).expect("fence update");
            assert_eq!(db.epoch(), epoch + 1, "{update} on {target} must commit");
            let misses = requery(&db);
            assert_eq!(
                misses, expected as u64,
                "{update} on {target} must re-run exactly the keys that can observe it"
            );
            FenceRow {
                update,
                target,
                expected,
                misses,
            }
        })
        .collect();
    Fence {
        keys: keys.len(),
        rows,
    }
}

/// A group space of `count` roles, role `c` bound to physical column `c`.
fn role_space(count: u32) -> (GroupSpace, Vec<SubjectId>) {
    let mut space = GroupSpace::new();
    let roles = (0..count)
        .map(|c| {
            let role = space.add_subject(&[]);
            space.bind_direct(role, c);
            role
        })
        .collect();
    (space, roles)
}

/// The first node whose subtree holds 8–64 nodes of one access code and
/// lies, with its successor, strictly inside one block of at most 48 code
/// runs (room for the two transitions an update adds): every update of
/// [`WRITE_UPDATES`] on it rewrites exactly that block, however large the
/// document around it.
fn quiet_subtree(db: &SecureXmlDb) -> u64 {
    let store = db.store();
    (0..store.block_count())
        .find_map(|b| {
            let info = store.block_info(b);
            let (start, end) = (info.first_pos, info.first_pos + u64::from(info.count));
            if store.runs_in(start, end).ok()?.len() > 48 {
                return None;
            }
            (start + 1..end).find(|&p| {
                let size = store.node(p).map_or(0, |n| u64::from(n.size));
                (8..=64).contains(&size)
                    && p + size < end
                    && store
                        .runs_in(p, p + size + 1)
                        .is_ok_and(|runs| runs.len() == 1)
            })
        })
        .expect("the document has a quiet subtree")
}

fn write_json(
    seed: u64,
    durability: &EqualDurability,
    pr: &Pinned,
    cc: &Concurrent,
    wp: &WritePath,
    fence: &Fence,
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"mvcc\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"epoch_retain\": {RETAIN},\n"));
    out.push_str(&format!("  \"batch_k\": {BATCH_K},\n"));
    out.push_str(&format!("  \"updates\": {},\n", durability.updates));
    out.push_str(&format!(
        "  \"fsyncs_per_update_solo\": {:.4},\n",
        durability.solo_fsyncs_per_update
    ));
    out.push_str(&format!(
        "  \"fsyncs_per_update_batched\": {:.4},\n",
        durability.batched_fsyncs_per_update
    ));
    out.push_str(&format!("  \"pinned_commits\": {},\n", pr.commits));
    out.push_str(&format!(
        "  \"pinned_oracle_checks\": {},\n",
        pr.oracle_checks
    ));
    out.push_str(&format!(
        "  \"retention_refusals\": {},\n",
        pr.retention_refusals
    ));
    out.push_str(&format!("  \"gc_submitted\": {},\n", cc.submitted));
    out.push_str(&format!("  \"gc_committed\": {},\n", cc.committed));
    out.push_str(&format!("  \"gc_rejected\": {},\n", cc.rejected));
    out.push_str(&format!("  \"gc_max_batch\": {},\n", cc.max_batch_seen));
    out.push_str(&format!("  \"gc_overloads\": {},\n", cc.overloads));
    // How the storm's commits fold into batches, and how often its readers
    // check, refresh and get refused, depend on thread timing: the table
    // above prints them, the snapshot records only values that repeat.
    for column in [
        "gc_batches",
        "gc_reader_checks",
        "gc_retry_refreshes",
        "gc_probe_refusals",
    ] {
        out.push_str(&format!("  \"{column}\": null,\n"));
    }
    let list = |v: Vec<String>| v.join(", ");
    out.push_str(&format!(
        "  \"write_path_scales\": [{}],\n",
        list(wp.scales.iter().map(|s| s.to_string()).collect())
    ));
    out.push_str(&format!(
        "  \"write_path_nodes\": [{}],\n",
        list(wp.nodes.iter().map(|n| n.to_string()).collect())
    ));
    // Equal at every scale (asserted): one row per update.
    let rows: Vec<String> = WRITE_UPDATES
        .iter()
        .chain(&SUBJECT_UPDATES)
        .zip(&wp.costs[0])
        .map(|(update, c)| {
            format!(
                "    {{\"update\": \"{update}\", \"codes_interned\": {}, \"pages_written\": {}, \
                 \"page_copies\": {}, \"wal_bytes\": {}, \"image_growth_bytes\": {}}}",
                c.interned, c.pages, c.copies, c.wal_bytes, c.growth_bytes
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"write_path\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    // Recorded, one row per scale and update.
    let mut rows = Vec::new();
    for (nodes, costs) in wp.nodes.iter().zip(&wp.costs) {
        let structural = &costs[WRITE_UPDATES.len() + SUBJECT_UPDATES.len()..];
        for (update, c) in STRUCT_UPDATES.iter().zip(structural) {
            rows.push(format!(
                "    {{\"update\": \"{update}\", \"nodes\": {nodes}, \"pages_written\": {}, \
                 \"page_copies\": {}, \"wal_bytes\": {}, \"image_growth_bytes\": {}}}",
                c.pages, c.copies, c.wal_bytes, c.growth_bytes
            ));
        }
    }
    out.push_str(&format!(
        "  \"write_path_structural\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    // Asserted equal to their expectations.
    out.push_str(&format!("  \"result_fence_keys\": {},\n", fence.keys));
    let rows: Vec<String> = fence
        .rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"update\": \"{}\", \"target\": \"{}\", \"expected_misses\": {}, \
                 \"misses\": {}}}",
                r.update, r.target, r.expected, r.misses
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"result_fence\": [\n{}\n  ]\n",
        rows.join(",\n")
    ));
    out.push_str("}\n");
    match std::fs::File::create("BENCH_mvcc.json").and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("(wrote BENCH_mvcc.json)\n"),
        Err(e) => eprintln!("could not write BENCH_mvcc.json: {e}"),
    }
}
