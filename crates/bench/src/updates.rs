//! §3.4 / Proposition 1: update costs.
//!
//! Measures (a) the page I/O of single-node vs subtree accessibility
//! updates — the paper's claim is one page read + one write for a node, and
//! `N/B` page I/Os for an `N`-node subtree thanks to clustering — and
//! (b) the net transition-node growth per update, which Proposition 1
//! bounds by 2, and (c) the cost of crash consistency: the log bytes
//! appended per update, the fsyncs each transaction pays, and how much of
//! that cost group commit recovers by folding batches of updates into one
//! WAL transaction and one fsync.

use crate::setup::{synth_column, xmark_doc, ColumnOracle, SUBJECT};
use crate::table::Table;
use crate::Effort;
use dol_core::EmbeddedDol;
use dol_storage::{BufferPool, MemDisk, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::acl::SubjectId;
use secure_xml::workloads::{synth_multi, SynthAclConfig};
use secure_xml::{DbConfig, SecureXmlDb, UpdateFn};
use std::sync::Arc;

/// Runs the update experiment.
pub fn run(effort: Effort) {
    let doc = xmark_doc(effort.scale(0.2, 1.0));
    let col = synth_column(&doc, 0.5, 0.03, 9);
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4096));
    let (mut store, mut dol) = EmbeddedDol::build(
        pool.clone(),
        StoreConfig::default(),
        &doc,
        &ColumnOracle(col),
    )
    .expect("build");
    println!(
        "Update costs on XMark ({} nodes, {} blocks of {} records)\n",
        store.total_nodes(),
        store.block_count(),
        store.config().max_records_per_block
    );
    let mut rng = StdRng::seed_from_u64(99);
    let n = store.total_nodes();
    let rounds = effort.pick(60, 300);

    let mut t = Table::new(
        "updates",
        &[
            "kind",
            "updates",
            "avg subtree nodes",
            "avg pages read",
            "avg pages written",
            "max transition growth",
        ],
    );
    // Single-node updates.
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut max_growth = 0i64;
    for _ in 0..rounds {
        let pos = rng.gen_range(0..n);
        let before = store.logical_transition_count().expect("count");
        pool.clear_cache().expect("clear");
        pool.reset_stats();
        dol.set_node(&mut store, pos, SUBJECT, rng.gen_bool(0.5))
            .expect("update");
        pool.flush_all().expect("flush");
        let s = pool.stats();
        reads += s.physical_reads;
        writes += s.physical_writes;
        let after = store.logical_transition_count().expect("count");
        max_growth = max_growth.max(after as i64 - before as i64);
    }
    t.row(&[
        "single node".into(),
        rounds.to_string(),
        "1".into(),
        format!("{:.1}", reads as f64 / rounds as f64),
        format!("{:.1}", writes as f64 / rounds as f64),
        max_growth.to_string(),
    ]);

    // Subtree updates.
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut sizes = 0u64;
    let mut max_growth = 0i64;
    for _ in 0..rounds {
        let pos = rng.gen_range(0..n);
        let size = store.node(pos).expect("node").size as u64;
        sizes += size;
        let before = store.logical_transition_count().expect("count");
        pool.clear_cache().expect("clear");
        pool.reset_stats();
        dol.set_subtree(&mut store, pos, pos + size, SUBJECT, rng.gen_bool(0.5))
            .expect("update");
        pool.flush_all().expect("flush");
        let s = pool.stats();
        reads += s.physical_reads;
        writes += s.physical_writes;
        let after = store.logical_transition_count().expect("count");
        max_growth = max_growth.max(after as i64 - before as i64);
    }
    t.row(&[
        "whole subtree".into(),
        rounds.to_string(),
        format!("{:.1}", sizes as f64 / rounds as f64),
        format!("{:.1}", reads as f64 / rounds as f64),
        format!("{:.1}", writes as f64 / rounds as f64),
        max_growth.to_string(),
    ]);
    t.print();
    store
        .check_integrity()
        .expect("integrity after update storm");
    println!(
        "(Paper shape: node updates touch ~a page; an N-node subtree costs on the order of\n\
         N/B pages because the preorder layout clusters the subtree; Proposition 1 bounds\n\
         net transition growth by 2 per update — the max column must never exceed 2.)\n"
    );

    wal_overhead(effort);
}

/// One measured update kind of the WAL-overhead comparison.
#[derive(Clone, Copy)]
enum WalOp {
    SetNode(u64, bool),
    SetSubtree(u64, bool),
    /// Insert a small subtree under the parent, then delete it again (net
    /// zero, so the two databases stay in lockstep across rounds).
    InsertDelete(u64),
}

/// Group-commit batch width of the WAL-overhead comparison.
const BATCH: usize = 8;

/// Crash-consistency overhead: identical update sequences through the
/// database facade on (a) a persistent database whose every update commits
/// through the physical WAL — including the meta sections and catalog a
/// transaction changed and an fsync per commit — and (b) the same
/// WAL-backed database committing the updates through `run_batch` in groups
/// of [`BATCH`], which folds every group into one WAL transaction and one
/// fsync. Nothing is timed: the columns are log bytes and fsyncs.
fn wal_overhead(effort: Effort) {
    let doc = xmark_doc(effort.scale(0.02, 0.1));
    let map = synth_multi(
        &doc,
        &SynthAclConfig {
            propagation_ratio: 0.05,
            accessibility_ratio: 0.6,
            sibling_locality: 0.5,
            seed: 9,
        },
        3,
    );
    let cfg = DbConfig::default();
    let plain = SecureXmlDb::with_config(doc, &map, cfg).expect("build");
    let data = Arc::new(MemDisk::new());
    plain.save_to_disk(data.clone()).expect("save image");
    let mut logged =
        SecureXmlDb::open_on(data, Arc::new(MemDisk::new()), cfg).expect("open logged");
    let wal = logged.store().pool().wal().expect("wal attached");
    let data_b = Arc::new(MemDisk::new());
    plain.save_to_disk(data_b.clone()).expect("save image");
    let mut batched =
        SecureXmlDb::open_on(data_b, Arc::new(MemDisk::new()), cfg).expect("open batched");
    let batched_wal = batched.store().pool().wal().expect("wal attached");

    let n = plain.len() as u64;
    println!(
        "WAL overhead on XMark ({n} nodes): same updates, solo commits vs group \
         commit (batches of {BATCH})\n"
    );
    let rounds = effort.pick(40, 200);
    let mut rng = StdRng::seed_from_u64(13);
    let mut t = Table::new(
        "crash-consistency overhead",
        &[
            "kind",
            "updates",
            "log bytes/update",
            "fsyncs/txn",
            "fsyncs/txn (batched)",
        ],
    );
    type GenFn = fn(&mut StdRng, u64) -> WalOp;
    let kinds: [(&str, GenFn); 3] = [
        ("single-node access", |r, n| {
            WalOp::SetNode(r.gen_range(0..n), r.gen_bool(0.5))
        }),
        ("subtree access", |r, n| {
            WalOp::SetSubtree(r.gen_range(0..n), r.gen_bool(0.5))
        }),
        ("insert + delete", |r, n| {
            WalOp::InsertDelete(r.gen_range(0..n))
        }),
    ];
    for (kind, gen) in kinds {
        let ops: Vec<WalOp> = (0..rounds).map(|_| gen(&mut rng, n)).collect();
        let before = wal.stats().bytes_logged;
        let fsyncs_before = wal.stats().commits;
        for op in &ops {
            match op {
                WalOp::SetNode(pos, allow) => logged
                    .set_node_access(*pos, SUBJECT_ID, *allow)
                    .expect("set"),
                WalOp::SetSubtree(pos, allow) => logged
                    .set_subtree_access(*pos, SUBJECT_ID, *allow)
                    .expect("set subtree"),
                WalOp::InsertDelete(parent) => {
                    let sub = secure_xml::xml::parse("<extra><w>v</w></extra>").expect("parses");
                    let at = logged.insert_subtree(*parent, &sub).expect("insert");
                    logged.delete_subtree(at).expect("delete");
                }
            }
        }
        // The same ops again, folded through the group-commit path: every
        // chunk of BATCH members commits as one WAL transaction and one
        // fsync, so the batched database visits the identical final state
        // through rounds/BATCH durable points instead of `txns`.
        let batched_fsyncs_before = batched_wal.stats().commits;
        for chunk in ops.chunks(BATCH) {
            let members: Vec<UpdateFn> = chunk.iter().map(member).collect();
            let results = batched.run_batch(&members).expect("batch commit");
            for r in results {
                r.expect("batch member");
            }
        }
        let batched_fsyncs = batched_wal.stats().commits - batched_fsyncs_before;
        // An insert+delete round is two transactions on the solo path (one
        // batched member covers both halves).
        let txns = match ops[0] {
            WalOp::InsertDelete(_) => 2 * rounds,
            _ => rounds,
        };
        t.row(&[
            kind.into(),
            txns.to_string(),
            format!(
                "{:.0}",
                (wal.stats().bytes_logged - before) as f64 / txns as f64
            ),
            format!(
                "{:.2}",
                (wal.stats().commits - fsyncs_before) as f64 / txns as f64
            ),
            format!("{:.2}", batched_fsyncs as f64 / txns as f64),
        ]);
    }
    t.print();
    // Lockstep check: the solo-WAL and batched databases applied the same
    // ops, so they must agree on every sampled accessibility bit.
    let (lr, br) = (logged.reader(), batched.reader());
    for pos in (0..n).step_by((n as usize / 32).max(1)) {
        assert_eq!(
            lr.accessible(pos, SUBJECT_ID).expect("solo probe"),
            br.accessible(pos, SUBJECT_ID).expect("batched probe"),
            "group commit diverged from solo commits at node {pos}"
        );
    }
    println!(
        "(A solo commit logs full page images of every dirtied page (meta sections\n\
         and catalog included when changed) and pays an fsync — the price of\n\
         recovering to an exact update boundary. The batched column commits the\n\
         identical updates through `run_batch` in groups of {BATCH}: one WAL\n\
         transaction and one fsync per group, which is where the fsyncs/txn column\n\
         collapses — at the same all-or-nothing durability per batch.)\n"
    );
}

/// Lowers one [`WalOp`] to a group-commit batch member.
fn member(op: &WalOp) -> UpdateFn {
    match *op {
        WalOp::SetNode(pos, allow) => {
            Box::new(move |db: &mut SecureXmlDb| db.set_node_access(pos, SUBJECT_ID, allow))
        }
        WalOp::SetSubtree(pos, allow) => {
            Box::new(move |db: &mut SecureXmlDb| db.set_subtree_access(pos, SUBJECT_ID, allow))
        }
        WalOp::InsertDelete(parent) => Box::new(move |db: &mut SecureXmlDb| {
            let sub = secure_xml::xml::parse("<extra><w>v</w></extra>").expect("parses");
            let at = db.insert_subtree(parent, &sub)?;
            db.delete_subtree(at)?;
            Ok(())
        }),
    }
}

/// The facade-level subject the WAL-overhead updates target.
const SUBJECT_ID: SubjectId = SubjectId(1);
