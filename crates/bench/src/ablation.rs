//! Ablations: isolate the contribution of individual design choices.
//!
//! * **Codebook** — what multi-subject storage would cost if each transition
//!   carried its raw ACL bit-vector instead of a code (no dictionary).
//! * **Page skip** — the §3.3 in-memory header test, on vs off, for a
//!   low-accessibility subject on an unanchored query.
//! * **Block size** — records per block vs cold-cache query I/O and
//!   single-node update cost (the clustering trade-off behind the paper's
//!   4 KB pages).

use crate::setup::{synth_column, xmark_doc, BenchDb, ColumnOracle, SUBJECT};
use crate::table::{bytes, f3, Table};
use crate::Effort;
use dol_core::{Dol, EmbeddedDol};
use dol_nok::{parse_query, ExecOptions, QueryPlan, Security};
use dol_storage::{BufferPool, MemDisk, StoreConfig};

use std::sync::Arc;

/// Runs all three ablations.
pub fn run(effort: Effort) {
    codebook(effort);
    page_skip(effort);
    block_size(effort);
}

/// Dictionary compression: codebook vs raw ACLs on the transitions. Uses
/// the Unix-FS world, where transitions far outnumber distinct ACLs, so the
/// dictionary's effect is visible in isolation.
fn codebook(effort: Effort) {
    let world = dol_workloads::UnixFsWorld::generate(&dol_workloads::UnixFsConfig {
        nodes: effort.pick(8_000, 120_000),
        users: 182,
        groups: 65,
        seed: 65,
    });
    let dol = Dol::build_n(
        world.doc.len() as u64,
        &world.oracle(dol_workloads::UnixMode::Read),
    );
    let s = dol.stats();
    let acl_bytes_per_transition = world.subject_count().div_ceil(8);
    let raw = s.transitions * acl_bytes_per_transition;
    let mut t = Table::new(
        "ablation: codebook vs raw ACLs (Unix-FS-style, read mode)",
        &["scheme", "per-transition", "total"],
    );
    t.row(&[
        "DOL with codebook".into(),
        format!("{} B code", dol.codebook().code_bytes()),
        format!(
            "{} ({} codebook + {} codes)",
            bytes(s.total_bytes()),
            bytes(s.codebook_bytes),
            bytes(s.embedded_code_bytes)
        ),
    ]);
    t.row(&[
        "raw ACL per transition".into(),
        format!("{acl_bytes_per_transition} B ACL"),
        bytes(raw),
    ]);
    t.row(&[
        "codebook advantage".into(),
        "-".into(),
        format!("{:.1}x", raw as f64 / s.total_bytes() as f64),
    ]);
    t.print();
}

/// The in-memory page-skip test, on vs off.
fn page_skip(effort: Effort) {
    let doc = xmark_doc(effort.scale(0.3, 2.0));
    // A subject who can only access one small region: most blocks are
    // uniform-deny and skippable.
    let mut col = synth_column(&doc, 0.05, 0.005, 3);
    col.set(0, true);
    let db = BenchDb::build(doc, &ColumnOracle(col), 8192);
    let engine = db.engine();
    let plan = QueryPlan::new(parse_query("//item[name]").unwrap());
    let mut t = Table::new(
        "ablation: page-skip optimization (//item[name], 5% accessible)",
        &[
            "page skip",
            "blocks skipped",
            "nodes visited",
            "cold physical reads",
        ],
    );
    for on in [true, false] {
        db.pool.clear_cache().expect("clear");
        db.pool.reset_stats();
        let res = engine
            .execute_plan_opts(
                &plan,
                Security::BindingLevel(SUBJECT),
                ExecOptions {
                    page_skip: on,
                    ..ExecOptions::default()
                },
            )
            .expect("query");
        let io = db.pool.stats();
        t.row(&[
            if on { "on" } else { "off" }.into(),
            res.stats.blocks_skipped.to_string(),
            res.stats.nodes_visited.to_string(),
            io.physical_reads.to_string(),
        ]);
    }
    t.print();
}

/// Records-per-block sweep.
fn block_size(effort: Effort) {
    let doc = xmark_doc(effort.scale(0.3, 1.5));
    let col = synth_column(&doc, 0.5, 0.03, 5);
    let mut t = Table::new(
        "ablation: records per block",
        &[
            "records/block",
            "blocks",
            "cold reads //item//emph",
            "node-update pages (r+w)",
        ],
    );
    for max_rec in [50usize, 100, 200, 300] {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 8192));
        let (mut store, mut dol) = EmbeddedDol::build(
            pool.clone(),
            StoreConfig {
                max_records_per_block: max_rec,
            },
            &doc,
            &ColumnOracle(col.clone()),
        )
        .expect("build");
        // Cold-cache query reads.
        let mut values = dol_storage::ValueStore::new(pool.clone());
        for id in doc.preorder() {
            if let Some(v) = &doc.node(id).value {
                values.put(u64::from(id.0), v).expect("values");
            }
        }
        let index = dol_nok::NodeIndex::build(&store, &values).expect("index");
        let cold_reads = {
            let engine = dol_nok::QueryEngine::new(&store, &values, doc.tags(), Some(&dol), &index);
            pool.clear_cache().expect("clear");
            pool.reset_stats();
            let _ = engine
                .execute("//item//emph", Security::BindingLevel(SUBJECT))
                .expect("query");
            pool.stats().physical_reads
        };
        // Update cost.
        let mut update_io = 0u64;
        let rounds = effort.pick(20, 60) as u64;
        for i in 0..rounds {
            let pos = (i * 7919) % store.total_nodes();
            pool.clear_cache().expect("clear");
            pool.reset_stats();
            dol.set_node(&mut store, pos, SUBJECT, i % 2 == 0)
                .expect("update");
            pool.flush_all().expect("flush");
            let s = pool.stats();
            update_io += s.physical_reads + s.physical_writes;
        }
        t.row(&[
            max_rec.to_string(),
            store.block_count().to_string(),
            cold_reads.to_string(),
            f3(update_io as f64 / rounds as f64),
        ]);
    }
    t.print();
    println!(
        "(Bigger blocks cluster more of the document per page — fewer cold reads per query —\n\
         while update cost stays flat because a code-run update touches O(1) blocks.)\n"
    );
}
