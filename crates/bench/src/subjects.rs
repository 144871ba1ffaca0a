//! `subjects` — subject-count scaling on the group-factored codebook
//! (ROADMAP open item 1; the paper's Fig. 10/11 claims pushed three orders
//! of magnitude past the measured LiveLink deployment).
//!
//! One fixed document and one fixed group structure (company → departments
//! → teams, 73 physical columns at the default shape); the sweep then
//! registers users purely through the membership table
//! ([`SecureXmlDb::add_grouped_subjects`]) and at every step measures
//!
//! * logical page reads per secure query over a sampled user pool (both
//!   secure semantics), **gated** to stay within 1.25× of the 4-subject
//!   baseline — a user's derived column is the OR of its group closure, so
//!   what a query touches must not grow with the population (the counter
//!   repeats exactly for one seed; time is `perf/`'s to measure);
//! * codebook + membership bytes, **gated** sub-linear in subject count and
//!   reported against the flat one-column-per-subject equivalent;
//! * answer correctness: sampled users' visible sets equal the OR of their
//!   transitive group closure computed independently from the rule set.
//!
//! A final segment exercises **compaction** under churn: direct per-subject
//! columns are created and removed, then one
//! [`SecureXmlDb::compact_subjects`] transaction drops them — **gated** to
//! shrink the codebook strictly, spend exactly one epoch and leave probe
//! answers unchanged — and the pages that transaction wrote are recorded.
//!
//! `--smoke` pins a small deterministic configuration for CI; `--full`
//! extends the sweep to 10^6 subjects. Machine-readable output goes to
//! `BENCH_subjects.json`.

use crate::table::{bytes as fmt_bytes, Table};
use crate::Effort;
use dol_acl::SubjectId;
use dol_nok::Security;
use dol_workloads::{GroupedConfig, GroupedWorld};
use secure_xml::SecureXmlDb;
use std::io::Write as _;

/// Cost gate: logical reads per query at every step must stay within
/// `READS_RATIO ×` the baseline step's.
const READS_RATIO: f64 = 1.25;
/// Bytes gate: growing the population by `r` may grow codebook+membership
/// bytes by at most `0.9 × r` (strictly sub-linear).
const BYTES_RATIO: f64 = 0.9;
/// Sampled users measured per step.
const POOL: usize = 12;
/// Positions spot-checked per sampled user for answer correctness.
const SPOT_POSITIONS: usize = 64;

/// Queries over the grouped-portal document (paths + descendant steps, so
/// both the streaming and structural-join paths are exercised).
const QUERIES: [&str; 3] = [
    "/workspace/department/team",
    "/workspace/department/team//folder",
    "//folder//doc",
];

/// One user batch registered during the sweep: `count` contiguous ids
/// starting at `first`, all direct members of `team`.
struct Batch {
    first: u32,
    count: usize,
    team: SubjectId,
}

/// Evenly samples `n` users (id + team) out of the registered batches.
fn sample_pool(batches: &[Batch], n: usize) -> Vec<(SubjectId, SubjectId)> {
    let total: usize = batches.iter().map(|b| b.count).sum();
    let n = n.min(total);
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut idx = k * total / n;
        for b in batches {
            if idx < b.count {
                out.push((SubjectId(b.first + idx as u32), b.team));
                break;
            }
            idx -= b.count;
        }
    }
    out
}

struct StepReport {
    subjects: usize,
    reads_per_query: f64,
    bytes: usize,
    membership_bytes: usize,
    flat_bytes: usize,
    entries: usize,
}

/// Runs the query mix over the pool under both secure semantics and
/// returns the mean logical page reads per query.
fn reads_per_query(db: &SecureXmlDb, pool: &[(SubjectId, SubjectId)]) -> f64 {
    let mut reads = 0u64;
    let mut queries = 0u64;
    for q in QUERIES {
        for &(u, _) in pool {
            for sec in [Security::BindingLevel(u), Security::SubtreeVisibility(u)] {
                reads += db.query(q, sec).expect("query").stats.io.logical_reads;
                queries += 1;
            }
        }
    }
    reads as f64 / queries as f64
}

/// Spot-checks that each sampled user's visible set is exactly the OR of
/// its transitive group closure, computed independently from the cascade
/// rule set.
fn check_answers(db: &SecureXmlDb, world: &GroupedWorld, pool: &[(SubjectId, SubjectId)]) {
    let nodes = world.doc.len() as u64;
    for &(u, team) in pool {
        // A user whose only membership is `team` derives exactly the
        // team's closure rights.
        let expect = world.user_column(team);
        let stride = (nodes / SPOT_POSITIONS as u64).max(1);
        let mut pos = 0u64;
        while pos < nodes {
            assert_eq!(
                db.accessible(pos, u).expect("accessible"),
                expect.get(pos as usize),
                "derived bit diverges at position {pos} for subject {u}"
            );
            pos += stride;
        }
    }
}

/// Runs the subject-scaling sweep.
pub fn run(effort: Effort, seed: u64, smoke: bool) {
    let steps: Vec<usize> = if smoke {
        vec![4, 512, 4096]
    } else {
        let mut s = vec![4, 1_000, 10_000, 100_000];
        if matches!(effort, Effort::Full) {
            s.push(1_000_000);
        }
        s
    };
    let cfg = GroupedConfig {
        initial_users: 4,
        seed,
        ..Default::default()
    };
    let world = GroupedWorld::generate(&cfg);
    let mut db = SecureXmlDb::from_document_factored(
        world.doc.clone(),
        &world.oracle(),
        world.space().clone(),
    )
    .expect("build factored db");
    println!(
        "Subject scaling on the group-factored codebook ({} nodes, {} physical columns,\n\
         {} codebook entries, seed {seed})\n",
        world.doc.len(),
        world.physical_subjects(),
        db.dol().codebook().len(),
    );

    // Registered-user batches; the initial users come from the world.
    let mut batches: Vec<Batch> = world
        .users()
        .iter()
        .enumerate()
        .map(|(i, &u)| Batch {
            first: u.0,
            count: 1,
            team: world.team_for(i),
        })
        .collect();
    let mut current: usize = world.users().len();

    let mut t = Table::new(
        "subjects: factored codebook scaling",
        &[
            "subjects",
            "reads/query",
            "entries",
            "codebook+membership",
            "flat equivalent",
            "reads vs base",
        ],
    );
    let mut reports: Vec<StepReport> = Vec::new();
    let mut base_reads = 0.0f64;
    let mut base_bytes = 0usize;
    let mut base_subjects = 0usize;
    for &target in &steps {
        if target > current {
            // Register the delta purely through the membership table,
            // chunked per team so ids stay contiguous per batch.
            let delta = target - current;
            let teams = world.teams().len();
            for ti in 0..teams {
                let count = delta / teams + usize::from(ti < delta % teams);
                if count == 0 {
                    continue;
                }
                let team = world.teams()[ti];
                let first = db
                    .add_grouped_subjects(count, &[team])
                    .expect("bulk membership add");
                batches.push(Batch {
                    first: first.0,
                    count,
                    team,
                });
            }
            current = target;
        }
        let pool = sample_pool(&batches, POOL);
        check_answers(&db, &world, &pool);
        let reads = reads_per_query(&db, &pool);
        let cb = db.dol().codebook();
        let report = StepReport {
            subjects: target,
            reads_per_query: reads,
            bytes: cb.bytes(),
            membership_bytes: cb.membership_bytes(),
            flat_bytes: cb.flat_equivalent_bytes(),
            entries: cb.len(),
        };
        if reports.is_empty() {
            base_reads = reads;
            base_bytes = report.bytes;
            base_subjects = target;
        } else {
            // Cost gate: flat in the population size.
            assert!(
                reads <= base_reads * READS_RATIO,
                "logical reads per query at {target} subjects regressed: \
                 {reads:.1} vs {base_reads:.1} baseline"
            );
            // Bytes gate: strictly sub-linear in the population size.
            let subject_ratio = target as f64 / base_subjects as f64;
            let bytes_ratio = report.bytes as f64 / base_bytes as f64;
            assert!(
                bytes_ratio <= BYTES_RATIO * subject_ratio,
                "codebook+membership bytes not sub-linear at {target} subjects: \
                 bytes grew {bytes_ratio:.1}x for a {subject_ratio:.1}x population"
            );
        }
        t.row(&[
            target.to_string(),
            format!("{reads:.1}"),
            report.entries.to_string(),
            fmt_bytes(report.bytes),
            fmt_bytes(report.flat_bytes),
            format!("{:.2}x", reads / base_reads),
        ]);
        reports.push(report);
    }
    t.print();
    println!(
        "(Gates: logical reads per query within {READS_RATIO}x of the 4-subject baseline at\n\
         every step; codebook+membership bytes sub-linear ({BYTES_RATIO} x subject ratio); sampled\n\
         users' visible sets equal their independently computed group-closure OR.)\n"
    );

    // ---- compaction under churn ---------------------------------------
    // Direct per-subject grants materialize columns; removing the subjects
    // leaves dead columns and duplicate entries for the compactor.
    let pool = sample_pool(&batches, 4);
    let probe = |db: &SecureXmlDb| -> Vec<Vec<u64>> {
        QUERIES
            .iter()
            .map(|q| {
                let sec = Security::BindingLevel(pool[0].0);
                db.query(q, sec).expect("probe").matches
            })
            .collect()
    };
    let probe_expect = probe(&db);
    let churn = if smoke { 6 } else { 10 };
    let mut churned = Vec::with_capacity(churn);
    for i in 0..churn {
        let s = db.add_subject(None).expect("churn add");
        db.set_subtree_access((i as u64 * 7) % db.len() as u64, s, true)
            .expect("churn grant");
        churned.push(s);
    }
    for s in churned {
        db.remove_subject(s).expect("churn remove");
    }
    let entries_before = db.dol().codebook().len();
    db.checkpoint().expect("checkpoint");
    let (io, epoch) = (db.io_stats(), db.epoch());
    db.compact_subjects().expect("compact subjects");
    db.checkpoint().expect("checkpoint");
    let compaction = Compaction {
        entries_before,
        entries_after: db.dol().codebook().len(),
        pages_written: db.io_stats().since(&io).physical_writes,
    };
    assert_eq!(db.epoch(), epoch + 1, "compaction must commit as one epoch");
    assert!(
        compaction.entries_after < entries_before,
        "compaction left {} of {entries_before} entries",
        compaction.entries_after
    );
    assert_eq!(probe(&db), probe_expect, "compaction changed probe answers");
    check_answers(&db, &world, &pool);
    println!(
        "compaction: {entries_before} -> {} entries, {} live columns after, one transaction \
         wrote {} pages;\nprobe answers unchanged\n",
        compaction.entries_after,
        db.dol().codebook().live_columns(),
        compaction.pages_written
    );

    write_json(seed, &world, &reports, &compaction);
}

/// What the one compaction transaction did.
struct Compaction {
    entries_before: usize,
    entries_after: usize,
    pages_written: u64,
}

fn write_json(seed: u64, world: &GroupedWorld, reports: &[StepReport], c: &Compaction) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"subjects\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"nodes\": {},\n", world.doc.len()));
    out.push_str(&format!(
        "  \"physical_columns\": {},\n",
        world.physical_subjects()
    ));
    out.push_str(&format!("  \"reads_ratio_gate\": {READS_RATIO},\n"));
    out.push_str(&format!("  \"bytes_ratio_gate\": {BYTES_RATIO},\n"));
    out.push_str("  \"steps\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"subjects\": {}, \"logical_reads_per_query\": {:.2}, \"entries\": {}, \
             \"codebook_bytes\": {}, \"membership_bytes\": {}, \"flat_equivalent_bytes\": {}}}{}\n",
            r.subjects,
            r.reads_per_query,
            r.entries,
            r.bytes,
            r.membership_bytes,
            r.flat_bytes,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"compaction\": {{\"entries_before\": {}, \"entries_after\": {}, \
         \"pages_written\": {}}}\n",
        c.entries_before, c.entries_after, c.pages_written
    ));
    out.push_str("}\n");
    match std::fs::File::create("BENCH_subjects.json").and_then(|mut f| f.write_all(out.as_bytes()))
    {
        Ok(()) => println!("(wrote BENCH_subjects.json)\n"),
        Err(e) => eprintln!("could not write BENCH_subjects.json: {e}"),
    }
}
