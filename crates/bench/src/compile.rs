//! Compiled twig execution on the Table-1 mix, checked against the reference
//! evaluator.
//!
//! Every query is parsed and lowered **once** through a
//! [`dol_nok::PlanCache`], then run repeatedly through that one
//! [`dol_nok::CompiledPlan`] under both security modes and against both a
//! cold and a warm buffer pool; the engine has no result cache, so every run
//! touches the matcher. The answer of **every** run in every configuration
//! is asserted equal to [`naive_eval`]'s (`--smoke` runs a small pinned
//! instance and relies on the same assertions). Time is `perf/`'s business:
//! nothing here is timed.
//!
//! A second table runs a **narrow subject** — one team member of a
//! `GroupedWorld` portal who may see about 1/64 of it — through the recursive
//! portal queries, and reports the paper's §3.3 cost in deterministic
//! counters: of the index candidates, how many were skipped from block
//! headers and how many were examined one by one. `--smoke` gates that
//! ratio, which a 1-CPU runner can.

use crate::setup::{synth_column, xmark_doc, BenchDb, Q3_SINGLE_PATH, SUBJECT, TABLE1};
use crate::table::Table;
use crate::Effort;
use dol_acl::{AccessibilityMap, BitVec, CascadeRules};
use dol_nok::reference::{naive_eval, RefSecurity};
use dol_nok::{ExecOptions, ExecStats, PlanCache, QueryEngine, Security};
use dol_workloads::{GroupedConfig, GroupedWorld};
use dol_xml::Document;
use std::io::Write;

/// Runs of each (query, security, pool) configuration, every one checked.
const RUNS: usize = 3;

/// One (query, security, cache-temperature) configuration.
struct Row {
    query_id: &'static str,
    security: &'static str,
    cache: &'static str,
    answers: usize,
}

/// A one-subject labeling of `doc` from `col`: the oracle the database is
/// built from and the map the reference evaluator reads.
fn single_subject_map(doc: &Document, col: BitVec) -> AccessibilityMap {
    let mut map = AccessibilityMap::new(1, doc.len());
    *map.column_mut(SUBJECT) = col;
    map
}

/// Runs the compiled-execution experiment. `smoke` pins a small instance;
/// the reference assertions hold in every mode.
pub fn run(effort: Effort, seed: u64, smoke: bool) {
    let scale = if smoke { 0.05 } else { effort.scale(0.2, 1.0) };
    let doc = xmark_doc(scale);
    let nodes = doc.len();
    let map = single_subject_map(&doc, synth_column(&doc, 0.6, 0.05, seed));
    let db = BenchDb::build(doc, &map, 4096);
    let engine: QueryEngine<'_> = db.engine();
    let cache = PlanCache::new(16);

    println!(
        "compiled twig execution vs the reference evaluator (XMark {nodes} nodes, seed {seed}, \
         warm plan cache, no result cache)\n"
    );

    let mut queries: Vec<(&str, &str)> = TABLE1.to_vec();
    queries.push(Q3_SINGLE_PATH);
    let mut rows: Vec<Row> = Vec::new();
    for (qid, q) in &queries {
        // Parse once, lower once: every run below reuses this lowering.
        let (plan, compiled) = cache
            .get_or_compile(q, db.doc.tags())
            .expect("Table-1 query parses");
        for (sec_name, sec, ref_sec) in [
            ("none", Security::None, RefSecurity::None),
            (
                "binding",
                Security::BindingLevel(SUBJECT),
                RefSecurity::Binding(&map, SUBJECT),
            ),
        ] {
            let expect = naive_eval(&db.doc, &plan.pattern, ref_sec);
            for (cache_name, cold) in [("warm", false), ("cold", true)] {
                for run in 0..RUNS {
                    if cold {
                        db.pool.clear_cache().expect("clear");
                    }
                    let got = engine
                        .execute_compiled_opts(&plan, &compiled, sec, ExecOptions::default())
                        .expect("compiled run")
                        .matches;
                    assert_eq!(
                        got, expect,
                        "{qid} ({sec_name}, {cache_name} pool) run {run}: answer differs from \
                         the reference"
                    );
                }
                rows.push(Row {
                    query_id: qid,
                    security: sec_name,
                    cache: cache_name,
                    answers: expect.len(),
                });
            }
        }
    }

    let mut t = Table::new(
        "query -> automaton compilation",
        &["query", "security", "pool", "runs", "answers"],
    );
    for r in &rows {
        t.row(&[
            r.query_id.to_string(),
            r.security.to_string(),
            r.cache.to_string(),
            RUNS.to_string(),
            r.answers.to_string(),
        ]);
    }
    t.print();
    println!(
        "({} lowerings for {} (query, mode, pool) configurations; every run's answer equalled \
         the reference evaluator's.)\n",
        cache.compiles(),
        rows.len(),
    );

    let narrow_rows = narrow(effort, seed, smoke);
    write_json(seed, scale, nodes, &rows, &narrow_rows);

    if smoke {
        // The reference assertions already ran on every run; the smoke gate
        // just confirms the experiment exercised both modes and the lowering
        // was reused across every run of a query.
        assert_eq!(
            cache.compiles() as usize,
            queries.len(),
            "one lowering per query, reused across all runs"
        );
        assert!(
            rows.iter().any(|r| r.answers > 0),
            "the mix answered nothing; the comparison is vacuous"
        );
        println!("compile --smoke: all assertions passed\n");
    }
}

/// The portal queries of the narrow-subject table; the first is the gated one.
const NARROW_QUERIES: [&str; 4] = [
    "//folder//doc",
    "//team//folder/folder/doc",
    "/workspace/department/team/folder/doc",
    "/workspace/shared/area/folder/doc",
];

/// The most of its candidates `//folder//doc` may examine one by one for a
/// subject who sees 1/64 of the portal.
const NARROW_EXAMINED_BOUND: f64 = 0.10;

/// One narrow-subject measurement: the run's counters.
struct NarrowRow {
    query: &'static str,
    security: &'static str,
    stats: ExecStats,
    answers: usize,
}

impl NarrowRow {
    fn examined_ratio(&self) -> f64 {
        self.stats.candidates_examined as f64 / self.stats.candidates.max(1) as f64
    }
}

/// A `GroupedWorld` portal labeled for one member of its middle team under
/// a narrow policy: the company sees the root node and `shared`, a
/// department its own node and non-team children, a team its own subtree.
/// (The stock rules grant the company the root, so everyone sees everything
/// and §3.3 has nothing to skip.)
fn narrow_portal(team_size: usize, seed: u64) -> (BenchDb, AccessibilityMap) {
    let world = GroupedWorld::generate(&GroupedConfig {
        team_size,
        initial_users: 0,
        seed,
        ..GroupedConfig::default()
    });
    let (company, depts, teams) = (world.company(), world.depts(), world.teams());
    let doc = &world.doc;
    let mut rules = CascadeRules::new(world.physical_subjects());
    rules.add(company, doc.root(), true);
    let mut team_roots = Vec::with_capacity(teams.len());
    for (d, dept) in doc
        .children(doc.root())
        .filter(|&c| doc.name_of(c) == "department")
        .enumerate()
    {
        rules.add(company, dept, false);
        rules.add(depts[d], dept, true);
        for team in doc.children(dept).filter(|&c| doc.name_of(c) == "team") {
            rules.add(depts[d], team, false);
            rules.add(teams[team_roots.len()], team, true);
            team_roots.push(team);
        }
    }
    assert_eq!(team_roots.len(), teams.len(), "portal shape changed");
    let t = teams.len() / 2;
    let mut col = rules.column(doc, company);
    col.or_assign(&rules.column(doc, depts[t / (teams.len() / depts.len())]));
    col.or_assign(&rules.column(doc, teams[t]));
    let map = single_subject_map(doc, col);
    (BenchDb::build(world.doc, &map, 4096), map)
}

/// Runs the narrow-subject table; with `smoke`, gates the examined ratio.
fn narrow(effort: Effort, seed: u64, smoke: bool) -> Vec<NarrowRow> {
    let (db, map) = narrow_portal(if smoke { 1500 } else { effort.pick(4000, 9000) }, seed);
    let engine = db.engine();
    let mut rows = Vec::new();
    for query in NARROW_QUERIES {
        let plan = dol_nok::QueryPlan::new(dol_nok::parse_query(query).expect("portal query"));
        for (security, sec, ref_sec) in [
            (
                "binding",
                Security::BindingLevel(SUBJECT),
                RefSecurity::Binding(&map, SUBJECT),
            ),
            (
                "subtree",
                Security::SubtreeVisibility(SUBJECT),
                RefSecurity::Subtree(&map, SUBJECT),
            ),
        ] {
            let got = engine
                .execute_plan_opts(&plan, sec, ExecOptions::default())
                .expect("compiled run");
            assert_eq!(
                got.matches,
                naive_eval(&db.doc, &plan.pattern, ref_sec),
                "{query} ({security}): answer differs from the reference"
            );
            let st = &got.stats;
            assert_eq!(
                st.candidates_examined + st.blocks_skipped,
                st.candidates,
                "{query} ({security}): every candidate is skipped or examined"
            );
            assert_eq!(st.blocks_skipped, st.io.pages_skipped);
            rows.push(NarrowRow {
                query,
                security,
                stats: got.stats,
                answers: got.matches.len(),
            });
        }
    }
    let mut t = Table::new(
        &format!(
            "narrow subject (1 team of 64, portal of {} nodes): section 3.3 cost in counters",
            db.doc.len()
        ),
        &[
            "query",
            "security",
            "candidates",
            "skipped",
            "examined",
            "examined/cand",
            "join tuples",
            "logical reads",
            "answers",
        ],
    );
    for r in &rows {
        t.row(&[
            r.query.to_string(),
            r.security.to_string(),
            r.stats.candidates.to_string(),
            r.stats.blocks_skipped.to_string(),
            r.stats.candidates_examined.to_string(),
            format!("{:.4}", r.examined_ratio()),
            r.stats.join_pairs.to_string(),
            r.stats.io.logical_reads.to_string(),
            r.answers.to_string(),
        ]);
    }
    t.print();
    if smoke {
        for r in rows.iter().filter(|r| r.query == NARROW_QUERIES[0]) {
            assert!(
                r.answers > 0,
                "the narrow subject sees nothing; the gate is vacuous"
            );
            assert!(
                r.examined_ratio() <= NARROW_EXAMINED_BOUND,
                "{} ({}): examined {} of {} candidates ({:.3} > {NARROW_EXAMINED_BOUND}): \
                 header skipping no longer follows what the subject can see",
                r.query,
                r.security,
                r.stats.candidates_examined,
                r.stats.candidates,
                r.examined_ratio(),
            );
        }
    }
    rows
}

fn write_json(seed: u64, scale: f64, nodes: usize, rows: &[Row], narrow: &[NarrowRow]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"compile\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"xmark_scale\": {scale},\n"));
    out.push_str(&format!("  \"nodes\": {nodes},\n"));
    out.push_str(&format!("  \"runs_per_configuration\": {RUNS},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"query\": \"{}\", \"security\": \"{}\", \"pool\": \"{}\", \
             \"answers\": {}}}{}",
            r.query_id,
            r.security,
            r.cache,
            r.answers,
            if i + 1 < rows.len() { ",\n" } else { "\n" },
        ));
    }
    out.push_str("  ],\n  \"narrow\": [\n");
    for (i, r) in narrow.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"query\": \"{}\", \"security\": \"{}\", \"candidates\": {}, \
             \"blocks_skipped\": {}, \"candidates_examined\": {}, \"join_pairs\": {}, \
             \"logical_reads\": {}, \"answers\": {}}}{}",
            r.query,
            r.security,
            r.stats.candidates,
            r.stats.blocks_skipped,
            r.stats.candidates_examined,
            r.stats.join_pairs,
            r.stats.io.logical_reads,
            r.answers,
            if i + 1 < narrow.len() { ",\n" } else { "\n" },
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::File::create("BENCH_compile.json").and_then(|mut f| f.write_all(out.as_bytes()))
    {
        Ok(()) => println!("(wrote BENCH_compile.json)\n"),
        Err(e) => eprintln!("could not write BENCH_compile.json: {e}"),
    }
}
