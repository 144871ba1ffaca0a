//! Interpreted vs compiled twig execution on the Table-1 mix.
//!
//! Both sides run with a **warm plan cache** (the query is parsed once, so
//! the comparison isolates execution, not lexing) and **no result cache**
//! (the engine has none — every run touches the matcher). The compiled side
//! reuses one [`dol_nok::CompiledPlan`] lowering from the
//! [`dol_nok::PlanCache`]; the interpreted side re-derives its matcher
//! tables per execution, which is exactly what the lowering amortizes. Each
//! query runs under both security modes and against both a cold and a warm
//! buffer pool, reporting p50/p99 latencies, per-query speedups, and the
//! mix-level p50 speedup the acceptance gate reads.
//!
//! Answers are asserted byte-identical between the two paths on **every**
//! run in every configuration (`--smoke` runs a small pinned instance and
//! relies on the same assertions); the speedup ratio is recorded, never
//! gated, so CI stays robust to noisy neighbors.
//!
//! A second table runs a **narrow subject** — one team member of a
//! `GroupedWorld` portal who may see about 1/64 of it — through the recursive
//! portal queries, and reports the paper's §3.3 cost in deterministic
//! counters: of the index candidates, how many were skipped from block
//! headers and how many were examined one by one. `--smoke` gates that
//! ratio, which a 1-CPU runner can.

use crate::setup::{
    synth_column, xmark_doc, BenchDb, ColumnOracle, Q3_SINGLE_PATH, SUBJECT, TABLE1,
};
use crate::table::Table;
use crate::Effort;
use dol_acl::CascadeRules;
use dol_nok::{ExecOptions, ExecStats, PlanCache, QueryEngine, Security};
use dol_workloads::{GroupedConfig, GroupedWorld};
use std::io::Write;
use std::time::Instant;

/// One (query, security, cache-temperature) measurement pair.
struct Row {
    query_id: &'static str,
    security: &'static str,
    cache: &'static str,
    interpreted_p50_us: f64,
    interpreted_p99_us: f64,
    compiled_p50_us: f64,
    compiled_p99_us: f64,
    answers: usize,
}

impl Row {
    fn speedup_p50(&self) -> f64 {
        if self.compiled_p50_us == 0.0 {
            return 1.0;
        }
        self.interpreted_p50_us / self.compiled_p50_us
    }
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Times `iters` runs of `run`, returning sorted latencies in nanoseconds.
/// `prepare` runs before each iteration outside the timed window (the cold
/// configurations clear the buffer pool there).
fn time_runs(
    iters: usize,
    mut prepare: impl FnMut(),
    mut run: impl FnMut() -> Vec<u64>,
    expect: &[u64],
) -> Vec<u64> {
    let mut ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        prepare();
        let t = Instant::now();
        let matches = run();
        ns.push(t.elapsed().as_nanos() as u64);
        assert_eq!(matches, expect, "answers must be byte-identical every run");
    }
    ns.sort_unstable();
    ns
}

/// Runs the compiled-execution experiment. `smoke` pins a small instance;
/// the byte-identity assertions hold in every mode.
pub fn run(effort: Effort, seed: u64, smoke: bool) {
    let scale = if smoke { 0.05 } else { effort.scale(0.2, 1.0) };
    let warm_iters = if smoke { 9 } else { effort.pick(31, 101) };
    let cold_iters = if smoke { 5 } else { effort.pick(9, 21) };
    let doc = xmark_doc(scale);
    let nodes = doc.len();
    let col = synth_column(&doc, 0.6, 0.05, seed);
    let db = BenchDb::build(doc, &ColumnOracle(col), 4096);
    let engine: QueryEngine<'_> = db.engine();
    let cache = PlanCache::new(16);

    println!(
        "compiled vs interpreted twig execution (XMark {nodes} nodes, seed {seed}, \
         warm plan cache, no result cache)\n"
    );

    let mut queries: Vec<(&str, &str)> = TABLE1.to_vec();
    queries.push(Q3_SINGLE_PATH);
    let mut rows: Vec<Row> = Vec::new();
    for (qid, q) in &queries {
        // Parse once, lower once: the warm plan cache both sides share.
        let (plan, compiled) = cache
            .get_or_compile(q, db.doc.tags())
            .expect("Table-1 query parses");
        for (sec_name, sec) in [
            ("none", Security::None),
            ("binding", Security::BindingLevel(SUBJECT)),
        ] {
            let interp_opts = ExecOptions {
                compiled: false,
                ..ExecOptions::default()
            };
            // The interpreted answer is the reference for both paths.
            let expect = engine
                .execute_plan_opts(&plan, sec, interp_opts.clone())
                .expect("interpreted run")
                .matches;
            for (cache_name, cold) in [("warm", false), ("cold", true)] {
                let iters = if cold { cold_iters } else { warm_iters };
                let prepare = || {
                    if cold {
                        db.pool.clear_cache().expect("clear");
                    }
                };
                let interp = time_runs(
                    iters,
                    prepare,
                    || {
                        engine
                            .execute_plan_opts(&plan, sec, interp_opts.clone())
                            .expect("interpreted run")
                            .matches
                    },
                    &expect,
                );
                let prepare = || {
                    if cold {
                        db.pool.clear_cache().expect("clear");
                    }
                };
                let comp = time_runs(
                    iters,
                    prepare,
                    || {
                        engine
                            .execute_compiled_opts(&plan, &compiled, sec, ExecOptions::default())
                            .expect("compiled run")
                            .matches
                    },
                    &expect,
                );
                rows.push(Row {
                    query_id: qid,
                    security: sec_name,
                    cache: cache_name,
                    interpreted_p50_us: percentile_us(&interp, 0.50),
                    interpreted_p99_us: percentile_us(&interp, 0.99),
                    compiled_p50_us: percentile_us(&comp, 0.50),
                    compiled_p99_us: percentile_us(&comp, 0.99),
                    answers: expect.len(),
                });
            }
        }
    }

    let mut t = Table::new(
        "query -> automaton compilation",
        &[
            "query",
            "security",
            "pool",
            "interp p50",
            "interp p99",
            "compiled p50",
            "compiled p99",
            "speedup",
            "answers",
        ],
    );
    for r in &rows {
        t.row(&[
            r.query_id.to_string(),
            r.security.to_string(),
            r.cache.to_string(),
            format!("{:.1} us", r.interpreted_p50_us),
            format!("{:.1} us", r.interpreted_p99_us),
            format!("{:.1} us", r.compiled_p50_us),
            format!("{:.1} us", r.compiled_p99_us),
            format!("{:.2}x", r.speedup_p50()),
            r.answers.to_string(),
        ]);
    }
    t.print();

    // Mix-level p50 speedup (warm pool): the acceptance-gate number. The
    // Table-1 mix time is the sum of per-query p50s, per security mode.
    let mix = |sec: &str, cache: &str| -> (f64, f64) {
        rows.iter()
            .filter(|r| r.security == sec && r.cache == cache)
            .fold((0.0, 0.0), |(i, c), r| {
                (i + r.interpreted_p50_us, c + r.compiled_p50_us)
            })
    };
    let mut mix_speedups: Vec<(String, f64)> = Vec::new();
    for sec in ["none", "binding"] {
        for cache in ["warm", "cold"] {
            let (i, c) = mix(sec, cache);
            let s = if c == 0.0 { 1.0 } else { i / c };
            println!(
                "Table-1 mix ({sec}, {cache} pool): interpreted {i:.1} us vs compiled {c:.1} us \
                 -> {s:.2}x p50 speedup"
            );
            mix_speedups.push((format!("{sec}_{cache}"), s));
        }
    }
    println!(
        "({} lowerings for {} (query, mode, pool) configurations; every run's answer was \
         byte-identical to the interpreted reference.)\n",
        cache.compiles(),
        rows.len(),
    );

    let narrow_rows = narrow(effort, seed, smoke);
    write_json(seed, scale, nodes, &rows, &mix_speedups, &narrow_rows);

    if smoke {
        // The identity assertions already ran on every iteration; the smoke
        // gate just confirms the experiment exercised both modes and the
        // lowering was reused across every run of a query.
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

/// One narrow-subject measurement: the compiled run's counters.
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
fn narrow_portal(team_size: usize, seed: u64) -> BenchDb {
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
    BenchDb::build(world.doc, &ColumnOracle(col), 4096)
}

/// Runs the narrow-subject table; with `smoke`, gates the examined ratio.
fn narrow(effort: Effort, seed: u64, smoke: bool) -> Vec<NarrowRow> {
    let db = narrow_portal(if smoke { 1500 } else { effort.pick(4000, 9000) }, seed);
    let engine = db.engine();
    let mut rows = Vec::new();
    for query in NARROW_QUERIES {
        let plan = dol_nok::QueryPlan::new(dol_nok::parse_query(query).expect("portal query"));
        for (security, sec) in [
            ("binding", Security::BindingLevel(SUBJECT)),
            ("subtree", Security::SubtreeVisibility(SUBJECT)),
        ] {
            let interpreted = engine
                .execute_plan_opts(
                    &plan,
                    sec,
                    ExecOptions {
                        compiled: false,
                        ..ExecOptions::default()
                    },
                )
                .expect("interpreted run");
            let compiled = engine
                .execute_plan_opts(&plan, sec, ExecOptions::default())
                .expect("compiled run");
            assert_eq!(
                compiled.matches, interpreted.matches,
                "{query} ({security}): answers must be byte-identical"
            );
            let st = &compiled.stats;
            assert_eq!(
                st.candidates_examined + st.blocks_skipped,
                st.candidates,
                "{query} ({security}): every candidate is skipped or examined"
            );
            assert_eq!(st.blocks_skipped, interpreted.stats.blocks_skipped);
            rows.push(NarrowRow {
                query,
                security,
                stats: compiled.stats,
                answers: compiled.matches.len(),
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
            "time",
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
            format!("{:.1} us", r.stats.elapsed.as_secs_f64() * 1e6),
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

fn write_json(
    seed: u64,
    scale: f64,
    nodes: usize,
    rows: &[Row],
    mix: &[(String, f64)],
    narrow: &[NarrowRow],
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"compile\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"xmark_scale\": {scale},\n"));
    out.push_str(&format!("  \"nodes\": {nodes},\n"));
    for (name, s) in mix {
        out.push_str(&format!("  \"mix_speedup_p50_{name}\": {s:.3},\n"));
    }
    out.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"query\": \"{}\", \"security\": \"{}\", \"pool\": \"{}\", \
             \"interpreted_p50_us\": {:.2}, \"interpreted_p99_us\": {:.2}, \
             \"compiled_p50_us\": {:.2}, \"compiled_p99_us\": {:.2}, \
             \"speedup_p50\": {:.3}, \"answers\": {}}}{}",
            r.query_id,
            r.security,
            r.cache,
            r.interpreted_p50_us,
            r.interpreted_p99_us,
            r.compiled_p50_us,
            r.compiled_p99_us,
            r.speedup_p50(),
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
