//! `selfcheck`: is the instrument steady enough to carry its own bounds?
//!
//! Two sets of three timed runs of this one build, per workload; the sets'
//! medians of every end-to-end metric must agree within the metric's bound.
//! Two traced runs, per workload; every count the traced run makes must be
//! identical in both. Anything else exits non-zero.

use crate::manifest::benchmark_json;
use crate::report::{median, RunReport};
use crate::spec::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::{timed, traced};
use std::process::ExitCode;

fn set_median(reports: &[RunReport], name: &str) -> f64 {
    let mut v: Vec<f64> = reports.iter().filter_map(|r| r.value(name)).collect();
    median(&mut v)
}

pub fn run(seed: u64) -> Result<ExitCode, String> {
    if let Ok(on_disk) = std::fs::read_to_string("BENCHMARK.json") {
        if on_disk != benchmark_json() {
            return Err(
                "BENCHMARK.json differs from the tables in perf/src/spec.rs; \
                 regenerate it with `dol-perf manifest`"
                    .into(),
            );
        }
    }
    let mut ok = true;
    println!("workload metric median_a median_b worse_by bound verdict");
    for w in &WORKLOADS {
        let mut sets: [Vec<RunReport>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for _ in 0..3 {
                let r = timed::run(w, seed, RUN_SECONDS)?;
                if !r.correct() {
                    r.print_table();
                    ok = false;
                }
                set.push(r);
            }
        }
        for m in &END_TO_END {
            let (a, b) = (set_median(&sets[0], m.name), set_median(&sets[1], m.name));
            // How much worse the worse set is, as a share of the better one.
            let (better, worse) = match m.better {
                Better::Lower => (a.min(b), a.max(b)),
                Better::Higher => (a.max(b), a.min(b)),
            };
            let worse_by = if better == 0.0 {
                0.0
            } else {
                (worse - better).abs() / better
            };
            let pass = worse_by <= m.bound;
            ok &= pass;
            println!(
                "{} {} {a:.4} {b:.4} {worse_by:.4} {} {}",
                w.name,
                m.name,
                m.bound,
                if pass { "ok" } else { "OUTSIDE" }
            );
        }

        let t1 = traced::run(w, seed, RUN_SECONDS)?;
        let t2 = traced::run(w, seed, RUN_SECONDS)?;
        for t in [&t1, &t2] {
            if !t.correct() {
                t.print_table();
                ok = false;
            }
        }
        let mut differing = 0;
        for m in PER_LAYER.iter().filter(|m| matches!(m.unit, "count" | "B")) {
            let (a, b) = (t1.value(m.name), t2.value(m.name));
            if a != b {
                differing += 1;
                println!("{} {} {a:?} {b:?} - - NOT REPEATING", w.name, m.name);
            }
        }
        ok &= differing == 0;
        println!(
            "{} traced counts: {}",
            w.name,
            if differing == 0 {
                "identical in two runs".to_string()
            } else {
                format!("{differing} differ")
            }
        );
    }
    println!("selfcheck: {}", if ok { "ok" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
