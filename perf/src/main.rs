//! `dol-perf` — the repository's wire-level benchmark.
//!
//! ```text
//! dol-perf bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dol-perf run [--seed=<n>] [--quick]
//! dol-perf selfcheck [--seed=<n>]
//! dol-perf trace-summary perf/out/trace-<workload>.jsonl
//! dol-perf manifest | pins
//! ```
//!
//! `bench` is what `BENCHMARK.json` declares: one workload, timed or traced,
//! ending in one JSON line; it exits non-zero when the run was not correct. `run` does every workload both ways and writes
//! `perf/out/results.json`. See `perf/README.md`.

mod affinity;
mod check;
mod dataset;
mod manifest;
mod ops;
mod pins;
mod proc;
mod report;
mod selfcheck;
mod spec;
mod summary;
mod timed;
mod traced;

use report::RunReport;
use spec::{Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// Where `run` and the traced runs leave their files.
pub const OUT_DIR: &str = "perf/out";

/// `--key value`, `--key=value` and bare `--flag` arguments, plus
/// positionals.
struct Args {
    named: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut named = HashMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            if let Some((k, v)) = key.split_once('=') {
                named.insert(k.to_string(), v.to_string());
            } else if flags.contains(&key) {
                named.insert(key.to_string(), "1".to_string());
            } else {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                named.insert(key.to_string(), v.clone());
            }
        }
        Ok(Args { named, positional })
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.named.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: `{v}` is not a whole number")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.named.contains_key(key)
    }
}

fn run_one(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunReport, String> {
    if traced {
        traced::run(w, seed, seconds)
    } else {
        timed::run(w, seed, seconds)
    }
}

/// The declared benchmark command: one workload, one mode, one JSON line.
fn bench(args: &Args) -> Result<ExitCode, String> {
    let name = args
        .named
        .get("workload")
        .ok_or("bench needs --workload <name>")?;
    let w = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", RUN_SECONDS)?.max(1);
    let traced = args.number("trace", 0)? != 0;
    let report = run_one(w, seed, seconds, traced)?;
    report.print_table();
    println!("{}", report.driver_json());
    Ok(verdict(report.correct()))
}

fn verdict(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload timed, then every workload traced; the full table and
/// `perf/out/results.json`. Fails when any run is not correct.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let quick = args.flag("quick");
    let (timed_s, traced_s) = if quick { (3, 3) } else { (30, 15) };
    let mut reports = Vec::new();
    for traced in [false, true] {
        for w in &WORKLOADS {
            let seconds = if traced { traced_s } else { timed_s };
            eprintln!(
                "== {} {} ({seconds} s)",
                w.name,
                if traced { "traced" } else { "timed" }
            );
            let r = run_one(w, seed, seconds, traced)?;
            r.print_table();
            reports.push(r);
        }
    }
    // `core.blocks_skipped_per_query` across workloads: the skip mechanism
    // must be idle where the data is visible and busy where it is not.
    let skipped = |name: &str| {
        reports
            .iter()
            .find(|r| r.traced && r.workload == name)
            .and_then(|r| r.value("core.blocks_skipped_per_query"))
            .unwrap_or(0.0)
    };
    let mut ok = reports.iter().all(RunReport::correct);
    if skipped("scan_cold") >= 0.01 * skipped("portal_skip") {
        println!(
            "PROBLEM scan_cold skips {} blocks per query, portal_skip {}",
            skipped("scan_cold"),
            skipped("portal_skip")
        );
        ok = false;
    }
    let out = Path::new(OUT_DIR).join("results.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&out, manifest::results_json(seed, quick, &reports)))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("(wrote {})", out.display());
    if quick {
        println!("quick run: not for reporting");
    }
    Ok(verdict(ok))
}

fn pins(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    println!("# workload nodes doc_fnv acl_fnv ops_fnv answers_fnv (seed {seed})");
    for w in &WORKLOADS {
        println!(
            "{}",
            pins::line(w.name, &timed::warm_fingerprints(w, seed)?)
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = raw
        .split_first()
        .ok_or("usage: dol-perf <bench|run|selfcheck|trace-summary|manifest|pins> ...")?;
    let args = Args::parse(rest, &["quick"])?;
    if cmd != "__server" {
        affinity::pin_to_one_cpu();
    }
    match cmd.as_str() {
        "bench" => bench(&args),
        "run" => run_all(&args),
        "selfcheck" => selfcheck::run(args.number("seed", DEFAULT_SEED)?),
        "trace-summary" => {
            let file = args
                .positional
                .first()
                .ok_or("trace-summary needs a trace file")?;
            summary::run(Path::new(file))
        }
        "manifest" => {
            print!("{}", manifest::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        "pins" => pins(&args),
        "__server" => proc::server_main(rest).map(|()| ExitCode::SUCCESS),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dol-perf: {e}");
            ExitCode::from(2)
        }
    }
}
