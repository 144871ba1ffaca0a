//! `experiments` — regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--quick|--full] [--seed=N] [--clients=N] [--subjects=N] [--smoke]
//!             [fig4a fig4b fig5 fig6 storage queries fig7 fig8 updates ablation compile faults crash mvcc serve soak subjects net | all]
//! ```
//!
//! `--seed=N` re-seeds the `faults`, `crash`, `mvcc`, `serve`, `soak`,
//! `subjects`, `net` and `compile` experiments' deterministic schedules.
//! `--clients=N` caps the `serve` experiment's client sweep, and `--smoke` makes `serve` run a small pinned
//! configuration that asserts determinism, zero oracle divergences, zero
//! stale-read errors, and a >90% shared-latch ratio, shrinks the `soak`
//! chaos schedule to CI size (its gates — zero wrong answers, zero
//! unrecovered poison windows, breaker trip/probe and deadline-abort
//! coverage — are asserted in every mode), and pins the `compile`
//! experiment to a small instance whose assertions (every run's answer ≡
//! the reference evaluator's, one lowering per query, the narrow-subject
//! examined ratio) gate CI.
//!
//! The `net` experiment re-execs this binary into server and client
//! processes via the hidden `__net-server` / `__net-client` argv modes,
//! handled before normal argument parsing.

use dol_bench::{
    ablation, compile, crash, faults, fig4, fig56, fig7, fig8, mvcc, net, queries, serve, soak,
    storage, subjects, updates, Effort,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden re-exec modes of the `net` loopback harness: this process IS
    // the server (or a wire client), not the experiment driver.
    match args.first().map(String::as_str) {
        Some("__net-server") => return net::server_child(&args[1..]),
        Some("__net-client") => return net::client_child(&args[1..]),
        _ => {}
    }
    let mut effort = Effort::Quick;
    let mut seed = faults::DEFAULT_SEED;
    let mut clients = 0usize;
    let mut subjects = 0usize;
    let mut smoke = false;
    let mut selected: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--quick" => effort = Effort::Quick,
            "--full" => effort = Effort::Full,
            "--smoke" => smoke = true,
            other => match (
                other.strip_prefix("--seed="),
                other.strip_prefix("--clients="),
                other.strip_prefix("--subjects="),
            ) {
                (Some(n), _, _) => match n.parse() {
                    Ok(n) => seed = n,
                    Err(_) => eprintln!("bad --seed value `{n}` (ignored)"),
                },
                (None, Some(n), _) => match n.parse() {
                    Ok(n) => clients = n,
                    Err(_) => eprintln!("bad --clients value `{n}` (ignored)"),
                },
                (None, None, Some(n)) => match n.parse() {
                    Ok(n) => subjects = n,
                    Err(_) => eprintln!("bad --subjects value `{n}` (ignored)"),
                },
                (None, None, None) => selected.push(other.to_string()),
            },
        }
    }
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = vec![
            "queries".into(),
            "fig4a".into(),
            "fig4b".into(),
            "fig5".into(),
            "storage".into(),
            "fig7".into(),
            "fig8".into(),
            "updates".into(),
            "ablation".into(),
            "compile".into(),
            "faults".into(),
            "crash".into(),
            "mvcc".into(),
            "serve".into(),
            "soak".into(),
            "subjects".into(),
            "net".into(),
        ];
    }
    println!(
        "DOL experiment harness ({} mode)\n{}\n",
        match effort {
            Effort::Quick => "quick",
            Effort::Full => "full",
        },
        "=".repeat(72)
    );
    for s in selected {
        match s.as_str() {
            "fig4a" => fig4::fig4a(effort),
            "fig4b" => fig4::fig4b(effort),
            // Figures 5 and 6 come from the same subject-scaling runs.
            "fig5" | "fig6" => {
                fig56::livelink(effort);
                fig56::unixfs(effort);
            }
            "storage" => storage::run(effort),
            "queries" => queries::run(effort),
            "fig7" => fig7::run(effort),
            "fig8" => fig8::run(effort),
            "updates" => updates::run(effort),
            "ablation" => ablation::run(effort),
            "compile" => compile::run(effort, seed, smoke),
            "faults" => faults::run(effort, seed),
            "crash" => crash::run(effort, seed),
            "mvcc" => mvcc::run(effort, seed, smoke),
            "serve" => serve::run(effort, seed, clients, smoke, subjects),
            "soak" => soak::run(effort, seed, smoke),
            "subjects" => subjects::run(effort, seed, smoke),
            "net" => net::run(effort, seed, smoke),
            other => eprintln!("unknown experiment `{other}` (skipped)"),
        }
    }
}
