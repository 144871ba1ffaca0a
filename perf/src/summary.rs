//! `trace-summary`: reads a `trace-<workload>.jsonl` and says where the
//! time went.
//!
//! Per span name: how often it was recorded, its total time, and its self
//! time — its duration minus that of the spans filed under it. For the
//! outermost (`wire.*`) spans the self time is the residual: what the wire
//! call took beyond every replayed inner layer. Then the ten slowest ops
//! with their spans and counters, so a later change can show where its
//! saving sits.

use dol_server::json::{self, Json};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;

struct Span {
    op: u64,
    id: u64,
    /// `None`: outermost. Off-path spans carry parent -1 and are reported
    /// on their own, never subtracted from anything.
    parent: Option<u64>,
    off_path: bool,
    name: String,
    ns: u64,
}

#[derive(Default)]
struct Layer {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    off_path: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn run(file: &Path) -> Result<ExitCode, String> {
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
    let mut spans = Vec::new();
    let mut counts: HashMap<u64, String> = HashMap::new();
    for (n, line) in text.lines().enumerate() {
        let v = json::parse(line.as_bytes())
            .map_err(|e| format!("{}:{}: {e}", file.display(), n + 1))?;
        let int = |k: &str| v.get(k).and_then(Json::as_int);
        let op = int("op").ok_or_else(|| format!("line {}: no op", n + 1))? as u64;
        match v.get("span").and_then(Json::as_str) {
            Some(name) => {
                let parent = int("parent").unwrap_or(0);
                let (start, end) = (int("start_ns").unwrap_or(0), int("end_ns").unwrap_or(0));
                spans.push(Span {
                    op,
                    id: int("id").unwrap_or(0) as u64,
                    parent: (parent > 0).then_some(parent as u64),
                    off_path: parent < 0,
                    name: name.to_string(),
                    ns: (end - start).max(0) as u64,
                });
            }
            None => {
                if let Json::Obj(fields) = &v {
                    let c: Vec<String> = fields
                        .iter()
                        .filter(|(k, _)| k.as_str() != "op")
                        .map(|(k, v)| format!("{k}={}", v.as_int().unwrap_or(0)))
                        .collect();
                    counts.insert(op, c.join(" "));
                }
            }
        }
    }
    if spans.is_empty() {
        return Err(format!("{} holds no spans", file.display()));
    }

    let mut children_ns: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            *children_ns.entry(p).or_default() += s.ns;
        }
    }
    let mut layers: BTreeMap<&str, Layer> = BTreeMap::new();
    let (mut wire_ns, mut wire_self_ns) = (0u64, 0u64);
    let mut roots: Vec<&Span> = Vec::new();
    for s in &spans {
        let self_ns =
            s.ns.saturating_sub(children_ns.get(&s.id).copied().unwrap_or(0));
        let l = layers.entry(&s.name).or_default();
        l.count += 1;
        l.total_ns += s.ns;
        l.self_ns += self_ns;
        l.off_path += u64::from(s.off_path);
        if s.parent.is_none() && !s.off_path {
            wire_ns += s.ns;
            wire_self_ns += self_ns;
            roots.push(s);
        }
    }

    println!("{}", file.display());
    println!("span count total_us mean_us self_us self_mean_us off_path");
    for (name, l) in &layers {
        println!(
            "{name} {} {:.1} {:.2} {:.1} {:.2} {}",
            l.count,
            us(l.total_ns),
            us(l.total_ns) / l.count as f64,
            us(l.self_ns),
            us(l.self_ns) / l.count as f64,
            l.off_path
        );
    }
    println!(
        "wire spans {:.1} us in total; replayed inner layers account for {:.1} us; \
         residual {:.1} us ({:.1} %)",
        us(wire_ns),
        us(wire_ns - wire_self_ns),
        us(wire_self_ns),
        100.0 * wire_self_ns as f64 / wire_ns.max(1) as f64
    );

    roots.sort_by_key(|s| std::cmp::Reverse(s.ns));
    println!("ten slowest ops:");
    for root in roots.iter().take(10) {
        let parts: Vec<String> = spans
            .iter()
            .filter(|s| s.op == root.op && s.id != root.id)
            .map(|s| format!("{}={:.1}", s.name, us(s.ns)))
            .collect();
        println!(
            "  op {} {} {:.1} us [{}] {}",
            root.op,
            root.name,
            us(root.ns),
            parts.join(" "),
            counts.get(&root.op).map_or("", String::as_str)
        );
    }
    Ok(ExitCode::SUCCESS)
}
