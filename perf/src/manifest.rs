//! `BENCHMARK.json`, rendered from the tables in [`crate::spec`], and the
//! `results.json` a full run leaves behind.

use crate::report::{fmt_value, RunReport};
use crate::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// The command `BENCHMARK.json` declares; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
    "bench",
];

fn quoted(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    q.join(", ")
}

/// The contents of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// Every metric of every run of `dol-perf run`, as one JSON document.
/// `quick` marks a smoke run, whose numbers are not for reporting.
pub fn results_json(seed: u64, quick: bool, reports: &[RunReport]) -> String {
    let runs: Vec<String> = reports
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                        m.name,
                        fmt_value(m.value),
                        m.unit,
                        m.n
                    )
                })
                .collect();
            format!(
                "    {{\"workload\": \"{}\", \"traced\": {}, \"correct\": {}, \"attempted\": {}, \
                 \"failed\": {}, \"metrics\": {{\n{}\n    }}}}",
                r.workload,
                r.traced,
                r.correct(),
                r.attempted,
                r.failed,
                metrics.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \"runs\": [\n{}\n  ]\n}}\n",
        runs.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the benchmark driver enforces before it runs anything.
    #[test]
    fn tables_fit_the_driver_contract() {
        let mut names = HashSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(is_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in &END_TO_END {
            assert!(is_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &PER_LAYER {
            assert!(is_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}", m.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
