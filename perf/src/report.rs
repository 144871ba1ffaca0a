//! Metric values, quantiles, and the two output formats: the table a
//! person reads and the JSON line the driver reads.

use crate::ops::Fingerprints;

/// One reported number with its sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a ratio of totals).
    pub n: usize,
}

/// Pairs measured `(name, value, samples)` triples with the declared
/// `(name, unit)` list of `spec.rs`, in its order. Panics when the two lists
/// name different metrics: what a run prints and what `BENCHMARK.json`
/// declares cannot drift apart.
pub fn declared(
    spec: impl ExactSizeIterator<Item = (&'static str, &'static str)>,
    values: &[(&'static str, f64, usize)],
) -> Vec<Metric> {
    assert_eq!(spec.len(), values.len(), "a measured metric is undeclared");
    spec.map(|(name, unit)| {
        let &(_, value, n) = values
            .iter()
            .find(|(measured, ..)| *measured == name)
            .unwrap_or_else(|| panic!("declared metric {name} is not measured"));
        Metric {
            name,
            value,
            unit,
            n,
        }
    })
    .collect()
}

/// Nearest-rank quantile of an ascending slice; 0 when it is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
}

pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or `when_zero` for an empty denominator.
pub fn ratio(num: f64, den: f64, when_zero: f64) -> f64 {
    if den == 0.0 {
        when_zero
    } else {
        num / den
    }
}

/// The outcome of one run of one workload, timed or traced.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// Operations sent over the wire, warm-up included.
    pub attempted: u64,
    /// Errors, typed refusals, wrong answers and durability violations.
    pub failed: u64,
    /// Why the run is not correct, one line each; empty when it is.
    pub problems: Vec<String>,
    pub fingerprints: Fingerprints,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `workload metric value unit n`, one line per metric.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!(
                "{} {} {} {} {}",
                self.workload,
                m.name,
                fmt_value(m.value),
                m.unit,
                m.n
            );
        }
        let f = &self.fingerprints;
        println!(
            "{} fingerprints seed={} nodes={} doc={:016x} acl={:016x} ops={:016x} answers={:016x}",
            self.workload, self.seed, f.nodes, f.doc_fnv, f.acl_fnv, f.ops_fnv, f.answers_fnv
        );
        for p in &self.problems {
            println!("{} PROBLEM {p}", self.workload);
        }
    }

    /// The driver's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn driver_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_value(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A number as measured, with all its digits, in a form JSON accepts.
pub fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v[..1], 0.99), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn driver_line_is_json_with_the_four_keys() {
        let r = RunReport {
            workload: "w",
            seed: 1,
            traced: false,
            metrics: vec![Metric {
                name: "query_p50_us",
                value: 12.5,
                unit: "us",
                n: 3,
            }],
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            fingerprints: Fingerprints {
                nodes: 1,
                doc_fnv: 0,
                acl_fnv: 0,
                ops_fnv: 0,
                answers_fnv: 0,
            },
        };
        assert_eq!(
            r.driver_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"query_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }
}
