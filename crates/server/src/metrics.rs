//! Server-side observability: per-method latency histograms, typed-refusal
//! counters, connection/frame counters, and the Prometheus-style text
//! rendering served by the `metrics` method and the HTTP `GET` sniffer.
//!
//! Everything is lock-free atomics — recording happens on every request, so
//! it must never contend with the requests themselves. Buckets are
//! power-of-two microseconds (1µs, 2µs, ... ~8.4s, +Inf), cumulative in the
//! Prometheus `_bucket{le=...}` convention.

use crate::proto::ErrorCode;
use secure_xml::ServerStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of finite histogram buckets: bucket `i` counts latencies
/// `< 2^i` µs, and one implicit `+Inf` bucket catches the rest.
pub const BUCKETS: usize = 24;

/// The methods metrics are keyed by (same strings as
/// [`Method::name`](crate::proto::Method::name)).
pub const METHOD_NAMES: [&str; 9] = [
    "ping",
    "query",
    "update",
    "register_subject",
    "set_membership",
    "stats",
    "metrics",
    "recover",
    "shutdown",
];

/// The codes refusal counters are keyed by.
const CODES: [ErrorCode; 9] = [
    ErrorCode::Overloaded,
    ErrorCode::RetentionExceeded,
    ErrorCode::Poisoned,
    ErrorCode::DeadlineExceeded,
    ErrorCode::InvalidRequest,
    ErrorCode::Draining,
    ErrorCode::Forbidden,
    ErrorCode::ResponseTooLarge,
    ErrorCode::Internal,
];

#[derive(Default)]
struct MethodCells {
    requests: AtomicU64,
    errors: AtomicU64,
    /// Cumulative-from-raw: cell `i` counts latencies in `[2^(i-1), 2^i)`
    /// µs (cell 0: `< 1µs`); the renderer accumulates.
    buckets: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    total_us: AtomicU64,
}

/// The server's metric registry. One per server; shared by reference with
/// every connection thread.
pub struct Metrics {
    methods: [MethodCells; METHOD_NAMES.len()],
    refusals: [AtomicU64; CODES.len()],
    slow_queries: AtomicU64,
    slow_query_us: u64,
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    frames_rejected: AtomicU64,
    admission_refused: AtomicU64,
    cancelled_disconnects: AtomicU64,
}

impl Metrics {
    /// A zeroed registry; requests slower than `slow_query_us` bump the
    /// slow-query counter.
    pub fn new(slow_query_us: u64) -> Self {
        Self {
            methods: Default::default(),
            refusals: Default::default(),
            slow_queries: AtomicU64::new(0),
            slow_query_us,
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            frames_rejected: AtomicU64::new(0),
            admission_refused: AtomicU64::new(0),
            cancelled_disconnects: AtomicU64::new(0),
        }
    }

    fn method_idx(name: &str) -> Option<usize> {
        METHOD_NAMES.iter().position(|m| *m == name)
    }

    /// Records one served request: its method, latency, and outcome. Slow
    /// queries (by the configured threshold) are counted; refusals are
    /// tallied per code.
    pub fn record(&self, method: &str, latency_us: u64, outcome: Result<(), ErrorCode>) {
        if let Some(i) = Self::method_idx(method) {
            let m = &self.methods[i];
            m.requests.fetch_add(1, Ordering::Relaxed);
            m.total_us.fetch_add(latency_us, Ordering::Relaxed);
            let bucket = (64 - u64::leading_zeros(latency_us)) as usize;
            match m.buckets.get(bucket) {
                Some(b) => b.fetch_add(1, Ordering::Relaxed),
                None => m.overflow.fetch_add(1, Ordering::Relaxed),
            };
            if latency_us >= self.slow_query_us && method == "query" {
                self.slow_queries.fetch_add(1, Ordering::Relaxed);
            }
            if outcome.is_err() {
                m.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Err(code) = outcome {
            if let Some(i) = CODES.iter().position(|c| *c == code) {
                self.refusals[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counts a refusal that never reached a worker (admission or drain
    /// refusals written straight from the reader thread).
    pub fn record_refusal(&self, code: ErrorCode) {
        if let Some(i) = CODES.iter().position(|c| *c == code) {
            self.refusals[i].fetch_add(1, Ordering::Relaxed);
        }
        if code == ErrorCode::Overloaded {
            self.admission_refused.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts an accepted connection.
    pub fn connection_opened(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a closed connection.
    pub fn connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a frame the decoder rejected (torn, oversize, CRC mismatch,
    /// or an unparseable payload) — each one closes its connection.
    pub fn frame_rejected(&self) {
        self.frames_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an in-flight request cancelled because its client vanished.
    pub fn disconnect_cancelled(&self) {
        self.cancelled_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Total refusals recorded for `code`.
    pub fn refusals(&self, code: ErrorCode) -> u64 {
        CODES
            .iter()
            .position(|c| *c == code)
            .map(|i| self.refusals[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total requests recorded for `method`.
    pub fn requests(&self, method: &str) -> u64 {
        Self::method_idx(method)
            .map(|i| self.methods[i].requests.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The slow-query counter.
    pub fn slow_queries(&self) -> u64 {
        self.slow_queries.load(Ordering::Relaxed)
    }

    /// In-flight requests cancelled because their client vanished.
    pub fn cancelled_disconnects(&self) -> u64 {
        self.cancelled_disconnects.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition: the server's own counters
    /// and histograms plus the database families from `stats`
    /// ([`ServerStats`]: I/O, caches, breaker, group commit).
    pub fn render(&self, stats: &ServerStats) -> String {
        let mut out = String::with_capacity(4096);
        fn counter(out: &mut String, name: &str, help: &str, rows: &[(String, u64)]) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (labels, v) in rows {
                out.push_str(&format!("{name}{labels} {v}\n"));
            }
        }
        let plain = |v: u64| vec![(String::new(), v)];

        let per_method = |cell: fn(&MethodCells) -> &AtomicU64| -> Vec<(String, u64)> {
            METHOD_NAMES
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    (
                        format!("{{method=\"{m}\"}}"),
                        cell(&self.methods[i]).load(Ordering::Relaxed),
                    )
                })
                .collect()
        };
        counter(
            &mut out,
            "dol_requests_total",
            "Requests served, by method.",
            &per_method(|m| &m.requests),
        );
        counter(
            &mut out,
            "dol_request_errors_total",
            "Requests answered with a typed error, by method.",
            &per_method(|m| &m.errors),
        );
        counter(
            &mut out,
            "dol_request_latency_us_sum",
            "Summed request latency in microseconds, by method.",
            &per_method(|m| &m.total_us),
        );

        out.push_str(
            "# HELP dol_request_latency_us Request latency histogram (microseconds).\n\
             # TYPE dol_request_latency_us histogram\n",
        );
        for (i, name) in METHOD_NAMES.iter().enumerate() {
            let m = &self.methods[i];
            let mut cum = 0u64;
            for (b, cell) in m.buckets.iter().enumerate() {
                cum += cell.load(Ordering::Relaxed);
                out.push_str(&format!(
                    "dol_request_latency_us_bucket{{method=\"{name}\",le=\"{}\"}} {cum}\n",
                    1u64 << b
                ));
            }
            cum += m.overflow.load(Ordering::Relaxed);
            out.push_str(&format!(
                "dol_request_latency_us_bucket{{method=\"{name}\",le=\"+Inf\"}} {cum}\n"
            ));
            out.push_str(&format!(
                "dol_request_latency_us_count{{method=\"{name}\"}} {cum}\n"
            ));
        }

        let refusal_rows: Vec<(String, u64)> = CODES
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    format!("{{code=\"{}\"}}", c.as_str()),
                    self.refusals[i].load(Ordering::Relaxed),
                )
            })
            .collect();
        counter(
            &mut out,
            "dol_refusals_total",
            "Typed refusals written to the wire, by code.",
            &refusal_rows,
        );
        counter(
            &mut out,
            "dol_slow_queries_total",
            "Query requests at or over the slow-query threshold.",
            &plain(self.slow_queries.load(Ordering::Relaxed)),
        );
        counter(
            &mut out,
            "dol_connections_opened_total",
            "Connections accepted.",
            &plain(self.connections_opened.load(Ordering::Relaxed)),
        );
        counter(
            &mut out,
            "dol_connections_closed_total",
            "Connections closed.",
            &plain(self.connections_closed.load(Ordering::Relaxed)),
        );
        counter(
            &mut out,
            "dol_frames_rejected_total",
            "Frames rejected by the decoder (each closes its connection).",
            &plain(self.frames_rejected.load(Ordering::Relaxed)),
        );
        counter(
            &mut out,
            "dol_disconnect_cancels_total",
            "In-flight requests cancelled by a client disconnect.",
            &plain(self.cancelled_disconnects.load(Ordering::Relaxed)),
        );

        // Database families, flattened from the aggregate snapshot.
        let db_rows: Vec<(&str, &str, u64)> = vec![
            (
                "dol_io_logical_reads",
                "Page accesses served.",
                stats.io.logical_reads,
            ),
            (
                "dol_io_physical_reads",
                "Pages fetched from disk.",
                stats.io.physical_reads,
            ),
            (
                "dol_io_physical_writes",
                "Pages written back.",
                stats.io.physical_writes,
            ),
            (
                "dol_io_pages_skipped",
                "Page reads avoided by the page-skip test.",
                stats.io.pages_skipped,
            ),
            (
                "dol_io_evictions",
                "Frames evicted to make room.",
                stats.io.evictions,
            ),
            (
                "dol_io_victim_probes",
                "LRU heap entries popped to choose eviction victims.",
                stats.io.victim_probes,
            ),
            (
                "dol_io_read_exclusive_fallback",
                "Page reads that took the pool's exclusive latch.",
                stats.io.read_exclusive_fallback,
            ),
            (
                "dol_io_versioned_reads",
                "Page reads served from the version ring to a pinned reader.",
                stats.io.versioned_reads,
            ),
            (
                "dol_io_page_copies",
                "Whole-page copies (copy on write, shared seals).",
                stats.io.page_copies,
            ),
            (
                "dol_io_backoffs",
                "Backoff pauses between I/O attempts.",
                stats.io.backoffs,
            ),
            (
                "dol_breaker_trips",
                "Circuit-breaker trips.",
                stats.io.breaker_trips,
            ),
            (
                "dol_breaker_fast_fails",
                "Operations refused while the breaker was open.",
                stats.io.breaker_fast_fails,
            ),
            (
                "dol_breaker_probes",
                "Half-open probes admitted.",
                stats.io.breaker_probes,
            ),
            (
                "dol_cache_plan_hits",
                "Plan-cache hits.",
                stats.cache.plan_hits,
            ),
            (
                "dol_cache_plan_misses",
                "Plan-cache misses.",
                stats.cache.plan_misses,
            ),
            (
                "dol_cache_result_hits",
                "Result-cache hits.",
                stats.cache.result_hits,
            ),
            (
                "dol_cache_result_misses",
                "Result-cache misses.",
                stats.cache.result_misses,
            ),
            (
                "dol_cache_deadline_aborts",
                "Queries aborted on an expired deadline.",
                stats.cache.deadline_aborts,
            ),
            (
                "dol_commit_submitted",
                "Updates accepted by the group committer.",
                stats.commit.submitted,
            ),
            (
                "dol_commit_committed",
                "Updates durably committed.",
                stats.commit.committed,
            ),
            (
                "dol_commit_rejected",
                "Updates rejected by their own closure.",
                stats.commit.rejected,
            ),
            (
                "dol_commit_batches",
                "Group-commit batches (one fsync each).",
                stats.commit.batches,
            ),
            (
                "dol_commit_overloads",
                "Updates refused by committer admission control.",
                stats.commit.overloads,
            ),
        ];
        for (name, help, v) in db_rows {
            counter(&mut out, name, help, &plain(v));
        }
        let mut gauge = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge("dol_epoch", "Current update epoch.", stats.epoch);
        gauge("dol_nodes", "Nodes in the document.", stats.nodes);
        gauge(
            "dol_poisoned",
            "1 while the handle is poisoned (degraded read-only serving).",
            u64::from(stats.poisoned),
        );
        gauge(
            "dol_breaker_open",
            "1 while the I/O circuit breaker is open.",
            u64::from(stats.breaker_open),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histograms_are_cumulative_and_slow_queries_counted() {
        let m = Metrics::new(1000);
        m.record("query", 3, Ok(()));
        m.record("query", 900, Ok(()));
        m.record("query", 5000, Err(ErrorCode::DeadlineExceeded));
        m.record("update", 50, Ok(()));
        m.record_refusal(ErrorCode::Overloaded);
        assert_eq!(m.requests("query"), 3);
        assert_eq!(m.requests("update"), 1);
        assert_eq!(m.slow_queries(), 1);
        assert_eq!(m.refusals(ErrorCode::DeadlineExceeded), 1);
        assert_eq!(m.refusals(ErrorCode::Overloaded), 1);

        let text = m.render(&secure_xml::ServerStats::default());
        // The +Inf bucket equals the count for every method.
        assert!(text.contains("dol_request_latency_us_bucket{method=\"query\",le=\"+Inf\"} 3"));
        assert!(text.contains("dol_request_latency_us_count{method=\"query\"} 3"));
        // 3µs lands in le=4 cumulatively.
        assert!(text.contains("dol_request_latency_us_bucket{method=\"query\",le=\"4\"} 1"));
        assert!(text.contains("dol_refusals_total{code=\"overloaded\"} 1"));
        assert!(text.contains("dol_slow_queries_total 1"));
    }

    #[test]
    fn huge_latencies_fall_into_inf_without_panicking() {
        let m = Metrics::new(u64::MAX);
        m.record("ping", u64::MAX, Ok(()));
        let text = m.render(&secure_xml::ServerStats::default());
        assert!(text.contains("dol_request_latency_us_bucket{method=\"ping\",le=\"+Inf\"} 1"));
    }
}
