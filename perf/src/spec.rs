//! The benchmark's fixed parameters: datasets, workloads, metric tables.
//!
//! Everything here is a committed constant. Nothing is calibrated at run
//! time, so two runs of one build measure the same thing and a later change
//! cannot quietly resize its own yardstick. `BENCHMARK.json` at the root of
//! the repository is rendered from these tables (`dol-perf manifest`) and
//! `selfcheck` refuses to run when the two disagree.

/// The seed whose op sequences and answers are pinned in `pins.txt`.
pub const DEFAULT_SEED: u64 = 20050405;

/// The seed of every dataset (document, labeling, users). It is fixed:
/// `--seed` drives the op sequences and the sampled checks, not the data.
/// Eight random role columns decide at their root whether whole regions of
/// the document are visible, so two data seeds differ by 20 % in how much
/// work the same query mix is — more than any bound below. A later change
/// is judged on many op sequences over one pinned dataset instead.
pub const DATA_SEED: u64 = 20050405;

/// Seconds one driver run measures (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Client threads and connections of the load generator (= `nproc` here).
pub const CLIENTS: usize = 2;

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;

/// Ops whose wire answers are checked against the naive reference
/// evaluator before timing (also the warm-up pass of the cold workloads).
pub const ORACLE_OPS: usize = 64;

/// One in this many measured reader answers is re-derived on the in-memory
/// twin at the epoch the response carried.
pub const TWIN_SAMPLE: u64 = 16;

/// Open-loop update rate of `acl_churn` (updates per second).
pub const CHURN_RATE: u64 = 25;

/// Closed-loop updates sent after the query window of the read workloads,
/// so update latency, durability and stored bytes are measured on every
/// dataset.
pub const PROBE_UPDATES: usize = 40;

/// Updates may target only this many of a workload's users, so the number
/// of direct columns an update sequence can add to the codebook is bounded.
pub const UPDATABLE_USERS: u32 = 16;

/// `set_subtree_access` targets are drawn among subtrees of at most this
/// many nodes: update cost then depends on the commit path, not on which
/// subtree the seed happened to pick.
pub const MAX_UPDATE_SUBTREE: u32 = 64;

/// Free space the scratch directory must have before a run starts.
pub const MIN_FREE_BYTES: u64 = 3 << 30;

/// `core.blocks_skipped_per_query` must reach this on `portal_skip` and
/// stay under a hundredth of it on `scan_cold`.
pub const PORTAL_SKIP_FLOOR: f64 = 50_000.0;

/// Which seeded document and policy a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// XMark scale 4 (~105k nodes), 8 role columns, users in 1–2 roles.
    XmarkS,
    /// XMark scale 16 (~425k nodes), otherwise as `XmarkS`.
    XmarkL,
    /// Corporate portal, 8×8 teams of ~9000 nodes (~450k nodes), narrow
    /// policy: a user sees about 1/64 of the document.
    Portal,
}

/// XMark role columns (physical codebook columns of the xmark datasets).
pub const XMARK_ROLES: usize = 8;
pub const XMARK_S_SCALE: f64 = 4.0;
pub const XMARK_L_SCALE: f64 = 16.0;
pub const PORTAL_DEPARTMENTS: usize = 8;
pub const PORTAL_TEAMS_PER_DEPT: usize = 8;
pub const PORTAL_TEAM_SIZE: usize = 9000;

/// The Table-1 six with Q3′ (the printed Q3 is empty on XMark-shaped data).
pub const Q1: &str = "/site/regions/africa/item[location][name][quantity]";
pub const Q2: &str = "/site/categories/category[name]/description/text/bold";
pub const Q3P: &str = "/site/categories/category/description/text/bold";
pub const Q4: &str = "//parlist//parlist";
pub const Q5: &str = "//listitem//keyword";
pub const Q6: &str = "//item//emph";

/// Rank order of `wire_hot` and `acl_churn`. Q2 and Q3′ (alike in cost and
/// answer size) hold ranks 1 and 3, 55 % of the draws, so the median query
/// sits inside their cluster. With Q1 first, 48 % of `acl_churn`'s reads were
/// cheaper than that cluster and the median fell on its edge, moving 15 %
/// from seed to seed.
const HOT_MIX: &[&str] = &[Q2, Q1, Q3P, Q4, Q5, Q6];

/// Two path and two descendant queries over the portal document.
pub const P1: &str = "/workspace/department/team/folder/doc";
pub const P2: &str = "/workspace/shared/area/folder/doc";
pub const P3: &str = "//folder//doc";
pub const P4: &str = "//team//folder/folder/doc";

/// Share of queries evaluated under subtree-visibility semantics where a
/// workload mixes the two; the rest use binding-level semantics.
pub const SUBTREE_SHARE: f64 = 0.25;

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload exercises and what
    /// it bypasses.
    pub why: &'static str,
    pub dataset: DatasetKind,
    /// Buffer-pool frames of the server under test.
    pub pool_pages: usize,
    /// Users the readers draw from, uniformly.
    pub users: u32,
    /// Queries in Zipf(1) rank order: the first is the most frequent.
    pub queries: &'static [&'static str],
    /// Share of queries under subtree-visibility semantics.
    pub subtree_share: f64,
    /// Connection 1 is an open-loop updater during the query window.
    pub churn: bool,
    /// Queries per second of `--seconds` in the traced run (a fixed count,
    /// so traced counters repeat exactly).
    pub trace_queries_per_s: usize,
    /// Updates in the traced run: per second of `--seconds` when `churn`,
    /// otherwise in total.
    pub trace_updates: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_hot",
        why: "xmark-S in pool, 16 users: every query is a result-cache hit, so frame, JSON, admission and thread hops are the cost; engine and storage are bypassed",
        dataset: DatasetKind::XmarkS,
        pool_pages: 8192,
        users: 16,
        queries: HOT_MIX,
        subtree_share: SUBTREE_SHARE,
        churn: false,
        trace_queries_per_s: 600,
        trace_updates: 16,
    },
    Workload {
        name: "scan_cold",
        why: "xmark-L with a pool a sixth of the image, 4096 users: result cache misses, descendant joins read thousands of pages; matching and storage dominate, skipping and the wire are idle",
        dataset: DatasetKind::XmarkL,
        pool_pages: 1024,
        users: 4096,
        queries: &[Q2, Q3P, Q1, Q5, Q4, Q6],
        // Binding-level only: a subtree-visibility check re-reads the
        // pages of each candidate's ancestors, which are always resident,
        // and would bury the pool misses this workload exists to show.
        subtree_share: 0.0,
        churn: false,
        trace_queries_per_s: 16,
        trace_updates: 8,
    },
    Workload {
        name: "portal_skip",
        why: "portal in pool, 16384 users each seeing 1/64 of it: result and column caches miss, header skipping and column derivation dominate; few pages are read, so storage is bypassed",
        dataset: DatasetKind::Portal,
        pool_pages: 8192,
        users: 16384,
        queries: &[P3, P1, P4, P2],
        subtree_share: SUBTREE_SHARE,
        churn: false,
        trace_queries_per_s: 40,
        trace_updates: 16,
    },
    Workload {
        name: "acl_churn",
        why: "wire_hot's data and mix with an open-loop ACL updater at 25/s beside the reader: every commit invalidates results and crosses the version ring; shows read-side against write-path cost",
        dataset: DatasetKind::XmarkS,
        pool_pages: 8192,
        users: 16,
        queries: HOT_MIX,
        subtree_share: SUBTREE_SHARE,
        churn: true,
        trace_queries_per_s: 150,
        trace_updates: 6,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction of a metric in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the server sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    // A bound is per metric, not per workload, so it has to hold on the
    // noisiest workload, and in the noisier of the hours the machine has.
    // Over ten seeds the four query and update timings spread (interquartile
    // range over median) up to 0.10 in a calm hour and up to 0.14 in an
    // ordinary noisier one, on `wire_hot` as on `acl_churn`, and the medians
    // of two such hours differ by up to 0.16: the machine's own speed wanders
    // (one `scan_cold` server does the same reads per query to 2 % from run
    // to run and answers 176 to 219 queries a second from one 5 s slice to
    // the next). Twice the spread is more than the driver allows, so every
    // timing carries the widest bound it does. `perf/README.md` has the
    // measurements and what was done to narrow them.
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("query_qps", "1/s", Better::Higher, 0.25),
    e2e("query_p50_us", "us", Better::Lower, 0.25),
    e2e("query_p99_us", "us", Better::Lower, 0.25),
    e2e("update_p50_us", "us", Better::Lower, 0.25),
    // Exact for one seed; 0.03 % to 0.3 % across seeds.
    e2e("stored_bytes_per_node", "B", Better::Lower, 0.01),
    // 1 − failed/attempted. (A `failed_ratio` would read 0 on every good
    // run, and a metric whose median is 0 has no relative bound.) The bound
    // never decides: one failure makes the run incorrect and `bench` exits
    // non-zero.
    e2e("ok_ratio", "ratio", Better::Higher, 0.001),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric of the traced run. No bound: it explains an
/// end-to-end number, it is not itself a promise.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 61] = [
    // server: the wire front door.
    lower("server.ping_rtt_us", "us"),
    lower("server.codec_us_per_op", "us"),
    lower("server.request_bytes_per_op", "B"),
    lower("server.response_bytes_per_op", "B"),
    lower("server.handled_us_per_op", "us"),
    lower("server.cpu_us_per_op", "us"),
    lower("server.refused_ops", "count"),
    lower("server.wire_residual_us", "us"),
    // reader: snapshot handle, plan cache, result cache.
    higher("reader.result_hit_ratio", "ratio"),
    higher("reader.plan_hit_ratio", "ratio"),
    lower("reader.plan_compiles", "count"),
    lower("reader.query_us", "us"),
    lower("reader.cached_query_us", "us"),
    // nok: parse, plan, compiled matching, joins.
    lower("nok.parse_plan_compile_us", "us"),
    lower("nok.execute_us", "us"),
    lower("nok.candidates_per_query", "count"),
    lower("nok.nodes_visited_per_query", "count"),
    lower("nok.join_pairs_per_query", "count"),
    lower("nok.matches_per_query", "count"),
    lower("nok.nodes_visited_per_match", "count"),
    // core and acl: codes, columns, group closure.
    higher("core.blocks_skipped_per_query", "count"),
    lower("core.nodes_denied_per_query", "count"),
    lower("core.column_derive_us", "us"),
    lower("core.codebook_entries", "count"),
    lower("core.codebook_bytes", "B"),
    lower("core.transitions", "count"),
    lower("acl.closure_us", "us"),
    lower("acl.membership_bytes", "B"),
    // storage, read side.
    lower("storage.logical_reads_per_query", "count"),
    lower("storage.physical_reads_per_query", "count"),
    higher("storage.pool_hit_ratio", "ratio"),
    lower("storage.evictions_per_query", "count"),
    higher("storage.pages_skipped_per_query", "count"),
    higher("storage.shared_latch_ratio", "ratio"),
    lower("storage.versioned_reads_per_query", "count"),
    lower("storage.disk_read_us_per_query", "us"),
    // storage and commit, write side.
    lower("storage.pages_written_per_update", "count"),
    lower("storage.wal_bytes_per_update", "B"),
    lower("storage.data_bytes_written_per_update", "B"),
    lower("storage.fsyncs_per_update", "count"),
    lower("storage.fsync_us_per_update", "us"),
    higher("commit.members_per_batch", "count"),
    lower("commit.overloads", "count"),
    lower("commit.solo_fallbacks", "count"),
    lower("commit.submit_us", "us"),
    lower("commit.run_update_us", "us"),
    lower("commit.queue_wait_us", "us"),
    // persist: build, save, open, recover.
    lower("persist.build_s", "s"),
    lower("persist.save_s", "s"),
    lower("persist.open_s", "s"),
    lower("persist.image_bytes", "B"),
    lower("persist.image_growth_bytes_per_update", "B"),
    lower("persist.reopen_after_kill_ms", "ms"),
    lower("persist.recovered_commits", "count"),
    // client: an end-to-end number too unsteady on this machine to carry
    // a bound (40 to 250 samples of an fsync-bound tail).
    lower("client.update_p95_us", "us"),
    // client, two-CPU placement: the timed run's window with the server
    // child free to use every CPU. Unsteady (see `affinity.rs`), so
    // unbounded; where a change in parallelism shows.
    higher("client.two_cpu_qps", "1/s"),
    lower("client.two_cpu_p50_us", "us"),
    lower("client.two_cpu_p99_us", "us"),
    // instrument health: these move nothing.
    lower("loadgen.update_late_p95_us", "us"),
    lower("trace.wire_p50_us", "us"),
    lower("trace.overhead_ratio", "ratio"),
];
