//! The traced run: where the time of an operation goes, layer by layer,
//! measured from outside.
//!
//! No product crate is instrumented. Instead the same fixed op sequence is
//! issued by one client at three altitudes, each against its own copy of the
//! image opened with the workload's pool size:
//!
//! * **S** — the server, started in this process (`dol_server::Server`) on
//!   `TimedDisk`-wrapped data and log disks, reached over loopback TCP;
//! * **R** — a database handle whose `DbReader::query_opts` (reads) and
//!   `GroupCommitter::submit` (updates) are called directly;
//! * **E** — a database handle whose `SecureXmlDb::query_opts` (result cache
//!   bypassed) and update methods (one solo transaction each) are called
//!   directly.
//!
//! Every copy receives every op in the same order, so each is in the state
//! the server is in. A span is recorded around each call; the span of an
//! inner altitude is filed as the child of the outer one it stands for, so
//! a layer's self time is its span minus its children. The spans of one op
//! are *replays*, not nested in time: the model is exact while the three
//! copies behave alike, and `trace.overhead_ratio` and
//! `server.wire_residual_us` show how far it is off.
//!
//! Before the traced phase a short child phase — the timed run's own window
//! against the server child — provides the numbers only a separate process
//! can: its CPU time, the open-loop lateness, kill-and-reopen. A two-CPU
//! phase repeats that window with the child free to use every CPU: what the
//! two clients see when the server's threads can run at once.

use crate::affinity;
use crate::check::oracle_check;
use crate::dataset::Dataset;
use crate::ops::{gen_updates, QueryOp, QueryStream, Update};
use crate::proc::{db_config, file_disks, Conn, Reply, Scratch, WireError};
use crate::report::{declared, mean, quantile, ratio, sort, RunReport};
use crate::spec::{Workload, CLIENTS, PER_LAYER, PORTAL_SKIP_FLOOR};
use crate::timed::{
    build_image, compute_fingerprints, go_live, kill_and_verify, measure, run_updates, serve,
    Built, Live, WindowLog,
};
use dol_acl::SubjectId;
use dol_nok::PlanCache;
use dol_server::{frame, proto, Method, Server, ServerConfig};
use dol_storage::{Disk, Page, PageId, StorageError, PAGE_SIZE};
use secure_xml::{ExecOptions, ExecStats, GroupCommitConfig, GroupCommitter, SecureXmlDb};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// A disk decorator that counts and times every call.
pub struct TimedDisk {
    inner: Arc<dyn Disk>,
    reads: AtomicU64,
    read_ns: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
}

/// Counter values of a [`TimedDisk`] at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskSnap {
    pub reads: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub syncs: u64,
    pub sync_ns: u64,
}

impl DiskSnap {
    fn since(self, earlier: DiskSnap) -> DiskSnap {
        DiskSnap {
            reads: self.reads - earlier.reads,
            read_ns: self.read_ns - earlier.read_ns,
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }

    fn add(&mut self, d: DiskSnap) {
        self.reads += d.reads;
        self.read_ns += d.read_ns;
        self.writes += d.writes;
        self.syncs += d.syncs;
        self.sync_ns += d.sync_ns;
    }
}

impl TimedDisk {
    pub fn wrap(inner: Arc<dyn Disk>) -> Arc<TimedDisk> {
        Arc::new(TimedDisk {
            inner,
            reads: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
        })
    }

    pub fn snap(&self) -> DiskSnap {
        // Statistics only: nothing is published through these counters.
        DiskSnap {
            reads: self.reads.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
        }
    }
}

impl Disk for TimedDisk {
    fn read_page(&self, id: PageId, buf: &mut Page) -> Result<(), StorageError> {
        let t = Instant::now();
        let r = self.inner.read_page(id, buf);
        self.read_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn write_page(&self, id: PageId, buf: &Page) -> Result<(), StorageError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_page(id, buf)
    }

    fn allocate_page(&self) -> Result<PageId, StorageError> {
        // A file-backed allocation writes the zeroed page.
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.allocate_page()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<(), StorageError> {
        let t = Instant::now();
        let r = self.inner.sync();
        self.sync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.syncs.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// One recorded call. `parent` is the id of the span this one is filed
/// under (0: none, the op's outermost span; `u32::MAX`: off the op's path,
/// measured for the layer's own number only).
struct Span {
    op: u32,
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub const OFF_PATH: u32 = u32::MAX;

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    next_id: u32,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Runs `f` inside a span and returns its result, the span's id and its
    /// duration in microseconds.
    fn span<T>(
        &mut self,
        op: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u32, f64) {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.t0.elapsed();
        let out = f();
        let end = self.t0.elapsed();
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (out, id, (end - start).as_secs_f64() * 1e6)
    }

    /// Files a span of known duration (time a decorator accumulated inside
    /// another call) under `parent`, ending where the parent ended.
    fn synthetic(&mut self, op: u32, parent: u32, name: &'static str, ns: u64) {
        let end = self
            .spans
            .iter()
            .rev()
            .find(|s| s.id == parent)
            .map_or(0, |s| s.end_ns);
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns: end.saturating_sub(ns),
            end_ns: end,
        });
    }
}

/// Per-op counters written beside the spans, for `trace-summary`.
#[derive(Default, Clone, Copy)]
struct OpCounts {
    matches: u64,
    logical_reads: u64,
    physical_reads: u64,
    blocks_skipped: u64,
    pages_written: u64,
}

/// A database handle opened on its own copy of the image, with timed disks.
struct ImageCopy {
    db: SecureXmlDb,
    data: Arc<TimedDisk>,
    wal: Arc<TimedDisk>,
    open_s: f64,
}

fn open_copy(base: &Path, to: &Path, pool_pages: usize) -> Result<ImageCopy, String> {
    std::fs::copy(base, to).map_err(|e| format!("copy image to {}: {e}", to.display()))?;
    let (data, wal) = file_disks(to)?;
    let (data, wal) = (TimedDisk::wrap(data), TimedDisk::wrap(wal));
    let t = Instant::now();
    let db = SecureXmlDb::open_on(data.clone(), wal.clone(), db_config(pool_pages))
        .map_err(|e| format!("open {}: {e}", to.display()))?;
    Ok(ImageCopy {
        db,
        data,
        wal,
        open_s: t.elapsed().as_secs_f64(),
    })
}

/// One op of the traced phase.
enum Op {
    Query(QueryOp),
    Update(Update),
}

/// The fixed op sequence of the traced phase: `queries` reads with the
/// updates spread evenly among them (churn), or all reads first and the
/// updates after (read workloads) — the order the timed run sends them in.
fn trace_ops(w: &Workload, seed: u64, queries: usize, updates: &[Update]) -> Vec<Op> {
    let mut stream = QueryStream::new(w, seed, 0);
    let mut ops = Vec::with_capacity(queries + updates.len());
    let every = (queries / updates.len().max(1)).max(1);
    let mut pending = updates.iter();
    for i in 0..queries {
        ops.push(Op::Query(stream.next_op()));
        if w.churn && (i + 1) % every == 0 {
            ops.extend(pending.next().map(|&u| Op::Update(u)));
        }
    }
    ops.extend(pending.map(|&u| Op::Update(u)));
    ops
}

/// The value of one sample line of a Prometheus text exposition.
fn metric_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.trim().parse().ok())
}

/// Time the server spent handling requests and how many, from its own
/// histogram sums.
fn handled(text: &str) -> (f64, f64) {
    let mut sum = 0.0;
    let mut count = 0.0;
    for method in ["query", "update", "set_membership"] {
        let series = |kind: &str| format!("dol_request_latency_us_{kind}{{method=\"{method}\"}}");
        sum += metric_value(text, &series("sum")).unwrap_or(0.0);
        count += metric_value(text, &series("count")).unwrap_or(0.0);
    }
    (sum, count)
}

/// Encodes and decodes one op's own request and response the way client and
/// server do, once.
fn codec_replay(reply: &Reply) {
    let out = proto::encode_request(&reply.request);
    std::hint::black_box(frame::encode_frame(&out));
    std::hint::black_box(proto::decode_request(&out).is_ok());
    if let Some(resp) = proto::decode_response(&reply.payload) {
        if let Ok(result) = resp.outcome {
            let back = proto::ok_response(resp.id, result);
            std::hint::black_box(frame::encode_frame(&back));
        }
    }
}

/// Everything the traced phase measured, before it becomes metrics.
#[derive(Default)]
struct Measured {
    wire_query_us: Vec<f64>,
    codec_us: Vec<f64>,
    request_bytes: u64,
    response_bytes: u64,
    reader_us: Vec<f64>,
    reader_hit_us: Vec<f64>,
    compile_us: Vec<f64>,
    execute_us: Vec<f64>,
    column_us: Vec<f64>,
    closure_us: Vec<f64>,
    submit_us: Vec<f64>,
    run_update_us: Vec<f64>,
    /// Sums of the engine-altitude `QueryResult.stats`.
    exec: ExecStats,
    matches: u64,
    queries: u64,
    updates: u64,
    /// E's data disk over the queries; S's disks over the updates.
    e_disk_queries: DiskSnap,
    s_data_updates: DiskSnap,
    s_wal_updates: DiskSnap,
    refused: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Measured {
    fn wire_failed(&mut self, what: &dyn std::fmt::Debug, e: &WireError) {
        if matches!(e, WireError::Refused(..)) {
            self.refused += 1;
        }
        self.failed += 1;
        self.problems.push(format!("{what:?}: {e}"));
    }

    fn add_exec(&mut self, s: &ExecStats) {
        let total = &mut self.exec;
        total.candidates += s.candidates;
        total.nodes_visited += s.nodes_visited;
        total.nodes_denied += s.nodes_denied;
        total.blocks_skipped += s.blocks_skipped;
        total.join_pairs += s.join_pairs;
        let (t, io) = (&mut total.io, &s.io);
        t.logical_reads += io.logical_reads;
        t.physical_reads += io.physical_reads;
        t.evictions += io.evictions;
        t.pages_skipped += io.pages_skipped;
        t.read_shared += io.read_shared;
        t.read_exclusive_fallback += io.read_exclusive_fallback;
        t.versioned_reads += io.versioned_reads;
    }
}

/// The three altitudes and what is recorded at them.
struct Tracer<'a> {
    w: &'a Workload,
    ds: &'a Dataset,
    /// S: the connection to the in-process server, and its disks.
    conn: Conn,
    s_data: Arc<TimedDisk>,
    s_wal: Arc<TimedDisk>,
    /// R: reader and committer.
    r_db: Arc<RwLock<SecureXmlDb>>,
    committer: GroupCommitter,
    /// E: the facade, directly.
    e: ImageCopy,
    rec: Recorder,
    counts: Vec<OpCounts>,
    m: Measured,
}

impl Tracer<'_> {
    fn r_cache(&self) -> secure_xml::CacheStats {
        self.r_db.read().expect("R lock").cache_stats()
    }

    /// The warm-up pass, at every altitude, untraced.
    fn warm_up(&mut self, warm: &[QueryOp]) -> Result<(), String> {
        for op in warm {
            let q = self.w.queries[op.qi as usize];
            let sec = op.security(self.ds);
            self.conn
                .call(op.method(self.w, self.ds))
                .map_err(|e| format!("traced warm-up: {e}"))?;
            let reader = self.r_db.read().expect("R lock").reader();
            reader
                .query_opts(q, sec, ExecOptions::default())
                .map_err(|e| format!("traced warm-up (reader): {e}"))?;
            self.e
                .db
                .query_opts(q, sec, ExecOptions::default())
                .map_err(|e| format!("traced warm-up (engine): {e}"))?;
        }
        Ok(())
    }

    /// Books an answered wire call: frame sizes, and the codec replayed on
    /// its own payloads as a child of the wire span.
    fn answered(&mut self, op_id: u32, wire_id: u32, reply: &Reply) {
        self.m.request_bytes += reply.request_bytes as u64;
        self.m.response_bytes += reply.payload.len() as u64;
        let (_, _, codec_us) = self
            .rec
            .span(op_id, wire_id, "server.codec", || codec_replay(reply));
        self.m.codec_us.push(codec_us);
    }

    fn query(&mut self, op_id: u32, q: QueryOp) {
        let (w, ds) = (self.w, self.ds);
        let text = w.queries[q.qi as usize];
        let sec = q.security(ds);
        self.m.queries += 1;
        let mut c = OpCounts::default();

        // S: over the wire.
        let conn = &mut self.conn;
        let (reply, wire_id, wire_us) = self
            .rec
            .span(op_id, 0, "wire.query", || conn.call(q.method(w, ds)));
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                self.m.wire_failed(&q, &e);
                self.counts.push(c);
                return;
            }
        };
        self.m.wire_query_us.push(wire_us);
        self.answered(op_id, wire_id, &reply);
        let wire_matches = reply.matches().unwrap_or_default();

        // R: the reader, called directly, minted per request as the server
        // does.
        let hits_before = self.r_cache().result_hits;
        let r_db = &self.r_db;
        let (r_res, reader_id, reader_us) = self.rec.span(op_id, wire_id, "reader.query", || {
            let reader = r_db.read().expect("R lock").reader();
            reader.query_opts(text, sec, ExecOptions::default())
        });
        let hit = self.r_cache().result_hits > hits_before;
        self.m.reader_us.push(reader_us);
        if hit {
            self.m.reader_hit_us.push(reader_us);
        }

        // E: the engine, result cache bypassed. On the op's path only when
        // the reader missed.
        let disk_before = self.e.data.snap();
        let e_db = &self.e.db;
        let (e_res, exec_id, exec_us) = self.rec.span(
            op_id,
            if hit { OFF_PATH } else { reader_id },
            "nok.execute",
            || e_db.query_opts(text, sec, ExecOptions::default()),
        );
        let disk = self.e.data.snap().since(disk_before);
        self.rec
            .synthetic(op_id, exec_id, "storage.disk_read", disk.read_ns);
        self.m.e_disk_queries.add(disk);
        self.m.execute_us.push(exec_us);

        match (r_res, e_res) {
            (Ok(r), Ok(e)) => {
                if r.matches != wire_matches || e.matches != wire_matches {
                    self.m.failed += 1;
                    self.m
                        .problems
                        .push(format!("{q:?}: wire, reader and engine answers differ"));
                }
                self.m.add_exec(&e.stats);
                self.m.matches += e.matches.len() as u64;
                c = OpCounts {
                    matches: e.matches.len() as u64,
                    logical_reads: e.stats.io.logical_reads,
                    physical_reads: e.stats.io.physical_reads,
                    blocks_skipped: e.stats.blocks_skipped,
                    pages_written: 0,
                };
            }
            (r, e) => {
                self.m.failed += 1;
                self.m.problems.push(format!(
                    "{q:?}: direct call failed: reader {:?}, engine {:?}",
                    r.err().map(|e| e.to_string()),
                    e.err().map(|e| e.to_string())
                ));
            }
        }
        self.counts.push(c);

        // The pieces the caches normally hide, measured cold on one op in
        // eight and filed off the path: plan compilation, column
        // derivation, group closure.
        if op_id % 8 == 1 {
            let subject = SubjectId(ds.user(q.user));
            let tags = self.e.db.document().tags();
            let (_, _, us) = self
                .rec
                .span(op_id, OFF_PATH, "nok.parse_plan_compile", || {
                    PlanCache::new(1).get_or_compile(text, tags).is_ok()
                });
            self.m.compile_us.push(us);
            let codebook = self.e.db.dol().codebook();
            let (_, _, us) = self.rec.span(op_id, OFF_PATH, "core.column_derive", || {
                std::hint::black_box(codebook.column(subject).len())
            });
            self.m.column_us.push(us);
            if let Some(space) = codebook.group_space() {
                let (_, _, us) = self.rec.span(op_id, OFF_PATH, "acl.closure", || {
                    std::hint::black_box(space.closure_columns(subject).len())
                });
                self.m.closure_us.push(us);
            }
        }
    }

    fn update(&mut self, op_id: u32, u: Update) {
        self.m.updates += 1;

        // S: over the wire, with its disks' counters read around the call.
        let (data_before, wal_before) = (self.s_data.snap(), self.s_wal.snap());
        let conn = &mut self.conn;
        let (reply, wire_id, _) = self
            .rec
            .span(op_id, 0, "wire.update", || conn.call(u.method()));
        let data = self.s_data.snap().since(data_before);
        let wal = self.s_wal.snap().since(wal_before);
        self.m.s_data_updates.add(data);
        self.m.s_wal_updates.add(wal);
        self.counts.push(OpCounts {
            pages_written: data.writes,
            ..OpCounts::default()
        });
        match reply {
            Ok(reply) => self.answered(op_id, wire_id, &reply),
            Err(e) => self.m.wire_failed(&u, &e),
        }

        // R: through the group committer (a membership edit takes the write
        // lock directly, as in the server).
        let direct = matches!(u, Update::Membership { .. });
        let (r_db, committer) = (&self.r_db, &self.committer);
        let (r_res, submit_id, submit_us) = self.rec.span(
            op_id,
            wire_id,
            if direct {
                "commit.direct"
            } else {
                "commit.submit"
            },
            || {
                if direct {
                    u.apply(&mut r_db.write().expect("R lock"))
                } else {
                    committer.submit_fn(move |db| u.apply(db))
                }
            },
        );
        // E: one solo transaction. (A facade call already is one; wrapping
        // it in `SecureXmlDb::run_update` would nest a second.)
        let e_db = &mut self.e.db;
        let (e_res, run_id, run_us) = self
            .rec
            .span(op_id, submit_id, "commit.run_update", || u.apply(e_db));
        // The server's own fsync time, filed innermost.
        self.rec
            .synthetic(op_id, run_id, "storage.fsync", data.sync_ns + wal.sync_ns);
        if !direct {
            self.m.submit_us.push(submit_us);
            self.m.run_update_us.push(run_us);
        }
        if let Some(e) = r_res.err().or(e_res.err()) {
            self.m.failed += 1;
            self.m.problems.push(format!("{u:?} applied directly: {e}"));
        }
    }
}

/// What the two clients saw of the queries of one window.
#[derive(Clone, Copy)]
struct ClientView {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    queries: usize,
}

impl ClientView {
    fn of(log: &WindowLog) -> ClientView {
        ClientView {
            qps: ratio(log.lat_us.len() as f64, log.window_s, 0.0),
            p50_us: quantile(&log.lat_us, 0.5),
            p99_us: quantile(&log.lat_us, 0.99),
            queries: log.lat_us.len(),
        }
    }
}

/// What the child phase contributes to the per-layer metrics.
struct ChildPhase {
    cpu_us_per_op: f64,
    ops: usize,
    /// The clients' view with the child on the load generator's CPU.
    pinned: ClientView,
    /// Ascending.
    update_us: Vec<f64>,
    late_us: Vec<f64>,
    reopen_s: f64,
    recovered_commits: u64,
}

/// Runs one workload traced and reports every per-layer metric.
pub fn run(w: &'static Workload, seed: u64, seconds: u64) -> Result<RunReport, String> {
    let scratch = Scratch::create(&format!("{}-trace", w.name))?;
    let base = scratch.path("base.img");

    // ---- set-up, once, with its parts timed -----------------------------
    let since = Instant::now();
    let built = build_image(w, &base)?;
    let (build_s, save_s) = (built.build_s, built.save_s);
    let image_bytes = std::fs::metadata(&base).map(|m| m.len()).unwrap_or(0);
    let s_image = scratch.path("s.img");
    let ImageCopy {
        db: s_db,
        data: s_data,
        wal: s_wal,
        open_s,
    } = open_copy(&base, &s_image, w.pool_pages)?;
    let r_copy = open_copy(&base, &scratch.path("r.img"), w.pool_pages)?;
    let e_copy = open_copy(&base, &scratch.path("e.img"), w.pool_pages)?;
    let two_cpu_image = scratch.path("two-cpu.img");
    std::fs::copy(&base, &two_cpu_image)
        .map_err(|e| format!("copy image for the two-CPU phase: {e}"))?;

    // ---- child phase: the timed run's window, a quarter as long ---------
    let mut live = go_live(w, seed, built, CLIENTS, since)?;
    let fingerprints = compute_fingerprints(w, &live, seed);
    crate::pins::check(w.name, seed, &fingerprints)?;
    let (_, mut problems) = oracle_check(
        w,
        &live.built.ds,
        live.built.db.document(),
        &live.warm,
        &live.warm_answers,
    );
    let mut attempted = live.warm.len() as u64;
    let mut failed = problems.len() as u64;
    // Whole seconds, so that a churn workload's update schedule and its
    // reader's window end together.
    let child_seconds = (seconds / 4).max(1);
    let mut child_updates = run_updates(w, &live.built, seed, child_seconds);
    if !w.churn {
        child_updates.truncate(w.trace_updates);
    }
    let window = Duration::from_secs(child_seconds);
    let log = measure(
        w,
        &live.built.ds,
        &live.child,
        &mut live.conns,
        &child_updates,
        seed,
        window,
    );
    attempted += log.attempted;
    failed += log.failed;
    let pinned = ClientView::of(&log);
    problems.extend(log.problems);
    let child_ops = log.answered;

    let Live {
        built,
        child: server_child,
        warm,
        ..
    } = live;
    let trace_updates = if w.churn {
        w.trace_updates * seconds as usize
    } else {
        w.trace_updates
    };
    let updates = gen_updates(w, &built.ds, built.db.document(), seed, trace_updates);
    let ops = trace_ops(w, seed, w.trace_queries_per_s * seconds as usize, &updates);
    let Built { ds, db: twin, .. } = built;
    let after = kill_and_verify(
        w,
        &ds,
        twin,
        &base,
        server_child,
        log.samples,
        &child_updates,
        seed,
    )?;
    attempted += after.compared;
    failed += after.wrong.len() as u64;
    problems.extend(after.wrong);
    let child = ChildPhase {
        cpu_us_per_op: ratio(log.child_cpu_us.unwrap_or(0) as f64, child_ops as f64, 0.0),
        ops: child_ops,
        pinned,
        update_us: log.update_us,
        late_us: log.late_us,
        reopen_s: after.reopen_s,
        recovered_commits: after.recovered_commits,
    };

    // ---- two-CPU phase: the same window, the child on every CPU ---------
    let churn_updates: &[Update] = if w.churn { &child_updates } else { &[] };
    let two_cpu = match affinity::on_every_cpu(|| serve(w, seed, &ds, &two_cpu_image, CLIENTS)) {
        Some(served) => {
            let mut served = served?;
            let log = measure(
                w,
                &ds,
                &served.child,
                &mut served.conns,
                churn_updates,
                seed,
                window,
            );
            attempted += log.attempted;
            failed += log.failed;
            let view = ClientView::of(&log);
            problems.extend(log.problems);
            view
        }
        // One CPU: the placement is the pinned one.
        None => child.pinned,
    };

    // ---- traced phase ----------------------------------------------------
    let s_bytes_before = std::fs::metadata(&s_image).map(|m| m.len()).unwrap_or(0);
    let server = Server::start(s_db, ServerConfig::default())
        .map_err(|e| format!("bind in-process server: {e}"))?;
    let r_db = Arc::new(RwLock::new(r_copy.db));
    let mut tracer = Tracer {
        w,
        ds: &ds,
        conn: Conn::connect(&server.local_addr().to_string())?,
        s_data,
        s_wal,
        committer: GroupCommitter::new(Arc::clone(&r_db), GroupCommitConfig::default()),
        r_db,
        e: e_copy,
        rec: Recorder::new(),
        counts: Vec::with_capacity(ops.len()),
        m: Measured::default(),
    };
    let mut pings = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        tracer
            .conn
            .call(Method::Ping)
            .map_err(|e| format!("ping: {e}"))?;
        pings.push(t.elapsed().as_secs_f64() * 1e6);
    }
    sort(&mut pings);
    tracer.warm_up(&warm)?;

    let stats_before = tracer.conn.stats().map_err(|e| format!("stats: {e}"))?;
    let handled_before = handled(&tracer.conn.metrics_text().map_err(|e| e.to_string())?);
    let r_cache_before = tracer.r_cache();
    for (i, op) in ops.iter().enumerate() {
        let op_id = i as u32 + 1;
        match *op {
            Op::Query(q) => tracer.query(op_id, q),
            Op::Update(u) => tracer.update(op_id, u),
        }
    }
    attempted += ops.len() as u64;
    let stats_after = tracer.conn.stats().map_err(|e| format!("stats: {e}"))?;
    let handled_after = handled(&tracer.conn.metrics_text().map_err(|e| e.to_string())?);
    let plan_compiles = tracer.r_cache().plan_compiles - r_cache_before.plan_compiles;
    let dol = (tracer.e.db)
        .dol_stats()
        .map_err(|e| format!("dol stats: {e}"))?;
    let membership_bytes = tracer.e.db.dol().codebook().membership_bytes();
    let Tracer {
        rec, counts, mut m, ..
    } = tracer;
    drop(server);
    let s_bytes_after = std::fs::metadata(&s_image).map(|m| m.len()).unwrap_or(0);
    write_trace(w.name, &rec, &counts)?;

    // ---- metrics ---------------------------------------------------------
    failed += m.failed;
    problems.append(&mut m.problems);
    for v in [
        &mut m.wire_query_us,
        &mut m.codec_us,
        &mut m.reader_us,
        &mut m.reader_hit_us,
        &mut m.compile_us,
        &mut m.execute_us,
        &mut m.column_us,
        &mut m.closure_us,
        &mut m.submit_us,
        &mut m.run_update_us,
    ] {
        sort(v);
    }
    let delta = |key: &str| {
        (stats_after.get(key).copied().unwrap_or(0) - stats_before.get(key).copied().unwrap_or(0))
            as f64
    };
    let p50 = |v: &[f64]| quantile(v, 0.5);
    let (queries, updates) = (m.queries as usize, m.updates as usize);
    let per_query = |x: u64| ratio(x as f64, queries as f64, 0.0);
    let per_update = |x: u64| ratio(x as f64, updates as f64, 0.0);
    let io = &m.exec.io;
    let latches = io.read_shared + io.read_exclusive_fallback;
    let wire_p50 = p50(&m.wire_query_us);
    let ping = p50(&pings);
    let (submit, run_update) = (p50(&m.submit_us), p50(&m.run_update_us));
    let total_ops = queries + updates;
    let syncs = m.s_data_updates.syncs + m.s_wal_updates.syncs;
    let sync_ns = m.s_data_updates.sync_ns + m.s_wal_updates.sync_ns;
    let handled_n = handled_after.1 - handled_before.1;
    let (hits, misses) = (delta("cache.result_hits"), delta("cache.result_misses"));
    let (plan_hits, plan_misses) = (delta("cache.plan_hits"), delta("cache.plan_misses"));

    // (name, value, samples behind it)
    let values: Vec<(&'static str, f64, usize)> = vec![
        ("server.ping_rtt_us", ping, pings.len()),
        (
            "server.codec_us_per_op",
            mean(&m.codec_us),
            m.codec_us.len(),
        ),
        (
            "server.request_bytes_per_op",
            ratio(m.request_bytes as f64, total_ops as f64, 0.0),
            total_ops,
        ),
        (
            "server.response_bytes_per_op",
            ratio(m.response_bytes as f64, total_ops as f64, 0.0),
            total_ops,
        ),
        (
            "server.handled_us_per_op",
            ratio(handled_after.0 - handled_before.0, handled_n, 0.0),
            handled_n as usize,
        ),
        ("server.cpu_us_per_op", child.cpu_us_per_op, child.ops),
        ("server.refused_ops", m.refused as f64, total_ops),
        (
            "server.wire_residual_us",
            wire_p50 - ping - p50(&m.codec_us) - p50(&m.reader_us),
            m.wire_query_us.len(),
        ),
        (
            "reader.result_hit_ratio",
            ratio(hits, hits + misses, 0.0),
            queries,
        ),
        (
            "reader.plan_hit_ratio",
            ratio(plan_hits, plan_hits + plan_misses, 1.0),
            queries,
        ),
        ("reader.plan_compiles", plan_compiles as f64, queries),
        ("reader.query_us", p50(&m.reader_us), m.reader_us.len()),
        (
            "reader.cached_query_us",
            p50(&m.reader_hit_us),
            m.reader_hit_us.len(),
        ),
        (
            "nok.parse_plan_compile_us",
            p50(&m.compile_us),
            m.compile_us.len(),
        ),
        ("nok.execute_us", p50(&m.execute_us), m.execute_us.len()),
        (
            "nok.candidates_per_query",
            per_query(m.exec.candidates),
            queries,
        ),
        (
            "nok.nodes_visited_per_query",
            per_query(m.exec.nodes_visited),
            queries,
        ),
        (
            "nok.join_pairs_per_query",
            per_query(m.exec.join_pairs),
            queries,
        ),
        ("nok.matches_per_query", per_query(m.matches), queries),
        (
            "nok.nodes_visited_per_match",
            ratio(m.exec.nodes_visited as f64, m.matches as f64, 0.0),
            m.matches as usize,
        ),
        (
            "core.blocks_skipped_per_query",
            per_query(m.exec.blocks_skipped),
            queries,
        ),
        (
            "core.nodes_denied_per_query",
            per_query(m.exec.nodes_denied),
            queries,
        ),
        (
            "core.column_derive_us",
            p50(&m.column_us),
            m.column_us.len(),
        ),
        ("core.codebook_entries", dol.codebook_entries as f64, 1),
        ("core.codebook_bytes", dol.codebook_bytes as f64, 1),
        ("core.transitions", dol.transitions as f64, 1),
        ("acl.closure_us", p50(&m.closure_us), m.closure_us.len()),
        ("acl.membership_bytes", membership_bytes as f64, 1),
        (
            "storage.logical_reads_per_query",
            per_query(io.logical_reads),
            queries,
        ),
        (
            "storage.physical_reads_per_query",
            per_query(io.physical_reads),
            queries,
        ),
        (
            "storage.pool_hit_ratio",
            1.0 - ratio(io.physical_reads as f64, io.logical_reads as f64, 0.0),
            io.logical_reads as usize,
        ),
        (
            "storage.evictions_per_query",
            per_query(io.evictions),
            queries,
        ),
        (
            "storage.pages_skipped_per_query",
            per_query(io.pages_skipped),
            queries,
        ),
        (
            "storage.shared_latch_ratio",
            ratio(io.read_shared as f64, latches as f64, 1.0),
            latches as usize,
        ),
        (
            "storage.versioned_reads_per_query",
            per_query(io.versioned_reads),
            queries,
        ),
        (
            "storage.disk_read_us_per_query",
            per_query(m.e_disk_queries.read_ns) / 1e3,
            queries,
        ),
        (
            "storage.pages_written_per_update",
            per_update(m.s_data_updates.writes),
            updates,
        ),
        (
            "storage.wal_bytes_per_update",
            per_update(m.s_wal_updates.writes * PAGE_SIZE as u64),
            updates,
        ),
        (
            "storage.data_bytes_written_per_update",
            per_update(m.s_data_updates.writes * PAGE_SIZE as u64),
            updates,
        ),
        ("storage.fsyncs_per_update", per_update(syncs), updates),
        (
            "storage.fsync_us_per_update",
            per_update(sync_ns) / 1e3,
            updates,
        ),
        (
            "commit.members_per_batch",
            ratio(delta("commit.committed"), delta("commit.batches"), 0.0),
            delta("commit.batches") as usize,
        ),
        ("commit.overloads", delta("commit.overloads"), 1),
        ("commit.solo_fallbacks", delta("commit.solo_fallbacks"), 1),
        ("commit.submit_us", submit, m.submit_us.len()),
        ("commit.run_update_us", run_update, m.run_update_us.len()),
        (
            "commit.queue_wait_us",
            submit - run_update,
            m.submit_us.len(),
        ),
        ("persist.build_s", build_s, 1),
        ("persist.save_s", save_s, 1),
        ("persist.open_s", open_s, 1),
        ("persist.image_bytes", image_bytes as f64, 1),
        (
            "persist.image_growth_bytes_per_update",
            per_update(s_bytes_after.saturating_sub(s_bytes_before)),
            updates,
        ),
        ("persist.reopen_after_kill_ms", child.reopen_s * 1e3, 1),
        (
            "persist.recovered_commits",
            child.recovered_commits as f64,
            1,
        ),
        (
            "client.update_p95_us",
            quantile(&child.update_us, 0.95),
            child.update_us.len(),
        ),
        ("client.two_cpu_qps", two_cpu.qps, two_cpu.queries),
        ("client.two_cpu_p50_us", two_cpu.p50_us, two_cpu.queries),
        ("client.two_cpu_p99_us", two_cpu.p99_us, two_cpu.queries),
        (
            "loadgen.update_late_p95_us",
            quantile(&child.late_us, 0.95),
            child.late_us.len(),
        ),
        ("trace.wire_p50_us", wire_p50, m.wire_query_us.len()),
        (
            "trace.overhead_ratio",
            ratio(wire_p50, child.pinned.p50_us, 0.0),
            m.wire_query_us.len(),
        ),
    ];
    let metrics = declared(PER_LAYER.iter().map(|m| (m.name, m.unit)), &values);

    let report = RunReport {
        workload: w.name,
        seed,
        traced: true,
        metrics,
        attempted,
        failed,
        problems,
        fingerprints,
    };
    Ok(assert_validity(w, report))
}

/// The workload must be the workload its `why` describes: the run itself
/// checks the cache and pool regimes it was designed around.
fn assert_validity(w: &Workload, mut report: RunReport) -> RunReport {
    let v = |name: &str| report.value(name).unwrap_or(f64::NAN);
    let result_hits = v("reader.result_hit_ratio");
    let pool_hits = v("storage.pool_hit_ratio");
    let skipped = v("core.blocks_skipped_per_query");
    let mut broken = Vec::new();
    match w.name {
        "wire_hot" => {
            if result_hits < 0.98 {
                broken.push(format!(
                    "result-cache hit ratio {result_hits} is below 0.98"
                ));
            }
            if pool_hits < 0.99 {
                broken.push(format!("pool hit ratio {pool_hits} is below 0.99"));
            }
        }
        "scan_cold" => {
            if result_hits > 0.2 {
                broken.push(format!("result-cache hit ratio {result_hits} is above 0.2"));
            }
            if pool_hits > 0.6 {
                broken.push(format!("pool hit ratio {pool_hits} is above 0.6"));
            }
            if skipped >= PORTAL_SKIP_FLOOR / 100.0 {
                broken.push(format!(
                    "{skipped} blocks skipped per query: skipping is not idle"
                ));
            }
        }
        "portal_skip" => {
            if result_hits > 0.2 {
                broken.push(format!("result-cache hit ratio {result_hits} is above 0.2"));
            }
            if pool_hits < 0.99 {
                broken.push(format!("pool hit ratio {pool_hits} is below 0.99"));
            }
            if skipped < PORTAL_SKIP_FLOOR {
                broken.push(format!("only {skipped} blocks skipped per query"));
            }
        }
        _ => {}
    }
    report
        .problems
        .extend(broken.into_iter().map(|b| format!("workload invalid: {b}")));
    report
}

/// Writes `perf/out/trace-<workload>.jsonl`: one line per span, then one
/// line of counters per op.
fn write_trace(workload: &str, rec: &Recorder, counts: &[OpCounts]) -> Result<(), String> {
    let path = Path::new(crate::OUT_DIR).join(format!("trace-{workload}.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(crate::OUT_DIR)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in &rec.spans {
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.id,
                if s.parent == OFF_PATH { -1 } else { i64::from(s.parent) },
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        for (i, c) in counts.iter().enumerate() {
            writeln!(
                out,
                "{{\"op\":{},\"matches\":{},\"logical_reads\":{},\"physical_reads\":{},\"blocks_skipped\":{},\"pages_written\":{}}}",
                i + 1,
                c.matches,
                c.logical_reads,
                c.physical_reads,
                c.blocks_skipped,
                c.pages_written
            )?;
        }
        out.flush()
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}
