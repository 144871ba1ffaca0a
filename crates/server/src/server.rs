//! The wire front door: a TCP server speaking the framed JSON protocol.
//!
//! ## Architecture
//!
//! One **accept thread** polls a non-blocking listener so it can also watch
//! the drain flag. Each connection gets a **reader thread** (frame decode,
//! admission control, deadline stamping) and a **worker thread** (method
//! execution, response writing) joined by a channel — so the reader keeps
//! consuming the socket while a request executes, which is what lets a
//! client disconnect *cancel* its in-flight requests: the reader sees the
//! EOF and fires every [`CancelToken`] it registered.
//!
//! The reader thread answers by itself what cannot block — a `ping`, or a
//! `query` the secure result cache already holds — when the connection is
//! idle: nothing of it in flight on the worker (so responses keep request
//! order) and no further request already buffered (a pipelining client keeps
//! the reader free to admit, refuse and cancel). Such an answer passes the
//! same gates as any other (drain check, admission slot, deadline) and does
//! no cancellable work, so there is nothing for a disconnect to cancel and
//! nothing for a drain to wait on. Everything else crosses to the worker.
//!
//! Every reply is assembled as one whole frame — header reserved, payload
//! written in place, length and CRC patched — and leaves in one write; a
//! reply whose frame would exceed the cap clients enforce is replaced by a
//! typed `response_too_large` refusal. The socket's read half goes through
//! a buffered reader, so a request frame, or a pipelined burst, costs one
//! `read`.
//!
//! ## Robustness properties
//!
//! * **Admission control**: a server-wide in-flight cap; a request that
//!   finds the window full is refused with `overloaded` before any work
//!   happens. The slot is held by an RAII guard, so every exit path —
//!   success, typed error, cancelled client, worker exit — releases it.
//! * **Fail closed**: a refused or failed request is answered with a typed
//!   error and nothing else; partial answers never reach the wire (the
//!   engine already guarantees this in-process; the server maps each
//!   [`DbError`] to its wire code and attaches no result).
//! * **Deadlines**: `deadline_ms` starts at decode time, so queue wait
//!   counts against the budget. A request whose deadline expired before
//!   dispatch is refused with `deadline_exceeded` — even when a warm cache
//!   could have answered it — keeping wire availability accounting aligned
//!   with the in-process benchmarks' bounded-refusal column.
//! * **Degraded serving**: a poisoned database keeps answering queries
//!   (pre-transaction mirror snapshots) while updates are refused with
//!   `poisoned`; the `recover` admin method heals in place.
//! * **Graceful drain**: `shutdown` (or [`Server::drain`]) stops the
//!   accept loop, half-closes every connection's read side, lets in-flight
//!   requests finish (or deadline out), flushes and closes the group
//!   committer, and checkpoints the database before [`Server::wait`]
//!   returns.

use crate::frame;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::proto::{self, DecodeError, ErrorCode, Method, Request, UpdateOp, WireSemantics};
use dol_acl::SubjectId;
use secure_xml::{
    DbError, Deadline, ExecOptions, GroupCommitConfig, GroupCommitter, SecureXmlDb, Security,
    ServerStats,
};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port; read it back
    /// with [`Server::local_addr`]).
    pub addr: String,
    /// Per-frame payload cap (see [`frame::DEFAULT_MAX_FRAME`]).
    pub max_frame: usize,
    /// Server-wide in-flight request cap (admission control): requests over
    /// it are refused with `overloaded`.
    pub max_inflight: usize,
    /// Socket read timeout: a connection idle past it is closed.
    pub idle_timeout: Duration,
    /// Query latency (µs) at or above which the slow-query counter bumps.
    pub slow_query_us: u64,
    /// Retry budget for the snapshot-refresh loop under each `query`
    /// request.
    pub query_retries: u32,
    /// Group-committer tuning for the `update` path.
    pub commit: GroupCommitConfig,
    /// Enables testing-only operations (`fail_after_dirty`): off in
    /// production, on in the chaos harness.
    pub testing: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_frame: frame::DEFAULT_MAX_FRAME,
            max_inflight: 64,
            idle_timeout: Duration::from_secs(30),
            slow_query_us: 50_000,
            query_retries: 3,
            commit: GroupCommitConfig::default(),
            testing: false,
        }
    }
}

/// Counting semaphore for admission control; slots release by RAII.
struct Admission {
    cap: usize,
    used: AtomicUsize,
}

impl Admission {
    fn try_acquire(self: &Arc<Self>) -> Option<AdmissionSlot> {
        let mut cur = self.used.load(Ordering::Acquire);
        loop {
            if cur >= self.cap {
                return None;
            }
            match self
                .used
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    return Some(AdmissionSlot {
                        adm: Arc::clone(self),
                    })
                }
                Err(now) => cur = now,
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.used.load(Ordering::Acquire)
    }
}

/// An occupied admission slot; dropping it (any exit path) frees the slot.
struct AdmissionSlot {
    adm: Arc<Admission>,
}

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.adm.used.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Poison-tolerant lock helpers: a panicked writer must not wedge the
/// server (the database has its own poison latch for logical corruption).
fn rlock(db: &RwLock<SecureXmlDb>) -> RwLockReadGuard<'_, SecureXmlDb> {
    db.read().unwrap_or_else(|e| e.into_inner())
}

fn wlock(db: &RwLock<SecureXmlDb>) -> RwLockWriteGuard<'_, SecureXmlDb> {
    db.write().unwrap_or_else(|e| e.into_inner())
}

fn mlock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    db: Arc<RwLock<SecureXmlDb>>,
    /// `Some` while serving; taken (and thereby flushed + joined) by the
    /// drain choreography.
    committer: Mutex<Option<Arc<GroupCommitter>>>,
    cfg: ServerConfig,
    draining: AtomicBool,
    admission: Arc<Admission>,
    metrics: Metrics,
    active_conns: AtomicUsize,
    /// Read-half handles of live connections, for the drain's half-close.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
}

impl Shared {
    fn wire_error(&self, e: &DbError) -> (ErrorCode, String) {
        (proto::wire_code(e), format!("{e}"))
    }

    fn server_stats(&self) -> ServerStats {
        let commit = mlock(&self.committer).as_ref().map(|c| c.stats());
        let db = rlock(&self.db);
        ServerStats::snapshot(&db, commit)
    }
}

/// One unit of admitted work travelling from reader to worker.
struct Job {
    req: Request,
    /// Position in the connection's request stream: the key of its cancel
    /// token. (`req.id` is the client's to choose, and to repeat.)
    seq: u64,
    deadline: Deadline,
    started: Instant,
    _slot: AdmissionSlot,
}

/// Cancel tokens of the requests a connection has handed to its worker and
/// not yet answered, by [`Job::seq`]. Empty means the connection has nothing
/// in flight.
type InFlight = Arc<Mutex<HashMap<u64, secure_xml::CancelToken>>>;

/// What a successfully executed request answers with.
enum Reply {
    /// A query's answer: encoded from the positions, never through a tree.
    Matches { epoch: u64, matches: Vec<u64> },
    /// One of the small admin results.
    Admin(Json),
}

/// Assembles each reply as one whole frame in a buffer it reuses, and sends
/// it to the connection's shared write half in a single write. The reader
/// thread and the worker thread of a connection own one each.
pub(crate) struct ReplyWriter<W> {
    frame: Vec<u8>,
    sock: Arc<Mutex<W>>,
    max_frame: usize,
}

impl<W: Write> ReplyWriter<W> {
    pub(crate) fn new(sock: Arc<Mutex<W>>, max_frame: usize) -> Self {
        Self {
            frame: Vec::new(),
            sock,
            max_frame,
        }
    }

    /// Builds the frame answering request `id`, its payload appended by
    /// `body`. A payload over the frame cap would be dropped, with the
    /// connection, by the client's decoder: it is replaced by a typed
    /// refusal, and `Err` tells the caller which to count.
    pub(crate) fn assemble(
        &mut self,
        id: u64,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ErrorCode> {
        frame::begin_frame(&mut self.frame);
        body(&mut self.frame);
        let len = self.frame.len() - frame::HEADER_SIZE;
        let outcome = if len > self.max_frame {
            // Start over in a fresh buffer: the oversized one is not worth
            // keeping for the life of the connection.
            self.frame = Vec::new();
            frame::begin_frame(&mut self.frame);
            let message = format!(
                "response of {len} bytes exceeds the {}-byte frame cap",
                self.max_frame
            );
            proto::write_err(&mut self.frame, id, ErrorCode::ResponseTooLarge, &message);
            Err(ErrorCode::ResponseTooLarge)
        } else {
            Ok(())
        };
        frame::seal_frame(&mut self.frame);
        outcome
    }

    fn assemble_err(&mut self, id: u64, code: ErrorCode, message: &str) {
        // A refusal is a few dozen bytes; it cannot itself be too large.
        let _ = self.assemble(id, |out| proto::write_err(out, id, code, message));
    }

    /// Sends the assembled frame: one write.
    pub(crate) fn send(&mut self) -> bool {
        mlock(&self.sock).write_all(&self.frame).is_ok()
    }

    /// Counts and sends a refusal decided on the reader thread, before the
    /// request reached a method.
    fn refuse(&mut self, metrics: &Metrics, id: u64, code: ErrorCode, message: &str) {
        metrics.record_refusal(code);
        self.assemble_err(id, code, message);
        self.send();
    }
}

/// A running wire server. Dropping it drains and waits.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, wraps `db` behind a group committer, and starts
    /// serving. Returns once the listener is live.
    pub fn start(db: SecureXmlDb, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let db = Arc::new(RwLock::new(db));
        let committer = Arc::new(GroupCommitter::new(Arc::clone(&db), cfg.commit));
        let shared = Arc::new(Shared {
            db,
            committer: Mutex::new(Some(committer)),
            admission: Arc::new(Admission {
                cap: cfg.max_inflight.max(1),
                used: AtomicUsize::new(0),
            }),
            metrics: Metrics::new(cfg.slow_query_us),
            cfg,
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(shared, listener))
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (the ephemeral port when `addr` ended in `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals a graceful drain (same effect as the `shutdown` method).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been signalled.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests currently admitted (for tests and monitoring).
    pub fn in_flight(&self) -> usize {
        self.shared.admission.in_flight()
    }

    /// The server's metric registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Blocks until a drain (wire `shutdown` or [`drain`](Self::drain))
    /// completes: in-flight requests finished, committer flushed and
    /// closed, database checkpointed.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics.connection_opened();
                let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    mlock(&shared.conns).insert(id, clone);
                }
                shared.active_conns.fetch_add(1, Ordering::AcqRel);
                let shared = Arc::clone(&shared);
                thread::spawn(move || handle_conn(shared, stream, id));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    // Drain choreography. 1: stop accepting.
    drop(listener);
    // 2: half-close every connection's read side — readers see a clean EOF
    // at the next frame boundary and stop feeding their workers; responses
    // already in flight still go out on the intact write side.
    for (_, s) in mlock(&shared.conns).iter() {
        let _ = s.shutdown(Shutdown::Read);
    }
    // 3: wait for every connection (reader + worker) to finish.
    while shared.active_conns.load(Ordering::Acquire) > 0 {
        thread::sleep(Duration::from_millis(2));
    }
    // 4: flush and close the committer (its Drop drains the queue, joins
    // the commit worker, and delivers every pending durability receipt).
    let committer = mlock(&shared.committer).take();
    drop(committer);
    // 5: checkpoint so a subsequent open replays nothing (best-effort: an
    // in-memory or poisoned database has nothing to checkpoint).
    let _ = rlock(&shared.db).checkpoint();
}

fn handle_conn(shared: Arc<Shared>, mut stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.idle_timeout));
    serve_conn(&shared, &mut stream);
    mlock(&shared.conns).remove(&conn_id);
    shared.metrics.connection_closed();
    shared.active_conns.fetch_sub(1, Ordering::AcqRel);
}

fn serve_conn(shared: &Arc<Shared>, stream: &mut TcpStream) {
    // One `read` fills the buffer with whatever has arrived — a request
    // frame, or a pipelined burst of them — and the decoder below is served
    // from it.
    let mut rd = BufReader::new(&*stream);
    // Protocol sniff: the first four bytes distinguish an HTTP scrape
    // (`GET `) from a frame header. They are spliced back into the frame
    // decoder otherwise, so no byte is lost.
    let mut sniff = [0u8; 4];
    let mut got = 0;
    while got < sniff.len() {
        match rd.read(&mut sniff[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if got > 0 {
                    shared.metrics.frame_rejected();
                }
                return;
            }
        }
    }
    if got < sniff.len() {
        if got > 0 {
            shared.metrics.frame_rejected(); // torn inside the first header
        }
        return; // clean close before any byte
    }
    if &sniff == b"GET " {
        serve_http_metrics(shared, &mut rd);
        return;
    }

    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let inflight: InFlight = Arc::new(Mutex::new(HashMap::new()));
    let (tx, rx) = mpsc::channel::<Job>();
    let worker = {
        let shared = Arc::clone(shared);
        let out = ReplyWriter::new(Arc::clone(&writer), shared.cfg.max_frame);
        let inflight = Arc::clone(&inflight);
        thread::spawn(move || worker_loop(shared, out, inflight, rx))
    };
    let mut out = ReplyWriter::new(writer, shared.cfg.max_frame);

    let mut next_seq = 0u64;
    loop {
        let preread: &[u8] = if next_seq == 0 { &sniff } else { &[] };
        let payload = match frame::read_frame(&mut rd, preread, shared.cfg.max_frame) {
            Ok(Some(p)) => p,
            Ok(None) => break, // clean close on a frame boundary
            Err(_) => {
                shared.metrics.frame_rejected();
                break;
            }
        };
        let seq = next_seq;
        next_seq += 1;
        match proto::decode_request(&payload) {
            Err(DecodeError::Malformed) => {
                // The stream cannot be trusted past an undecodable record.
                shared.metrics.frame_rejected();
                break;
            }
            Err(DecodeError::Invalid { id, reason }) => {
                out.refuse(&shared.metrics, id, ErrorCode::InvalidRequest, &reason);
            }
            Ok(req) => {
                if shared.draining.load(Ordering::SeqCst)
                    && !matches!(req.method, Method::Shutdown | Method::Ping)
                {
                    out.refuse(
                        &shared.metrics,
                        req.id,
                        ErrorCode::Draining,
                        "server is draining; no new requests admitted",
                    );
                    continue;
                }
                let Some(slot) = shared.admission.try_acquire() else {
                    out.refuse(
                        &shared.metrics,
                        req.id,
                        ErrorCode::Overloaded,
                        "server at its in-flight request cap",
                    );
                    continue;
                };
                // The budget starts now: queue wait counts against it.
                let deadline = match req.deadline_ms {
                    Some(ms) => Deadline::after(Duration::from_millis(ms)),
                    None => Deadline::never(),
                };
                let started = Instant::now();
                let idle = rd.buffer().is_empty() && mlock(&inflight).is_empty();
                if idle && answer_inline(shared, &req, &deadline, started, &mut out) {
                    continue; // answered; `slot` is released here
                }
                mlock(&inflight).insert(seq, deadline.token());
                let job = Job {
                    req,
                    seq,
                    deadline,
                    started,
                    _slot: slot,
                };
                if tx.send(job).is_err() {
                    break; // worker gone (should not happen before close)
                }
            }
        }
    }
    // Reader exit. A *client*-initiated close cancels whatever is still in
    // flight (the answer has no recipient; holding the admission slot for
    // it only hurts other clients). A *drain*-initiated half-close does
    // not: those requests must finish and be answered.
    if !shared.draining.load(Ordering::SeqCst) {
        let cancelled: Vec<_> = mlock(&inflight).drain().collect();
        for (_, token) in cancelled {
            token.cancel();
            shared.metrics.disconnect_cancelled();
        }
    }
    drop(tx);
    let _ = worker.join();
    let _ = stream.shutdown(Shutdown::Both);
}

fn security_of(semantics: WireSemantics, subject: u32) -> Security {
    match semantics {
        WireSemantics::None => Security::None,
        WireSemantics::Binding => Security::BindingLevel(SubjectId(subject)),
        WireSemantics::Subtree => Security::SubtreeVisibility(SubjectId(subject)),
    }
}

fn pong() -> Json {
    Json::obj(vec![("pong", Json::Bool(true))])
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// The reader thread's own answers: a `ping`, or a `query` the secure
/// result cache holds for a fresh snapshot. Neither can block on the engine,
/// the disk or the committer, so neither needs a cancel token or a worker.
/// A query hit is the cached `"matches":[…]` bytes with the id and the epoch
/// written around them; the position list itself is never touched. Returns
/// `false`, having counted nothing, for what the worker must do.
fn answer_inline<W: Write>(
    shared: &Shared,
    req: &Request,
    deadline: &Deadline,
    started: Instant,
    out: &mut ReplyWriter<W>,
) -> bool {
    let id = req.id;
    // As on the worker, the latency recorded is the time to an answer; its
    // encoding and its write are the wire's.
    let (latency_us, outcome) = match &req.method {
        Method::Ping => (
            elapsed_us(started),
            out.assemble(id, |frame| proto::write_ok(frame, id, &pong())),
        ),
        // An expired budget is refused by the worker's dispatch gate, like
        // every other: a warm cache does not get to answer it.
        Method::Query {
            query,
            subject,
            semantics,
        } if !deadline.is_expired() => {
            let reader = rlock(&shared.db).reader();
            let hit = reader.cached_encoded(query, security_of(*semantics, *subject), |matches| {
                let mut member = Vec::new();
                proto::write_matches_member(&mut member, matches);
                member.into()
            });
            let Some(member) = hit else {
                return false;
            };
            (
                elapsed_us(started),
                out.assemble(id, |frame| {
                    proto::write_query_ok_spliced(frame, id, reader.epoch(), &member)
                }),
            )
        }
        _ => return false,
    };
    shared
        .metrics
        .record(req.method.name(), latency_us, outcome);
    out.send();
    true
}

fn worker_loop(
    shared: Arc<Shared>,
    mut out: ReplyWriter<TcpStream>,
    inflight: InFlight,
    rx: mpsc::Receiver<Job>,
) {
    while let Ok(job) = rx.recv() {
        let id = job.req.id;
        let executed = execute(&shared, &job);
        let latency_us = elapsed_us(job.started);
        let outcome = match executed {
            Ok(Reply::Matches { epoch, matches }) => out.assemble(id, |frame| {
                proto::write_query_ok(frame, id, epoch, &matches)
            }),
            Ok(Reply::Admin(result)) => {
                out.assemble(id, |frame| proto::write_ok(frame, id, &result))
            }
            Err((code, message)) => {
                out.assemble_err(id, code, &message);
                Err(code)
            }
        };
        shared
            .metrics
            .record(job.req.method.name(), latency_us, outcome);
        out.send();
        // Un-registered only once the response is on the wire: an empty
        // registry is the reader's licence to answer the next request
        // itself, and that answer must not overtake this one.
        mlock(&inflight).remove(&job.seq);
        if outcome.is_ok() && matches!(job.req.method, Method::Shutdown) {
            shared.draining.store(true, Ordering::SeqCst);
        }
    }
}

fn execute(shared: &Arc<Shared>, job: &Job) -> Result<Reply, (ErrorCode, String)> {
    let deadline = &job.deadline;
    // Uniform dispatch gate: a budget spent in the queue (or cancelled by a
    // vanished client) is a bounded refusal *before* any work — even work a
    // warm cache would make free — so the wire's availability accounting
    // matches the in-process bounded-refusal column.
    let expired = || {
        (
            ErrorCode::DeadlineExceeded,
            "deadline expired before dispatch".to_string(),
        )
    };
    let admin = match &job.req.method {
        Method::Ping => Ok(pong()),
        Method::Query {
            query,
            subject,
            semantics,
        } => {
            if deadline.is_expired() {
                return Err(expired());
            }
            let security = security_of(*semantics, *subject);
            let mut reader = rlock(&shared.db).reader();
            let opts = ExecOptions {
                deadline: deadline.clone(),
                ..ExecOptions::default()
            };
            let db = Arc::clone(&shared.db);
            let res = reader.query_with_retry_opts(
                query,
                security,
                opts,
                shared.cfg.query_retries,
                move || rlock(&db).reader(),
            );
            return match res {
                Ok(r) => Ok(Reply::Matches {
                    epoch: reader.epoch(),
                    matches: r.matches,
                }),
                Err(e) => Err(shared.wire_error(&e)),
            };
        }
        Method::Update(op) => {
            if deadline.is_expired() {
                return Err(expired());
            }
            match op {
                UpdateOp::FailAfterDirty { pos } => {
                    if !shared.cfg.testing {
                        return Err((
                            ErrorCode::Forbidden,
                            "fail_after_dirty requires a server started with testing enabled"
                                .into(),
                        ));
                    }
                    let pos = *pos;
                    let mut db = wlock(&shared.db);
                    match db.run_update(|_| {
                        Err(DbError::Integrity(format!(
                            "injected fault before committing page of node {pos}"
                        )))
                    }) {
                        // The injection "succeeding" means the transaction
                        // failed and the handle is now poisoned.
                        Err(DbError::Integrity(_)) => {
                            Ok(Json::obj(vec![("poisoned", Json::Bool(db.is_poisoned()))]))
                        }
                        Err(e) => Err(shared.wire_error(&e)),
                        Ok(()) => Ok(Json::obj(vec![("poisoned", Json::Bool(false))])),
                    }
                }
                UpdateOp::SetNodeAccess { .. } | UpdateOp::SetSubtreeAccess { .. } => {
                    let committer = match mlock(&shared.committer).as_ref() {
                        Some(c) => Arc::clone(c),
                        None => {
                            return Err((
                                ErrorCode::Draining,
                                "committer already closed by drain".into(),
                            ))
                        }
                    };
                    let op = op.clone();
                    let res = committer.submit_fn(move |db| match op {
                        UpdateOp::SetNodeAccess {
                            pos,
                            subject,
                            allow,
                        } => db.set_node_access(pos, SubjectId(subject), allow),
                        UpdateOp::SetSubtreeAccess {
                            pos,
                            subject,
                            allow,
                        } => db.set_subtree_access(pos, SubjectId(subject), allow),
                        UpdateOp::FailAfterDirty { .. } => unreachable!("handled above"),
                    });
                    match res {
                        Ok(()) => Ok(Json::obj(vec![("committed", Json::Bool(true))])),
                        Err(e) => Err(shared.wire_error(&e)),
                    }
                }
            }
        }
        Method::RegisterSubject { copy_from, groups } => {
            if deadline.is_expired() {
                return Err(expired());
            }
            let mut db = wlock(&shared.db);
            let res = if groups.is_empty() {
                db.add_subject(copy_from.map(SubjectId))
            } else {
                let parents: Vec<SubjectId> = groups.iter().map(|&g| SubjectId(g)).collect();
                db.add_grouped_subject(&parents)
            };
            match res {
                Ok(sid) => Ok(Json::obj(vec![("subject", Json::Int(i64::from(sid.0)))])),
                Err(e) => Err(shared.wire_error(&e)),
            }
        }
        Method::SetMembership {
            subject,
            group,
            member,
        } => {
            if deadline.is_expired() {
                return Err(expired());
            }
            let mut db = wlock(&shared.db);
            match db.set_group_membership(SubjectId(*subject), SubjectId(*group), *member) {
                Ok(changed) => Ok(Json::obj(vec![("changed", Json::Bool(changed))])),
                Err(e) => Err(shared.wire_error(&e)),
            }
        }
        Method::Stats => Ok(stats_json(&shared.server_stats())),
        Method::Metrics => {
            let text = shared.metrics.render(&shared.server_stats());
            Ok(Json::obj(vec![("text", Json::Str(text))]))
        }
        Method::Recover => {
            let mut db = wlock(&shared.db);
            match db.recover() {
                Ok(report) => Ok(Json::obj(vec![
                    ("recovered", Json::Bool(report.is_some())),
                    ("poisoned", Json::Bool(db.is_poisoned())),
                ])),
                Err(e) => Err(shared.wire_error(&e)),
            }
        }
        Method::Shutdown => Ok(Json::obj(vec![("draining", Json::Bool(true))])),
    };
    admin.map(Reply::Admin)
}

/// Renders the aggregate snapshot as the `stats` method's JSON body.
fn stats_json(s: &ServerStats) -> Json {
    let int = |v: u64| Json::Int(v.min(i64::MAX as u64) as i64);
    Json::obj(vec![
        (
            "io",
            Json::obj(vec![
                ("logical_reads", int(s.io.logical_reads)),
                ("physical_reads", int(s.io.physical_reads)),
                ("physical_writes", int(s.io.physical_writes)),
                ("pages_skipped", int(s.io.pages_skipped)),
                ("backoffs", int(s.io.backoffs)),
                ("breaker_trips", int(s.io.breaker_trips)),
                ("breaker_fast_fails", int(s.io.breaker_fast_fails)),
                ("breaker_probes", int(s.io.breaker_probes)),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("plan_hits", int(s.cache.plan_hits)),
                ("plan_misses", int(s.cache.plan_misses)),
                ("result_hits", int(s.cache.result_hits)),
                ("result_misses", int(s.cache.result_misses)),
                ("deadline_aborts", int(s.cache.deadline_aborts)),
            ]),
        ),
        (
            "commit",
            Json::obj(vec![
                ("submitted", int(s.commit.submitted)),
                ("committed", int(s.commit.committed)),
                ("rejected", int(s.commit.rejected)),
                ("batches", int(s.commit.batches)),
                ("overloads", int(s.commit.overloads)),
                ("max_batch_seen", int(s.commit.max_batch_seen)),
            ]),
        ),
        ("epoch", int(s.epoch)),
        ("nodes", int(s.nodes)),
        ("poisoned", Json::Bool(s.poisoned)),
        ("breaker_open", Json::Bool(s.breaker_open)),
    ])
}

/// Answers an HTTP `GET` (any path) with the Prometheus text and closes.
fn serve_http_metrics(shared: &Arc<Shared>, rd: &mut BufReader<&TcpStream>) {
    // Consume the rest of the request head, bounded: stop at the blank
    // line, 4 KiB, or the read timeout — whichever first.
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 256];
    while head.len() < 4096 && !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match rd.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let body = shared.metrics.render(&shared.server_stats());
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let mut stream = *rd.get_ref();
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.flush();
}
