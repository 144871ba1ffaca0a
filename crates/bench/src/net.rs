//! `net` — the wire front door gate: a loopback multi-process harness for
//! `dol-server` (not a paper artifact).
//!
//! The parent process builds an XMark document with a synthetic multi-subject
//! ACL, persists it to a scratch image, and computes every answer of the
//! Table-1 × subject × semantics suite **in memory** — the oracle depends only
//! on the document and the ACL, never on which process serves it. It then
//! re-execs itself (`std::env::current_exe()`) into one **server process**
//! (hidden `__net-server` mode, opening the image through write-ahead-log
//! recovery) and N **client processes** (hidden `__net-client` mode) that
//! speak only the framed wire protocol, and drives five phases:
//!
//! * **A — byte identity**: N client processes replay seeded query mixes;
//!   every answer line must be byte-identical to the parent's oracle. The
//!   parent then sends the suite twice by hand and compares each reply
//!   *payload* with the tree encoding of the oracle's answer — the first
//!   pass answered partly by the engine, the second wholly from the result
//!   cache's pre-encoded bytes — counting frames, payload bytes and writes.
//! * **B — updates, connection kills, crash/restart**: ACL updates land over
//!   the wire (acknowledged = durable through the group committer) and the
//!   parent's in-memory mirror recomputes the oracle per prefix; clients that
//!   abort mid-pipeline and a SIGKILL of the server mid-stream must yield
//!   zero wrong answers, and the restarted server (same image, log replayed)
//!   must answer the full suite exactly.
//! * **C — overload**: pipelined floods against a 2-slot admission window
//!   must draw typed `overloaded` refusals, and every answered query must
//!   still match the oracle — refusal is total, never a partial answer.
//! * **D — poison window**: an injected mid-transaction fault poisons the
//!   database; queries keep serving the pre-fault oracle (degraded mirrors),
//!   updates refuse with typed `poisoned`, and the wire `recover` method
//!   heals in place.
//! * **E — drain**: a wire `shutdown` drains the server (exit 0, committer
//!   flushed, image checkpointed); the parent reopens the image and re-runs
//!   the suite exactly.
//!
//! Every gate — zero wrong answers, typed-only refusals, clean drain and
//! reopen — is asserted in every mode; `--smoke` only shrinks sizes. The
//! counters go to `BENCH_net.json`.

use crate::setup::{xmark_doc, TABLE1};
use crate::table::Table;
use crate::Effort;
use dol_acl::SubjectId;
use dol_nok::Security;
use dol_server::{
    frame, proto, Client, ClientError, ErrorCode, Json, Method, Request, Server, ServerConfig,
    UpdateOp, WireSemantics,
};
use dol_workloads::{synth_multi, SynthAclConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_xml::SecureXmlDb;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Subjects in the synthetic ACL (wire queries pick one uniformly).
const SUBJECTS: usize = 3;
/// Client processes in the byte-identity phase.
const CLIENTS: usize = 3;

/// Oracle key: (Table-1 query index, subject, subtree-visibility?).
type OpKey = (usize, u32, bool);
type Oracle = HashMap<OpKey, Vec<u64>>;

fn security_of(key: OpKey) -> Security {
    let s = SubjectId(key.1);
    if key.2 {
        Security::SubtreeVisibility(s)
    } else {
        Security::BindingLevel(s)
    }
}

fn draw_op(rng: &mut StdRng) -> OpKey {
    (
        rng.gen_range(0..TABLE1.len()),
        rng.gen_range(0..SUBJECTS as u32),
        rng.gen_bool(0.25),
    )
}

/// One answer (or refusal) as the line a client writes and the parent
/// checks: `"qi,subject,vis:p1 p2 p3"` — the byte-identity unit.
fn render_line(key: OpKey, outcome: &str) -> String {
    format!("{},{},{}:{}\n", key.0, key.1, u8::from(key.2), outcome)
}

fn render_matches(matches: &[u64]) -> String {
    matches
        .iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_key(line: &str) -> Option<(OpKey, &str)> {
    let (key, rest) = line.split_once(':')?;
    let mut parts = key.split(',');
    let qi: usize = parts.next()?.parse().ok()?;
    let subject: u32 = parts.next()?.parse().ok()?;
    let vis: u8 = parts.next()?.parse().ok()?;
    Some(((qi, subject, vis == 1), rest))
}

/// The full Table-1 × subject × semantics suite, answered in-process.
fn oracle_of(db: &SecureXmlDb) -> Oracle {
    let mut oracle = HashMap::new();
    for (qi, (_, query)) in TABLE1.iter().enumerate() {
        for subject in 0..SUBJECTS as u32 {
            for vis in [false, true] {
                let key = (qi, subject, vis);
                let r = db.query(query, security_of(key)).expect("oracle query");
                oracle.insert(key, r.matches);
            }
        }
    }
    oracle
}

// ---------------------------------------------------------------- children

/// Hidden `__net-server` mode: open the image (replaying its log) and serve
/// until a wire `shutdown` drains. Args: `image max_inflight testing`.
pub fn server_child(args: &[String]) {
    let usage = "__net-server <image> <max_inflight> <testing 0|1>";
    let image = args.first().unwrap_or_else(|| panic!("{usage}"));
    let max_inflight: usize = args[1].parse().unwrap_or_else(|_| panic!("{usage}"));
    let testing = args[2] == "1";
    let db = SecureXmlDb::open_from(Path::new(image)).expect("open image");
    let cfg = ServerConfig {
        max_inflight,
        testing,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = Server::start(db, cfg).expect("bind loopback");
    // The parent parses this line to discover the ephemeral port.
    println!("listening on {}", server.local_addr());
    server.wait();
    println!("drained");
}

/// Hidden `__net-client` mode: speak the framed protocol only. Args:
/// `addr out_path seed ops die_after`.
///
/// * `die_after > 0`: write that many pipelined query frames and abort
///   without ever reading a response (the connection-kill injection).
/// * `ops == 0`: enumerate the full suite once, in deterministic order.
/// * otherwise: replay `ops` seeded random queries.
///
/// Every outcome becomes one line in `out_path`: the answer positions, a
/// typed refusal (`!code`), or `!conn` when the server vanished mid-stream
/// (after which the client stops and exits cleanly — a dead server is an
/// expected chaos outcome, never a wrong answer).
pub fn client_child(args: &[String]) {
    let usage = "__net-client <addr> <out_path> <seed> <ops> <die_after>";
    let addr = args.first().unwrap_or_else(|| panic!("{usage}"));
    let out_path = &args[1];
    let seed: u64 = args[2].parse().unwrap_or_else(|_| panic!("{usage}"));
    let ops: usize = args[3].parse().unwrap_or_else(|_| panic!("{usage}"));
    let die_after: usize = args[4].parse().unwrap_or_else(|_| panic!("{usage}"));

    if die_after > 0 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..die_after {
            let key = draw_op(&mut rng);
            let req = Request {
                id: (i + 1) as u64,
                method: query_method(key),
                deadline_ms: None,
            };
            let _ = frame::write_frame(&mut stream, &proto::encode_request(&req));
        }
        // Die without closing politely: the server's reader must see the
        // EOF, cancel whatever is still in flight, and release the slots.
        std::process::abort();
    }

    let mut client = match Client::connect(addr, Duration::from_secs(30)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            std::process::exit(3);
        }
    };
    let mut out = String::new();
    let keys: Vec<OpKey> = if ops == 0 {
        let mut suite = Vec::new();
        for qi in 0..TABLE1.len() {
            for subject in 0..SUBJECTS as u32 {
                for vis in [false, true] {
                    suite.push((qi, subject, vis));
                }
            }
        }
        suite
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..ops).map(|_| draw_op(&mut rng)).collect()
    };
    for key in keys {
        let semantics = if key.2 {
            WireSemantics::Subtree
        } else {
            WireSemantics::Binding
        };
        match client.query(TABLE1[key.0].1, key.1, semantics, None) {
            Ok(matches) => out.push_str(&render_line(key, &render_matches(&matches))),
            Err(ClientError::Server(code, _)) => {
                out.push_str(&render_line(key, &format!("!{}", code.as_str())));
            }
            Err(_) => {
                out.push_str(&render_line(key, "!conn"));
                break;
            }
        }
    }
    std::fs::write(out_path, out).expect("write answers");
}

fn query_method(key: OpKey) -> Method {
    Method::Query {
        query: TABLE1[key.0].1.to_string(),
        subject: key.1,
        semantics: if key.2 {
            WireSemantics::Subtree
        } else {
            WireSemantics::Binding
        },
    }
}

// ------------------------------------------------------------------ parent

struct ServerProc {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

fn spawn_server(image: &Path, max_inflight: usize) -> ServerProc {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .arg("__net-server")
        .arg(image)
        .arg(max_inflight.to_string())
        .arg("1") // chaos phases need the fault-injection method
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server process");
    let mut stdout = BufReader::new(child.stdout.take().expect("server stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected server banner: {line:?}"))
        .to_string();
    ServerProc {
        child,
        addr,
        stdout,
    }
}

fn spawn_client(addr: &str, out: &Path, seed: u64, ops: usize, die_after: usize) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    Command::new(exe)
        .arg("__net-client")
        .arg(addr)
        .arg(out)
        .arg(seed.to_string())
        .arg(ops.to_string())
        .arg(die_after.to_string())
        .spawn()
        .expect("spawn client process")
}

/// Tally of one answer file against an oracle.
#[derive(Default)]
struct FileCheck {
    served: u64,
    wrong: u64,
    refusals: u64,
    conn_errors: u64,
    lines: u64,
}

/// Checks every line of a client's answer file against `oracle`: a served
/// answer must be **byte-identical** to the oracle's rendering; `!code`
/// lines are typed refusals; `!conn` is a vanished server. Anything else —
/// an unparsable line or a divergent answer — counts as wrong.
fn check_file(path: &Path, oracle: &Oracle) -> FileCheck {
    let text = std::fs::read_to_string(path).expect("read answer file");
    let mut c = FileCheck::default();
    for line in text.lines() {
        c.lines += 1;
        let Some((key, rest)) = parse_key(line) else {
            c.wrong += 1;
            continue;
        };
        if rest == "!conn" {
            c.conn_errors += 1;
        } else if rest.starts_with('!') {
            c.refusals += 1;
        } else {
            let expect = &oracle[&key];
            if rest == render_matches(expect) {
                c.served += 1;
            } else {
                c.wrong += 1;
            }
        }
    }
    c
}

/// Runs the full suite through a fresh client process and demands every
/// answer byte-identical to `oracle` — no refusals, no connection errors.
fn assert_suite_exact(addr: &str, oracle: &Oracle, scratch: &Path, tag: &str) -> u64 {
    let out = scratch.join(format!("suite-{tag}.txt"));
    let status = spawn_client(addr, &out, 0, 0, 0)
        .wait()
        .expect("wait suite client");
    assert!(status.success(), "suite client {tag} failed: {status}");
    let c = check_file(&out, oracle);
    assert_eq!(c.wrong, 0, "suite {tag}: wrong answers");
    assert_eq!(
        c.refusals + c.conn_errors,
        0,
        "suite {tag}: refusals on an idle server"
    );
    assert_eq!(c.lines, oracle.len() as u64, "suite {tag}: missing answers");
    c.served
}

/// The deterministic wire counters of phase A's payload check.
struct WireCounts {
    /// Request/reply exchanges made.
    frames: u64,
    /// Reply payload bytes received (all compared with the oracle's).
    payload_bytes: u64,
    /// `write` calls the request frames took.
    writes: u64,
}

/// A socket's write half that counts the `write` calls made on it.
struct CountingWriter<'a> {
    stream: &'a TcpStream,
    writes: u64,
}

impl std::io::Write for CountingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Sends the whole suite twice down one hand-driven connection and demands
/// every reply payload equal, byte for byte, the tree encoding of the
/// oracle's answer at `epoch`. The first pass is answered partly by the
/// engine (typed writer over the positions), the second wholly by result-
/// cache hits on an idle connection (the cached bytes, spliced).
fn assert_payload_identity(addr: &str, oracle: &Oracle, epoch: u64) -> WireCounts {
    let stream = TcpStream::connect(addr).expect("payload-check connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut tx = CountingWriter {
        stream: &stream,
        writes: 0,
    };
    let mut rx = &stream;
    let mut counts = WireCounts {
        frames: 0,
        payload_bytes: 0,
        writes: 0,
    };
    let mut keys: Vec<OpKey> = oracle.keys().copied().collect();
    keys.sort_unstable();
    for key in keys.iter().chain(&keys) {
        let id = counts.frames + 1;
        let req = Request {
            id,
            method: query_method(*key),
            deadline_ms: None,
        };
        frame::write_frame(&mut tx, &proto::encode_request(&req)).expect("payload-check write");
        let payload = frame::read_frame(&mut rx, &[], dol_server::DEFAULT_MAX_FRAME)
            .expect("payload-check response")
            .expect("payload-check stream closed early");
        let expect = proto::ok_response(
            id,
            Json::obj(vec![
                (
                    "matches",
                    Json::Arr(oracle[key].iter().map(|&p| Json::Int(p as i64)).collect()),
                ),
                ("epoch", Json::Int(epoch as i64)),
            ]),
        );
        assert_eq!(
            payload, expect,
            "phase A: reply payload for {key:?} is not the tree encoding of the oracle's answer"
        );
        counts.frames += 1;
        counts.payload_bytes += payload.len() as u64;
    }
    counts.writes = tx.writes;
    counts
}

/// Applies one ACL update over the wire (acknowledged = durable through the
/// group committer) and mirrors it on the parent's in-memory twin.
fn wire_update(ctl: &mut Client, mirror: &mut SecureXmlDb, rng: &mut StdRng) {
    let pos = rng.gen_range(1..mirror.len() as u64);
    let subject = rng.gen_range(0..SUBJECTS as u32);
    let allow = rng.gen_bool(0.5);
    ctl.update(
        UpdateOp::SetNodeAccess {
            pos,
            subject,
            allow,
        },
        None,
    )
    .expect("wire update");
    mirror
        .set_node_access(pos, SubjectId(subject), allow)
        .expect("mirror update");
}

/// Runs the wire gate. `--smoke` shrinks sizes; every assertion holds in
/// every mode.
pub fn run(effort: Effort, seed: u64, smoke: bool) {
    let scale = if smoke {
        0.04
    } else {
        effort.scale(0.04, 0.12)
    };
    let ops = if smoke { 40 } else { effort.pick(60, 200) };
    let updates = if smoke { 3 } else { effort.pick(4, 8) };

    println!("wire front door: loopback multi-process gate (seed {seed})");
    println!("{}", "-".repeat(72));

    // Scratch area for the image and the answer files. Prefer the build
    // directory (always writable where the harness runs) over the global
    // temp dir.
    let scratch = if Path::new("target").is_dir() {
        PathBuf::from("target").join(format!("net-scratch-{}-{seed}", std::process::id()))
    } else {
        std::env::temp_dir().join(format!("dol-net-{}-{seed}", std::process::id()))
    };
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let image = scratch.join("db.img");

    // Build the database once, persist it for the server process, and keep
    // an in-memory twin: answers depend only on document + ACL, so the twin
    // is the oracle for every process that serves the image.
    let acl_cfg = SynthAclConfig {
        propagation_ratio: 0.05,
        accessibility_ratio: 0.6,
        sibling_locality: 0.5,
        seed,
    };
    let doc = xmark_doc(scale);
    let nodes = doc.len();
    let map = synth_multi(&doc, &acl_cfg, SUBJECTS);
    SecureXmlDb::from_document(doc, &map)
        .expect("build db")
        .save_to(&image)
        .expect("persist image");
    let mut mirror = SecureXmlDb::from_document(xmark_doc(scale), &map).expect("build oracle twin");
    let mut oracle = oracle_of(&mirror);

    let mut t = Table::new(
        &format!(
            "wire gate (XMark {nodes} nodes, {SUBJECTS} subjects, {CLIENTS} client \
             processes x {ops} ops, {updates} wire updates, seed {seed})"
        ),
        &["phase", "served", "wrong", "typed refusals", "conn errors"],
    );

    // ---- phase A: byte identity across processes --------------------
    let server = spawn_server(&image, 64);
    let outs: Vec<PathBuf> = (0..CLIENTS)
        .map(|i| scratch.join(format!("client-{i}.txt")))
        .collect();
    let children: Vec<Child> = outs
        .iter()
        .enumerate()
        .map(|(i, out)| {
            spawn_client(
                &server.addr,
                out,
                seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ops,
                0,
            )
        })
        .collect();
    let mut a = FileCheck::default();
    for (mut child, out) in children.into_iter().zip(&outs) {
        let status = child.wait().expect("wait client");
        assert!(status.success(), "phase A client failed: {status}");
        let c = check_file(out, &oracle);
        assert_eq!(c.lines, ops as u64, "phase A client answered short");
        a.served += c.served;
        a.wrong += c.wrong;
        a.refusals += c.refusals;
        a.conn_errors += c.conn_errors;
    }
    assert_eq!(
        a.wrong, 0,
        "phase A: a wire answer diverged from the oracle"
    );
    assert_eq!(
        a.refusals + a.conn_errors,
        0,
        "phase A: refusals on an unloaded server"
    );
    let epoch = Client::connect(&server.addr, Duration::from_secs(30))
        .and_then(|mut c| c.stats())
        .expect("stats")
        .get("epoch")
        .and_then(Json::as_uint)
        .expect("stats carry the epoch");
    let wire = assert_payload_identity(&server.addr, &oracle, epoch);
    assert_eq!(
        wire.writes, wire.frames,
        "phase A: a request frame took more than one write"
    );
    t.row(&[
        "A identity".into(),
        a.served.to_string(),
        a.wrong.to_string(),
        a.refusals.to_string(),
        a.conn_errors.to_string(),
    ]);

    // ---- phase B: wire updates, connection kills, crash/restart -----
    let mut ctl =
        Client::connect(&server.addr, Duration::from_secs(30)).expect("control connection");
    let mut upd_rng = StdRng::seed_from_u64(seed ^ 0xD01);
    let mut b_served = 0u64;
    for k in 0..updates {
        wire_update(&mut ctl, &mut mirror, &mut upd_rng);
        oracle = oracle_of(&mirror);
        b_served += assert_suite_exact(&server.addr, &oracle, &scratch, &format!("update-{k}"));
    }

    // Connection kills: clients that abort mid-pipeline without reading.
    for i in 0..2u64 {
        let out = scratch.join(format!("killer-{i}.txt"));
        let mut killer = spawn_client(&server.addr, &out, seed ^ (0xAB + i), 0, 6);
        let _ = killer.wait(); // dies by design (abort)
    }
    ctl.ping().expect("server must survive killed connections");
    b_served += assert_suite_exact(&server.addr, &oracle, &scratch, "post-kill");

    // Mid-request server crash: SIGKILL while a client process streams
    // queries. Every answer it got must still match the oracle; everything
    // after the kill is a connection error, never a wrong answer.
    let stream_out = scratch.join("stream.txt");
    let mut streamer = spawn_client(&server.addr, &stream_out, seed ^ 0xC4A5, 1_000_000, 0);
    std::thread::sleep(Duration::from_millis(150));
    let mut server_child = server.child;
    server_child.kill().expect("SIGKILL server");
    let _ = server_child.wait();
    let status = streamer.wait().expect("wait streaming client");
    assert!(status.success(), "streaming client crashed: {status}");
    let b3 = check_file(&stream_out, &oracle);
    assert_eq!(
        b3.wrong, 0,
        "a wrong answer crossed the wire around the crash"
    );
    b_served += b3.served;
    t.row(&[
        "B chaos".into(),
        b_served.to_string(),
        b3.wrong.to_string(),
        b3.refusals.to_string(),
        b3.conn_errors.to_string(),
    ]);

    // Restart on the same image: write-ahead-log replay must land exactly
    // the last acknowledged state. The restarted server keeps a 2-slot
    // admission window for the overload phase.
    let server = spawn_server(&image, 2);
    let restart_served = assert_suite_exact(&server.addr, &oracle, &scratch, "post-restart");
    t.row(&[
        "B restart".into(),
        restart_served.to_string(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);

    // ---- phase C: overload draws typed refusals ---------------------
    let conns = 4usize;
    let per_conn = if smoke { 25 } else { 40 };
    let mut flood_rng = StdRng::seed_from_u64(seed ^ 0xF100D);
    let mut sockets = Vec::new();
    for _ in 0..conns {
        let s = TcpStream::connect(&server.addr).expect("flood connect");
        s.set_nodelay(true).expect("nodelay");
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        sockets.push(s);
    }
    let mut keys_by_conn: Vec<Vec<OpKey>> = Vec::new();
    for s in &mut sockets {
        let mut keys = Vec::with_capacity(per_conn);
        for i in 0..per_conn {
            let key = draw_op(&mut flood_rng);
            let req = Request {
                id: (i + 1) as u64,
                method: query_method(key),
                deadline_ms: None,
            };
            frame::write_frame(s, &proto::encode_request(&req)).expect("flood write");
            keys.push(key);
        }
        keys_by_conn.push(keys);
    }
    let (mut flood_ok, mut flood_overloaded, mut flood_wrong) = (0u64, 0u64, 0u64);
    for (s, keys) in sockets.iter_mut().zip(&keys_by_conn) {
        for _ in 0..per_conn {
            let payload = frame::read_frame(s, &[], dol_server::DEFAULT_MAX_FRAME)
                .expect("flood response")
                .expect("flood stream closed early");
            let resp = proto::decode_response(&payload).expect("decode flood response");
            let key = keys[resp.id as usize - 1];
            match resp.outcome {
                Ok(result) => {
                    let matches: Vec<u64> = match result.get("matches") {
                        Some(dol_server::Json::Arr(a)) => {
                            a.iter().filter_map(|v| v.as_uint()).collect()
                        }
                        _ => Vec::new(),
                    };
                    if matches == oracle[&key] {
                        flood_ok += 1;
                    } else {
                        flood_wrong += 1;
                    }
                }
                Err((ErrorCode::Overloaded, _)) => flood_overloaded += 1,
                Err((code, msg)) => {
                    panic!("overload phase drew an unexpected refusal {code:?}: {msg}")
                }
            }
        }
    }
    drop(sockets);
    assert_eq!(flood_wrong, 0, "an overloaded server served a wrong answer");
    assert!(
        flood_overloaded > 0,
        "pipelining {} requests through a 2-slot window never drew `overloaded`",
        conns * per_conn
    );
    assert_eq!(
        flood_ok + flood_overloaded,
        (conns * per_conn) as u64,
        "a flood request was lost or double-answered"
    );
    t.row(&[
        "C overload".into(),
        flood_ok.to_string(),
        flood_wrong.to_string(),
        flood_overloaded.to_string(),
        "0".into(),
    ]);

    // ---- phase D: poison window over the wire -----------------------
    let mut ctl =
        Client::connect(&server.addr, Duration::from_secs(30)).expect("control connection");
    let injected = ctl
        .call(Method::Update(UpdateOp::FailAfterDirty { pos: 1 }), None)
        .expect("inject fault");
    assert_eq!(
        injected.get("poisoned").and_then(dol_server::Json::as_bool),
        Some(true),
        "the injected fault failed to poison the handle"
    );
    // Degraded reads keep serving the pre-fault oracle (the transaction
    // rolled back before the poison latched).
    let degraded_served = assert_suite_exact(&server.addr, &oracle, &scratch, "degraded");
    let mut poison_refusals = 0u64;
    match ctl.update(
        UpdateOp::SetNodeAccess {
            pos: 1,
            subject: 0,
            allow: true,
        },
        None,
    ) {
        Err(ClientError::Server(ErrorCode::Poisoned, _)) => poison_refusals += 1,
        other => panic!("poisoned update must refuse typed, got {other:?}"),
    }
    assert!(ctl.recover().expect("recover"), "recover ran nothing");
    wire_update(&mut ctl, &mut mirror, &mut upd_rng);
    oracle = oracle_of(&mirror);
    let healed_served = assert_suite_exact(&server.addr, &oracle, &scratch, "healed");
    t.row(&[
        "D poison".into(),
        (degraded_served + healed_served).to_string(),
        "0".into(),
        poison_refusals.to_string(),
        "0".into(),
    ]);

    // ---- phase E: metrics scrape + graceful drain + clean reopen ----
    let mut scrape = TcpStream::connect(&server.addr).expect("metrics connect");
    scrape
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: net\r\n\r\n")
        .expect("metrics request");
    let mut metrics_text = String::new();
    scrape
        .read_to_string(&mut metrics_text)
        .expect("metrics response");
    assert!(
        metrics_text.starts_with("HTTP/1.1 200 OK"),
        "metrics scrape did not answer 200"
    );
    assert!(
        metrics_text.contains("dol_requests_total")
            && metrics_text.contains("dol_refusals_total{code=\"overloaded\"}"),
        "metrics scrape is missing the request/refusal counters"
    );

    ctl.shutdown().expect("wire shutdown");
    let mut server = server;
    let status = server.child.wait().expect("wait drained server");
    assert!(status.success(), "drained server exited {status}");
    let mut tail = String::new();
    server
        .stdout
        .read_to_string(&mut tail)
        .expect("server stdout tail");
    assert!(
        tail.contains("drained"),
        "the server never reported a completed drain"
    );
    // Clean reopen: the committer flushed and the image checkpointed, so
    // the suite answers exactly without the server's help.
    let reopened = SecureXmlDb::open_from(&image).expect("reopen drained image");
    reopened.verify_integrity().expect("drained image verifies");
    let mut reopen_served = 0u64;
    for (key, expect) in &oracle {
        let r = reopened
            .query(TABLE1[key.0].1, security_of(*key))
            .expect("reopened query");
        assert_eq!(&r.matches, expect, "reopened answer diverged for {key:?}");
        reopen_served += 1;
    }
    t.row(&[
        "E drain+reopen".into(),
        reopen_served.to_string(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);
    t.print();
    println!(
        "(Every phase gates zero wrong answers; refusals are typed wire errors only.\n\
         Phase B killed the server mid-stream ({} answers before the cut, {} connection\n\
         errors after); phase C drew {} `overloaded` refusals from {} pipelined\n\
         requests; phase E drained, reopened, and re-answered the suite exactly.)\n",
        b3.served,
        b3.conn_errors,
        flood_overloaded,
        conns * per_conn,
    );

    write_json(
        seed,
        nodes,
        ops,
        updates,
        &a,
        &wire,
        b_served,
        &b3,
        restart_served,
        flood_ok,
        flood_overloaded,
        degraded_served + healed_served,
        poison_refusals,
        reopen_served,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    println!("net: all assertions passed\n");
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    seed: u64,
    nodes: usize,
    ops: usize,
    updates: usize,
    a: &FileCheck,
    wire: &WireCounts,
    b_served: u64,
    b3: &FileCheck,
    restart_served: u64,
    flood_ok: u64,
    flood_overloaded: u64,
    poison_served: u64,
    poison_refusals: u64,
    reopen_served: u64,
) {
    let out = format!(
        "{{\n  \"experiment\": \"net\",\n  \"seed\": {seed},\n  \"nodes\": {nodes},\n  \
         \"clients\": {CLIENTS},\n  \"ops_per_client\": {ops},\n  \
         \"wire_updates\": {updates},\n  \
         \"identity_served\": {},\n  \"identity_wrong\": {},\n  \
         \"frames\": {},\n  \"payload_bytes\": {},\n  \"writes_per_frame\": {},\n  \
         \"chaos_served\": {},\n  \"crash_window_served\": {},\n  \
         \"crash_window_conn_errors\": {},\n  \"restart_served\": {},\n  \
         \"overload_served\": {},\n  \"overload_refusals\": {},\n  \
         \"poison_served\": {},\n  \"poison_refusals\": {},\n  \
         \"drain_reopen_served\": {},\n  \"wrong_total\": 0\n}}\n",
        a.served,
        a.wrong,
        wire.frames,
        wire.payload_bytes,
        wire.writes / wire.frames,
        b_served,
        b3.served,
        b3.conn_errors,
        restart_served,
        flood_ok,
        flood_overloaded,
        poison_served,
        poison_refusals,
        reopen_served,
    );
    match std::fs::File::create("BENCH_net.json").and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("(wrote BENCH_net.json)\n"),
        Err(e) => eprintln!("could not write BENCH_net.json: {e}"),
    }
}
