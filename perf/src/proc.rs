//! Processes and files the benchmark owns: the scratch directory, the
//! re-exec'd server child, and the framed connection the clients speak.

use crate::spec::MIN_FREE_BYTES;
use dol_server::{frame, proto, ErrorCode, Json, Method, Request, Server, ServerConfig};
use dol_storage::{Disk, FileDisk};
use secure_xml::{DbConfig, SecureXmlDb};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// A directory for images and logs, removed when dropped (normal exit or
/// unwinding panic alike).
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<root>/<pid>-<tag>` under `$DOL_PERF_SCRATCH` (default
    /// `perf/out/scratch`), refusing to start on a nearly full disk:
    /// `acl_churn` grows its image by over a megabyte per update.
    pub fn create(tag: &str) -> Result<Scratch, String> {
        let root = std::env::var_os("DOL_PERF_SCRATCH")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perf/out/scratch"));
        let dir = root.join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let scratch = Scratch { dir };
        if let Some(free) = free_bytes(&scratch.dir) {
            if free < MIN_FREE_BYTES {
                return Err(format!(
                    "{} has {} MB free; the benchmark needs {} MB",
                    scratch.dir.display(),
                    free >> 20,
                    MIN_FREE_BYTES >> 20
                ));
            }
        }
        Ok(scratch)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Free bytes on the file system holding `dir`, from `df -Pk`. `None` when
/// `df` is missing or prints something else: the check is then skipped.
fn free_bytes(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kb: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The path of the write-ahead log paired with `image`.
pub fn wal_path(image: &Path) -> PathBuf {
    let mut p = image.as_os_str().to_os_string();
    p.push(".wal");
    PathBuf::from(p)
}

pub type SharedDisk = Arc<dyn Disk>;

/// Opens an image and its log as file-backed disks (creating an empty log
/// when there is none yet).
pub fn file_disks(image: &Path) -> Result<(SharedDisk, SharedDisk), String> {
    let data = FileDisk::open(image).map_err(|e| format!("open {}: {e}", image.display()))?;
    let wal = wal_path(image);
    let wal = if wal.exists() {
        FileDisk::open(&wal)
    } else {
        FileDisk::create(&wal)
    }
    .map_err(|e| format!("open {}: {e}", wal.display()))?;
    Ok((Arc::new(data), Arc::new(wal)))
}

pub fn db_config(pool_pages: usize) -> DbConfig {
    DbConfig {
        buffer_pool_pages: pool_pages,
        ..DbConfig::default()
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Asks the kernel to SIGKILL this process when the thread that started it
/// ends. `ServerChild`'s `Drop` covers a parent that returns or panics; a
/// parent that is itself killed runs no destructor, and its server would
/// outlive it and disturb whatever is measured next.
#[cfg(target_os = "linux")]
fn die_with_parent() {
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the call takes and returns plain integers and touches no
    // memory of this program.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent() {}

/// Hidden `__server <image> <pool_pages>` mode: the server under test. It
/// is given the generated image and its pool size, never the seed or the
/// workload's name, and runs on the CPUs the thread that started it was on
/// (see [`crate::affinity`]). (The stock `dol-server` binary has no
/// pool-size flag.)
pub fn server_main(args: &[String]) -> Result<(), String> {
    die_with_parent();
    let usage = "usage: __server <image> <pool_pages>";
    let image = PathBuf::from(args.first().ok_or(usage)?);
    let pool_pages: usize = args.get(1).and_then(|s| s.parse().ok()).ok_or(usage)?;
    let (data, wal) = file_disks(&image)?;
    let db = SecureXmlDb::open_on(data, wal, db_config(pool_pages))
        .map_err(|e| format!("open image: {e}"))?;
    let server = Server::start(db, ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    println!("listening on {}", server.local_addr());
    server.wait();
    Ok(())
}

/// The server child. Dropping it kills the process and waits for it, so a
/// panic in the parent never leaves a server behind.
pub struct ServerChild {
    child: Child,
    pub addr: String,
}

impl ServerChild {
    pub fn spawn(image: &Path, pool_pages: usize) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("__server")
            .arg(image)
            .arg(pool_pages.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerChild { child, addr }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server child did not start: {read:?} {line:?}"))
            }
        }
    }

    /// User plus system CPU time the child has used, in microseconds
    /// (`/proc/<pid>/stat` fields 14 and 15, at the kernel's 100 Hz tick).
    pub fn cpu_us(&self) -> Option<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // The command name (field 2) may hold spaces; fields after the
        // closing parenthesis are numeric.
        let rest = stat.rsplit_once(')')?.1;
        let mut fields = rest.split_whitespace().skip(11);
        let utime: u64 = fields.next()?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some((utime + stime) * 10_000)
    }

    /// SIGKILL, then wait: the crash the durability check recovers from.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Why a wire call produced no result.
#[derive(Debug)]
pub enum WireError {
    /// Socket, frame or protocol failure: the connection is unusable.
    Broken(String),
    /// The server answered with a typed refusal.
    Refused(ErrorCode, String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Broken(m) => write!(f, "connection broken: {m}"),
            WireError::Refused(code, m) => write!(f, "refused ({}): {m}", code.as_str()),
        }
    }
}

/// One answered request: the decoded result, and the request and raw
/// response payload the traced run sizes and replays the codec on.
pub struct Reply {
    pub result: Json,
    pub request: Request,
    pub request_bytes: usize,
    pub payload: Vec<u8>,
}

impl Reply {
    /// The `matches` array of a query result.
    pub fn matches(&self) -> Option<Vec<u64>> {
        self.result
            .get("matches")?
            .as_arr()?
            .iter()
            .map(Json::as_uint)
            .collect()
    }

    /// The epoch a query result was computed at.
    pub fn epoch(&self) -> Option<u64> {
        self.result.get("epoch")?.as_uint()
    }
}

/// A blocking connection, one request in flight. The same code as
/// `dol_server::Client::call`, kept here because the traced run needs the
/// payload sizes and the raw response to replay the codec on.
pub struct Conn {
    stream: TcpStream,
    next_id: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn { stream, next_id: 1 })
    }

    pub fn call(&mut self, method: Method) -> Result<Reply, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            id,
            method,
            deadline_ms: None,
        };
        let out = proto::encode_request(&request);
        frame::write_frame(&mut self.stream, &out).map_err(|e| WireError::Broken(e.to_string()))?;
        let payload = match frame::read_frame(&mut self.stream, &[], frame::DEFAULT_MAX_FRAME) {
            Ok(Some(p)) => p,
            Ok(None) => return Err(WireError::Broken("server closed the connection".into())),
            Err(e) => return Err(WireError::Broken(e.to_string())),
        };
        let resp = proto::decode_response(&payload)
            .ok_or_else(|| WireError::Broken("undecodable response".into()))?;
        if resp.id != id {
            return Err(WireError::Broken(format!(
                "response id {} for request {id}",
                resp.id
            )));
        }
        match resp.outcome {
            Ok(result) => Ok(Reply {
                result,
                request,
                request_bytes: out.len(),
                payload,
            }),
            Err((code, message)) => Err(WireError::Refused(code, message)),
        }
    }

    /// Counters of the wire `stats` method, flattened to `section.name`.
    pub fn stats(&mut self) -> Result<std::collections::BTreeMap<String, u64>, WireError> {
        let reply = self.call(Method::Stats)?;
        let mut out = std::collections::BTreeMap::new();
        if let Json::Obj(sections) = &reply.result {
            for (section, body) in sections {
                match body {
                    Json::Obj(fields) => {
                        for (name, v) in fields {
                            if let Some(n) = v.as_uint() {
                                out.insert(format!("{section}.{name}"), n);
                            }
                        }
                    }
                    other => {
                        if let Some(n) = other.as_uint() {
                            out.insert(section.clone(), n);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// The Prometheus text of the wire `metrics` method.
    pub fn metrics_text(&mut self) -> Result<String, WireError> {
        let reply = self.call(Method::Metrics)?;
        reply
            .result
            .get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| WireError::Broken("metrics result missing `text`".into()))
    }
}
