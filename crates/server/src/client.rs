//! A small blocking client for the framed protocol — the other half of the
//! wire contract, used by the loopback benchmark harness, the tests, and
//! anything else that wants typed access to a running server.

use crate::frame::{self, FrameError};
use crate::json::Json;
use crate::proto::{self, ErrorCode, Method, Request, UpdateOp, WireSemantics};
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Why a call failed on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, write, or read).
    Io(io::Error),
    /// The response stream was torn, oversize, or failed its CRC.
    Frame(FrameError),
    /// The response decoded but violated the protocol (bad JSON shape or a
    /// mismatched request id).
    Protocol(String),
    /// The server answered with a typed refusal.
    Server(ErrorCode, String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(code, m) => write!(f, "server {}: {m}", code.as_str()),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a [`Server`](crate::Server). One request in
/// flight at a time ([`call`](Self::call) writes, then reads the matching
/// response); pipelining tests drive frames by hand instead.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    max_frame: usize,
    /// The request frame under assembly, reused from call to call.
    frame: Vec<u8>,
}

/// Encodes `req` as one whole frame in `frame` and sends it in one write.
pub(crate) fn send_request(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    req: &Request,
) -> io::Result<()> {
    frame::begin_frame(frame);
    proto::write_request(frame, req);
    frame::seal_frame(frame);
    w.write_all(frame)
}

impl Client {
    /// Connects, with TCP_NODELAY and a read timeout so a dead server
    /// surfaces as an error instead of a hang.
    pub fn connect(addr: &str, read_timeout: Duration) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Client {
            stream,
            next_id: 1,
            max_frame: frame::DEFAULT_MAX_FRAME,
            frame: Vec::new(),
        })
    }

    /// Sends one request and blocks for its response. Returns the `result`
    /// object, or [`ClientError::Server`] carrying the typed refusal.
    pub fn call(&mut self, method: Method, deadline_ms: Option<u64>) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            method,
            deadline_ms,
        };
        send_request(&mut self.stream, &mut self.frame, &req)?;
        let payload = match frame::read_frame(&mut self.stream, &[], self.max_frame) {
            Ok(Some(p)) => p,
            Ok(None) => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed before responding",
                )))
            }
            Err(e) => return Err(ClientError::Frame(e)),
        };
        let resp = proto::decode_response(&payload)
            .ok_or_else(|| ClientError::Protocol("undecodable response".into()))?;
        if resp.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} for request {id}",
                resp.id
            )));
        }
        match resp.outcome {
            Ok(result) => Ok(result),
            Err((code, message)) => Err(ClientError::Server(code, message)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(Method::Ping, None).map(|_| ())
    }

    /// Runs a secure query; returns the matched node positions.
    pub fn query(
        &mut self,
        query: &str,
        subject: u32,
        semantics: WireSemantics,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<u64>, ClientError> {
        let result = self.call(
            Method::Query {
                query: query.to_string(),
                subject,
                semantics,
            },
            deadline_ms,
        )?;
        let arr = result
            .get("matches")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("query result missing `matches`".into()))?;
        arr.iter()
            .map(|v| {
                v.as_uint()
                    .ok_or_else(|| ClientError::Protocol("non-integer match".into()))
            })
            .collect()
    }

    /// Submits one typed update through the server's group committer.
    pub fn update(&mut self, op: UpdateOp, deadline_ms: Option<u64>) -> Result<(), ClientError> {
        self.call(Method::Update(op), deadline_ms).map(|_| ())
    }

    /// Registers a subject; returns its id.
    pub fn register_subject(
        &mut self,
        copy_from: Option<u32>,
        groups: &[u32],
    ) -> Result<u32, ClientError> {
        let result = self.call(
            Method::RegisterSubject {
                copy_from,
                groups: groups.to_vec(),
            },
            None,
        )?;
        result
            .get("subject")
            .and_then(Json::as_uint)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| ClientError::Protocol("register result missing `subject`".into()))
    }

    /// Toggles one subject↔group membership edge.
    pub fn set_membership(
        &mut self,
        subject: u32,
        group: u32,
        member: bool,
    ) -> Result<bool, ClientError> {
        let result = self.call(
            Method::SetMembership {
                subject,
                group,
                member,
            },
            None,
        )?;
        result
            .get("changed")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Protocol("set_membership result missing `changed`".into()))
    }

    /// Fetches the aggregate statistics object.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call(Method::Stats, None)
    }

    /// Fetches the Prometheus text exposition over the framed protocol.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let result = self.call(Method::Metrics, None)?;
        result
            .get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics result missing `text`".into()))
    }

    /// Asks a poisoned server to recover in place; returns whether a
    /// recovery actually ran.
    pub fn recover(&mut self) -> Result<bool, ClientError> {
        let result = self.call(Method::Recover, None)?;
        result
            .get("recovered")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Protocol("recover result missing `recovered`".into()))
    }

    /// Requests a graceful drain. The server responds, then stops
    /// admitting work and shuts down once in-flight requests finish.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(Method::Shutdown, None).map(|_| ())
    }
}
