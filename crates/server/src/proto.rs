//! The request/response vocabulary of the wire protocol.
//!
//! Every frame payload is one JSON object. Requests carry a client-chosen
//! `id` (echoed verbatim on the response, so pipelined requests cannot be
//! mis-attributed), a `method`, optional `params`, and an optional
//! `deadline_ms` budget that the server threads into the storage layer's
//! [`Deadline`](dol_storage::Deadline) machinery. Responses carry either a
//! `result` or a typed `error` — never both, and never a partial answer:
//! the fail-closed contract of the in-process engine extends to the wire,
//! so a refused request leaks nothing.
//!
//! The error codes are a closed set ([`ErrorCode`]) mapping the typed
//! in-process failures one-to-one, so a wire client can distinguish
//! back-off-and-retry conditions (`overloaded`, `retention_exceeded`) from
//! the heal-first condition (`poisoned`) and hard refusals
//! (`deadline_exceeded`, `invalid_request`, `draining`,
//! `response_too_large`).
//!
//! Encoding is typed and streaming: requests, query replies and error
//! replies are written field by field into the caller's buffer (in practice
//! the frame buffer the message is sent from), keys in the sorted order
//! [`Json::encode`] would give them, so the bytes are those of the tree
//! encoding without the tree. A query reply's position
//! list — the one large value on the wire — is a column of like integers and
//! gets the one integer writer, not a boxed value per element. The small
//! admin replies still travel as a [`Json`] tree.

use crate::json::{self, write_str, write_u64, Json};
use secure_xml::DbError;

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The decoded method with its parameters.
    pub method: Method,
    /// Optional per-request budget in milliseconds, measured from the
    /// moment the server decodes the frame (queue wait counts against it).
    pub deadline_ms: Option<u64>,
}

/// Security semantics names on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSemantics {
    /// `"none"` — unsecured evaluation (admin/debug only).
    None,
    /// `"binding"` — ε-NoK binding-level semantics.
    Binding,
    /// `"subtree"` — Gabillon–Bruno subtree-visibility semantics.
    Subtree,
}

/// A typed update operation (closures cannot cross the wire, so the
/// protocol names the mutations it admits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Set one node's accessibility bit for a subject.
    SetNodeAccess {
        /// Document position.
        pos: u64,
        /// Subject id.
        subject: u32,
        /// Grant (`true`) or revoke.
        allow: bool,
    },
    /// Set a whole subtree's accessibility for a subject.
    SetSubtreeAccess {
        /// Subtree root position.
        pos: u64,
        /// Subject id.
        subject: u32,
        /// Grant (`true`) or revoke.
        allow: bool,
    },
    /// Testing only (`ServerConfig::testing`): dirty a page, then fail the
    /// transaction — rolls back and poisons the handle, opening a degraded
    /// window the chaos harness drives recovery through.
    FailAfterDirty {
        /// Position whose page the doomed transaction dirties.
        pos: u64,
    },
}

/// A decoded method and its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    /// Liveness probe; answers `{"pong": true}`.
    Ping,
    /// Secure query through the snapshot reader path.
    Query {
        /// The twig query text.
        query: String,
        /// Requesting subject id (ignored under `semantics: "none"`).
        subject: u32,
        /// Security semantics.
        semantics: WireSemantics,
    },
    /// One typed update through the group committer.
    Update(UpdateOp),
    /// Register a new subject: flat copy (`copy_from`) or grouped
    /// (`groups`, zero-entry-touch membership registration).
    RegisterSubject {
        /// Subject whose grants the new one copies (flat path).
        copy_from: Option<u32>,
        /// Parent groups (factored path). Mutually exclusive with
        /// `copy_from`; both empty registers an empty flat subject.
        groups: Vec<u32>,
    },
    /// Toggle one subject↔group membership edge (the subject's derived
    /// rights change live).
    SetMembership {
        /// The subject to re-home.
        subject: u32,
        /// The group whose edge changes.
        group: u32,
        /// Add (`true`) or remove the edge.
        member: bool,
    },
    /// Aggregate server statistics as JSON.
    Stats,
    /// The Prometheus-style metrics text (also served over HTTP `GET`).
    Metrics,
    /// Admin: heal a poisoned handle in process (WAL replay + verify).
    Recover,
    /// Admin: graceful drain — stop accepting, finish or deadline-out
    /// in-flight requests, flush the committer, checkpoint, exit.
    Shutdown,
}

impl Method {
    /// Stable method name (metrics label and wire string).
    pub fn name(&self) -> &'static str {
        match self {
            Method::Ping => "ping",
            Method::Query { .. } => "query",
            Method::Update(_) => "update",
            Method::RegisterSubject { .. } => "register_subject",
            Method::SetMembership { .. } => "set_membership",
            Method::Stats => "stats",
            Method::Metrics => "metrics",
            Method::Recover => "recover",
            Method::Shutdown => "shutdown",
        }
    }
}

/// The closed set of wire error codes. Fail-closed: every refusal is one of
/// these, with no partial result attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control refused the request (server or committer queue
    /// full). Nothing was applied; back off and resubmit.
    Overloaded,
    /// The serving snapshot outlived the MVCC retention window and the
    /// bounded refresh ladder did not land. Retry.
    RetentionExceeded,
    /// The database handle is poisoned: updates are refused (reads degrade
    /// to the pre-transaction snapshot). Remedy: the `recover` method.
    Poisoned,
    /// The request's deadline expired before an answer was produced. The
    /// partial work was discarded — never a partial answer.
    DeadlineExceeded,
    /// The frame decoded but the request was malformed (unknown method,
    /// missing or mistyped parameter, unknown semantics, ...) or named a
    /// subject the database does not know; nothing was applied.
    InvalidRequest,
    /// The server is draining: no new requests are admitted.
    Draining,
    /// The operation is not enabled on this server (e.g. a testing-only
    /// update op without `--testing`).
    Forbidden,
    /// The answer was computed but its frame would exceed the frame cap
    /// every client enforces; the message carries the byte count and the
    /// cap. Narrow the query — a retry draws the same refusal.
    ResponseTooLarge,
    /// Any other typed database failure (storage, query, integrity, ...);
    /// the message carries the in-process rendering.
    Internal,
}

impl ErrorCode {
    /// The wire string of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::RetentionExceeded => "retention_exceeded",
            ErrorCode::Poisoned => "poisoned",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::Draining => "draining",
            ErrorCode::Forbidden => "forbidden",
            ErrorCode::ResponseTooLarge => "response_too_large",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire string back into the code (client side).
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "overloaded" => ErrorCode::Overloaded,
            "retention_exceeded" => ErrorCode::RetentionExceeded,
            "poisoned" => ErrorCode::Poisoned,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "invalid_request" => ErrorCode::InvalidRequest,
            "draining" => ErrorCode::Draining,
            "forbidden" => ErrorCode::Forbidden,
            "response_too_large" => ErrorCode::ResponseTooLarge,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Maps a typed in-process failure to its wire code. Distinct in-process
/// refusals keep distinct codes so wire clients can react like in-process
/// callers do.
pub fn wire_code(e: &DbError) -> ErrorCode {
    match e {
        DbError::Overloaded => ErrorCode::Overloaded,
        DbError::RetentionExceeded { .. } => ErrorCode::RetentionExceeded,
        DbError::Poisoned => ErrorCode::Poisoned,
        DbError::DeadlineExceeded(_) => ErrorCode::DeadlineExceeded,
        DbError::UnknownSubject(_) => ErrorCode::InvalidRequest,
        _ => ErrorCode::Internal,
    }
}

/// Why a frame payload failed to decode as a request. `Malformed` closes
/// the connection (the stream cannot be trusted); `Invalid` answers a typed
/// `invalid_request` error (the stream is fine, the request is not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not JSON, not an object, or no usable `id`: nothing to respond to.
    Malformed,
    /// A well-framed request with a bad method or parameters; the id is
    /// echoed on the error response.
    Invalid {
        /// The request id to echo.
        id: u64,
        /// Human-readable reason.
        reason: String,
    },
}

fn param_u64(params: &Json, key: &str) -> Result<u64, String> {
    params
        .get(key)
        .and_then(Json::as_uint)
        .ok_or_else(|| format!("missing or invalid `{key}`"))
}

fn param_u32(params: &Json, key: &str) -> Result<u32, String> {
    let v = param_u64(params, key)?;
    u32::try_from(v).map_err(|_| format!("`{key}` out of range"))
}

fn param_bool(params: &Json, key: &str) -> Result<bool, String> {
    params
        .get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or invalid `{key}`"))
}

fn param_groups(params: &Json, key: &str) -> Result<Vec<u32>, String> {
    match params.get(key) {
        None => Ok(Vec::new()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_uint()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| format!("`{key}` entries must be u32"))
            })
            .collect(),
        Some(_) => Err(format!("`{key}` must be an array")),
    }
}

/// Decodes one frame payload into a [`Request`].
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let Ok(Json::Obj(mut top)) = json::parse(payload) else {
        return Err(DecodeError::Malformed);
    };
    let id = top
        .get("id")
        .and_then(Json::as_uint)
        .ok_or(DecodeError::Malformed)?;
    let invalid = |reason: String| DecodeError::Invalid { id, reason };
    let deadline_ms = match top.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(d) => Some(
            d.as_uint()
                .ok_or_else(|| invalid("`deadline_ms` must be a non-negative integer".into()))?,
        ),
    };
    // The query text is the one parameter worth moving rather than copying;
    // taking `params` out of the parsed object is what allows it.
    let mut params = top
        .remove("params")
        .unwrap_or_else(|| Json::Obj(Default::default()));
    let name = top
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid("missing `method`".into()))?;
    let method = match name {
        "ping" => Method::Ping,
        "query" => {
            let query = match &mut params {
                Json::Obj(m) => m.remove("query"),
                _ => None,
            };
            let Some(Json::Str(query)) = query else {
                return Err(invalid("missing `query`".into()));
            };
            let semantics = match params.get("semantics").and_then(Json::as_str) {
                Some("binding") | None => WireSemantics::Binding,
                Some("subtree") => WireSemantics::Subtree,
                Some("none") => WireSemantics::None,
                Some(other) => return Err(invalid(format!("unknown semantics `{other}`"))),
            };
            let subject = if matches!(semantics, WireSemantics::None) {
                params.get("subject").and_then(Json::as_uint).unwrap_or(0) as u32
            } else {
                param_u32(&params, "subject").map_err(invalid)?
            };
            Method::Query {
                query,
                subject,
                semantics,
            }
        }
        "update" => {
            let op = params
                .get("op")
                .and_then(Json::as_str)
                .ok_or_else(|| invalid("missing `op`".into()))?;
            let update = match op {
                "set_node_access" => UpdateOp::SetNodeAccess {
                    pos: param_u64(&params, "pos").map_err(invalid)?,
                    subject: param_u32(&params, "subject").map_err(invalid)?,
                    allow: param_bool(&params, "allow").map_err(invalid)?,
                },
                "set_subtree_access" => UpdateOp::SetSubtreeAccess {
                    pos: param_u64(&params, "pos").map_err(invalid)?,
                    subject: param_u32(&params, "subject").map_err(invalid)?,
                    allow: param_bool(&params, "allow").map_err(invalid)?,
                },
                "fail_after_dirty" => UpdateOp::FailAfterDirty {
                    pos: param_u64(&params, "pos").map_err(invalid)?,
                },
                other => return Err(invalid(format!("unknown update op `{other}`"))),
            };
            Method::Update(update)
        }
        "register_subject" => Method::RegisterSubject {
            copy_from: match params.get("copy_from") {
                None | Some(Json::Null) => None,
                Some(c) => Some(
                    c.as_uint()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| invalid("`copy_from` must be a u32".into()))?,
                ),
            },
            groups: param_groups(&params, "groups").map_err(invalid)?,
        },
        "set_membership" => Method::SetMembership {
            subject: param_u32(&params, "subject").map_err(invalid)?,
            group: param_u32(&params, "group").map_err(invalid)?,
            member: param_bool(&params, "member").map_err(invalid)?,
        },
        "stats" => Method::Stats,
        "metrics" => Method::Metrics,
        "recover" => Method::Recover,
        "shutdown" => Method::Shutdown,
        other => return Err(invalid(format!("unknown method `{other}`"))),
    };
    Ok(Request {
        id,
        method,
        deadline_ms,
    })
}

fn semantics_name(semantics: WireSemantics) -> &'static str {
    match semantics {
        WireSemantics::None => "none",
        WireSemantics::Binding => "binding",
        WireSemantics::Subtree => "subtree",
    }
}

fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Appends `req` as a request payload: every object's keys in sorted order,
/// as the tree encoder would emit them.
pub(crate) fn write_request(out: &mut Vec<u8>, req: &Request) {
    out.push(b'{');
    if let Some(ms) = req.deadline_ms {
        out.extend_from_slice(b"\"deadline_ms\":");
        write_u64(out, ms);
        out.push(b',');
    }
    out.extend_from_slice(b"\"id\":");
    write_u64(out, req.id);
    out.extend_from_slice(b",\"method\":");
    write_str(out, req.method.name());
    match &req.method {
        Method::Ping | Method::Stats | Method::Metrics | Method::Recover | Method::Shutdown => {}
        Method::Query {
            query,
            subject,
            semantics,
        } => {
            out.extend_from_slice(b",\"params\":{\"query\":");
            write_str(out, query);
            out.extend_from_slice(b",\"semantics\":");
            write_str(out, semantics_name(*semantics));
            out.extend_from_slice(b",\"subject\":");
            write_u64(out, u64::from(*subject));
            out.push(b'}');
        }
        Method::Update(
            op @ (UpdateOp::SetNodeAccess {
                pos,
                subject,
                allow,
            }
            | UpdateOp::SetSubtreeAccess {
                pos,
                subject,
                allow,
            }),
        ) => {
            out.extend_from_slice(b",\"params\":{\"allow\":");
            write_bool(out, *allow);
            out.extend_from_slice(b",\"op\":");
            write_str(
                out,
                match op {
                    UpdateOp::SetNodeAccess { .. } => "set_node_access",
                    _ => "set_subtree_access",
                },
            );
            out.extend_from_slice(b",\"pos\":");
            write_u64(out, *pos);
            out.extend_from_slice(b",\"subject\":");
            write_u64(out, u64::from(*subject));
            out.push(b'}');
        }
        Method::Update(UpdateOp::FailAfterDirty { pos }) => {
            out.extend_from_slice(b",\"params\":{\"op\":\"fail_after_dirty\",\"pos\":");
            write_u64(out, *pos);
            out.push(b'}');
        }
        Method::RegisterSubject { copy_from, groups } => {
            out.extend_from_slice(b",\"params\":{");
            if let Some(c) = copy_from {
                out.extend_from_slice(b"\"copy_from\":");
                write_u64(out, u64::from(*c));
                out.push(b',');
            }
            out.extend_from_slice(b"\"groups\":[");
            for (i, g) in groups.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_u64(out, u64::from(*g));
            }
            out.extend_from_slice(b"]}");
        }
        Method::SetMembership {
            subject,
            group,
            member,
        } => {
            out.extend_from_slice(b",\"params\":{\"group\":");
            write_u64(out, u64::from(*group));
            out.extend_from_slice(b",\"member\":");
            write_bool(out, *member);
            out.extend_from_slice(b",\"subject\":");
            write_u64(out, u64::from(*subject));
            out.push(b'}');
        }
    }
    out.push(b'}');
}

/// Encodes a request (client side).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    write_request(&mut out, req);
    out
}

/// Appends a success response carrying `result`.
pub(crate) fn write_ok(out: &mut Vec<u8>, id: u64, result: &Json) {
    out.extend_from_slice(b"{\"id\":");
    write_u64(out, id);
    out.extend_from_slice(b",\"result\":");
    result.encode_into(out);
    out.push(b'}');
}

/// Appends `"matches":[p1,p2,…]`, the member of a query result that carries
/// the answer. It depends on the answer alone — not on the request id or the
/// epoch around it — which is what lets the result cache keep these bytes
/// beside the entry they encode.
pub fn write_matches_member(out: &mut Vec<u8>, matches: &[u64]) {
    out.reserve(12 + matches.len() * 8);
    out.extend_from_slice(b"\"matches\":[");
    for (i, &pos) in matches.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_u64(out, pos);
    }
    out.push(b']');
}

/// `{"id":…,"result":{"epoch":…,` — what precedes a query result's
/// `matches` member; `}}` follows it.
fn query_ok_head(out: &mut Vec<u8>, id: u64, epoch: u64) {
    out.extend_from_slice(b"{\"id\":");
    write_u64(out, id);
    out.extend_from_slice(b",\"result\":{\"epoch\":");
    write_u64(out, epoch);
    out.push(b',');
}

/// Appends a query's success response straight from the answer.
pub fn write_query_ok(out: &mut Vec<u8>, id: u64, epoch: u64, matches: &[u64]) {
    query_ok_head(out, id, epoch);
    write_matches_member(out, matches);
    out.extend_from_slice(b"}}");
}

/// Appends a query's success response around an already encoded
/// [`matches` member](write_matches_member): what a result-cache hit costs.
pub fn write_query_ok_spliced(out: &mut Vec<u8>, id: u64, epoch: u64, matches_member: &[u8]) {
    out.reserve(64 + matches_member.len());
    query_ok_head(out, id, epoch);
    out.extend_from_slice(matches_member);
    out.extend_from_slice(b"}}");
}

/// Appends a typed error response (fail-closed: no result attached).
pub(crate) fn write_err(out: &mut Vec<u8>, id: u64, code: ErrorCode, message: &str) {
    out.extend_from_slice(b"{\"error\":{\"code\":");
    write_str(out, code.as_str());
    out.extend_from_slice(b",\"message\":");
    write_str(out, message);
    out.extend_from_slice(b"},\"id\":");
    write_u64(out, id);
    out.push(b'}');
}

/// Encodes a success response.
pub fn ok_response(id: u64, result: Json) -> Vec<u8> {
    let mut out = Vec::new();
    write_ok(&mut out, id, &result);
    out
}

/// A decoded response (client side): the echoed id plus either a result or
/// a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The echoed request id.
    pub id: u64,
    /// `Ok(result)` or `Err((code, message))`.
    pub outcome: Result<Json, (ErrorCode, String)>,
}

/// Decodes a response frame payload (client side). The result (or the error
/// message) is moved out of the parsed object, never copied.
pub fn decode_response(payload: &[u8]) -> Option<Response> {
    let Json::Obj(mut top) = json::parse(payload).ok()? else {
        return None;
    };
    let id = top.get("id").and_then(Json::as_uint)?;
    if let Some(mut err) = top.remove("error") {
        let code = ErrorCode::parse(err.get("code").and_then(Json::as_str)?)?;
        let message = match &mut err {
            Json::Obj(m) => match m.remove("message") {
                Some(Json::Str(s)) => s,
                _ => String::new(),
            },
            _ => String::new(),
        };
        return Some(Response {
            id,
            outcome: Err((code, message)),
        });
    }
    let result = top.remove("result")?;
    Some(Response {
        id,
        outcome: Ok(result),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = vec![
            Request {
                id: 1,
                method: Method::Ping,
                deadline_ms: None,
            },
            Request {
                id: 7,
                method: Method::Query {
                    query: "//a[b=\"x\"]/c".into(),
                    subject: 3,
                    semantics: WireSemantics::Subtree,
                },
                deadline_ms: Some(250),
            },
            Request {
                id: u64::from(u32::MAX),
                method: Method::Update(UpdateOp::SetSubtreeAccess {
                    pos: 99,
                    subject: 2,
                    allow: false,
                }),
                deadline_ms: None,
            },
            Request {
                id: 3,
                method: Method::RegisterSubject {
                    copy_from: None,
                    groups: vec![4, 5],
                },
                deadline_ms: None,
            },
            Request {
                id: 4,
                method: Method::SetMembership {
                    subject: 9,
                    group: 4,
                    member: true,
                },
                deadline_ms: Some(0),
            },
            Request {
                id: 5,
                method: Method::Shutdown,
                deadline_ms: None,
            },
            Request {
                id: 6,
                method: Method::Update(UpdateOp::SetNodeAccess {
                    pos: u64::from(u32::MAX) + 1,
                    subject: 0,
                    allow: true,
                }),
                deadline_ms: Some(9),
            },
            Request {
                id: 7,
                method: Method::Update(UpdateOp::FailAfterDirty { pos: 1 }),
                deadline_ms: None,
            },
            Request {
                id: 8,
                method: Method::RegisterSubject {
                    copy_from: Some(2),
                    groups: vec![],
                },
                deadline_ms: None,
            },
            Request {
                id: 9,
                method: Method::Query {
                    query: "//a\n\u{1}é".into(),
                    subject: 0,
                    semantics: WireSemantics::None,
                },
                deadline_ms: None,
            },
        ];
        for req in cases {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("decode");
            assert_eq!(back, req);
            // The typed writer emits what the tree encoder would: sorted
            // keys, compact, so re-encoding the parsed tree changes nothing.
            let tree = json::parse(&bytes).expect("a request is JSON");
            assert_eq!(tree.encode(), bytes);
        }
    }

    #[test]
    fn responses_roundtrip_and_echo_ids() {
        let ok = ok_response(42, Json::obj(vec![("pong", Json::Bool(true))]));
        let r = decode_response(&ok).unwrap();
        assert_eq!(r.id, 42);
        assert_eq!(
            r.outcome.unwrap().get("pong").and_then(Json::as_bool),
            Some(true)
        );

        let mut err = Vec::new();
        write_err(&mut err, 43, ErrorCode::Overloaded, "queue full");
        let r = decode_response(&err).unwrap();
        assert_eq!(r.id, 43);
        let (code, msg) = r.outcome.unwrap_err();
        assert_eq!(code, ErrorCode::Overloaded);
        assert_eq!(msg, "queue full");
    }

    #[test]
    fn malformed_vs_invalid_is_the_close_vs_respond_split() {
        // Garbage: close the connection.
        assert_eq!(decode_request(b"not json"), Err(DecodeError::Malformed));
        // JSON without an id: nothing to respond to, close.
        assert_eq!(
            decode_request(b"{\"method\":\"ping\"}"),
            Err(DecodeError::Malformed)
        );
        // A good id with a bad method: typed error response, keep the
        // connection.
        match decode_request(b"{\"id\":9,\"method\":\"frobnicate\"}") {
            Err(DecodeError::Invalid { id: 9, .. }) => {}
            other => panic!("expected Invalid with echoed id, got {other:?}"),
        }
        match decode_request(b"{\"id\":10,\"method\":\"query\",\"params\":{}}") {
            Err(DecodeError::Invalid { id: 10, .. }) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn every_dberror_maps_to_a_distinct_refusal_where_it_matters() {
        use secure_xml::DbError;
        assert_eq!(wire_code(&DbError::Overloaded), ErrorCode::Overloaded);
        assert_eq!(
            wire_code(&DbError::RetentionExceeded {
                seen: 0,
                oldest: 1,
                now: 2
            }),
            ErrorCode::RetentionExceeded
        );
        assert_eq!(wire_code(&DbError::Poisoned), ErrorCode::Poisoned);
        assert_eq!(
            wire_code(&DbError::DeadlineExceeded(Default::default())),
            ErrorCode::DeadlineExceeded
        );
        assert_eq!(wire_code(&DbError::InvalidNode(3)), ErrorCode::Internal);
        // And the codes survive the wire.
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::RetentionExceeded,
            ErrorCode::Poisoned,
            ErrorCode::DeadlineExceeded,
            ErrorCode::InvalidRequest,
            ErrorCode::Draining,
            ErrorCode::Forbidden,
            ErrorCode::ResponseTooLarge,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
    }
}
