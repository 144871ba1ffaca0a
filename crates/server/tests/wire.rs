//! Wire robustness tests: the protocol decoder under adversarial bytes,
//! pipelined request attribution over a live socket, and the
//! client-disconnect cancellation contract.

use dol_acl::FnOracle;
use dol_server::frame::{self, DEFAULT_MAX_FRAME};
use dol_server::proto::{self, Method, Request, WireSemantics};
use dol_server::{Client, ClientError, ErrorCode, Json, Server, ServerConfig, UpdateOp};
use proptest::prelude::*;
use secure_xml::storage::{Disk, MemDisk, Page, PageId, StorageError};
use secure_xml::{DbConfig, SecureXmlDb};
use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const XML: &str = "<lib><shelf><book>alpha</book><book>beta</book></shelf>\
                   <shelf><book>gamma</book><mag>delta</mag></shelf></lib>";

fn test_db() -> SecureXmlDb {
    SecureXmlDb::from_xml(XML, &FnOracle::new(2, |_, _| true)).expect("build db")
}

/// A write-ahead-log disk whose `sync` takes 300 ms once armed.
#[derive(Default)]
struct SlowSyncDisk {
    inner: MemDisk,
    armed: AtomicBool,
}

impl Disk for SlowSyncDisk {
    fn read_page(&self, id: PageId, buf: &mut Page) -> Result<(), StorageError> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &Page) -> Result<(), StorageError> {
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId, StorageError> {
        self.inner.allocate_page()
    }
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
    fn sync(&self) -> Result<(), StorageError> {
        if self.armed.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(300));
        }
        self.inner.sync()
    }
}

/// [`test_db`] behind a slow committer: saved, then reopened over a
/// write-ahead log whose every sync takes 300 ms, so an update holds the
/// worker (and its admission slot) for a known window.
fn slow_commit_db() -> SecureXmlDb {
    let data = Arc::new(MemDisk::new());
    test_db().save_to_disk(data.clone()).expect("save");
    let log = Arc::new(SlowSyncDisk::default());
    let db = SecureXmlDb::open_on(data, log.clone(), DbConfig::default()).expect("open");
    log.armed.store(true, Ordering::SeqCst);
    db
}

/// One long-lived server shared by every pipelining proptest case (leaked:
/// a drain per case would dominate the test's runtime).
fn shared_server_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let server = Server::start(test_db(), ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        Box::leak(Box::new(server));
        addr
    })
}

// ---------------------------------------------------------------------------
// Parser-level fuzz: arbitrary bytes must never panic (or succeed wrongly).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_and_request_decoders_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        // The frame decoder on raw bytes: any outcome but a panic is fine,
        // and a decoded payload must actually checksum-match.
        let mut r = Cursor::new(bytes.clone());
        let _ = frame::read_frame(&mut r, &[], DEFAULT_MAX_FRAME);
        // The request and response decoders on raw bytes.
        let _ = proto::decode_request(&bytes);
        let _ = proto::decode_response(&bytes);
        // The JSON parser on raw bytes.
        let _ = dol_server::json::parse(&bytes);
    }

    #[test]
    fn corrupted_valid_frames_never_decode_silently(
        payload in proptest::collection::vec(any::<u8>(), 0..80),
        flip_byte in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let wire = frame::encode_frame(&payload);
        let mut corrupt = wire.clone();
        let idx = (flip_byte as usize) % corrupt.len();
        corrupt[idx] ^= 1 << flip_bit;
        let mut r = Cursor::new(corrupt);
        // A flipped bit may enlarge the length prefix so the read runs
        // past the buffer (torn), exceed the cap (oversize), or break
        // the checksum — any of those outcomes is a detected rejection.
        // What must never happen is an unnoticed round-trip: a decode
        // that succeeds must yield the original payload exactly.
        if let Ok(Some(decoded)) = frame::read_frame(&mut r, &[], DEFAULT_MAX_FRAME) {
            prop_assert_eq!(decoded, payload);
        }
    }
}

// ---------------------------------------------------------------------------
// The typed codec against its oracles: the tree encoder for what it writes,
// `str::parse` for the integers it reads, and a mutation sweep over encoded
// replies for what it must never accept.
// ---------------------------------------------------------------------------

/// A value with exactly `digits` decimal digits (1..=19), within `i64`.
fn with_digits(digits: u32, pick: u64) -> u64 {
    let lo = if digits == 1 {
        0
    } else {
        10u64.pow(digits - 1)
    };
    let hi = if digits == 19 {
        i64::MAX as u64
    } else {
        10u64.pow(digits) - 1
    };
    lo + pick % (hi - lo + 1)
}

/// Positions spread over every digit length, with the edges mixed in.
fn arb_matches() -> impl Strategy<Value = Vec<u64>> {
    let value = (0u32..21, any::<u64>()).prop_map(|(class, pick)| match class {
        0 => 0,
        20 => i64::MAX as u64,
        digits => with_digits(digits, pick),
    });
    proptest::collection::vec(value, 0..40)
}

fn tree_reply(id: u64, epoch: u64, matches: &[u64]) -> Vec<u8> {
    proto::ok_response(
        id,
        Json::obj(vec![
            (
                "matches",
                Json::Arr(matches.iter().map(|&p| Json::Int(p as i64)).collect()),
            ),
            ("epoch", Json::Int(epoch as i64)),
        ]),
    )
}

/// A random protocol value: scalars at the leaves, arrays and objects above,
/// strings drawn from an alphabet that needs every kind of escape.
fn random_json(rng: &mut proptest::TestRng, depth: u32) -> Json {
    const ALPHABET: [char; 10] = ['a', 'Z', '"', '\\', '\n', '\t', '\u{1}', 'é', '🦀', ' '];
    let string = |rng: &mut proptest::TestRng| -> String {
        (0..rng.below(6))
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    };
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Int(rng.next_u64() as i64),
        3 => Json::Int(rng.below(100_000) as i64 - 50_000),
        4 => Json::Str(string(rng)),
        5 => Json::Arr(
            (0..rng.below(5))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn typed_query_reply_is_the_tree_encoding_byte_for_byte(
        // Anything an `i64` holds: the tree oracle stores ids and epochs so.
        id in any::<u64>().prop_map(|v| v >> 1),
        epoch in any::<u64>().prop_map(|v| v >> 1),
        small in any::<bool>(),
        matches in arb_matches(),
    ) {
        // Half the cases with the small ids and epochs real traffic has.
        let (id, epoch) = if small { (id % 1000, epoch % 1000) } else { (id, epoch) };
        let oracle = tree_reply(id, epoch, &matches);
        let mut typed = Vec::new();
        proto::write_query_ok(&mut typed, id, epoch, &matches);
        prop_assert_eq!(&typed, &oracle);
        // The cache-hit form: the member encoded once, the rest around it.
        let mut member = Vec::new();
        proto::write_matches_member(&mut member, &matches);
        let mut spliced = Vec::new();
        proto::write_query_ok_spliced(&mut spliced, id, epoch, &member);
        prop_assert_eq!(&spliced, &oracle);
        // And it reads back as what was written.
        let back = proto::decode_response(&typed).expect("decodable").outcome.expect("ok");
        let got: Option<Vec<u64>> = back
            .get("matches")
            .and_then(Json::as_arr)
            .and_then(|a| a.iter().map(Json::as_uint).collect());
        prop_assert_eq!(got, Some(matches));
        prop_assert_eq!(back.get("epoch").and_then(Json::as_uint), Some(epoch));
    }

    #[test]
    fn parse_inverts_encode(seed in any::<u64>()) {
        let v = random_json(&mut proptest::TestRng::new(seed), 3);
        prop_assert_eq!(dol_server::json::parse(&v.encode()), Ok(v));
    }

    #[test]
    fn inline_integers_agree_with_str_parse(
        len in 1usize..21,
        negative in any::<bool>(),
        leading_zeros in 0usize..3,
        digits in proptest::collection::vec(0u8..10, 20),
    ) {
        let zeros = leading_zeros.min(len - 1);
        let mut text = String::from(if negative { "-" } else { "" });
        text.push_str(&"0".repeat(zeros));
        text.extend(digits[..len - zeros].iter().map(|d| char::from(b'0' + d)));
        check_integer(&text);
    }
}

fn check_integer(text: &str) {
    use dol_server::json::{parse, JsonError};
    let expect = match text.parse::<i64>() {
        Ok(n) => Ok(Json::Int(n)),
        Err(_) => Err(JsonError::BadNumber(0)),
    };
    assert_eq!(parse(text.as_bytes()), expect, "{text}");
}

#[test]
fn integer_edges_agree_with_str_parse() {
    let max = i64::MAX.to_string();
    let min = i64::MIN.to_string();
    for text in [
        "0",
        "-0",
        "007",
        "-007",
        &max,
        &min,
        "9223372036854775808",  // i64::MAX + 1
        "-9223372036854775809", // i64::MIN - 1
        "999999999999999999",   // 18 digits: the last inline length
        "1000000000000000000",  // 19 digits: the first checked one
        "00000000000000000009", // 20 digits, value 9
        "99999999999999999999",
    ] {
        check_integer(text);
    }
    use dol_server::json::{parse, JsonError};
    assert_eq!(parse(b"1.5"), Err(JsonError::BadNumber(0)));
    assert_eq!(parse(b"1e3"), Err(JsonError::BadNumber(0)));
    assert_eq!(parse(b"-"), Err(JsonError::Syntax(0)));
}

#[derive(Debug, Clone)]
enum Mutation {
    /// One bit flipped at this offset (modulo the frame length).
    Flip(usize, u8),
    /// The frame cut short by this many bytes.
    Truncate(usize),
    /// These bytes written over the frame at this offset.
    Splice(usize, Vec<u8>),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, bit)),
        (1usize..64).prop_map(Mutation::Truncate),
        (
            any::<usize>(),
            proptest::collection::vec(any::<u8>(), 1..12)
        )
            .prop_map(|(at, bytes)| Mutation::Splice(at, bytes)),
    ]
}

fn mutate(bytes: &[u8], mutation: &Mutation) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match mutation {
        Mutation::Flip(at, bit) => out[at % bytes.len()] ^= 1 << bit,
        Mutation::Truncate(cut) => out.truncate(bytes.len().saturating_sub(*cut)),
        Mutation::Splice(at, patch) => {
            let at = at % bytes.len();
            for (dst, src) in out[at..].iter_mut().zip(patch) {
                *dst = *src;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn corrupted_reply_frames_never_yield_other_matches(
        id in 0u64..1_000_000,
        epoch in 0u64..1_000,
        matches in arb_matches(),
        mutation in arb_mutation(),
    ) {
        let mut payload = Vec::new();
        proto::write_query_ok(&mut payload, id, epoch, &matches);
        // Through the frame: whatever still passes the CRC is the reply
        // that was sent, and decodes to the matches that were sent.
        let wire = mutate(&frame::encode_frame(&payload), &mutation);
        if let Ok(Some(got)) = frame::read_frame(&mut Cursor::new(wire), &[], DEFAULT_MAX_FRAME) {
            prop_assert_eq!(&got, &payload);
            prop_assert_eq!(proto::decode_response(&got), proto::decode_response(&payload));
        }
        // Past the frame (a CRC collision, or a hostile peer that checksums
        // its garbage): the decoder alone must hold. It may refuse or it
        // may read some other well-formed reply; it must not panic.
        let _ = proto::decode_response(&mutate(&payload, &mutation));
    }
}

// ---------------------------------------------------------------------------
// Live-socket pipelining: interleaved requests, truncated tails, flipped
// bits — the server must answer the valid prefix with correctly attributed
// ids, then close; never hang, never mis-attribute.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Tail {
    /// Stream ends cleanly on a frame boundary.
    Clean,
    /// Stream ends mid-frame (torn).
    Truncated(usize),
    /// One bit of the last frame flipped.
    BitFlip(usize),
    /// A hostile oversize length prefix appended.
    Oversize,
    /// Raw garbage appended.
    Garbage(Vec<u8>),
}

fn arb_tail() -> impl Strategy<Value = Tail> {
    prop_oneof![
        Just(Tail::Clean),
        (1usize..64).prop_map(Tail::Truncated),
        (0usize..512).prop_map(Tail::BitFlip),
        Just(Tail::Oversize),
        proptest::collection::vec(any::<u8>(), 1..40).prop_map(Tail::Garbage),
    ]
}

fn read_all_frames(stream: &mut TcpStream) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        match frame::read_frame(stream, &[], DEFAULT_MAX_FRAME) {
            Ok(Some(p)) => out.push(p),
            Ok(None) | Err(_) => return out,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipelined_requests_are_answered_by_id_until_the_stream_breaks(
        kinds in proptest::collection::vec(0u8..3, 1..10),
        tail in arb_tail(),
    ) {
        let addr = shared_server_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        // Encode the whole pipeline up front: ids 1..=n, a mix of pings,
        // queries, and (decodable but) invalid requests.
        let mut wire = Vec::new();
        let mut sent: Vec<(u64, u8)> = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            let id = i as u64 + 1;
            let payload = match kind {
                0 => proto::encode_request(&Request {
                    id,
                    method: Method::Ping,
                    deadline_ms: None,
                }),
                1 => proto::encode_request(&Request {
                    id,
                    method: Method::Query {
                        query: "//book".into(),
                        subject: 0,
                        semantics: WireSemantics::Binding,
                    },
                    deadline_ms: None,
                }),
                _ => format!("{{\"id\":{id},\"method\":\"no_such_method\"}}").into_bytes(),
            };
            sent.push((id, *kind));
            wire.extend_from_slice(&frame::encode_frame(&payload));
        }
        // How many requests survive the tail corruption intact.
        let mut intact = sent.len();
        match &tail {
            Tail::Clean => {}
            Tail::Truncated(cut) => {
                let cut = (*cut).min(wire.len() - 1).max(1);
                wire.truncate(wire.len() - cut);
                // Dropping bytes clips at least the last request.
                intact = 0;
                let mut consumed = 0usize;
                for (i, kind) in kinds.iter().enumerate() {
                    let id = i as u64 + 1;
                    let len = match kind {
                        0 => proto::encode_request(&Request {
                            id,
                            method: Method::Ping,
                            deadline_ms: None,
                        })
                        .len(),
                        1 => proto::encode_request(&Request {
                            id,
                            method: Method::Query {
                                query: "//book".into(),
                                subject: 0,
                                semantics: WireSemantics::Binding,
                            },
                            deadline_ms: None,
                        })
                        .len(),
                        _ => format!("{{\"id\":{id},\"method\":\"no_such_method\"}}").len(),
                    } + frame::HEADER_SIZE;
                    if consumed + len <= wire.len() {
                        consumed += len;
                        intact += 1;
                    } else {
                        break;
                    }
                }
            }
            Tail::BitFlip(at) => {
                // Flip a bit somewhere in the final frame: every earlier
                // request is still intact.
                let last_start = {
                    let mut consumed = 0usize;
                    let mut start = 0usize;
                    let mut r = Cursor::new(wire.clone());
                    while let Ok(Some(p)) = frame::read_frame(&mut r, &[], DEFAULT_MAX_FRAME) {
                        start = consumed;
                        consumed += frame::HEADER_SIZE + p.len();
                    }
                    start
                };
                let idx = last_start + at % (wire.len() - last_start);
                wire[idx] ^= 0x10;
                intact = sent.len() - 1;
            }
            Tail::Oversize => {
                wire.extend_from_slice(&u32::MAX.to_le_bytes());
                wire.extend_from_slice(&0u32.to_le_bytes());
            }
            Tail::Garbage(g) => {
                // Garbage after valid frames: decoded as a torn/oversize/
                // CRC-broken header; all real requests intact.
                wire.extend_from_slice(g);
            }
        }

        stream.write_all(&wire).expect("write pipeline");
        let _ = stream.shutdown(Shutdown::Write);
        let responses = read_all_frames(&mut stream);

        // Attribution: every response id echoes a sent id, at most once,
        // and its body matches that id's method.
        let mut seen = std::collections::HashSet::new();
        for payload in &responses {
            let resp = proto::decode_response(payload).expect("decodable response");
            prop_assert!(seen.insert(resp.id), "duplicate response id {}", resp.id);
            let kind = sent
                .iter()
                .find(|(id, _)| *id == resp.id)
                .map(|(_, k)| *k)
                .expect("response id was never sent");
            match (kind, &resp.outcome) {
                (0, Ok(body)) => {
                    prop_assert_eq!(body.get("pong").and_then(Json::as_bool), Some(true))
                }
                (1, Ok(body)) => {
                    prop_assert!(body.get("matches").is_some(), "query answer without matches")
                }
                // A query still queued when the stream broke is cancelled
                // by the close and refused — never half-answered.
                (1, Err((ErrorCode::DeadlineExceeded, _))) => {}
                (2, Err((ErrorCode::InvalidRequest, _))) => {}
                (k, out) => prop_assert!(false, "kind {} got unexpected outcome {:?}", k, out),
            }
        }
        // Completeness: every request that was fully on the wire before
        // the corruption point is answered (BitFlip corrupts only the last
        // frame; truncation clips a suffix; garbage/oversize none).
        prop_assert!(
            responses.len() >= intact,
            "only {} responses for {} intact requests",
            responses.len(),
            intact
        );
    }
}

// ---------------------------------------------------------------------------
// Regression: a client that disconnects mid-request cancels its in-flight
// work through the CancelToken and releases its admission slot.
// ---------------------------------------------------------------------------

#[test]
fn disconnect_mid_request_cancels_and_releases_admission_slot() {
    // A slow committer makes the update hold the worker (and its admission
    // slot) for a known window; the pipelined query sits behind it with a
    // registered cancel token.
    let cfg = ServerConfig {
        max_inflight: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(slow_commit_db(), cfg).expect("bind");
    let addr = server.local_addr().to_string();

    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let update = proto::encode_request(&Request {
            id: 1,
            method: Method::Update(UpdateOp::SetNodeAccess {
                pos: 1,
                subject: 1,
                allow: false,
            }),
            deadline_ms: None,
        });
        let query = proto::encode_request(&Request {
            id: 2,
            method: Method::Query {
                query: "//book".into(),
                subject: 0,
                semantics: WireSemantics::Binding,
            },
            deadline_ms: Some(60_000),
        });
        let mut wire = frame::encode_frame(&update);
        wire.extend_from_slice(&frame::encode_frame(&query));
        stream.write_all(&wire).expect("write");
        // Give the reader a moment to admit both requests, then vanish.
        let start = Instant::now();
        while server.in_flight() < 2 && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.in_flight(), 2, "both requests should hold slots");
        drop(stream); // abrupt disconnect, update still committing
    }

    // Both slots must come back without any client involvement.
    let start = Instant::now();
    while server.in_flight() > 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.in_flight(), 0, "slots leaked after disconnect");
    // The disconnect cancelled the registered in-flight tokens...
    assert!(
        server.metrics().requests("update") >= 1,
        "update should have been dispatched"
    );
    let cancelled = {
        // Token cancellation is observable through the queued query's
        // refusal: its deadline was cancelled before dispatch, so it was
        // refused as deadline_exceeded without touching the engine.
        server.metrics().refusals(ErrorCode::DeadlineExceeded)
    };
    assert!(
        cancelled >= 1,
        "queued query should be refused via its cancelled token"
    );

    // ...and the freed slots serve a fresh client immediately.
    let mut client = Client::connect(&addr, Duration::from_secs(10)).expect("reconnect");
    client.ping().expect("ping after slot release");
    let matches = client
        .query("//book", 0, WireSemantics::Binding, None)
        .expect("query after slot release");
    assert!(!matches.is_empty());
}

// ---------------------------------------------------------------------------
// Regression: pipelined requests that repeat a client-chosen id each keep
// their own cancel token.
// ---------------------------------------------------------------------------

#[test]
fn duplicate_inflight_ids_are_each_cancelled_on_disconnect() {
    // As above, a slow committer holds the worker; behind the update sit two
    // queries carrying the *same* id. Keyed by id, the second's token would
    // replace the first's in the cancel registry.
    let cfg = ServerConfig {
        max_inflight: 3,
        ..ServerConfig::default()
    };
    let server = Server::start(slow_commit_db(), cfg).expect("bind");
    let addr = server.local_addr().to_string();
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut wire = frame::encode_frame(&proto::encode_request(&Request {
            id: 1,
            method: Method::Update(UpdateOp::SetNodeAccess {
                pos: 1,
                subject: 1,
                allow: false,
            }),
            deadline_ms: None,
        }));
        let query = frame::encode_frame(&proto::encode_request(&Request {
            id: 7,
            method: Method::Query {
                query: "//book".into(),
                subject: 0,
                semantics: WireSemantics::Binding,
            },
            deadline_ms: Some(60_000),
        }));
        wire.extend_from_slice(&query);
        wire.extend_from_slice(&query);
        stream.write_all(&wire).expect("write");
        let start = Instant::now();
        while server.in_flight() < 3 && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            server.in_flight(),
            3,
            "all three requests should hold slots"
        );
        drop(stream); // abrupt disconnect, update still committing
    }
    let start = Instant::now();
    while server.in_flight() > 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.in_flight(), 0, "slots leaked after disconnect");
    // The update and *both* queries were registered, so all three tokens
    // fired, and both queries were refused at dispatch through theirs.
    assert_eq!(server.metrics().cancelled_disconnects(), 3);
    assert_eq!(server.metrics().refusals(ErrorCode::DeadlineExceeded), 2);
}

// ---------------------------------------------------------------------------
// Regression: an answer too large for any client's frame decoder is a typed
// refusal on a connection that stays open, not an oversize frame.
// ---------------------------------------------------------------------------

#[test]
fn oversized_answer_is_refused_typed_and_the_connection_lives() {
    let books: String = (0..400).map(|i| format!("<book>{i}</book>")).collect();
    let db = SecureXmlDb::from_xml(
        &format!("<lib><shelf>{books}</shelf><mag>m</mag></lib>"),
        &FnOracle::new(1, |_, _| true),
    )
    .expect("build db");
    let cfg = ServerConfig {
        max_frame: 512,
        ..ServerConfig::default()
    };
    let server = Server::start(db, cfg).expect("bind");
    let mut c = Client::connect(&server.local_addr().to_string(), Duration::from_secs(10))
        .expect("connect");

    // Twice: the first miss executes on the worker, the second is a
    // result-cache hit answered on the reader thread. Both must refuse.
    for _ in 0..2 {
        match c.query("//book", 0, WireSemantics::Binding, None) {
            Err(ClientError::Server(ErrorCode::ResponseTooLarge, msg)) => {
                assert!(
                    msg.contains("512-byte frame cap") && msg.contains("response of "),
                    "the refusal should carry the size and the cap: {msg}"
                );
            }
            other => panic!("expected response_too_large, got {other:?}"),
        }
    }
    // The connection is still usable, and answers that fit still arrive.
    c.ping().expect("ping after the refusal");
    assert_eq!(
        c.query("//mag", 0, WireSemantics::Binding, None)
            .expect("a small answer")
            .len(),
        1
    );
    assert_eq!(server.metrics().refusals(ErrorCode::ResponseTooLarge), 2);
    let text = c.metrics_text();
    // The metrics text itself outgrows this cap; it is refused the same way.
    assert!(matches!(
        text,
        Err(ClientError::Server(ErrorCode::ResponseTooLarge, _))
    ));
}

// ---------------------------------------------------------------------------
// Regression: a request naming a subject the database does not know is a
// typed refusal; the committer and the handle carry on.
// ---------------------------------------------------------------------------

#[test]
fn unknown_subjects_are_refused_typed_and_the_server_carries_on() {
    let server = Server::start(test_db(), ServerConfig::default()).expect("bind");
    let mut c = Client::connect(&server.local_addr().to_string(), Duration::from_secs(10))
        .expect("connect");
    let invalid = |r: Result<(), ClientError>| {
        matches!(r, Err(ClientError::Server(ErrorCode::InvalidRequest, _)))
    };
    // Two subjects (0 and 1), no group space.
    let update = UpdateOp::SetNodeAccess {
        pos: 1,
        subject: 7,
        allow: true,
    };
    assert!(invalid(c.update(update, None)));
    assert!(invalid(c.set_membership(7, 0, true).map(|_| ())));
    assert!(invalid(c.register_subject(Some(99), &[]).map(|_| ())));
    // The committer survived and the handle is healthy: a valid update
    // commits, and the server drains.
    let valid = UpdateOp::SetNodeAccess {
        pos: 1,
        subject: 1,
        allow: false,
    };
    c.update(valid, None).expect("a valid update commits");
    let stats = c.stats().expect("stats");
    let commit = |key: &str| {
        stats
            .get("commit")
            .and_then(|c| c.get(key))
            .and_then(Json::as_uint)
    };
    assert_eq!(
        (commit("committed"), commit("rejected")),
        (Some(1), Some(1))
    );
    c.shutdown().expect("shutdown ack");
    server.wait();
}

// ---------------------------------------------------------------------------
// End-to-end smoke of the typed client against a live server.
// ---------------------------------------------------------------------------

#[test]
fn client_roundtrip_query_update_stats_metrics() {
    let server = Server::start(test_db(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr, Duration::from_secs(10)).expect("connect");

    c.ping().expect("ping");
    let before = c
        .query("//book", 1, WireSemantics::Binding, None)
        .expect("query");
    assert_eq!(before.len(), 3);
    // Revoke one book for subject 1 and observe the change.
    c.update(
        UpdateOp::SetNodeAccess {
            pos: before[0],
            subject: 1,
            allow: false,
        },
        None,
    )
    .expect("update");
    let after = c
        .query("//book", 1, WireSemantics::Binding, None)
        .expect("query after update");
    assert_eq!(after.len(), 2);

    // A pre-expired deadline is refused, not served from the warm cache.
    match c.query("//book", 1, WireSemantics::Binding, Some(0)) {
        Err(ClientError::Server(ErrorCode::DeadlineExceeded, _)) => {}
        other => panic!("expected deadline refusal, got {other:?}"),
    }

    let sid = c.register_subject(Some(0), &[]).expect("register");
    assert!(u64::from(sid) >= 2);

    let stats = c.stats().expect("stats");
    assert!(stats.get("commit").is_some() && stats.get("io").is_some());
    assert_eq!(
        stats
            .get("commit")
            .and_then(|c| c.get("committed"))
            .and_then(Json::as_uint),
        Some(1)
    );
    let text = c.metrics_text().expect("metrics");
    assert!(text.contains("dol_requests_total{method=\"query\"}"));
    assert!(text.contains("dol_refusals_total{code=\"deadline_exceeded\"} 1"));

    // HTTP scrape on the same port.
    let mut http = TcpStream::connect(&addr).expect("http connect");
    http.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("http write");
    let mut body = String::new();
    let _ = http.read_to_string(&mut body);
    assert!(body.starts_with("HTTP/1.1 200 OK"));
    assert!(body.contains("dol_requests_total"));

    // Graceful drain over the wire: responds, then stops the server.
    c.shutdown().expect("shutdown ack");
    server.wait();
}
