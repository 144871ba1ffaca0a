//! Deterministic wire counters: how many `write` and `read` calls a frame
//! costs, counted on test doubles. A call on these doubles is a syscall (and,
//! on a `TCP_NODELAY` socket, a write is a segment) on the real thing, so
//! these counts gate what the timing benchmark can only suggest.

use crate::client::send_request;
use crate::frame;
use crate::proto::{self, ErrorCode, Method, Request, WireSemantics};
use crate::server::ReplyWriter;
use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::sync::{Arc, Mutex};

/// Accepts whatever it is given, like a socket with buffer to spare, and
/// counts the calls.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Hands out one queued segment per `read` call, like a socket whose peer
/// sent each with one write, and counts the calls.
struct SegmentReader {
    reads: usize,
    segments: VecDeque<Vec<u8>>,
}

impl Read for SegmentReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        let Some(mut segment) = self.segments.pop_front() else {
            return Ok(0);
        };
        let n = segment.len().min(buf.len());
        buf[..n].copy_from_slice(&segment[..n]);
        if n < segment.len() {
            self.segments.push_front(segment.split_off(n));
        }
        Ok(n)
    }
}

fn query(id: u64) -> Request {
    Request {
        id,
        method: Method::Query {
            query: "//item[location=\"x\"]/name".into(),
            subject: 5,
            semantics: WireSemantics::Binding,
        },
        deadline_ms: Some(250),
    }
}

/// Every frame in `bytes`, in order; panics unless they tile it exactly.
fn frames_of(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut r = io::Cursor::new(bytes);
    let mut out = Vec::new();
    while let Some(payload) = frame::read_frame(&mut r, &[], frame::DEFAULT_MAX_FRAME).unwrap() {
        out.push(payload);
    }
    out
}

#[test]
fn a_response_frame_is_one_write() {
    let sock = Arc::new(Mutex::new(CountingWriter::default()));
    let mut out = ReplyWriter::new(Arc::clone(&sock), 4096);
    let matches: Vec<u64> = (0..300).map(|i| 1000 + 7 * i).collect();

    // A computed answer, a cache hit, a refusal, and an answer over the cap
    // (which becomes a refusal): each is assembled whole and sent once.
    assert_eq!(
        out.assemble(1, |f| proto::write_query_ok(f, 1, 3, &matches)),
        Ok(())
    );
    assert!(out.send());
    let mut member = Vec::new();
    proto::write_matches_member(&mut member, &matches);
    assert_eq!(
        out.assemble(2, |f| proto::write_query_ok_spliced(f, 2, 3, &member)),
        Ok(())
    );
    assert!(out.send());
    assert_eq!(
        out.assemble(3, |f| proto::write_err(f, 3, ErrorCode::Overloaded, "full")),
        Ok(())
    );
    assert!(out.send());
    let huge: Vec<u64> = (0..2000).collect();
    assert_eq!(
        out.assemble(4, |f| proto::write_query_ok(f, 4, 3, &huge)),
        Err(ErrorCode::ResponseTooLarge)
    );
    assert!(out.send());

    let sock = sock.lock().unwrap();
    assert_eq!(sock.writes, 4, "one write per response frame");
    let frames = frames_of(&sock.bytes);
    assert_eq!(frames.len(), 4);
    assert_eq!(
        frames[0].len(),
        frames[1].len(),
        "hit and miss differ only in id"
    );
    let refused = proto::decode_response(&frames[3]).unwrap();
    assert_eq!(refused.id, 4);
    assert!(matches!(
        refused.outcome,
        Err((ErrorCode::ResponseTooLarge, _))
    ));
}

#[test]
fn a_client_request_is_one_write() {
    let mut sock = CountingWriter::default();
    let mut frame_buf = Vec::new();
    for id in 1..=3 {
        send_request(&mut sock, &mut frame_buf, &query(id)).unwrap();
    }
    frame::write_frame(&mut sock, &proto::encode_request(&query(4))).unwrap();
    assert_eq!(sock.writes, 4, "one write per request frame");
    let frames = frames_of(&sock.bytes);
    assert_eq!(frames.len(), 4);
    for (i, payload) in frames.iter().enumerate() {
        assert_eq!(proto::decode_request(payload), Ok(query(i as u64 + 1)));
    }
}

#[test]
fn a_request_frame_is_one_read_on_the_buffered_side() {
    // Five requests arriving as five segments, then a pipelined burst of
    // four in one segment, read the way `serve_conn` reads: a four-byte
    // sniff, then frames, all through one `BufReader`.
    let one = |id| frame::encode_frame(&proto::encode_request(&query(id)));
    let mut segments: VecDeque<Vec<u8>> = (1..=5).map(one).collect();
    segments.push_back((6..=9).flat_map(one).collect());
    let mut rd = BufReader::new(SegmentReader { reads: 0, segments });

    let mut sniff = [0u8; 4];
    rd.read_exact(&mut sniff).unwrap();
    let mut decoded = 0;
    let mut preread: &[u8] = &sniff;
    while let Some(payload) = frame::read_frame(&mut rd, preread, frame::DEFAULT_MAX_FRAME).unwrap()
    {
        preread = &[];
        decoded += 1;
        assert_eq!(proto::decode_request(&payload), Ok(query(decoded)));
        if decoded <= 5 {
            assert_eq!(rd.get_ref().reads, decoded as usize, "one read per frame");
        }
    }
    assert_eq!(decoded, 9);
    // Five lone frames, one burst, and the read that found the close.
    assert_eq!(rd.get_ref().reads, 5 + 1 + 1);
}
