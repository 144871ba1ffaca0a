//! Length-prefixed, CRC-framed records over a byte stream.
//!
//! One frame is `[len: u32 LE][crc: u32 LE][payload: len bytes]`, where
//! `crc` is CRC-32C of the payload (the same polynomial the storage layer
//! trailers every page with). The decoder is the trust boundary of the
//! server: it must survive arbitrary bytes from the network, so every
//! failure mode is a typed [`FrameError`] and none of them can panic, hang
//! past the socket's read timeout, or allocate more than
//! [`max_frame`](read_frame) bytes:
//!
//! * a clean EOF **between** frames is a normal close (`Ok(None)`);
//! * an EOF or timeout **inside** a frame is a torn frame;
//! * a length above the cap is refused before any payload is read;
//! * a CRC mismatch (bit flip in transit or a desynchronized stream) is
//!   surfaced as [`FrameError::Crc`].
//!
//! On any `Err` the connection is closed — framing cannot resynchronize a
//! corrupt stream, and the database is never touched by an undecoded frame.

use dol_storage::checksum::crc32c;
use std::io::{self, Read, Write};

/// Frame header size: length + CRC, both little-endian `u32`.
pub const HEADER_SIZE: usize = 8;

/// Default cap on a single frame's payload (1 MiB): larger than any
/// legitimate protocol message by orders of magnitude, small enough that a
/// hostile length prefix cannot balloon server memory.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be decoded. Every variant closes the connection.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended (or timed out) mid-header or mid-payload.
    Torn,
    /// The length prefix exceeded the frame cap.
    Oversize(usize),
    /// The payload's CRC-32C did not match the header.
    Crc {
        /// The checksum the header promised.
        expect: u32,
        /// The checksum of the payload actually read.
        got: u32,
    },
    /// The underlying socket failed (reset, shutdown, timeout, ...).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn => write!(f, "torn frame (EOF inside a record)"),
            FrameError::Oversize(n) => write!(f, "frame of {n} bytes exceeds the cap"),
            FrameError::Crc { expect, got } => {
                write!(
                    f,
                    "frame CRC mismatch (header {expect:#010x}, payload {got:#010x})"
                )
            }
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Reads bytes until `buf` is full. Distinguishes EOF-before-any-byte
/// (`Ok(false)`) from EOF-midway (`Err(Torn)`).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(FrameError::Torn)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // A read timeout: idle between frames is a quiet close-worthy
                // condition, a stall inside one is a torn frame. Either way
                // the caller closes; report which for the log line.
                return if filled == 0 {
                    Err(FrameError::Io(e))
                } else {
                    Err(FrameError::Torn)
                };
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame. `Ok(None)` is a clean close (EOF exactly on a frame
/// boundary). `preread` carries bytes already consumed from the stream by a
/// protocol sniffer (the `/metrics` HTTP peek) — they are treated as the
/// first header bytes.
pub fn read_frame(
    r: &mut impl Read,
    preread: &[u8],
    max_frame: usize,
) -> Result<Option<Vec<u8>>, FrameError> {
    debug_assert!(preread.len() <= HEADER_SIZE);
    let mut header = [0u8; HEADER_SIZE];
    header[..preread.len()].copy_from_slice(preread);
    if preread.is_empty() {
        if !read_full(r, &mut header)? {
            return Ok(None);
        }
    } else if preread.len() < HEADER_SIZE && !read_full(r, &mut header[preread.len()..])? {
        return Err(FrameError::Torn);
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let expect = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_frame {
        return Err(FrameError::Oversize(len));
    }
    let mut payload = vec![0u8; len];
    if !read_full(r, &mut payload)? && len > 0 {
        return Err(FrameError::Torn);
    }
    let got = crc32c(&payload);
    if got != expect {
        return Err(FrameError::Crc { expect, got });
    }
    Ok(Some(payload))
}

/// Starts a frame in `buf`: empties it and reserves the header, which
/// `seal_frame` fills in once the payload has been appended. A writer that
/// produces its payload straight into `buf` thereby builds the whole frame in
/// place, with no second buffer to copy from.
pub(crate) fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0; HEADER_SIZE]);
}

/// Patches the length and CRC of everything after the header into the header
/// `begin_frame` reserved. `frame` is then one complete frame and leaves in
/// a single `write_all`.
pub(crate) fn seal_frame(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(HEADER_SIZE);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32c(payload).to_le_bytes());
}

/// Writes one frame and flushes. Header and payload leave in one write: on a
/// `TCP_NODELAY` socket two writes are two segments and two wake-ups of the
/// peer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Encodes one frame into a buffer.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_SIZE + payload.len());
    begin_frame(&mut out);
    out.extend_from_slice(payload);
    seal_frame(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrips_frames_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xAB; 300]).unwrap();
        let mut r = Cursor::new(wire);
        assert_eq!(
            read_frame(&mut r, &[], DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"hello"
        );
        assert_eq!(
            read_frame(&mut r, &[], DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b""
        );
        assert_eq!(
            read_frame(&mut r, &[], DEFAULT_MAX_FRAME).unwrap().unwrap(),
            vec![0xAB; 300]
        );
        assert!(
            read_frame(&mut r, &[], DEFAULT_MAX_FRAME)
                .unwrap()
                .is_none(),
            "EOF on a boundary is a clean close"
        );
    }

    #[test]
    fn preread_bytes_splice_into_the_header() {
        let wire = encode_frame(b"spliced");
        let (head, rest) = wire.split_at(3);
        let mut r = Cursor::new(rest.to_vec());
        assert_eq!(
            read_frame(&mut r, head, DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap(),
            b"spliced"
        );
    }

    #[test]
    fn torn_oversize_and_flipped_frames_are_typed_errors() {
        // Torn header.
        let mut r = Cursor::new(vec![1, 2, 3]);
        assert!(matches!(
            read_frame(&mut r, &[], DEFAULT_MAX_FRAME),
            Err(FrameError::Torn)
        ));
        // Torn payload.
        let mut wire = encode_frame(b"truncate me");
        wire.truncate(HEADER_SIZE + 4);
        let mut r = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut r, &[], DEFAULT_MAX_FRAME),
            Err(FrameError::Torn)
        ));
        // Oversize length prefix refused before the payload allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        let mut r = Cursor::new(huge);
        assert!(matches!(
            read_frame(&mut r, &[], 1024),
            Err(FrameError::Oversize(_))
        ));
        // One flipped payload bit.
        let mut wire = encode_frame(b"bitflip");
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        let mut r = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut r, &[], DEFAULT_MAX_FRAME),
            Err(FrameError::Crc { .. })
        ));
    }
}
