//! Fixed-size pages and little-endian field codecs.
//!
//! Every page reserves its last four bytes for an integrity trailer: a
//! CRC-32C over the first [`PAYLOAD_SIZE`] bytes (see [`crate::checksum`]).
//! On-page formats must therefore address only `0..PAYLOAD_SIZE`; the typed
//! accessors debug-assert this. The trailer is written by
//! [`Page::seal`] when the buffer pool flushes a dirty page and checked by
//! [`Page::verify_checksum`] on every physical read.

use crate::checksum::crc32c;

/// Page size in bytes. The paper's experiments store the document on disk
/// "with each page at 4K bytes".
pub const PAGE_SIZE: usize = 4096;

/// Bytes of a page usable by on-page formats; the remaining
/// `PAGE_SIZE - PAYLOAD_SIZE` bytes hold the CRC-32C trailer.
pub const PAYLOAD_SIZE: usize = PAGE_SIZE - CHECKSUM_SIZE;

/// Size of the integrity trailer (a little-endian CRC-32C).
pub const CHECKSUM_SIZE: usize = 4;

/// Identifier of a page on a [`crate::Disk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel meaning "no page" (end of a block chain, etc.).
    pub const INVALID: PageId = PageId(u32::MAX);

    /// Whether this id is the [`INVALID`](PageId::INVALID) sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }

    /// The raw index, for addressing into a disk image.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A single 4 KiB page buffer with typed little-endian accessors.
///
/// All multi-byte fields in the engine's on-disk formats are little-endian.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page[{} bytes]", PAGE_SIZE)
    }
}

impl Page {
    /// A fresh all-zero page.
    pub fn zeroed() -> Self {
        Self {
            bytes: vec![0u8; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("vec has PAGE_SIZE elements"),
        }
    }

    /// Raw byte access (payload **and** trailer).
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Raw mutable byte access (payload **and** trailer). Writes through
    /// this escape hatch bypass the payload-bounds checks; the buffer pool
    /// re-seals dirty pages before they reach the disk, so trailer bytes
    /// clobbered here are recomputed on flush.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// The checksummed region: everything except the trailer.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.bytes[..PAYLOAD_SIZE]
    }

    /// The CRC-32C currently stored in the trailer.
    #[inline]
    pub fn stored_checksum(&self) -> u32 {
        u32::from_le_bytes(
            self.bytes[PAYLOAD_SIZE..]
                .try_into()
                .expect("4-byte trailer"),
        )
    }

    /// Overwrites the trailer with `crc`.
    #[inline]
    pub fn set_checksum(&mut self, crc: u32) {
        self.bytes[PAYLOAD_SIZE..].copy_from_slice(&crc.to_le_bytes());
    }

    /// The CRC-32C of the current payload.
    #[inline]
    pub fn compute_checksum(&self) -> u32 {
        crc32c(self.payload())
    }

    /// Recomputes the payload CRC and stores it in the trailer. Called by
    /// the buffer pool just before a dirty page is written out.
    #[inline]
    pub fn seal(&mut self) {
        let crc = self.compute_checksum();
        self.set_checksum(crc);
    }

    /// Checks the trailer against the payload, returning
    /// `Err((expected, found))` on mismatch.
    ///
    /// An entirely zero page passes: freshly allocated pages are zero-filled
    /// without going through [`seal`](Page::seal), and an all-zero payload
    /// with an all-zero trailer cannot encode protected content (a zero
    /// block header has `count == 0`).
    pub fn verify_checksum(&self) -> Result<(), (u32, u32)> {
        let found = self.stored_checksum();
        let expected = self.compute_checksum();
        if expected == found {
            return Ok(());
        }
        if found == 0 && self.payload().iter().all(|&b| b == 0) {
            return Ok(());
        }
        Err((expected, found))
    }

    /// Reads a `u16` at byte offset `off`.
    #[inline]
    pub fn get_u16(&self, off: usize) -> u16 {
        debug_assert!(
            off + 2 <= PAYLOAD_SIZE,
            "u16 read at {off} crosses the trailer"
        );
        u16::from_le_bytes(self.bytes[off..off + 2].try_into().expect("2-byte slice"))
    }

    /// Reads a `u32` at byte offset `off`.
    #[inline]
    pub fn get_u32(&self, off: usize) -> u32 {
        debug_assert!(
            off + 4 <= PAYLOAD_SIZE,
            "u32 read at {off} crosses the trailer"
        );
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().expect("4-byte slice"))
    }

    /// Reads a `u64` at byte offset `off`.
    #[inline]
    pub fn get_u64(&self, off: usize) -> u64 {
        debug_assert!(
            off + 8 <= PAYLOAD_SIZE,
            "u64 read at {off} crosses the trailer"
        );
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().expect("8-byte slice"))
    }

    /// Writes a `u16` at byte offset `off`.
    #[inline]
    pub fn put_u16(&mut self, off: usize, v: u16) {
        debug_assert!(
            off + 2 <= PAYLOAD_SIZE,
            "u16 write at {off} crosses the trailer"
        );
        self.bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` at byte offset `off`.
    #[inline]
    pub fn put_u32(&mut self, off: usize, v: u32) {
        debug_assert!(
            off + 4 <= PAYLOAD_SIZE,
            "u32 write at {off} crosses the trailer"
        );
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` at byte offset `off`.
    #[inline]
    pub fn put_u64(&mut self, off: usize, v: u64) {
        debug_assert!(
            off + 8 <= PAYLOAD_SIZE,
            "u64 write at {off} crosses the trailer"
        );
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Copies a byte slice into the page at `off`.
    #[inline]
    pub fn put_bytes(&mut self, off: usize, data: &[u8]) {
        debug_assert!(
            off + data.len() <= PAYLOAD_SIZE,
            "{}-byte write at {off} crosses the trailer",
            data.len()
        );
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// Borrows `len` bytes at `off`.
    #[inline]
    pub fn get_bytes(&self, off: usize, len: usize) -> &[u8] {
        debug_assert!(
            off + len <= PAYLOAD_SIZE,
            "{len}-byte read at {off} crosses the trailer"
        );
        &self.bytes[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut p = Page::zeroed();
        p.put_u16(0, 0xBEEF);
        p.put_u32(2, 0xDEAD_BEEF);
        p.put_u64(6, 0x0123_4567_89AB_CDEF);
        assert_eq!(p.get_u16(0), 0xBEEF);
        assert_eq!(p.get_u32(2), 0xDEAD_BEEF);
        assert_eq!(p.get_u64(6), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn byte_slices() {
        let mut p = Page::zeroed();
        p.put_bytes(100, b"hello");
        assert_eq!(p.get_bytes(100, 5), b"hello");
        assert_eq!(p.get_bytes(105, 1), &[0]);
    }

    #[test]
    fn invalid_page_id() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(PageId(7).to_string(), "p7");
    }

    #[test]
    fn seal_then_verify() {
        let mut p = Page::zeroed();
        p.put_u64(16, 0xFACE_FEED);
        p.seal();
        assert_eq!(p.verify_checksum(), Ok(()));
        assert_eq!(p.stored_checksum(), p.compute_checksum());
    }

    #[test]
    fn zero_page_verifies_without_seal() {
        let p = Page::zeroed();
        assert_eq!(p.stored_checksum(), 0);
        assert_eq!(p.verify_checksum(), Ok(()));
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut p = Page::zeroed();
        p.put_bytes(0, b"important");
        p.seal();
        p.bytes_mut()[3] ^= 0x40; // single bit flip in the payload
        let (expected, found) = p.verify_checksum().unwrap_err();
        assert_ne!(expected, found);
    }

    #[test]
    fn trailer_corruption_is_detected() {
        let mut p = Page::zeroed();
        p.put_bytes(0, b"important");
        p.seal();
        p.bytes_mut()[PAYLOAD_SIZE] ^= 0x01; // flip a bit of the CRC itself
        assert!(p.verify_checksum().is_err());
    }

    #[test]
    fn payload_excludes_trailer() {
        assert_eq!(PAYLOAD_SIZE + CHECKSUM_SIZE, PAGE_SIZE);
        let p = Page::zeroed();
        assert_eq!(p.payload().len(), PAYLOAD_SIZE);
    }
}
