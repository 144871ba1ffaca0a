//! Decoded per-subject codebook columns — the fast path for accessibility.
//!
//! [`Codebook::bit`] resolves a `(code, subject)` pair through the interned
//! ACL entry for `code`: an index into `entries`, a second index into the
//! entry's words, plus the removed-column bookkeeping. Query evaluation asks
//! that question millions of times **for one fixed subject**, so the column
//! for that subject can be decoded once into a packed bitset indexed by code.
//! [`SubjectColumn::check_code`] is then a single shift-and-mask over one
//! contiguous word array — no entry indirection, no hashing, and trivially
//! shareable across worker threads because it is immutable.
//!
//! Columns are **snapshots**. Every codebook mutation that can change a
//! column's bits or its subject's closure (interning a new entry,
//! adding/removing a subject, a membership edit, a new direct column,
//! compaction) bumps the codebook's version stamp; a column remembers the
//! version and subject it was decoded from, so caches can revalidate with
//! two integer compares (see [`SubjectColumn::matches`]).

use crate::codebook::Codebook;
use dol_acl::SubjectId;

/// One subject's accessibility bit for every codebook entry, packed into
/// `u64` words and indexed by access-control code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectColumn {
    subject: SubjectId,
    version: u64,
    codes: usize,
    words: Vec<u64>,
    /// The physical columns whose OR this column is.
    columns: Box<[u32]>,
}

impl SubjectColumn {
    /// Decodes `subject`'s column from `codebook`.
    ///
    /// In a group-factored codebook this is where derivation happens: the
    /// subject's transitive closure is resolved to its physical columns
    /// once, and the column is the OR of those columns over every entry —
    /// after which queries pay exactly the flat-codebook cost.
    pub fn decode(codebook: &Codebook, subject: SubjectId) -> Self {
        let codes = codebook.len();
        let mut words = vec![0u64; codes.div_ceil(64)];
        let cols = codebook.subject_physical_columns(subject);
        for (code, entry) in codebook.iter() {
            if cols.iter().any(|&c| entry.get_or(c as usize)) {
                words[(code >> 6) as usize] |= 1u64 << (code & 63);
            }
        }
        Self {
            subject,
            version: codebook.version(),
            codes,
            words,
            columns: cols.into(),
        }
    }

    /// Whether `subject` is granted by the ACL behind `code` — one shift and
    /// mask, equivalent to [`Codebook::bit`] at the column's snapshot.
    /// Unknown codes (interned after the snapshot) read as deny.
    #[inline]
    pub fn check_code(&self, code: u32) -> bool {
        let w = self.words.get((code >> 6) as usize).copied().unwrap_or(0);
        (w >> (code & 63)) & 1 != 0
    }

    /// The subject this column was decoded for.
    pub fn subject(&self) -> SubjectId {
        self.subject
    }

    /// The physical columns whose OR this column is — the subject's closure
    /// at decode time ([`Codebook::subject_physical_columns`]), sorted.
    pub fn columns(&self) -> &[u32] {
        &self.columns
    }

    /// The codebook version stamp at decode time.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of codes covered by the snapshot.
    pub fn len(&self) -> usize {
        self.codes
    }

    /// Whether the snapshot covers no code.
    pub fn is_empty(&self) -> bool {
        self.codes == 0
    }

    /// Whether this column is current for `(codebook, subject)` — the cache
    /// revalidation test: same subject, same codebook version.
    #[inline]
    pub fn matches(&self, codebook: &Codebook, subject: SubjectId) -> bool {
        self.subject == subject && self.version == codebook.version()
    }

    /// The packed accessibility words (bit `c & 63` of word `c >> 6` is the
    /// grant bit of code `c`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The 64-wide gather kernel: classifies up to 64 codes in one call,
    /// returning a word whose bit `i` is `check_code(codes[i])`. Bits at and
    /// beyond `codes.len()` are 0. Callers batching document-order positions
    /// (block headers, per-slot codes) get one branch-free result word per
    /// 64 inputs instead of 64 predicted branches.
    pub fn check_codes64(&self, codes: &[u32]) -> u64 {
        debug_assert!(codes.len() <= 64);
        let mut out = 0u64;
        for (i, &code) in codes.iter().enumerate() {
            let w = self.words.get((code >> 6) as usize).copied().unwrap_or(0);
            out |= ((w >> (code & 63)) & 1) << i;
        }
        out
    }
}

/// A packed per-*position* accessibility bitmap: bit `p & 63` of word
/// `p >> 6` says whether the document position `p` is accessible to the
/// subject the bitmap was expanded for.
///
/// Where [`SubjectColumn`] is indexed by access-control *code*, an
/// `AccessBitmap` is indexed by document *position* — the word-parallel form
/// scan-heavy consumers (secure stream filtering, in-block slot
/// classification) test 64 document-order positions per word op. It is built
/// from code **runs** with whole-word fills, so construction is
/// `O(positions / 64 + transitions)`, never a per-position branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessBitmap {
    len: u64,
    words: Vec<u64>,
}

impl AccessBitmap {
    /// An all-deny bitmap over `len` positions.
    pub fn new(len: u64) -> Self {
        Self {
            len,
            words: vec![0u64; (len as usize).div_ceil(64)],
        }
    }

    /// Expands `(start, end, code)` runs through `column` into a positional
    /// bitmap of `len` positions. Runs outside `[0, len)` are clamped;
    /// accessible runs are filled word-parallel.
    pub fn from_runs(
        len: u64,
        runs: impl Iterator<Item = (u64, u64, u32)>,
        column: &SubjectColumn,
    ) -> Self {
        let mut bm = Self::new(len);
        for (start, end, code) in runs {
            if column.check_code(code) {
                bm.set_range(start.min(len), end.min(len));
            }
        }
        bm
    }

    /// Scalar reference construction — one `check_code` per position, no
    /// word fills — that the word-parallel kernel is tested against.
    #[cfg(test)]
    pub fn from_codes_scalar(codes: impl Iterator<Item = u32>, column: &SubjectColumn) -> Self {
        let codes: Vec<u32> = codes.collect();
        let mut bm = Self::new(codes.len() as u64);
        for (p, &code) in codes.iter().enumerate() {
            if column.check_code(code) {
                bm.words[p >> 6] |= 1u64 << (p & 63);
            }
        }
        bm
    }

    /// Grants every position in `[start, end)`, filling whole 64-bit words
    /// where possible.
    pub fn set_range(&mut self, start: u64, end: u64) {
        debug_assert!(start <= end && end <= self.len);
        if start >= end {
            return;
        }
        let (first_w, last_w) = ((start >> 6) as usize, ((end - 1) >> 6) as usize);
        let head = !0u64 << (start & 63);
        let tail = !0u64 >> (63 - ((end - 1) & 63));
        if first_w == last_w {
            self.words[first_w] |= head & tail;
            return;
        }
        self.words[first_w] |= head;
        for w in &mut self.words[first_w + 1..last_w] {
            *w = !0;
        }
        self.words[last_w] |= tail;
    }

    /// Whether position `pos` is accessible.
    #[inline]
    pub fn get(&self, pos: u64) -> bool {
        debug_assert!(pos < self.len);
        (self.words[(pos >> 6) as usize] >> (pos & 63)) & 1 != 0
    }

    /// The raw word covering positions `[i * 64, i * 64 + 64)`.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Number of positions covered.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the bitmap covers no position.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Accessible positions (population count over the words).
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_acl::BitVec;

    fn acl(bits: &str) -> BitVec {
        BitVec::from_fn(bits.len(), |i| bits.as_bytes()[i] == b'1')
    }

    /// Exhaustive equivalence: `column.check_code(c) == codebook.bit(c, s)`
    /// for every code and subject, including across add/remove/compact.
    #[test]
    fn column_equals_codebook_bit_through_mutations() {
        let mut cb = Codebook::new(3);
        for i in 0..70u32 {
            // >64 entries exercises the multi-word path.
            cb.intern(&BitVec::from_fn(3, |s| {
                (i + s as u32).is_multiple_of(s as u32 + 2)
            }));
        }
        let check_all = |cb: &Codebook| {
            for s in 0..cb.width() as u32 {
                let col = SubjectColumn::decode(cb, SubjectId(s));
                assert!(col.matches(cb, SubjectId(s)));
                for code in 0..cb.len() as u32 {
                    assert_eq!(
                        col.check_code(code),
                        cb.bit(code, SubjectId(s)),
                        "code {code} subject {s}"
                    );
                }
            }
        };
        check_all(&cb);

        let old = SubjectColumn::decode(&cb, SubjectId(0));
        cb.add_subject(Some(SubjectId(1)));
        assert!(
            !old.matches(&cb, SubjectId(0)),
            "add_subject must invalidate"
        );
        check_all(&cb);

        let old = SubjectColumn::decode(&cb, SubjectId(1));
        cb.remove_subject(SubjectId(1));
        assert!(
            !old.matches(&cb, SubjectId(1)),
            "remove_subject must invalidate"
        );
        check_all(&cb);

        let old = SubjectColumn::decode(&cb, SubjectId(0));
        cb.compact();
        assert!(!old.matches(&cb, SubjectId(0)), "compact must invalidate");
        check_all(&cb);
    }

    #[test]
    fn interning_new_entry_invalidates_but_duplicate_does_not() {
        let mut cb = Codebook::new(2);
        cb.intern(&acl("10"));
        let col = SubjectColumn::decode(&cb, SubjectId(0));
        cb.intern(&acl("10")); // already interned: no new entry
        assert!(col.matches(&cb, SubjectId(0)));
        cb.intern(&acl("01")); // new entry: snapshot is stale
        assert!(!col.matches(&cb, SubjectId(0)));
        // The stale column still answers its own snapshot correctly and
        // denies the unseen code.
        assert!(col.check_code(0));
        assert!(!col.check_code(1));
        assert!(!col.check_code(999));
    }

    /// `check_codes64` must agree bit-for-bit with 64 scalar `check_code`
    /// calls, including out-of-range codes (deny) and short batches.
    #[test]
    fn check_codes64_matches_scalar() {
        let mut cb = Codebook::new(2);
        for i in 0..70u32 {
            cb.intern(&BitVec::from_fn(2, |s| {
                (i + s as u32).is_multiple_of(s as u32 + 2)
            }));
        }
        let col = SubjectColumn::decode(&cb, SubjectId(1));
        for len in [0usize, 1, 7, 63, 64] {
            let codes: Vec<u32> = (0..len as u32).map(|i| i * 3 % 80).collect();
            let word = col.check_codes64(&codes);
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!((word >> i) & 1 != 0, col.check_code(c), "len {len} bit {i}");
            }
            if len < 64 {
                assert_eq!(word >> len, 0, "bits past the batch must be zero");
            }
        }
    }

    /// Word-filled run expansion ≡ the scalar per-position reference, over
    /// runs that straddle word boundaries in every alignment.
    #[test]
    fn access_bitmap_from_runs_matches_scalar() {
        let mut cb = Codebook::new(1);
        let allow = cb.intern(&acl("1"));
        let deny = cb.intern(&acl("0"));
        let col = SubjectColumn::decode(&cb, SubjectId(0));
        // Runs with boundaries at 0, mid-word, exactly 64, and the tail.
        let runs = [
            (0u64, 3u64, allow),
            (3, 64, deny),
            (64, 65, allow),
            (65, 130, deny),
            (130, 200, allow),
        ];
        let len = 200u64;
        let bm = AccessBitmap::from_runs(len, runs.iter().copied(), &col);
        let codes = (0..len).map(|p| {
            runs.iter()
                .find(|&&(s, e, _)| (s..e).contains(&p))
                .map(|&(_, _, c)| c)
                .unwrap_or(deny)
        });
        let scalar = AccessBitmap::from_codes_scalar(codes, &col);
        assert_eq!(bm, scalar);
        assert_eq!(bm.count_ones(), 3 + 1 + 70);
        assert!(bm.get(0) && !bm.get(3) && bm.get(64) && !bm.get(65));
        assert_eq!(bm.word(4), 0, "words past the data read as deny");
    }

    #[test]
    fn set_range_word_fill_alignments() {
        // Every (start, end) pair over a 3-word bitmap, against a scalar loop.
        let len = 150u64;
        for start in (0..len).step_by(7) {
            for end in (start..=len).step_by(13) {
                let mut bm = AccessBitmap::new(len);
                bm.set_range(start, end);
                for p in 0..len {
                    assert_eq!(
                        bm.get(p),
                        (start..end).contains(&p),
                        "[{start},{end}) @ {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_codebook_column() {
        let cb = Codebook::new(4);
        let col = SubjectColumn::decode(&cb, SubjectId(2));
        assert!(col.is_empty());
        assert_eq!(col.len(), 0);
        assert!(!col.check_code(0));
    }
}
