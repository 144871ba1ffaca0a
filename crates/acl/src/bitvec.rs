//! A compact bit vector.
//!
//! Used both for access-control lists (one bit per subject — the codebook
//! entries of the multi-subject DOL) and for per-subject accessibility
//! columns (one bit per node). Equality and hashing are value-based, which is
//! what codebook interning requires.

/// A fixed-length vector of bits packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one bit vector of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.clear_tail();
        v
    }

    /// Builds a bit vector by evaluating `f` on every index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = Self::zeros(len);
        for i in 0..len {
            if f(i) {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Reads bit `i`, treating bits at or beyond `len` as zero. The
    /// accessor for *lazily widened* bit rows: codebook entries are stored
    /// trimmed to their last set bit, so a column added after an entry was
    /// interned reads as deny without rewriting the entry.
    #[inline]
    pub fn get_or(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Truncates to the last set bit (length 0 if no bit is set) — the
    /// canonical form under trailing-zero padding: two rows that differ only
    /// in trailing deny bits trim to equal vectors.
    pub fn trim_trailing_zeros(&mut self) {
        let last = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map(|wi| wi * 64 + 64 - self.words[wi].leading_zeros() as usize)
            .unwrap_or(0);
        self.resize(last);
    }

    /// Writes bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Extends the vector by one bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, value);
    }

    /// Grows (or truncates) to `len` bits; new bits are zero.
    pub fn resize(&mut self, len: usize) {
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
        self.clear_tail();
    }

    /// Sets every bit to `value`.
    pub fn fill(&mut self, value: bool) {
        let w = if value { u64::MAX } else { 0 };
        self.words.fill(w);
        if value {
            self.clear_tail();
        }
    }

    /// In-place bitwise OR with another vector of the same length.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterates over the indexes of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            })
        })
    }

    /// The raw words (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn clear_tail(&mut self) {
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }
}

impl std::fmt::Display for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.iter() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let mut v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert_eq!(v.count_ones(), 0);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn ones_has_clean_tail() {
        let v = BitVec::ones(67);
        assert_eq!(v.count_ones(), 67);
        let w = BitVec::from_fn(67, |_| true);
        assert_eq!(v, w); // tail bits beyond len must not break equality
    }

    #[test]
    fn push_and_resize() {
        let mut v = BitVec::zeros(0);
        for i in 0..100 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 100);
        assert_eq!(v.count_ones(), 34);
        v.resize(50);
        assert_eq!(v.len(), 50);
        assert_eq!(v.count_ones(), 17);
        v.resize(80);
        assert!(!v.get(79));
        assert_eq!(v.count_ones(), 17);
    }

    #[test]
    fn boolean_ops() {
        let a = BitVec::from_fn(10, |i| i % 2 == 0);
        let b = BitVec::from_fn(10, |i| i % 3 == 0);
        let mut o = a.clone();
        o.or_assign(&b);
        assert_eq!(o, BitVec::from_fn(10, |i| i % 2 == 0 || i % 3 == 0));
    }

    #[test]
    fn iter_ones_matches_iter() {
        let v = BitVec::from_fn(200, |i| i % 7 == 1);
        let ones: Vec<usize> = v.iter_ones().collect();
        let expect: Vec<usize> = (0..200).filter(|i| i % 7 == 1).collect();
        assert_eq!(ones, expect);
    }

    #[test]
    fn equality_and_hash_are_value_based() {
        use std::collections::HashSet;
        let a = BitVec::from_fn(65, |i| i == 64);
        let mut b = BitVec::zeros(65);
        b.set(64, true);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn display() {
        let v = BitVec::from_fn(4, |i| i % 2 == 1);
        assert_eq!(v.to_string(), "0101");
    }
}
