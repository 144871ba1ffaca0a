//! The group-factored subject table: logical subjects over physical columns.
//!
//! The paper's motivating deployment (LiveLink, 8,639 users and groups)
//! works *because* rights are group-correlated: grants target a group/role
//! structure, and "a user's access rights may include her own plus those of
//! any groups of which she is a member" (§4, footnote 4). A [`GroupSpace`]
//! exploits that: codebook entries store bits over **physical columns** —
//! one per group plus one per directly-granted subject — while the (much
//! larger) population of *logical* subjects is described by a membership
//! table. A subject's effective column is *derived*: the OR of the physical
//! columns of its transitive group closure. Adding or removing a subject is
//! then a membership edit that touches no entry bits.
//!
//! Parent sets are interned: every user in the same team shares one stored
//! set, so the membership table costs four bytes per subject plus a small
//! pool of distinct sets — the sub-linear half of the factored codebook's
//! size accounting.

use crate::subject::SubjectId;
use std::collections::{HashMap, HashSet};

/// Sentinel for "no interned parent set" (the empty set).
const EMPTY_SET: u32 = u32::MAX;

/// Logical subjects factored through a group hierarchy onto physical
/// codebook columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupSpace {
    /// Per logical subject: index into `sets` (EMPTY_SET = no parents).
    parent_set: Vec<u32>,
    /// Interned parent sets (sorted logical ids, deduplicated).
    sets: Vec<Vec<u32>>,
    set_index: HashMap<Vec<u32>, u32>,
    /// Sparse: logical subject -> physical column holding its direct grants.
    direct: HashMap<u32, u32>,
    /// Logical subjects that have been removed (membership cleared; their
    /// direct column, if any, is retired by the codebook).
    retired: HashSet<u32>,
}

impl GroupSpace {
    /// An empty space with no subjects.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of logical subjects ever created (including retired ones —
    /// ids are stable and never reused).
    pub fn len(&self) -> usize {
        self.parent_set.len()
    }

    /// Whether the space holds no subject.
    pub fn is_empty(&self) -> bool {
        self.parent_set.is_empty()
    }

    /// Adds a logical subject with the given direct parent groups, returning
    /// its id. O(|parents| log |parents|); touches no codebook entry.
    pub fn add_subject(&mut self, parents: &[SubjectId]) -> SubjectId {
        let id = u32::try_from(self.parent_set.len()).expect("more than u32::MAX subjects");
        let set = self.intern_set(parents.iter().map(|p| p.0).collect());
        self.parent_set.push(set);
        SubjectId(id)
    }

    /// Binds a logical subject to the physical column holding its direct
    /// grants. Groups are bound at construction; users get a column lazily,
    /// on their first direct grant.
    pub fn bind_direct(&mut self, subject: SubjectId, column: u32) {
        self.direct.insert(subject.0, column);
    }

    /// The physical column of `subject`'s direct grants, if bound.
    pub fn direct_column(&self, subject: SubjectId) -> Option<u32> {
        if self.retired.contains(&subject.0) {
            return None;
        }
        self.direct.get(&subject.0).copied()
    }

    /// Direct parent groups of a subject (empty if retired).
    pub fn parents(&self, subject: SubjectId) -> &[u32] {
        if self.retired.contains(&subject.0) {
            return &[];
        }
        match self.parent_set.get(subject.index()) {
            Some(&s) if s != EMPTY_SET => &self.sets[s as usize],
            _ => &[],
        }
    }

    /// Adds or removes one direct membership edge. Returns whether the
    /// parent set actually changed.
    pub fn set_membership(&mut self, subject: SubjectId, group: SubjectId, member: bool) -> bool {
        let mut set: Vec<u32> = self.parents(subject).to_vec();
        let had = set.binary_search(&group.0);
        match (member, had) {
            (true, Err(at)) => set.insert(at, group.0),
            (false, Ok(at)) => {
                set.remove(at);
            }
            _ => return false,
        }
        self.parent_set[subject.index()] = self.intern_set(set);
        true
    }

    /// Retires a subject: clears its membership and direct binding. The id
    /// stays allocated (never reused); derived columns read all-deny.
    /// Returns the physical column that should be retired, if one was bound.
    pub fn retire(&mut self, subject: SubjectId) -> Option<u32> {
        self.retired.insert(subject.0);
        self.parent_set[subject.index()] = EMPTY_SET;
        self.direct.remove(&subject.0)
    }

    /// Whether a subject has been retired.
    pub fn is_retired(&self, subject: SubjectId) -> bool {
        self.retired.contains(&subject.0)
    }

    /// The physical columns whose OR is `subject`'s derived column: its own
    /// direct column plus the direct columns of every group reachable
    /// through the membership hierarchy (cycle-safe).
    pub fn closure_columns(&self, subject: SubjectId) -> Vec<u32> {
        let mut cols = Vec::new();
        let mut seen = HashSet::new();
        let mut stack = vec![subject.0];
        while let Some(s) = stack.pop() {
            if !seen.insert(s) {
                continue;
            }
            if let Some(&c) = self.direct.get(&s) {
                if !self.retired.contains(&s) {
                    cols.push(c);
                }
            }
            stack.extend_from_slice(self.parents(SubjectId(s)));
        }
        cols.sort_unstable();
        cols
    }

    /// Remaps every bound physical column through `remap` (old column →
    /// new column) after the codebook retires columns; logical ids are
    /// untouched.
    pub fn remap_columns(&mut self, remap: &HashMap<u32, u32>) {
        for c in self.direct.values_mut() {
            *c = *remap.get(c).expect("live column must survive compaction");
        }
    }

    /// Membership-table bytes: four per subject (interned set id) plus the
    /// set pool and the sparse direct/retired maps — the honest denominator
    /// of the factored codebook's size accounting.
    pub fn bytes(&self) -> usize {
        self.parent_set.len() * 4
            + self.sets.iter().map(|s| s.len() * 4).sum::<usize>()
            + self.direct.len() * 8
            + self.retired.len() * 4
    }

    /// Serializes to a little-endian blob (see `from_bytes`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.parent_set.len() as u32).to_le_bytes());
        for &s in &self.parent_set {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend_from_slice(&(self.sets.len() as u32).to_le_bytes());
        for set in &self.sets {
            out.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for &p in set {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        let mut direct: Vec<(u32, u32)> = self.direct.iter().map(|(&s, &c)| (s, c)).collect();
        direct.sort_unstable();
        out.extend_from_slice(&(direct.len() as u32).to_le_bytes());
        for (s, c) in direct {
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        let mut retired: Vec<u32> = self.retired.iter().copied().collect();
        retired.sort_unstable();
        out.extend_from_slice(&(retired.len() as u32).to_le_bytes());
        for s in retired {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Reconstructs a space from [`to_bytes`](GroupSpace::to_bytes) output,
    /// returning the space and the number of bytes consumed.
    pub fn from_bytes(bytes: &[u8]) -> Result<(Self, usize), String> {
        let mut off = 0usize;
        let mut u32_at = |b: &[u8]| -> Result<u32, String> {
            let v = b
                .get(off..off + 4)
                .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte slice")))
                .ok_or_else(|| "group table truncated".to_string())?;
            off += 4;
            Ok(v)
        };
        let n = u32_at(bytes)? as usize;
        let mut space = Self::new();
        let mut parent_set = Vec::with_capacity(n);
        for _ in 0..n {
            parent_set.push(u32_at(bytes)?);
        }
        let n_sets = u32_at(bytes)? as usize;
        for _ in 0..n_sets {
            let k = u32_at(bytes)? as usize;
            let mut set = Vec::with_capacity(k);
            for _ in 0..k {
                set.push(u32_at(bytes)?);
            }
            let id = space.sets.len() as u32;
            space.set_index.insert(set.clone(), id);
            space.sets.push(set);
        }
        for &s in &parent_set {
            if s != EMPTY_SET && s as usize >= space.sets.len() {
                return Err("group table references unknown parent set".to_string());
            }
        }
        space.parent_set = parent_set;
        let n_direct = u32_at(bytes)? as usize;
        for _ in 0..n_direct {
            let s = u32_at(bytes)?;
            let c = u32_at(bytes)?;
            space.direct.insert(s, c);
        }
        let n_retired = u32_at(bytes)? as usize;
        for _ in 0..n_retired {
            let s = u32_at(bytes)?;
            space.retired.insert(s);
        }
        Ok((space, off))
    }

    fn intern_set(&mut self, mut set: Vec<u32>) -> u32 {
        set.sort_unstable();
        set.dedup();
        if set.is_empty() {
            return EMPTY_SET;
        }
        if let Some(&id) = self.set_index.get(&set) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.set_index.insert(set.clone(), id);
        self.sets.push(set);
        id
    }
}

impl SubjectId {
    /// The raw id as a physical-column index (only meaningful in flat,
    /// unfactored codebooks).
    #[inline]
    pub fn column(self) -> u32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_follows_hierarchy() {
        let mut sp = GroupSpace::new();
        let company = sp.add_subject(&[]);
        let dept = sp.add_subject(&[company]);
        let team = sp.add_subject(&[dept]);
        sp.bind_direct(company, 0);
        sp.bind_direct(dept, 1);
        sp.bind_direct(team, 2);
        let user = sp.add_subject(&[team]);
        assert_eq!(sp.closure_columns(user), vec![0, 1, 2]);
        assert_eq!(sp.closure_columns(dept), vec![0, 1]);
        // Direct binding joins the closure.
        sp.bind_direct(user, 3);
        assert_eq!(sp.closure_columns(user), vec![0, 1, 2, 3]);
    }

    #[test]
    fn membership_edits_and_retire() {
        let mut sp = GroupSpace::new();
        let g1 = sp.add_subject(&[]);
        let g2 = sp.add_subject(&[]);
        sp.bind_direct(g1, 0);
        sp.bind_direct(g2, 1);
        let u = sp.add_subject(&[g1]);
        assert_eq!(sp.closure_columns(u), vec![0]);
        assert!(sp.set_membership(u, g2, true));
        assert!(!sp.set_membership(u, g2, true), "idempotent add");
        assert_eq!(sp.closure_columns(u), vec![0, 1]);
        assert!(sp.set_membership(u, g1, false));
        assert_eq!(sp.closure_columns(u), vec![1]);
        sp.bind_direct(u, 5);
        assert_eq!(sp.retire(u), Some(5));
        assert!(sp.is_retired(u));
        assert!(sp.closure_columns(u).is_empty());
        assert!(sp.parents(u).is_empty());
    }

    #[test]
    fn parent_sets_are_interned() {
        let mut sp = GroupSpace::new();
        let g = sp.add_subject(&[]);
        sp.bind_direct(g, 0);
        let before = sp.bytes();
        for _ in 0..1000 {
            sp.add_subject(&[g]);
        }
        // 1000 subjects sharing one interned set: 4 bytes each, no per-user
        // set storage.
        assert!(sp.bytes() - before <= 1000 * 4 + 8);
    }

    #[test]
    fn cycle_safe_closure() {
        let mut sp = GroupSpace::new();
        let g1 = sp.add_subject(&[]);
        let g2 = sp.add_subject(&[g1]);
        sp.set_membership(g1, g2, true);
        sp.bind_direct(g1, 0);
        sp.bind_direct(g2, 1);
        assert_eq!(sp.closure_columns(g1), vec![0, 1]);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut sp = GroupSpace::new();
        let g1 = sp.add_subject(&[]);
        let g2 = sp.add_subject(&[g1]);
        sp.bind_direct(g1, 0);
        sp.bind_direct(g2, 1);
        let u1 = sp.add_subject(&[g2]);
        let u2 = sp.add_subject(&[g1, g2]);
        sp.bind_direct(u2, 2);
        sp.retire(u1);
        let blob = sp.to_bytes();
        let (back, used) = GroupSpace::from_bytes(&blob).unwrap();
        assert_eq!(used, blob.len());
        assert_eq!(back, sp);
        assert!(GroupSpace::from_bytes(&blob[..3]).is_err());
    }
}
