//! The DOL codebook: dictionary compression of access-control lists.
//!
//! "Each distinct access control list that appears in the secured tree is
//! recorded once in a codebook (dictionary). With each transition node in the
//! DOL we record a reference to the appropriate access control list in the
//! codebook, rather than the access control list itself." (paper §2.1)
//!
//! The codebook is the in-memory half of the physical design (§3.2): lookups
//! are `bit(code, subject)`, and subject-set updates (§3.4) are *column*
//! operations that never touch the embedded transition data.
//!
//! Three scaling mechanisms lift it to millions of subjects:
//!
//! 1. **Lazily-widened entries.** Rows are stored trimmed to their last set
//!    bit, and the interning index is keyed on the trimmed form, so adding a
//!    subject is O(1) — no per-entry push, no index rebuild. Columns a row
//!    never mentions read as deny via [`BitVec::get_or`].
//! 2. **Group factoring.** With an attached [`GroupSpace`], entries store
//!    bits over *physical* columns only (groups + directly-granted
//!    subjects); a logical subject's column is the OR of its transitive
//!    closure's physical columns, derived on demand and version-fenced like
//!    any decoded column. Subject add/remove is then a membership edit.
//! 3. **Incremental compaction.** Duplicate-entry merging and removed-column
//!    retirement run as bounded-work steps (see [`CompactionPlan`]) instead
//!    of one stop-the-world remap: every intermediate state answers every
//!    `(code, subject)` question identically, so readers are never blocked
//!    and a crash recovers onto a step boundary.

use crate::column::SubjectColumn;
use dol_acl::{BitVec, GroupSpace, SubjectId};
use std::collections::HashMap;

/// Which half of the two-phase code migration an active compaction is in.
///
/// Phase `Up` rewrites every embedded code into a *staging* range above the
/// old code space (`old_code → old_count + final_code`), where a duplicated
/// canonical copy of each distinct entry lives. Once no block references an
/// old code, the canonical rows are installed at `[0, canon_count)` and
/// phase `Down` rewrites staging codes onto their final ranks. The two
/// ranges never overlap, so a half-migrated store is unambiguous: every code
/// it contains resolves to an entry with the original ACL bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionPhase {
    /// Migrating old codes into the staging range.
    Up,
    /// Migrating staging codes down to final ranks.
    Down,
}

/// The persisted state of an in-flight incremental compaction.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionPlan {
    /// `entries.len()` when the plan was made; the staging range is
    /// `[old_count, old_count + canon_count)`.
    old_count: u32,
    /// Number of distinct (canonical) entries.
    canon_count: u32,
    /// Per old code: its final code (the rank of its canonical entry, in
    /// first-occurrence order — the same numbering [`Codebook::compact`]
    /// produces).
    final_code: Vec<u32>,
    phase: CompactionPhase,
    /// Next block index the driver should rewrite.
    cursor: u64,
    /// Mapped code in effect at the end of block `cursor - 1` (None at a
    /// phase start), so a resumed pass can merge runs across the boundary.
    prev_code: Option<u32>,
    /// Set when entries changed or blocks moved since the plan was made;
    /// the next step must re-plan from the current (still-consistent) state.
    dirty: bool,
}

impl CompactionPlan {
    /// Current phase.
    pub fn phase(&self) -> CompactionPhase {
        self.phase
    }

    /// Next block index to rewrite.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The run-merge seed for the next step.
    pub fn prev_code(&self) -> Option<u32> {
        self.prev_code
    }

    /// Whether the plan must be rebuilt before the next step.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Maps one embedded code under the current phase.
    #[inline]
    pub fn map(&self, code: u32) -> u32 {
        match self.phase {
            CompactionPhase::Up => {
                if code < self.old_count {
                    self.old_count + self.final_code[code as usize]
                } else {
                    code
                }
            }
            CompactionPhase::Down => {
                if (self.old_count..self.old_count + self.canon_count).contains(&code) {
                    code - self.old_count
                } else {
                    code
                }
            }
        }
    }
}

/// An interning dictionary of ACL bit-vectors.
#[derive(Debug, Clone, Default)]
pub struct Codebook {
    /// Rows trimmed to their last set bit (`len <= width`).
    entries: Vec<BitVec>,
    /// Trimmed row → lowest code holding it.
    index: HashMap<BitVec, u32>,
    /// Physical column count.
    width: usize,
    /// Columns of deleted subjects, kept (zeroed) until compaction
    /// (deletion is "accomplished within the codebook … any such redundancy
    /// can be corrected lazily", §3.4).
    removed: Vec<bool>,
    /// Bumped by every mutation that can change a `(code, subject)` answer
    /// or the code space, so decoded [`SubjectColumn`] snapshots can
    /// revalidate cheaply.
    version: u64,
    /// Group-factored subject table; `None` = flat (logical id == column).
    groups: Option<GroupSpace>,
    /// In-flight incremental compaction, if any.
    compaction: Option<CompactionPlan>,
    /// Entries touched by the last subject-set operation — the observable
    /// the O(affected-entries) regression tests assert on.
    last_op_touched: usize,
    /// View stamps, in memory only: `stamps[c]` is the clock value of the
    /// last mutation that could change what physical column `c` grants, and
    /// `base` that of the last one that could change every answer. See
    /// [`view_stamp`](Codebook::view_stamp).
    stamps: Vec<u64>,
    base: u64,
    /// The source of stamp values; only ever moves forward.
    clock: u64,
}

impl Codebook {
    /// Creates an empty codebook for `subjects` subjects.
    pub fn new(subjects: usize) -> Self {
        Self {
            entries: Vec::new(),
            index: HashMap::new(),
            width: subjects,
            removed: vec![false; subjects],
            version: 0,
            groups: None,
            compaction: None,
            last_op_touched: 0,
            stamps: vec![0; subjects],
            base: 0,
            clock: 0,
        }
    }

    /// The mutation stamp: changes whenever a decoded [`SubjectColumn`]
    /// could be stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The view stamp of a subject whose closure is `columns` (its
    /// [`subject_physical_columns`](Codebook::subject_physical_columns)):
    /// the largest of the base stamp and those columns' stamps. It changes
    /// whenever anything that subject can observe changes, and only then:
    /// two states of one codebook lineage with an equal closure and an equal
    /// stamp give that subject equal answers. A closure edit stamps nothing,
    /// so callers compare the closure as well.
    pub fn view_stamp(&self, columns: &[u32]) -> u64 {
        columns
            .iter()
            .map(|&c| self.stamps[c as usize])
            .fold(self.base, u64::max)
    }

    /// Stamps physical column `column`: every view that includes it moves.
    pub fn touch_column(&mut self, column: u32) {
        self.clock += 1;
        self.stamps[column as usize] = self.clock;
    }

    /// Stamps every view at once — for a change to the structure, to codes
    /// beyond one column's bit, or to what subject ids mean.
    pub fn touch_all(&mut self) {
        self.clock += 1;
        self.base = self.clock;
    }

    /// Moves this codebook's clock up to `prior`'s, so no stamp `prior`
    /// issued is issued again — for a codebook that replaces `prior` by
    /// rollback or reload, while results keyed on `prior`'s stamps may
    /// still be cached.
    pub fn continue_clock(&mut self, prior: &Codebook) {
        self.clock = self.clock.max(prior.clock);
    }

    /// Decodes `subject`'s column into a packed code-indexed bitset — the
    /// branch-free fast path for repeated [`bit`](Codebook::bit) lookups with
    /// a fixed subject.
    pub fn column(&self, subject: SubjectId) -> SubjectColumn {
        SubjectColumn::decode(self, subject)
    }

    /// Interns an ACL, returning its code. The ACL's length must equal the
    /// codebook width. During an active compaction, codes of existing rows
    /// are returned in the numbering of the current migration phase, so
    /// freshly written runs never resurrect a code range being drained.
    pub fn intern(&mut self, acl: &BitVec) -> u32 {
        assert_eq!(acl.len(), self.width, "ACL width mismatch");
        let mut key = acl.clone();
        key.trim_trailing_zeros();
        if let Some(&code) = self.index.get(&key) {
            return match &self.compaction {
                Some(plan) if plan.phase == CompactionPhase::Up => plan.map(code),
                // In phase Down the index was rewritten onto final ranks at
                // the phase boundary, so the stored code is already final.
                _ => code,
            };
        }
        let code = u32::try_from(self.entries.len()).expect("more than u32::MAX ACLs");
        self.entries.push(key.clone());
        self.index.insert(key, code);
        self.version += 1;
        // A novel entry lands beyond the staging range; the plan's final
        // truncation would cut it off, so force a re-plan.
        self.mark_compaction_dirty();
        code
    }

    /// The ACL row behind `code`, trimmed to its last set bit (columns
    /// beyond its length read as deny — see [`BitVec::get_or`]).
    pub fn entry(&self, code: u32) -> &BitVec {
        &self.entries[code as usize]
    }

    /// The ACL row behind `code`, padded to the full physical width — the
    /// form update paths clone and mutate.
    pub fn entry_padded(&self, code: u32) -> BitVec {
        let mut e = self.entries[code as usize].clone();
        e.resize(self.width);
        e
    }

    /// One physical column's bit in one entry.
    #[inline]
    pub fn entry_bit(&self, code: u32, column: u32) -> bool {
        self.entries[code as usize].get_or(column as usize)
    }

    /// Whether `subject` is granted by the ACL behind `code` — the
    /// "s-th bit in that codebook entry" lookup of §3.3. With a group
    /// space attached, the derived OR over the subject's closure columns.
    #[inline]
    pub fn bit(&self, code: u32, subject: SubjectId) -> bool {
        match &self.groups {
            None => self.entries[code as usize].get_or(subject.index()),
            Some(g) => {
                let e = &self.entries[code as usize];
                g.closure_columns(subject)
                    .iter()
                    .any(|&c| e.get_or(c as usize))
            }
        }
    }

    /// The physical columns whose OR answers for `subject`: the subject's
    /// own column when flat, its transitive closure's columns when factored.
    /// Empty for removed/retired subjects (all-deny).
    pub fn subject_physical_columns(&self, subject: SubjectId) -> Vec<u32> {
        match &self.groups {
            None => {
                if subject.index() < self.width && !self.removed[subject.index()] {
                    vec![subject.0]
                } else {
                    Vec::new()
                }
            }
            Some(g) => g.closure_columns(subject),
        }
    }

    /// Number of distinct ACL entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the codebook holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Physical column count (including lazily removed columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Live physical column count (excluding removed columns).
    pub fn live_columns(&self) -> usize {
        self.width - self.removed.iter().filter(|&&r| r).count()
    }

    /// Live subject count: logical subjects when factored, live columns
    /// when flat.
    pub fn live_subjects(&self) -> usize {
        match &self.groups {
            None => self.live_columns(),
            Some(g) => (0..g.len() as u32)
                .filter(|&s| !g.is_retired(SubjectId(s)))
                .count(),
        }
    }

    /// Total logical subjects (retired included) — the id space upper bound.
    pub fn logical_subjects(&self) -> usize {
        match &self.groups {
            None => self.width,
            Some(g) => g.len(),
        }
    }

    /// Entries touched by the last subject-set operation (`add_subject`,
    /// `add_subject_union`, `remove_subject`) — the O(affected-entries)
    /// regression observable.
    pub fn last_op_touched(&self) -> usize {
        self.last_op_touched
    }

    // ------------------------------------------------------------------
    // Group factoring
    // ------------------------------------------------------------------

    /// Attaches a group-factored subject table: entries keep addressing
    /// physical columns, but subject-facing lookups resolve through the
    /// space's membership closure. The space's bound columns must fit the
    /// current width.
    pub fn attach_group_space(&mut self, space: GroupSpace) {
        for s in 0..space.len() as u32 {
            if let Some(c) = space.direct_column(SubjectId(s)) {
                assert!(
                    (c as usize) < self.width,
                    "group space binds column {c} beyond width {}",
                    self.width
                );
            }
        }
        self.groups = Some(space);
        self.version += 1;
        self.touch_all();
    }

    /// The attached group space, if factored.
    pub fn group_space(&self) -> Option<&GroupSpace> {
        self.groups.as_ref()
    }

    /// Whether a group space is attached.
    pub fn is_factored(&self) -> bool {
        self.groups.is_some()
    }

    /// Adds a logical subject with the given direct parent groups — O(1),
    /// touches no entry bits, and (because no existing answer changes)
    /// leaves every cached column valid.
    ///
    /// # Panics
    /// Panics when no group space is attached.
    pub fn add_grouped_subject(&mut self, parents: &[SubjectId]) -> SubjectId {
        self.last_op_touched = 0;
        self.groups
            .as_mut()
            .expect("add_grouped_subject requires a group space")
            .add_subject(parents)
    }

    /// Adds or removes a direct membership edge. Bumps the version (the
    /// subject's derived column changes) only when the edge actually
    /// changes. Touches no entry bits.
    pub fn set_membership(&mut self, subject: SubjectId, group: SubjectId, member: bool) -> bool {
        self.last_op_touched = 0;
        let changed = self
            .groups
            .as_mut()
            .expect("set_membership requires a group space")
            .set_membership(subject, group, member);
        if changed {
            self.version += 1;
        }
        changed
    }

    /// The physical column carrying `subject`'s *direct* grants, allocating
    /// one when factored and none is bound yet (the lazy materialization an
    /// update targeting an individual subject triggers). Allocation is O(1):
    /// the new column is all-deny, so no entry is touched; it bumps the
    /// version only because the subject's closure, which a decoded column
    /// carries, gained a column.
    pub fn ensure_direct_column(&mut self, subject: SubjectId) -> u32 {
        match &mut self.groups {
            None => {
                assert!(subject.index() < self.width, "unknown subject {subject}");
                subject.0
            }
            Some(g) => {
                if let Some(c) = g.direct_column(subject) {
                    return c;
                }
                let c = self.width as u32;
                self.width += 1;
                self.removed.push(false);
                self.stamps.push(0);
                g.bind_direct(subject, c);
                self.version += 1;
                c
            }
        }
    }

    // ------------------------------------------------------------------
    // Subject-set operations (§3.4) — O(affected entries)
    // ------------------------------------------------------------------

    /// Adds a subject column. The new subject's bits are all-deny, or copied
    /// from `copy_from` ("relatively simple to add a new subject who has no
    /// access rights, or whose rights initially match those of some existing
    /// subject … by simply adding an additional column", §3.4). No embedded
    /// transition data changes; without `copy_from` the operation is O(1)
    /// and cached columns stay valid.
    pub fn add_subject(&mut self, copy_from: Option<SubjectId>) -> SubjectId {
        let src_cols = copy_from.map(|s| self.subject_physical_columns(s));
        let col = self.width as u32;
        self.width += 1;
        self.removed.push(false);
        self.stamps.push(0);
        let new = match &mut self.groups {
            None => SubjectId(col),
            Some(g) => {
                let id = g.add_subject(&[]);
                g.bind_direct(id, col);
                id
            }
        };
        match src_cols {
            None => self.last_op_touched = 0,
            Some(cols) => {
                self.mutate_entries(
                    |e| cols.iter().any(|&c| e.get_or(c as usize)),
                    |e| {
                        e.resize(col as usize + 1);
                        e.set(col as usize, true);
                    },
                );
                self.version += 1;
                self.touch_column(col);
            }
        }
        new
    }

    /// Adds a **union column**: a virtual subject whose bit in every entry
    /// is the OR of the given subjects' bits. This realizes the paper's §4
    /// user model — "a user's access rights may include her own plus those
    /// of any groups of which she is a member" — as a pure codebook
    /// operation: queries then run with the virtual subject's id, and no
    /// embedded transition data changes. With a group space attached the
    /// union is *live* — a membership-table entry whose derived column
    /// follows the members — and touches no entry bits at all.
    pub fn add_subject_union(&mut self, subjects: &[SubjectId]) -> SubjectId {
        if let Some(g) = &mut self.groups {
            let all_groupable = subjects
                .iter()
                .all(|&s| !g.is_retired(s) && s.index() < g.len());
            if all_groupable {
                self.last_op_touched = 0;
                return g.add_subject(subjects);
            }
        }
        let member_cols: Vec<u32> = subjects
            .iter()
            .flat_map(|&s| self.subject_physical_columns(s))
            .collect();
        let col = self.width as u32;
        self.width += 1;
        self.removed.push(false);
        self.stamps.push(0);
        let new = match &mut self.groups {
            None => SubjectId(col),
            Some(g) => {
                let id = g.add_subject(&[]);
                g.bind_direct(id, col);
                id
            }
        };
        self.mutate_entries(
            |e| member_cols.iter().any(|&c| e.get_or(c as usize)),
            |e| {
                e.resize(col as usize + 1);
                e.set(col as usize, true);
            },
        );
        self.version += 1;
        self.touch_column(col);
        new
    }

    /// Marks a subject's column as removed. Lookups for that subject return
    /// deny; entries that become duplicates are merged by compaction
    /// ([`begin_compaction`](Codebook::begin_compaction)). Only entries that
    /// actually granted the subject are touched.
    pub fn remove_subject(&mut self, subject: SubjectId) {
        let col = match &mut self.groups {
            None => {
                self.removed[subject.index()] = true;
                Some(subject.0)
            }
            Some(g) => {
                let c = g.retire(subject);
                if let Some(c) = c {
                    self.removed[c as usize] = true;
                }
                c
            }
        };
        match col {
            Some(c) => {
                self.mutate_entries(|e| e.get_or(c as usize), |e| e.set(c as usize, false));
                self.touch_column(c);
            }
            None => self.last_op_touched = 0,
        }
        self.version += 1;
        self.mark_compaction_dirty();
    }

    /// Whether a subject has been removed.
    pub fn is_removed(&self, subject: SubjectId) -> bool {
        match &self.groups {
            None => self.removed[subject.index()],
            Some(g) => g.is_retired(subject),
        }
    }

    /// Applies `f` to every entry selected by `sel`, maintaining the
    /// interning index incrementally: only affected entries' keys move, and
    /// on key collisions the lowest code wins (the invariant a full rebuild
    /// would establish). Returns the number of entries touched.
    fn mutate_entries(&mut self, sel: impl Fn(&BitVec) -> bool, mut f: impl FnMut(&mut BitVec)) {
        let affected: Vec<u32> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| sel(e))
            .map(|(i, _)| i as u32)
            .collect();
        for &c in &affected {
            if self.index.get(&self.entries[c as usize]) == Some(&c) {
                let key = self.entries[c as usize].clone();
                self.index.remove(&key);
            }
        }
        for &c in &affected {
            let e = &mut self.entries[c as usize];
            f(e);
            e.trim_trailing_zeros();
        }
        for &c in &affected {
            let key = self.entries[c as usize].clone();
            let slot = self.index.entry(key).or_insert(c);
            if *slot > c {
                *slot = c;
            }
        }
        self.last_op_touched = affected.len();
        if !affected.is_empty() {
            self.mark_compaction_dirty();
        }
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// Compacts away removed columns and merges duplicate entries **in one
    /// stop-the-world step**, returning a remapping `old code → new code` —
    /// the reference the incremental plan's final numbering is tested
    /// against. Flat subject ids shift with the retired columns; factored
    /// logical ids are stable (the group table's column bindings are
    /// remapped internally).
    #[cfg(test)]
    pub(crate) fn compact(&mut self) -> Vec<u32> {
        let keep: Vec<usize> = (0..self.width).filter(|&s| !self.removed[s]).collect();
        let mut new_entries: Vec<BitVec> = Vec::new();
        let mut new_index: HashMap<BitVec, u32> = HashMap::new();
        let mut remap = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let mut projected = BitVec::from_fn(keep.len(), |i| e.get_or(keep[i]));
            projected.trim_trailing_zeros();
            let code = *new_index.entry(projected.clone()).or_insert_with(|| {
                new_entries.push(projected);
                (new_entries.len() - 1) as u32
            });
            remap.push(code);
        }
        self.entries = new_entries;
        self.index = new_index;
        if keep.len() != self.width {
            if let Some(g) = &mut self.groups {
                let col_remap: HashMap<u32, u32> = keep
                    .iter()
                    .enumerate()
                    .map(|(new, &old)| (old as u32, new as u32))
                    .collect();
                g.remap_columns(&col_remap);
            }
        }
        self.width = keep.len();
        self.removed = vec![false; self.width];
        self.stamps = keep.iter().map(|&c| self.stamps[c]).collect();
        self.version += 1;
        self.compaction = None;
        remap
    }

    /// Starts an incremental compaction: plans the duplicate merge, appends
    /// the canonical staging copies, and arms the two-phase migration.
    /// Returns `false` (and plans nothing) when there is nothing to compact
    /// or a plan is already active. One version bump: columns decoded after
    /// this call cover the staging range.
    pub fn begin_compaction(&mut self) -> bool {
        if self.compaction.is_some() || self.entries.is_empty() {
            return false;
        }
        let any_removed = self.removed.iter().any(|&r| r);
        let old_count = self.entries.len() as u32;
        let mut first: HashMap<&BitVec, u32> = HashMap::new();
        let mut canon: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut canon_codes: Vec<u32> = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            let c = *first.entry(e).or_insert_with(|| {
                canon_codes.push(i as u32);
                i as u32
            });
            canon.push(c);
        }
        if canon_codes.len() == self.entries.len() && !any_removed {
            return false; // nothing to merge, nothing to retire
        }
        let mut rank = vec![0u32; old_count as usize];
        for (r, &c) in canon_codes.iter().enumerate() {
            rank[c as usize] = r as u32;
        }
        let final_code: Vec<u32> = canon.iter().map(|&c| rank[c as usize]).collect();
        for &c in &canon_codes {
            let copy = self.entries[c as usize].clone();
            self.entries.push(copy);
        }
        self.compaction = Some(CompactionPlan {
            old_count,
            canon_count: canon_codes.len() as u32,
            final_code,
            phase: CompactionPhase::Up,
            cursor: 0,
            prev_code: None,
            dirty: false,
        });
        self.version += 1;
        true
    }

    /// The active plan, if any.
    pub fn compaction(&self) -> Option<&CompactionPlan> {
        self.compaction.as_ref()
    }

    /// Flags the active plan (if any) as needing a re-plan: entry bits
    /// changed, a novel ACL was interned, or blocks moved under the cursor.
    /// Every state the migration can pause in is self-consistent, so a
    /// re-plan simply starts a fresh plan over the current entries.
    pub fn mark_compaction_dirty(&mut self) {
        if let Some(p) = &mut self.compaction {
            p.dirty = true;
        }
    }

    /// Drops a dirty plan and plans afresh from the current state. Returns
    /// whether a new plan is active.
    pub fn replan_compaction(&mut self) -> bool {
        self.compaction = None;
        self.begin_compaction()
    }

    /// Records one completed migration step: the driver rewrote blocks up
    /// to `cursor` and left `prev_code` in effect at the boundary.
    pub fn note_compaction_progress(&mut self, cursor: u64, prev_code: Option<u32>) {
        let p = self.compaction.as_mut().expect("no active compaction plan");
        p.cursor = cursor;
        p.prev_code = prev_code;
    }

    /// Crosses the Up→Down phase boundary: no block references an old code
    /// any more, so the canonical rows are installed at their final ranks
    /// and the index is rewritten onto them. One version bump.
    pub fn advance_compaction_phase(&mut self) {
        let plan = self.compaction.as_mut().expect("no active compaction plan");
        assert_eq!(plan.phase, CompactionPhase::Up, "already in phase Down");
        assert!(!plan.dirty, "dirty plan must be replanned, not advanced");
        let (old, canon) = (plan.old_count as usize, plan.canon_count as usize);
        for r in 0..canon {
            self.entries[r] = self.entries[old + r].clone();
            self.index.insert(self.entries[r].clone(), r as u32);
        }
        plan.phase = CompactionPhase::Down;
        plan.cursor = 0;
        plan.prev_code = None;
        self.version += 1;
    }

    /// Completes the plan after phase Down drained: every block references
    /// a final rank, so the staging tail is truncated, removed columns are
    /// projected out (flat ids shift exactly as under
    /// [`compact`](Codebook::compact); factored bindings are remapped), and
    /// the index is rebuilt. One version bump.
    pub fn finish_compaction(&mut self) {
        let plan = self.compaction.take().expect("no active compaction plan");
        assert_eq!(plan.phase, CompactionPhase::Down);
        assert!(!plan.dirty, "dirty plan must be replanned, not finished");
        self.entries.truncate(plan.canon_count as usize);
        let keep: Vec<usize> = (0..self.width).filter(|&s| !self.removed[s]).collect();
        if keep.len() != self.width {
            for e in &mut self.entries {
                let mut projected = BitVec::from_fn(keep.len(), |i| e.get_or(keep[i]));
                projected.trim_trailing_zeros();
                *e = projected;
            }
            if let Some(g) = &mut self.groups {
                let col_remap: HashMap<u32, u32> = keep
                    .iter()
                    .enumerate()
                    .map(|(new, &old)| (old as u32, new as u32))
                    .collect();
                g.remap_columns(&col_remap);
            }
            self.width = keep.len();
            self.removed = vec![false; self.width];
            self.stamps = keep.iter().map(|&c| self.stamps[c]).collect();
        }
        self.rebuild_index();
        self.version += 1;
    }

    // ------------------------------------------------------------------
    // Size accounting
    // ------------------------------------------------------------------

    /// Bytes needed to store the codebook: one bit per live *column* per
    /// entry (the paper's accounting, e.g. "at 1000 bytes per codebook entry
    /// … about 4 MB" for 8000 subjects × 4000 entries), plus — when
    /// factored — the membership table, so compression claims stay honest.
    pub fn bytes(&self) -> usize {
        self.entries.len() * self.live_columns().div_ceil(8) + self.membership_bytes()
    }

    /// Membership-table bytes (0 when flat).
    pub fn membership_bytes(&self) -> usize {
        self.groups.as_ref().map(|g| g.bytes()).unwrap_or(0)
    }

    /// What a *flat* (one column per logical subject) codebook of the same
    /// entry count would cost — the honest comparison baseline the factored
    /// representation is gated against.
    pub fn flat_equivalent_bytes(&self) -> usize {
        self.entries.len() * self.live_subjects().div_ceil(8)
    }

    /// Bytes needed for one embedded access-control code: the smallest
    /// integer width that can index every entry (≥ 1 byte; the paper assumes
    /// 2-byte codes for a 4000-entry codebook).
    pub fn code_bytes(&self) -> usize {
        match self.entries.len() {
            0..=0x100 => 1,
            0x101..=0x1_0000 => 2,
            0x1_0001..=0x100_0000 => 3,
            _ => 4,
        }
    }

    /// Iterates `(code, entry)` pairs. Entries are trimmed rows.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &BitVec)> {
        self.entries.iter().enumerate().map(|(i, e)| (i as u32, e))
    }

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Serializes the codebook to a self-describing little-endian blob.
    ///
    /// Flat codebooks with no active plan use the legacy v1 layout
    /// (`width u32 | removed bitmap | count u32 | fixed-width entries`);
    /// anything newer writes the v2 layout behind a `u32::MAX` sentinel
    /// (impossible as a v1 width), carrying trimmed variable-length rows,
    /// the group table, and the in-flight compaction plan.
    pub fn to_bytes(&self) -> Vec<u8> {
        if self.groups.is_none() && self.compaction.is_none() {
            return self.to_bytes_v1();
        }
        let mut out = Vec::new();
        out.extend_from_slice(&u32::MAX.to_le_bytes());
        let flags: u32 = (self.groups.is_some() as u32) | ((self.compaction.is_some() as u32) << 1);
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&(self.width as u32).to_le_bytes());
        let removed = BitVec::from_fn(self.width, |i| self.removed[i]);
        for w in removed.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&(e.len() as u32).to_le_bytes());
            for w in e.words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        if let Some(g) = &self.groups {
            out.extend_from_slice(&g.to_bytes());
        }
        if let Some(p) = &self.compaction {
            out.extend_from_slice(&p.old_count.to_le_bytes());
            out.extend_from_slice(&p.canon_count.to_le_bytes());
            out.push(match p.phase {
                CompactionPhase::Up => 0,
                CompactionPhase::Down => 1,
            });
            out.push(p.dirty as u8);
            out.extend_from_slice(&p.cursor.to_le_bytes());
            out.push(p.prev_code.is_some() as u8);
            out.extend_from_slice(&p.prev_code.unwrap_or(0).to_le_bytes());
            for &c in &p.final_code {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    fn to_bytes_v1(&self) -> Vec<u8> {
        let words_per_entry = self.width.div_ceil(64);
        let mut out =
            Vec::with_capacity(16 + self.width / 8 + self.entries.len() * words_per_entry * 8);
        out.extend_from_slice(&(self.width as u32).to_le_bytes());
        let removed = BitVec::from_fn(self.width, |i| self.removed[i]);
        for w in removed.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            let mut padded = e.clone();
            padded.resize(self.width);
            for w in padded.words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Reconstructs a codebook from [`to_bytes`](Codebook::to_bytes) output
    /// (either layout).
    pub fn from_bytes(bytes: &[u8]) -> Result<Codebook, String> {
        let take_u32 = |b: &[u8], off: usize| -> Result<u32, String> {
            b.get(off..off + 4)
                .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte slice")))
                .ok_or_else(|| "codebook blob truncated".to_string())
        };
        if take_u32(bytes, 0)? != u32::MAX {
            return Self::from_bytes_v1(bytes);
        }
        let take_u64 = |b: &[u8], off: usize| -> Result<u64, String> {
            b.get(off..off + 8)
                .map(|s| u64::from_le_bytes(s.try_into().expect("8-byte slice")))
                .ok_or_else(|| "codebook blob truncated".to_string())
        };
        let take_u8 = |b: &[u8], off: usize| -> Result<u8, String> {
            b.get(off)
                .copied()
                .ok_or_else(|| "codebook blob truncated".to_string())
        };
        let flags = take_u32(bytes, 4)?;
        let width = take_u32(bytes, 8)? as usize;
        let mut off = 12usize;
        let read_bits = |bytes: &[u8], off: usize, len: usize| -> Result<BitVec, String> {
            let mut v = BitVec::zeros(len);
            for i in 0..len {
                let w_off = off + (i / 64) * 8;
                let word = bytes
                    .get(w_off..w_off + 8)
                    .map(|s| u64::from_le_bytes(s.try_into().expect("8-byte slice")))
                    .ok_or("codebook blob truncated")?;
                if word >> (i % 64) & 1 == 1 {
                    v.set(i, true);
                }
            }
            Ok(v)
        };
        let removed_bits = read_bits(bytes, off, width)?;
        off += width.div_ceil(64) * 8;
        let count = take_u32(bytes, off)? as usize;
        off += 4;
        let mut cb = Codebook::new(width);
        for code in 0..count {
            let len = take_u32(bytes, off)? as usize;
            off += 4;
            if len > width {
                return Err("entry longer than codebook width".to_string());
            }
            let e = read_bits(bytes, off, len)?;
            off += len.div_ceil(64) * 8;
            // Entries are pushed verbatim (not interned): codes must keep
            // their positions, and lazily-removed subjects legitimately
            // leave duplicate entries until compaction.
            cb.entries.push(e.clone());
            cb.index.entry(e).or_insert(code as u32);
        }
        for i in 0..width {
            if removed_bits.get(i) {
                cb.removed[i] = true;
            }
        }
        if flags & 1 != 0 {
            let (space, used) = GroupSpace::from_bytes(&bytes[off..])?;
            off += used;
            cb.groups = Some(space);
        }
        if flags & 2 != 0 {
            let old_count = take_u32(bytes, off)?;
            let canon_count = take_u32(bytes, off + 4)?;
            let phase = match take_u8(bytes, off + 8)? {
                0 => CompactionPhase::Up,
                1 => CompactionPhase::Down,
                p => return Err(format!("bad compaction phase {p}")),
            };
            let dirty = take_u8(bytes, off + 9)? != 0;
            let cursor = take_u64(bytes, off + 10)?;
            let has_prev = take_u8(bytes, off + 18)? != 0;
            let prev = take_u32(bytes, off + 19)?;
            off += 23;
            let mut final_code = Vec::with_capacity(old_count as usize);
            for i in 0..old_count as usize {
                final_code.push(take_u32(bytes, off + i * 4)?);
            }
            cb.compaction = Some(CompactionPlan {
                old_count,
                canon_count,
                final_code,
                phase,
                cursor,
                prev_code: has_prev.then_some(prev),
                dirty,
            });
        }
        Ok(cb)
    }

    fn from_bytes_v1(bytes: &[u8]) -> Result<Codebook, String> {
        let take_u32 = |b: &[u8], off: usize| -> Result<u32, String> {
            b.get(off..off + 4)
                .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte slice")))
                .ok_or_else(|| "codebook blob truncated".to_string())
        };
        let width = take_u32(bytes, 0)? as usize;
        let words_per_entry = width.div_ceil(64);
        let mut off = 4;
        let read_bits = |bytes: &[u8], off: usize| -> Result<BitVec, String> {
            let mut v = BitVec::zeros(width);
            for i in 0..width {
                let w_off = off + (i / 64) * 8;
                let word = bytes
                    .get(w_off..w_off + 8)
                    .map(|s| u64::from_le_bytes(s.try_into().expect("8-byte slice")))
                    .ok_or("codebook blob truncated")?;
                if word >> (i % 64) & 1 == 1 {
                    v.set(i, true);
                }
            }
            Ok(v)
        };
        let removed_bits = read_bits(bytes, off)?;
        off += words_per_entry * 8;
        let count = take_u32(bytes, off)? as usize;
        off += 4;
        let mut cb = Codebook::new(width);
        for code in 0..count {
            let mut e = read_bits(bytes, off)?;
            off += words_per_entry * 8;
            e.trim_trailing_zeros();
            cb.entries.push(e.clone());
            cb.index.entry(e).or_insert(code as u32);
        }
        for i in 0..width {
            if removed_bits.get(i) {
                cb.removed[i] = true;
            }
        }
        Ok(cb)
    }

    fn rebuild_index(&mut self) {
        self.index.clear();
        for (i, e) in self.entries.iter().enumerate() {
            // On duplicates, the first code wins; later codes stay valid
            // through `entry()` but stop being returned by `intern`.
            self.index.entry(e.clone()).or_insert(i as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acl(bits: &str) -> BitVec {
        BitVec::from_fn(bits.len(), |i| bits.as_bytes()[i] == b'1')
    }

    #[test]
    fn interning_is_stable() {
        let mut cb = Codebook::new(3);
        let a = cb.intern(&acl("101"));
        let b = cb.intern(&acl("011"));
        let a2 = cb.intern(&acl("101"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(cb.len(), 2);
        assert!(cb.bit(a, SubjectId(0)));
        assert!(!cb.bit(a, SubjectId(1)));
        assert!(cb.bit(b, SubjectId(2)));
    }

    #[test]
    fn figure_1c_codebook() {
        // The paper's two-user example has 3 distinct ACLs out of 4 possible.
        let mut cb = Codebook::new(2);
        cb.intern(&acl("11"));
        cb.intern(&acl("10"));
        cb.intern(&acl("01"));
        cb.intern(&acl("11"));
        assert_eq!(cb.len(), 3);
    }

    #[test]
    fn add_subject_copying_rights() {
        let mut cb = Codebook::new(2);
        let c0 = cb.intern(&acl("10"));
        let c1 = cb.intern(&acl("01"));
        let s = cb.add_subject(Some(SubjectId(0)));
        assert_eq!(s, SubjectId(2));
        assert_eq!(cb.width(), 3);
        assert!(cb.bit(c0, s)); // copied subject 0's grant
        assert!(!cb.bit(c1, s));
        assert_eq!(cb.last_op_touched(), 1, "only the granting entry moves");
        let s2 = cb.add_subject(None);
        assert!(!cb.bit(c0, s2));
        assert_eq!(cb.last_op_touched(), 0, "plain adds touch nothing");
    }

    /// The satellite regression: adding subjects without `copy_from` must
    /// not rewrite entries or rebuild the index — O(1), not
    /// O(entries × width).
    #[test]
    fn add_subject_is_constant_time() {
        let mut cb = Codebook::new(8);
        for i in 0..200u32 {
            cb.intern(&BitVec::from_fn(8, |s| (i + s as u32).is_multiple_of(3)));
        }
        let c0 = cb.intern(&BitVec::from_fn(8, |s| s % 3 == 0));
        let lens: Vec<usize> = cb.iter().map(|(_, e)| e.len()).collect();
        let version = cb.version();
        for _ in 0..10_000 {
            cb.add_subject(None);
            assert_eq!(cb.last_op_touched(), 0);
        }
        assert_eq!(cb.width(), 8 + 10_000);
        // No entry was touched, no version bump: cached columns stay warm.
        let lens_after: Vec<usize> = cb.iter().map(|(_, e)| e.len()).collect();
        assert_eq!(lens, lens_after);
        assert_eq!(cb.version(), version);
        // And the index still interns correctly at the new width.
        let mut row = BitVec::from_fn(8, |s| s % 3 == 0);
        row.resize(cb.width());
        assert_eq!(cb.intern(&row), c0);
    }

    /// Removal touches only entries that granted the subject, and the
    /// incrementally-maintained index equals a full rebuild.
    #[test]
    fn remove_subject_touches_only_granting_entries() {
        let mut cb = Codebook::new(4);
        let granting = cb.intern(&acl("0110"));
        let granting2 = cb.intern(&acl("0100"));
        let other = cb.intern(&acl("1001"));
        cb.remove_subject(SubjectId(1));
        assert_eq!(cb.last_op_touched(), 2);
        assert!(!cb.bit(granting, SubjectId(1)));
        assert!(cb.bit(granting, SubjectId(2)));
        assert!(cb.bit(other, SubjectId(0)));
        // granting2 became all-deny; interning all-deny must find it (or a
        // lower dup) rather than mint a new code.
        assert_eq!(cb.intern(&acl("0000")), granting2);
        // Index equals a from-scratch rebuild.
        let mut rebuilt = cb.clone();
        rebuilt.rebuild_index();
        assert_eq!(cb.index, rebuilt.index);
    }

    #[test]
    fn union_column_is_or_of_members() {
        let mut cb = Codebook::new(3);
        let c0 = cb.intern(&acl("100"));
        let c1 = cb.intern(&acl("010"));
        let c2 = cb.intern(&acl("001"));
        let u = cb.add_subject_union(&[SubjectId(0), SubjectId(2)]);
        assert_eq!(u, SubjectId(3));
        assert!(cb.bit(c0, u));
        assert!(!cb.bit(c1, u));
        assert!(cb.bit(c2, u));
        assert_eq!(cb.last_op_touched(), 2);
    }

    #[test]
    fn remove_then_compact_merges_duplicates() {
        let mut cb = Codebook::new(2);
        let c0 = cb.intern(&acl("10"));
        let c1 = cb.intern(&acl("11"));
        cb.remove_subject(SubjectId(1));
        assert!(!cb.bit(c1, SubjectId(1)));
        assert!(cb.bit(c1, SubjectId(0)));
        assert_eq!(cb.live_subjects(), 1);
        let remap = cb.compact();
        assert_eq!(remap[c0 as usize], remap[c1 as usize]); // merged
        assert_eq!(cb.len(), 1);
        assert_eq!(cb.width(), 1);
    }

    #[test]
    fn size_accounting() {
        let mut cb = Codebook::new(16);
        for i in 0..4u32 {
            cb.intern(&BitVec::from_fn(16, |s| (s as u32).is_multiple_of(i + 1)));
        }
        assert_eq!(cb.bytes(), cb.len() * 2); // 16 subjects = 2 bytes/entry
        assert_eq!(cb.code_bytes(), 1);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut cb = Codebook::new(70); // exercises multi-word entries
        for i in 0..5u32 {
            cb.intern(&BitVec::from_fn(70, |s| (s as u32 + i).is_multiple_of(3)));
        }
        cb.remove_subject(SubjectId(69));
        let blob = cb.to_bytes();
        let back = Codebook::from_bytes(&blob).unwrap();
        assert_eq!(back.width(), cb.width());
        assert_eq!(back.len(), cb.len());
        assert_eq!(back.live_subjects(), cb.live_subjects());
        for (code, e) in cb.iter() {
            assert_eq!(back.entry(code), e);
        }
        assert!(back.is_removed(SubjectId(69)));
        assert!(Codebook::from_bytes(&blob[..3]).is_err());
    }

    #[test]
    fn factored_serialization_roundtrip() {
        let mut space = GroupSpace::new();
        let g = space.add_subject(&[]);
        space.bind_direct(g, 0);
        let u = space.add_subject(&[g]);
        let mut cb = Codebook::new(2);
        let c0 = cb.intern(&acl("10"));
        cb.intern(&acl("01"));
        cb.attach_group_space(space);
        assert!(cb.begin_compaction() || cb.compaction().is_none());
        let blob = cb.to_bytes();
        let back = Codebook::from_bytes(&blob).unwrap();
        assert!(back.is_factored());
        assert_eq!(back.compaction().is_some(), cb.compaction().is_some());
        assert_eq!(back.bit(c0, u), cb.bit(c0, u));
        assert_eq!(back.group_space(), cb.group_space());
    }

    #[test]
    fn factored_bit_is_closure_or() {
        let mut space = GroupSpace::new();
        let company = space.add_subject(&[]);
        let dept = space.add_subject(&[company]);
        space.bind_direct(company, 0);
        space.bind_direct(dept, 1);
        let mut cb = Codebook::new(2);
        let c_pub = cb.intern(&acl("10")); // company only
        let c_dept = cb.intern(&acl("01")); // dept only
        let c_none = cb.intern(&acl("00"));
        cb.attach_group_space(space);
        let user = cb.add_grouped_subject(&[dept]);
        assert!(cb.bit(c_pub, user), "inherited through dept → company");
        assert!(cb.bit(c_dept, user));
        assert!(!cb.bit(c_none, user));
        // Membership edit flips the derived column without touching entries.
        assert!(cb.set_membership(user, dept, false));
        assert_eq!(cb.last_op_touched(), 0);
        assert!(!cb.bit(c_pub, user));
        // Direct grants join the OR once a column is materialized.
        let col = cb.ensure_direct_column(user);
        assert_eq!(cb.ensure_direct_column(user), col, "idempotent");
        let mut row = cb.entry_padded(c_none);
        row.set(col as usize, true);
        let c_direct = cb.intern(&row);
        assert!(cb.bit(c_direct, user));
        assert!(!cb.bit(c_direct, dept));
    }

    #[test]
    fn incremental_compaction_preserves_answers_at_every_phase() {
        let mut cb = Codebook::new(3);
        let rows = ["100", "110", "101", "111", "010"];
        let codes: Vec<u32> = rows.iter().map(|r| cb.intern(&acl(r))).collect();
        cb.remove_subject(SubjectId(1));
        // Ground truth after removal.
        let truth: Vec<Vec<bool>> = codes
            .iter()
            .map(|&c| (0..3).map(|s| cb.bit(c, SubjectId(s))).collect())
            .collect();
        assert!(cb.begin_compaction());
        let check = |cb: &Codebook, map: &dyn Fn(u32) -> u32| {
            for (i, &c) in codes.iter().enumerate() {
                for s in 0..2u32 {
                    assert_eq!(
                        cb.bit(map(c), SubjectId(s)),
                        truth[i][s as usize],
                        "code {c} subject {s}"
                    );
                }
            }
        };
        // Phase Up: both old and staging codes answer correctly.
        check(&cb, &|c| c);
        let up = cb.compaction().unwrap().clone();
        check(&cb, &|c| up.map(c));
        // Interning an existing row returns a staging code.
        let staged = cb.intern(&acl("100"));
        assert!(staged >= up.old_count);
        cb.advance_compaction_phase();
        // Phase Down: the store now holds only up-migrated codes; both the
        // staging code and its final rank answer correctly.
        let down = cb.compaction().unwrap().clone();
        check(&cb, &|c| up.map(c));
        check(&cb, &|c| down.map(up.map(c)));
        cb.finish_compaction();
        assert_eq!(cb.width(), 2, "removed column projected out");
        // Final numbering equals what stop-the-world compact would produce.
        let mut flat = Codebook::new(3);
        for r in rows {
            flat.intern(&acl(r));
        }
        flat.remove_subject(SubjectId(1));
        let remap = flat.compact();
        assert_eq!(cb.len(), flat.len());
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(down.map(up.map(c)), remap[i], "code {c}");
        }
    }

    #[test]
    fn plan_serialization_roundtrip() {
        let mut cb = Codebook::new(2);
        cb.intern(&acl("10"));
        cb.intern(&acl("11"));
        cb.remove_subject(SubjectId(1)); // "11" → "10": a duplicate
        assert!(cb.begin_compaction());
        cb.note_compaction_progress(3, Some(2));
        let back = Codebook::from_bytes(&cb.to_bytes()).unwrap();
        assert_eq!(back.compaction(), cb.compaction());
        assert_eq!(back.len(), cb.len()); // staging rows included
        assert_eq!(back.width(), cb.width());
    }

    #[test]
    fn novel_intern_dirties_the_plan() {
        let mut cb = Codebook::new(2);
        cb.intern(&acl("10"));
        cb.intern(&acl("10")); // dup via from_bytes path not possible; force dup via removal
        cb.intern(&acl("11"));
        cb.remove_subject(SubjectId(1));
        assert!(cb.begin_compaction());
        assert!(!cb.compaction().unwrap().is_dirty());
        cb.intern(&acl("01").clone()); // novel row (width 2, subject 1 removed → zeroed? no: intern is raw)
        assert!(cb.compaction().unwrap().is_dirty());
        assert!(cb.replan_compaction());
        assert!(!cb.compaction().unwrap().is_dirty());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_rejected() {
        let mut cb = Codebook::new(3);
        cb.intern(&acl("10"));
    }
}
