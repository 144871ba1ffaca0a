//! A fast path for cascade-only rule sets over large subject populations.
//!
//! The multi-user workloads (LiveLink-style portals) specify access as
//! subtree grants/denies per subject with Most-Specific-Override. For those,
//! the per-node ACL row changes only at rule anchors and at subtree exits —
//! exactly the DOL transition structure. [`CascadeRules::row_stream`]
//! produces that change list in one DFS carrying per-subject effect stacks,
//! so a DOL over thousands of subjects is built without ever materializing
//! the node×subject matrix.

use crate::bitvec::BitVec;
use crate::subject::SubjectId;
use dol_xml::{Document, NodeId};
use std::collections::HashMap;

/// A set of cascading (subtree) grant/deny rules for one action mode,
/// resolved with Most-Specific-Override and a closed-world (deny) default.
#[derive(Debug, Clone, Default)]
pub struct CascadeRules {
    subjects: usize,
    /// Rules anchored at each node, in insertion order (later rules at the
    /// same node override earlier ones for the same subject).
    by_node: HashMap<NodeId, Vec<(SubjectId, bool)>>,
    rule_count: usize,
}

impl CascadeRules {
    /// Creates an empty rule set over `subjects` subjects.
    pub fn new(subjects: usize) -> Self {
        Self {
            subjects,
            by_node: HashMap::new(),
            rule_count: 0,
        }
    }

    /// Number of subjects.
    pub fn subjects(&self) -> usize {
        self.subjects
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rule_count
    }

    /// Whether no rule has been added.
    pub fn is_empty(&self) -> bool {
        self.rule_count == 0
    }

    /// Adds a cascading rule: `subject` is granted (`allow = true`) or
    /// denied the subtree of `node`, overriding less specific rules.
    pub fn add(&mut self, subject: SubjectId, node: NodeId, allow: bool) {
        assert!(subject.index() < self.subjects);
        self.by_node.entry(node).or_default().push((subject, allow));
        self.rule_count += 1;
    }

    /// The accessibility column of one subject (one bit per node).
    pub fn column(&self, doc: &Document, subject: SubjectId) -> BitVec {
        let mut col = BitVec::zeros(doc.len());
        // Stack of (subtree end, previous effect).
        let mut stack: Vec<(u32, Option<bool>)> = Vec::new();
        let mut effect: Option<bool> = None;
        for id in doc.preorder() {
            while let Some((_, prev)) = stack.pop_if(|&mut (end, _)| end <= id.0) {
                effect = prev;
            }
            if let Some(rules) = self.by_node.get(&id) {
                for &(s, allow) in rules {
                    if s == subject {
                        stack.push((id.0 + doc.node(id).size, effect));
                        effect = Some(allow);
                    }
                }
            }
            if effect == Some(true) {
                col.set(id.index(), true);
            }
        }
        col
    }

    /// Streams the document-order ACL row **changes**: the returned list
    /// holds `(position, row)` for exactly the positions whose row differs
    /// from the predecessor's (position 0 always included) — i.e. the DOL
    /// transition structure, computed in one pass.
    ///
    /// When `restrict` is given, rows cover only those subjects, in the
    /// given order (used by the subject-subset scaling experiments).
    pub fn row_stream(&self, doc: &Document, restrict: Option<&[SubjectId]>) -> Vec<(u64, BitVec)> {
        // Dense re-indexing of the involved subjects.
        let width;
        let mut dense: Vec<Option<usize>> = vec![None; self.subjects];
        match restrict {
            Some(list) => {
                width = list.len();
                for (i, s) in list.iter().enumerate() {
                    dense[s.index()] = Some(i);
                }
            }
            None => {
                width = self.subjects;
                for (i, d) in dense.iter_mut().enumerate() {
                    *d = Some(i);
                }
            }
        }
        let mut row = BitVec::zeros(width);
        // Per dense-subject effect stacks: (frame id, effect) entries; the
        // frame stack records (subtree end, dense subject, had_prev).
        let mut effect: Vec<Vec<bool>> = vec![Vec::new(); width];
        let mut frames: Vec<(u32, usize)> = Vec::new();
        let mut out: Vec<(u64, BitVec)> = Vec::new();
        let mut dirty = true; // emit position 0 unconditionally
        for id in doc.preorder() {
            while let Some((_, ds)) = frames.pop_if(|&mut (end, _)| end <= id.0) {
                effect[ds].pop();
                let bit = *effect[ds].last().unwrap_or(&false);
                if row.get(ds) != bit {
                    row.set(ds, bit);
                    dirty = true;
                }
            }
            if let Some(rules) = self.by_node.get(&id) {
                let end = id.0 + doc.node(id).size;
                for &(s, allow) in rules {
                    let Some(ds) = dense[s.index()] else { continue };
                    effect[ds].push(allow);
                    frames.push((end, ds));
                    if row.get(ds) != allow {
                        row.set(ds, allow);
                        dirty = true;
                    }
                }
            }
            if dirty {
                if out.last().map(|(_, r)| r != &row).unwrap_or(true) {
                    out.push((u64::from(id.0), row.clone()));
                }
                dirty = false;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_xml::parse;

    fn doc() -> Document {
        parse("<a><b><c/><d/></b><e><f><g/></f><h/></e><i/></a>").unwrap()
    }

    #[test]
    fn column_matches_mso_semantics() {
        let doc = doc();
        let mut r = CascadeRules::new(1);
        r.add(SubjectId(0), NodeId(0), true); // grant all
        r.add(SubjectId(0), NodeId(4), false); // deny subtree of e
        r.add(SubjectId(0), NodeId(5), true); // re-grant subtree of f
        let col = r.column(&doc, SubjectId(0));
        let expect = [true, true, true, true, false, true, true, false, true];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(col.get(i), e, "node {i}");
        }
    }

    #[test]
    fn row_stream_matches_columns() {
        let doc = doc();
        let mut r = CascadeRules::new(3);
        r.add(SubjectId(0), NodeId(0), true);
        r.add(SubjectId(1), NodeId(1), true);
        r.add(SubjectId(2), NodeId(4), true);
        r.add(SubjectId(0), NodeId(5), false);
        let stream = r.row_stream(&doc, None);
        assert_eq!(stream[0].0, 0);
        // Reconstruct each node's row from the stream and compare.
        for s in 0..3u32 {
            let col = r.column(&doc, SubjectId(s));
            for p in 0..doc.len() as u64 {
                let i = stream.partition_point(|&(q, _)| q <= p) - 1;
                assert_eq!(
                    stream[i].1.get(s as usize),
                    col.get(p as usize),
                    "subject {s} pos {p}"
                );
            }
        }
        // Change positions are minimal (no two adjacent equal rows).
        for w in stream.windows(2) {
            assert_ne!(w[0].1, w[1].1);
        }
    }

    #[test]
    fn row_stream_with_restriction() {
        let doc = doc();
        let mut r = CascadeRules::new(4);
        r.add(SubjectId(0), NodeId(0), true);
        r.add(SubjectId(3), NodeId(4), true);
        let stream = r.row_stream(&doc, Some(&[SubjectId(3)]));
        // Only subject 3 matters: transitions at 0 (all-deny), 4 (grant),
        // and 8 (back to deny after e's subtree [4,8)).
        assert_eq!(stream.len(), 3);
        assert_eq!(stream[0].0, 0);
        assert_eq!(stream[1].0, 4);
        assert_eq!(stream[2].0, 8);
        assert_eq!(stream[1].1.len(), 1);
    }

    #[test]
    fn later_rules_override_earlier_at_same_node() {
        let doc = doc();
        let mut r = CascadeRules::new(1);
        r.add(SubjectId(0), NodeId(0), true);
        r.add(SubjectId(0), NodeId(0), false);
        let col = r.column(&doc, SubjectId(0));
        assert_eq!(col.count_ones(), 0);
    }
}
