//! Materialized accessibility maps.
//!
//! An [`AccessibilityMap`] is the accessibility function for one action mode,
//! stored column-major: one bit vector over document positions per subject.
//! Column-major is the convenient orientation for the consumers: CAM
//! construction wants a whole subject's column, and the DOL builder extracts
//! per-node rows through [`crate::AccessOracle`].

use crate::bitvec::BitVec;
use crate::subject::SubjectId;
use dol_xml::NodeId;

/// The accessibility function `S × D → {true, false}` for one action mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessibilityMap {
    nodes: usize,
    columns: Vec<BitVec>,
}

impl AccessibilityMap {
    /// Creates an all-deny map for `subjects` subjects over `nodes` nodes.
    pub fn new(subjects: usize, nodes: usize) -> Self {
        Self {
            nodes,
            columns: (0..subjects).map(|_| BitVec::zeros(nodes)).collect(),
        }
    }

    /// Number of subjects.
    pub fn subjects(&self) -> usize {
        self.columns.len()
    }

    /// Number of document nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether `subject` can access `node`.
    #[inline]
    pub fn accessible(&self, subject: SubjectId, node: NodeId) -> bool {
        self.columns[subject.index()].get(node.index())
    }

    /// Grants or revokes access.
    #[inline]
    pub fn set(&mut self, subject: SubjectId, node: NodeId, value: bool) {
        self.columns[subject.index()].set(node.index(), value);
    }

    /// The full accessibility column of one subject (one bit per node).
    pub fn column(&self, subject: SubjectId) -> &BitVec {
        &self.columns[subject.index()]
    }

    /// Mutable access to one subject's column.
    pub fn column_mut(&mut self, subject: SubjectId) -> &mut BitVec {
        &mut self.columns[subject.index()]
    }

    /// Writes the ACL row of `node` (one bit per subject) into `out`,
    /// resizing it as needed.
    pub fn row_into(&self, node: NodeId, out: &mut BitVec) {
        out.resize(self.columns.len());
        out.fill(false);
        for (s, col) in self.columns.iter().enumerate() {
            if col.get(node.index()) {
                out.set(s, true);
            }
        }
    }

    /// Restricts the map to a subset of subjects (a fixture of the DOL
    /// property tests).
    pub fn project(&self, subjects: &[SubjectId]) -> AccessibilityMap {
        AccessibilityMap {
            nodes: self.nodes,
            columns: subjects
                .iter()
                .map(|s| self.columns[s.index()].clone())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_revoke_lookup() {
        let mut m = AccessibilityMap::new(3, 10);
        assert!(!m.accessible(SubjectId(1), NodeId(4)));
        m.set(SubjectId(1), NodeId(4), true);
        assert!(m.accessible(SubjectId(1), NodeId(4)));
        assert!(!m.accessible(SubjectId(0), NodeId(4)));
        m.set(SubjectId(1), NodeId(4), false);
        assert!(!m.accessible(SubjectId(1), NodeId(4)));
    }

    #[test]
    fn row_extraction() {
        let mut m = AccessibilityMap::new(4, 5);
        m.set(SubjectId(0), NodeId(2), true);
        m.set(SubjectId(3), NodeId(2), true);
        let mut row = BitVec::zeros(0);
        m.row_into(NodeId(2), &mut row);
        assert_eq!(row.to_string(), "1001");
        m.row_into(NodeId(0), &mut row);
        assert_eq!(row.to_string(), "0000");
    }

    #[test]
    fn projection_keeps_the_chosen_columns() {
        let mut m = AccessibilityMap::new(2, 4);
        m.set(SubjectId(1), NodeId(2), true);
        let p = m.project(&[SubjectId(1)]);
        assert_eq!(p.subjects(), 1);
        assert!(p.accessible(SubjectId(0), NodeId(2)));
        assert!(!p.accessible(SubjectId(0), NodeId(1)));
    }
}
