#![warn(missing_docs)]

//! **Compressed Accessibility Map (CAM)** — the baseline the paper compares
//! against (Yu, Srivastava, Lakshmanan, Jagadish: *Compressed Accessibility
//! Map: Efficient Access Control for XML*, VLDB 2002).
//!
//! A CAM stores access-control data for a **single subject** as a small set
//! of labeled tree nodes. Each label carries two bits:
//!
//! * `self_access` — whether the labeled node itself is accessible;
//! * `desc_default` — the default accessibility for descendants that carry
//!   no nearer label.
//!
//! Lookup of node `n` finds the nearest labeled ancestor-or-self `c`: if
//! `c = n` the answer is `c.self_access`, otherwise `c.desc_default`. This
//! exploits both *vertical locality* (uniform subtrees need one label) and
//! *horizontal locality* (uniform siblings inherit one parent default).
//!
//! [`Cam::build_optimal`] computes a **minimum-size** CAM by a linear-time
//! two-state tree DP, so the baseline is the strongest version of itself;
//! the paper's plots count CAM labels against DOL transition nodes
//! (Figure 4), and the storage comparison additionally charges CAM's
//! per-label node reference (§5.1: 2 bits of accessibility plus a —
//! "unrealistically" — 1-byte pointer per label).
//!
//! CAM is an **in-memory, per-subject** structure; a multi-user deployment
//! needs one CAM per subject, which is exactly the overhead DOL's codebook
//! sharing avoids.

use dol_acl::BitVec;
use dol_xml::{Document, NodeId};
use std::collections::HashMap;

/// One CAM label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CamEntry {
    /// Accessibility of the labeled node itself.
    pub self_access: bool,
    /// Default accessibility of descendants with no nearer label.
    pub desc_default: bool,
}

/// A single-subject compressed accessibility map.
#[derive(Debug, Clone)]
pub struct Cam {
    entries: HashMap<NodeId, CamEntry>,
}

const INF: u32 = u32::MAX / 2;

impl Cam {
    /// Builds a minimum-size CAM for the accessibility column `acc`
    /// (one bit per document position) over `doc`.
    ///
    /// The DP assigns each node two costs — the minimal number of labels in
    /// its subtree given an inherited descendant-default of `false` / `true`
    /// — choosing per node between staying unlabeled (requires its own
    /// accessibility to equal the inherited default) and taking a label with
    /// the best default for its children. The root is always labeled, so
    /// every lookup finds an ancestor-or-self label.
    pub fn build_optimal(doc: &Document, acc: &BitVec) -> Cam {
        assert_eq!(acc.len(), doc.len(), "column length mismatch");
        let n = doc.len();
        // sums[d][v] = Σ over children c of v of cost[d][c]
        let mut sums = [vec![0u32; n], vec![0u32; n]];
        let mut cost = [vec![0u32; n], vec![0u32; n]];
        // best_default[v] = the d' minimizing sums[d'][v] (children default
        // when v is labeled)
        let mut best_default = vec![false; n];
        // Reverse preorder visits children before parents.
        for v in (0..n).rev() {
            let id = NodeId(v as u32);
            let a = acc.get(v);
            let (s0, s1) = (sums[0][v], sums[1][v]);
            let bd = s1 < s0; // ties prefer default=false
            best_default[v] = bd;
            let labeled = 1 + s0.min(s1);
            for d in 0..2 {
                let unlabeled = if a == (d == 1) { sums[d][v] } else { INF };
                cost[d][v] = unlabeled.min(labeled);
            }
            if let Some(p) = doc.parent(id) {
                sums[0][p.index()] += cost[0][v];
                sums[1][p.index()] += cost[1][v];
            }
        }
        // Top-down reconstruction: applied[v] = default in effect for v's
        // children.
        let mut entries = HashMap::new();
        let mut applied = vec![false; n];
        for v in 0..n {
            let id = NodeId(v as u32);
            let a = acc.get(v);
            let labeled_cost = 1 + sums[0][v].min(sums[1][v]);
            let take_label = match doc.parent(id) {
                None => true, // root is always labeled
                Some(p) => {
                    let d = applied[p.index()];
                    let unlabeled_cost = if a == d { sums[d as usize][v] } else { INF };
                    labeled_cost < unlabeled_cost
                }
            };
            if take_label {
                let d = best_default[v];
                entries.insert(
                    id,
                    CamEntry {
                        self_access: a,
                        desc_default: d,
                    },
                );
                applied[v] = d;
            } else {
                applied[v] = applied[doc.parent(id).unwrap().index()];
            }
        }
        Cam { entries }
    }

    /// Number of CAM labels — the paper's comparison metric.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the CAM is empty (never true for a built CAM: the root is
    /// always labeled).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accessibility lookup: nearest labeled ancestor-or-self.
    pub fn lookup(&self, doc: &Document, node: NodeId) -> bool {
        if let Some(e) = self.entries.get(&node) {
            return e.self_access;
        }
        for anc in doc.ancestors(node) {
            if let Some(e) = self.entries.get(&anc) {
                return e.desc_default;
            }
        }
        unreachable!("the root is always labeled")
    }

    /// Checks the CAM against ground truth on every node.
    pub fn verify(&self, doc: &Document, acc: &BitVec) -> Result<(), String> {
        for id in doc.preorder() {
            let got = self.lookup(doc, id);
            let expect = acc.get(id.index());
            if got != expect {
                return Err(format!("node {id}: cam={got} truth={expect}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_xml::parse;

    fn col(doc: &Document, f: impl Fn(u32) -> bool) -> BitVec {
        BitVec::from_fn(doc.len(), |i| f(i as u32))
    }

    #[test]
    fn uniform_tree_needs_one_label() {
        let doc = parse("<a><b><c/><d/></b><e/></a>").unwrap();
        for val in [false, true] {
            let acc = col(&doc, |_| val);
            let cam = Cam::build_optimal(&doc, &acc);
            cam.verify(&doc, &acc).unwrap();
            assert_eq!(cam.len(), 1, "uniform accessibility {val}");
        }
    }

    #[test]
    fn uniform_subtree_exploits_vertical_locality() {
        let doc = parse("<a><b><c/><d/></b><e><f/></e></a>").unwrap();
        // Subtree of b (1..4) accessible, everything else not.
        let acc = col(&doc, |i| (1..4).contains(&i));
        let cam = Cam::build_optimal(&doc, &acc);
        cam.verify(&doc, &acc).unwrap();
        // Root label (deny, default deny) + b label (grant, default grant).
        assert_eq!(cam.len(), 2);
    }

    #[test]
    fn horizontal_locality_single_parent_default() {
        // Many uniform siblings should not each need a label.
        let doc = parse("<a><b/><c/><d/><e/><f/><g/></a>").unwrap();
        let acc = col(&doc, |i| i != 0); // children accessible, root not
        let cam = Cam::build_optimal(&doc, &acc);
        cam.verify(&doc, &acc).unwrap();
        assert_eq!(cam.len(), 1); // root: self deny, desc default grant
    }

    #[test]
    fn alternating_leaves_need_labels() {
        let doc = parse("<a><b/><c/><d/><e/></a>").unwrap();
        let acc = col(&doc, |i| i % 2 == 1);
        let cam = Cam::build_optimal(&doc, &acc);
        cam.verify(&doc, &acc).unwrap();
        // Root + two labels on the minority side (or equivalent): optimal 3.
        assert_eq!(cam.len(), 3);
    }

    /// Brute-force minimal CAM size for tiny trees: try every subset of
    /// nodes as the label set and every default assignment greedily.
    fn brute_force_min(doc: &Document, acc: &BitVec) -> usize {
        let n = doc.len();
        assert!(n <= 12);
        let mut best = usize::MAX;
        // For a fixed label set, the best defaults are determined greedily?
        // Not necessarily — enumerate defaults too (2^|set|).
        for set in 0u32..(1 << n) {
            if set & 1 == 0 {
                continue; // root must be labeled
            }
            let labels: Vec<usize> = (0..n).filter(|i| set >> i & 1 == 1).collect();
            if labels.len() >= best {
                continue;
            }
            let k = labels.len();
            'defaults: for defs in 0u32..(1 << k) {
                // Check every node resolves correctly.
                for v in 0..n {
                    let id = NodeId(v as u32);
                    let got = if set >> v & 1 == 1 {
                        acc.get(v) // self bit is free: always correct
                    } else {
                        // nearest labeled ancestor's default
                        let mut cur = doc.parent(id);
                        loop {
                            let a = cur.expect("root labeled");
                            if set >> a.index() & 1 == 1 {
                                let li = labels.iter().position(|&l| l == a.index()).unwrap();
                                break defs >> li & 1 == 1;
                            }
                            cur = doc.parent(a);
                        }
                    };
                    if got != acc.get(v) {
                        continue 'defaults;
                    }
                }
                best = best.min(k);
                break;
            }
        }
        best
    }

    #[test]
    fn dp_is_optimal_on_small_trees() {
        let docs = [
            "<a><b/><c/><d/></a>",
            "<a><b><c/></b><d><e/><f/></d></a>",
            "<a><b><c><d/></c></b></a>",
            "<a><b/><c><d/><e/></c><f><g/></f></a>",
        ];
        for (di, src) in docs.iter().enumerate() {
            let doc = parse(src).unwrap();
            let n = doc.len();
            for pattern in 0u32..(1 << n) {
                let acc = BitVec::from_fn(n, |i| pattern >> i & 1 == 1);
                let cam = Cam::build_optimal(&doc, &acc);
                cam.verify(&doc, &acc).unwrap();
                let opt = brute_force_min(&doc, &acc);
                assert_eq!(
                    cam.len(),
                    opt,
                    "doc {di} pattern {pattern:0b}: dp={} brute={opt}",
                    cam.len()
                );
            }
        }
    }
}
