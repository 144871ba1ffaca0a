//! The arena document tree.
//!
//! Nodes are stored in **document order** (preorder). [`NodeId`] is the
//! preorder rank, so the whole subtree of node `n` is the contiguous id range
//! `[n, n + size(n))`. This invariant is relied upon throughout the engine:
//! accessibility maps are bit vectors indexed by `NodeId`, DOL transition
//! lookups are binary searches over positions, and the ancestor–descendant
//! test used by structural joins is a pair of integer comparisons.

use crate::error::XmlError;
use crate::tag::{TagId, TagInterner};

/// Sentinel stored in [`Node::parent_raw`] for the root node.
const NO_PARENT: u32 = u32::MAX;

/// A node identifier: the node's document-order (preorder) rank.
///
/// The root of a document is always `NodeId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw rank as a usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Interned element name.
    pub tag: TagId,
    /// Preorder rank of the parent, or [`NO_PARENT`] for the root.
    parent_raw: u32,
    /// Subtree size including this node (≥ 1).
    pub size: u32,
    /// Depth in the tree; the root has depth 0.
    pub depth: u16,
    /// Optional character-data value (used by `#text` and `@attr` nodes, and
    /// by elements whose entire content is a single text chunk).
    pub value: Option<Box<str>>,
}

impl Node {
    /// The parent of this node, if any.
    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        (self.parent_raw != NO_PARENT).then_some(NodeId(self.parent_raw))
    }
}

/// An ordered XML element tree in preorder arena representation.
///
/// See the crate-level docs for the data model. Construct documents with
/// [`Document::builder`] or [`crate::parse`].
#[derive(Debug, Clone, Default)]
pub struct Document {
    tags: TagInterner,
    nodes: Vec<Node>,
}

impl Document {
    /// Starts building a new document.
    pub fn builder() -> DocumentBuilder {
        DocumentBuilder::new()
    }

    /// Number of nodes in the document.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document has no nodes. A well-formed document is never
    /// empty, but intermediate values (e.g. `Document::default()`) can be.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node id (`NodeId(0)`).
    #[inline]
    pub fn root(&self) -> NodeId {
        debug_assert!(!self.nodes.is_empty());
        NodeId(0)
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The tag interner of this document.
    #[inline]
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// Resolves a tag id to its element name.
    #[inline]
    pub fn tag_name(&self, tag: TagId) -> &str {
        self.tags.name(tag)
    }

    /// The element name of `id`.
    #[inline]
    pub fn name_of(&self, id: NodeId) -> &str {
        self.tags.name(self.node(id).tag)
    }

    /// The parent of `id`, or `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent()
    }

    /// The first child of `id` in document order, if any.
    ///
    /// Because children immediately follow their parent in preorder, this is
    /// `id + 1` whenever the subtree has more than one node.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        (self.node(id).size > 1).then_some(NodeId(id.0 + 1))
    }

    /// The next sibling of `id` in document order, if any.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        let node = self.node(id);
        let next = id.0 + node.size;
        match self.nodes.get(next as usize) {
            Some(candidate) if candidate.parent_raw == node.parent_raw => Some(NodeId(next)),
            _ => None,
        }
    }

    /// Iterates over all nodes in postorder (children before parents).
    ///
    /// Useful for bottom-up computations such as the CAM DP; equivalent to
    /// visiting preorder ranks in an order where every node follows its
    /// whole subtree.
    pub fn postorder(&self) -> impl Iterator<Item = NodeId> + '_ {
        // A node's postorder successor relationship is complex to chain
        // lazily; materialize via a stack-based traversal.
        let mut order = Vec::with_capacity(self.len());
        let mut stack: Vec<(NodeId, bool)> = vec![(self.root(), false)];
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                order.push(n);
            } else {
                stack.push((n, true));
                let kids: Vec<NodeId> = self.children(n).collect();
                for c in kids.into_iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        order.into_iter()
    }

    /// Iterates over the children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.first_child(id),
        }
    }

    /// The half-open id range covered by the subtree of `id` (including `id`).
    #[inline]
    pub fn subtree_range(&self, id: NodeId) -> std::ops::Range<u32> {
        id.0..id.0 + self.node(id).size
    }

    /// Iterates over the proper descendants of `id` in document order.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let range = self.subtree_range(id);
        (range.start + 1..range.end).map(NodeId)
    }

    /// Iterates over all nodes in document order.
    pub fn preorder(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Whether `a` is a **proper** ancestor of `d`.
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        a.0 < d.0 && d.0 < a.0 + self.node(a).size
    }

    /// Whether `a` is an ancestor of `d` or `a == d`.
    #[inline]
    pub fn is_ancestor_or_self(&self, a: NodeId, d: NodeId) -> bool {
        a == d || self.is_ancestor(a, d)
    }

    /// Iterates from `id`'s parent up to the root.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            next: self.parent(id),
        }
    }

    /// Collects the ids of every node with the given tag, in document order.
    pub fn nodes_with_tag(&self, tag: TagId) -> Vec<NodeId> {
        self.preorder()
            .filter(|&n| self.node(n).tag == tag)
            .collect()
    }

    /// Computes summary statistics over the document.
    pub fn stats(&self) -> DocumentStats {
        let mut max_depth = 0u16;
        let mut depth_sum = 0u64;
        let mut max_fanout = 0usize;
        let mut internal = 0usize;
        let mut child_sum = 0u64;
        for id in self.preorder() {
            let n = self.node(id);
            max_depth = max_depth.max(n.depth);
            depth_sum += u64::from(n.depth);
            let fanout = self.children(id).count();
            if fanout > 0 {
                internal += 1;
                child_sum += fanout as u64;
                max_fanout = max_fanout.max(fanout);
            }
        }
        DocumentStats {
            nodes: self.len(),
            distinct_tags: self.tags.len(),
            max_depth: max_depth as usize,
            avg_depth: depth_sum as f64 / self.len().max(1) as f64,
            max_fanout,
            avg_fanout: child_sum as f64 / internal.max(1) as f64,
        }
    }

    /// Verifies the structural invariants of the preorder arena.
    ///
    /// Intended for tests: checks that subtree sizes tile correctly, that
    /// parent pointers point backwards at true ancestors, and that depths are
    /// consistent. Returns a description of the first violation found.
    pub fn check_integrity(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("document is empty".into());
        }
        if self.nodes[0].parent_raw != NO_PARENT {
            return Err("root has a parent".into());
        }
        if self.nodes[0].size as usize != self.nodes.len() {
            return Err(format!(
                "root size {} != node count {}",
                self.nodes[0].size,
                self.nodes.len()
            ));
        }
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            let p = n.parent_raw;
            if p == NO_PARENT {
                return Err(format!("non-root node {i} has no parent"));
            }
            let parent = &self.nodes[p as usize];
            if !(p as usize) < i {
                return Err(format!("node {i} parent {p} not before it"));
            }
            if i as u32 >= p + parent.size {
                return Err(format!("node {i} outside parent {p}'s subtree"));
            }
            if n.depth != parent.depth + 1 {
                return Err(format!("node {i} depth {} != parent depth + 1", n.depth));
            }
            if i as u32 + n.size > p + parent.size {
                return Err(format!("node {i} subtree overruns parent {p}'s subtree"));
            }
        }
        // Children of each node must tile its subtree exactly.
        for id in self.preorder() {
            let mut cursor = id.0 + 1;
            for c in self.children(id) {
                if c.0 != cursor {
                    return Err(format!("child {} of {} expected at {}", c.0, id.0, cursor));
                }
                cursor += self.node(c).size;
            }
            if cursor != id.0 + self.node(id).size {
                return Err(format!("children of {} do not tile its subtree", id.0));
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------------------
    // Structural updates
    // ----------------------------------------------------------------------

    /// Extracts a copy of the subtree rooted at `id` as a standalone document.
    pub fn copy_subtree(&self, id: NodeId) -> Document {
        let range = self.subtree_range(id);
        let base = range.start;
        let base_depth = self.node(id).depth;
        let mut tags = TagInterner::new();
        let nodes = self.nodes[range.start as usize..range.end as usize]
            .iter()
            .map(|n| Node {
                tag: tags.intern(self.tags.name(n.tag)),
                parent_raw: if n.parent_raw == NO_PARENT || n.parent_raw < base {
                    NO_PARENT
                } else {
                    n.parent_raw - base
                },
                size: n.size,
                depth: n.depth - base_depth,
                value: n.value.clone(),
            })
            .collect();
        Document { tags, nodes }
    }

    /// Deletes the subtree rooted at `id`. The root cannot be deleted.
    ///
    /// All node ids at or after the deleted range shift down by the subtree
    /// size; the returned value is that size, so callers maintaining
    /// positional side structures (such as a DOL) can remap.
    pub fn delete_subtree(&mut self, id: NodeId) -> Result<u32, XmlError> {
        if id.index() >= self.nodes.len() {
            return Err(XmlError::InvalidNodeId(id.0));
        }
        if id.0 == 0 {
            return Err(XmlError::UnbalancedClose); // cannot delete the root
        }
        let k = self.nodes[id.index()].size;
        // Shrink every ancestor's subtree.
        let mut a = self.nodes[id.index()].parent_raw;
        while a != NO_PARENT {
            self.nodes[a as usize].size -= k;
            a = self.nodes[a as usize].parent_raw;
        }
        self.nodes.drain(id.index()..id.index() + k as usize);
        // Fix parent pointers of shifted nodes.
        for n in &mut self.nodes[id.index()..] {
            if n.parent_raw != NO_PARENT && n.parent_raw >= id.0 {
                n.parent_raw -= k;
            }
        }
        Ok(k)
    }

    /// Inserts `subtree` (a standalone single-rooted document) as a child of
    /// `parent`. If `before` is `Some(c)`, the subtree is inserted immediately
    /// before existing child `c`; otherwise it becomes the last child.
    ///
    /// Returns the [`NodeId`] assigned to the inserted subtree's root.
    pub fn insert_subtree(
        &mut self,
        parent: NodeId,
        before: Option<NodeId>,
        subtree: &Document,
    ) -> Result<NodeId, XmlError> {
        if parent.index() >= self.nodes.len() {
            return Err(XmlError::InvalidNodeId(parent.0));
        }
        if subtree.is_empty() {
            return Err(XmlError::EmptyDocument);
        }
        let pos = match before {
            Some(c) => {
                if self.parent(c) != Some(parent) {
                    return Err(XmlError::InvalidNodeId(c.0));
                }
                c.0
            }
            None => parent.0 + self.nodes[parent.index()].size,
        };
        let k = subtree.len() as u32;
        let parent_depth = self.nodes[parent.index()].depth;
        // Grow every ancestor's subtree (including `parent`).
        let mut a = parent.0;
        loop {
            self.nodes[a as usize].size += k;
            match self.nodes[a as usize].parent_raw {
                NO_PARENT => break,
                p => a = p,
            }
        }
        // Fix parent pointers of nodes that will shift.
        for n in &mut self.nodes[pos as usize..] {
            if n.parent_raw != NO_PARENT && n.parent_raw >= pos {
                n.parent_raw += k;
            }
        }
        // Splice in the new nodes, remapping tags, parents and depths.
        let new_nodes: Vec<Node> = subtree
            .nodes
            .iter()
            .map(|n| Node {
                tag: self.tags.intern(subtree.tags.name(n.tag)),
                parent_raw: match n.parent_raw {
                    NO_PARENT => parent.0,
                    p => p + pos,
                },
                size: n.size,
                depth: n.depth + parent_depth + 1,
                value: n.value.clone(),
            })
            .collect();
        self.nodes.splice(pos as usize..pos as usize, new_nodes);
        Ok(NodeId(pos))
    }

    /// Moves the subtree rooted at `id` to become the last child of
    /// `new_parent`. Returns the subtree root's new id.
    pub fn move_subtree(&mut self, id: NodeId, new_parent: NodeId) -> Result<NodeId, XmlError> {
        if self.is_ancestor_or_self(id, new_parent) {
            return Err(XmlError::InvalidNodeId(new_parent.0));
        }
        let sub = self.copy_subtree(id);
        let k = self.delete_subtree(id)?;
        let target = if new_parent.0 >= id.0 + k {
            NodeId(new_parent.0 - k)
        } else {
            new_parent
        };
        self.insert_subtree(target, None, &sub)
    }

    /// Sets or clears the character-data value of a node.
    pub fn set_value(&mut self, id: NodeId, value: Option<&str>) {
        self.nodes[id.index()].value = value.map(Into::into);
    }
}

/// Iterator over a node's children. See [`Document::children`].
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.next_sibling(cur);
        Some(cur)
    }
}

/// Iterator over a node's ancestors. See [`Document::ancestors`].
pub struct Ancestors<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.parent(cur);
        Some(cur)
    }
}

/// Summary statistics of a document, used to calibrate synthetic workloads
/// against the shapes reported in the paper (LiveLink: avg depth 7.9, max 19).
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentStats {
    /// Total node count.
    pub nodes: usize,
    /// Number of distinct element names.
    pub distinct_tags: usize,
    /// Maximum node depth (root = 0).
    pub max_depth: usize,
    /// Mean node depth.
    pub avg_depth: f64,
    /// Largest number of children of any node.
    pub max_fanout: usize,
    /// Mean number of children over internal nodes.
    pub avg_fanout: f64,
}

/// Incremental document-order builder.
///
/// ```
/// use dol_xml::Document;
/// let mut b = Document::builder();
/// b.open("site");
/// b.open("regions");
/// b.leaf("africa", None);
/// b.close();
/// b.close();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct DocumentBuilder {
    tags: TagInterner,
    nodes: Vec<Node>,
    open: Vec<u32>,
    closed_root: bool,
}

impl DocumentBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder whose interner is pre-seeded with `tags`: names
    /// already interned keep their ids. Used when rebuilding a document
    /// from storage, where node records hold ids in `tags`'s id space —
    /// a fresh first-occurrence interner would silently renumber them.
    pub fn with_tags(tags: TagInterner) -> Self {
        Self {
            tags,
            ..Self::default()
        }
    }

    /// Opens a new element; it stays open until the matching [`close`].
    ///
    /// [`close`]: DocumentBuilder::close
    pub fn open(&mut self, tag: &str) -> NodeId {
        self.open_valued(tag, None)
    }

    /// Opens a new element carrying a character-data value.
    pub fn open_valued(&mut self, tag: &str, value: Option<&str>) -> NodeId {
        debug_assert!(
            !(self.open.is_empty() && self.closed_root),
            "opening a second root element"
        );
        let id = self.nodes.len() as u32;
        let depth = self.open.len() as u16;
        let tag = self.tags.intern(tag);
        self.nodes.push(Node {
            tag,
            parent_raw: self.open.last().copied().unwrap_or(NO_PARENT),
            size: 1,
            depth,
            value: value.map(Into::into),
        });
        self.open.push(id);
        NodeId(id)
    }

    /// Closes the most recently opened element.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close() without open()");
        let size = self.nodes.len() as u32 - id;
        self.nodes[id as usize].size = size;
        if self.open.is_empty() {
            self.closed_root = true;
        }
    }

    /// Adds a complete (childless) element, optionally with a value.
    pub fn leaf(&mut self, tag: &str, value: Option<&str>) -> NodeId {
        let id = self.open_valued(tag, value);
        self.close();
        id
    }

    /// Adds a `#text` pseudo-element holding character data.
    pub fn text(&mut self, data: &str) -> NodeId {
        self.leaf(crate::tag::TEXT_TAG, Some(data))
    }

    /// Adds an `@name` attribute pseudo-element.
    pub fn attribute(&mut self, name: &str, value: &str) -> NodeId {
        let tag = format!("{}{name}", crate::tag::ATTRIBUTE_PREFIX);
        self.leaf(&tag, Some(value))
    }

    /// The element name of an already-emitted node (used by the parser to
    /// check closing tags).
    pub fn tag_name_of(&self, id: NodeId) -> &str {
        self.tags.name(self.nodes[id.index()].tag)
    }

    /// Current nesting depth (number of open elements).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Number of nodes emitted so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no node has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finishes the build, checking well-formedness.
    pub fn finish(self) -> Result<Document, XmlError> {
        if !self.open.is_empty() {
            return Err(XmlError::UnclosedElements(self.open.len()));
        }
        if self.nodes.is_empty() {
            return Err(XmlError::EmptyDocument);
        }
        if (self.nodes[0].size as usize) != self.nodes.len() {
            return Err(XmlError::MultipleRoots);
        }
        Ok(Document {
            tags: self.tags,
            nodes: self.nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        // (a (b) (c) (d (e) (f)) (g))
        let mut b = Document::builder();
        b.open("a");
        b.leaf("b", None);
        b.leaf("c", Some("v"));
        b.open("d");
        b.leaf("e", None);
        b.leaf("f", None);
        b.close();
        b.leaf("g", None);
        b.close();
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_preorder_arena() {
        let d = sample();
        assert_eq!(d.len(), 7);
        d.check_integrity().unwrap();
        assert_eq!(d.name_of(NodeId(0)), "a");
        assert_eq!(d.name_of(NodeId(3)), "d");
        assert_eq!(d.node(NodeId(3)).size, 3);
        assert_eq!(d.node(NodeId(2)).value.as_deref(), Some("v"));
    }

    #[test]
    fn navigation() {
        let d = sample();
        let a = d.root();
        assert_eq!(d.first_child(a), Some(NodeId(1)));
        assert_eq!(d.next_sibling(NodeId(1)), Some(NodeId(2)));
        assert_eq!(d.next_sibling(NodeId(2)), Some(NodeId(3)));
        assert_eq!(d.next_sibling(NodeId(3)), Some(NodeId(6)));
        assert_eq!(d.next_sibling(NodeId(6)), None);
        assert_eq!(d.first_child(NodeId(1)), None);
        let kids: Vec<_> = d.children(a).map(|n| n.0).collect();
        assert_eq!(kids, vec![1, 2, 3, 6]);
        assert_eq!(d.parent(NodeId(4)), Some(NodeId(3)));
        let anc: Vec<_> = d.ancestors(NodeId(4)).map(|n| n.0).collect();
        assert_eq!(anc, vec![3, 0]);
    }

    #[test]
    fn postorder_navigation() {
        let d = sample();
        let post: Vec<u32> = d.postorder().map(|n| n.0).collect();
        assert_eq!(post, vec![1, 2, 4, 5, 3, 6, 0]);
        // Postorder visits every node exactly once.
        let mut sorted = post.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..d.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn ancestor_tests_are_interval_tests() {
        let d = sample();
        assert!(d.is_ancestor(NodeId(0), NodeId(5)));
        assert!(d.is_ancestor(NodeId(3), NodeId(5)));
        assert!(!d.is_ancestor(NodeId(3), NodeId(6)));
        assert!(!d.is_ancestor(NodeId(5), NodeId(3)));
        assert!(!d.is_ancestor(NodeId(3), NodeId(3)));
        assert!(d.is_ancestor_or_self(NodeId(3), NodeId(3)));
    }

    #[test]
    fn unbalanced_builds_error() {
        let mut b = Document::builder();
        b.open("a");
        assert_eq!(b.finish().unwrap_err(), XmlError::UnclosedElements(1));
        let b = Document::builder();
        assert_eq!(b.finish().unwrap_err(), XmlError::EmptyDocument);
    }

    #[test]
    fn delete_subtree_preserves_invariants() {
        let mut d = sample();
        let k = d.delete_subtree(NodeId(3)).unwrap();
        assert_eq!(k, 3);
        assert_eq!(d.len(), 4);
        d.check_integrity().unwrap();
        let kids: Vec<_> = d
            .children(d.root())
            .map(|n| d.name_of(n).to_string())
            .collect();
        assert_eq!(kids, vec!["b", "c", "g"]);
    }

    #[test]
    fn root_cannot_be_deleted() {
        let mut d = sample();
        assert!(d.delete_subtree(NodeId(0)).is_err());
    }

    #[test]
    fn copy_subtree_is_standalone() {
        let d = sample();
        let sub = d.copy_subtree(NodeId(3));
        assert_eq!(sub.len(), 3);
        sub.check_integrity().unwrap();
        assert_eq!(sub.name_of(sub.root()), "d");
        assert_eq!(sub.node(sub.root()).depth, 0);
    }

    #[test]
    fn insert_subtree_appends_and_prepends() {
        let mut d = sample();
        let mut b = Document::builder();
        b.open("x");
        b.leaf("y", None);
        b.close();
        let sub = b.finish().unwrap();

        let at = d.insert_subtree(NodeId(1), None, &sub).unwrap();
        assert_eq!(at, NodeId(2));
        d.check_integrity().unwrap();
        assert_eq!(d.name_of(NodeId(2)), "x");
        assert_eq!(d.parent(NodeId(2)), Some(NodeId(1)));

        // Insert before existing child `c` (now shifted).
        let c = d.nodes_with_tag(d.tags().get("c").unwrap())[0];
        let at2 = d.insert_subtree(d.root(), Some(c), &sub).unwrap();
        assert_eq!(at2, c);
        d.check_integrity().unwrap();
        assert_eq!(d.name_of(at2), "x");
    }

    #[test]
    fn move_subtree_relocates() {
        let mut d = sample();
        // Move (d (e) (f)) under b.
        let new_id = d.move_subtree(NodeId(3), NodeId(1)).unwrap();
        d.check_integrity().unwrap();
        assert_eq!(d.name_of(new_id), "d");
        assert_eq!(d.name_of(d.parent(new_id).unwrap()), "b");
        assert_eq!(d.len(), 7);
        // Moving a node under its own descendant is rejected.
        assert!(d.move_subtree(NodeId(1), new_id).is_err());
    }

    #[test]
    fn stats_computed() {
        let d = sample();
        let s = d.stats();
        assert_eq!(s.nodes, 7);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.max_fanout, 4);
        assert_eq!(s.distinct_tags, 7);
    }
}
