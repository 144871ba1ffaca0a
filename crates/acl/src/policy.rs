//! Rule-based access-control policies and their propagation.
//!
//! "Instead of manually specifying access control for each XML node, the
//! system administrator defines a set of rules and derives access controls
//! for each node … through rule-based propagation and inferences" (paper §1).
//! This module is that rule layer. Its net effect is compiled into an
//! [`AccessibilityMap`] — the incrementally maintainable accessibility map
//! whose storage is the subject of the paper.
//!
//! Semantics:
//!
//! * a [`Rule`] grants or denies one subject one mode on one node, either
//!   [`Propagation::Local`] (that node only) or [`Propagation::Cascade`]
//!   (the node and its whole subtree);
//! * conflicts are resolved by **Most-Specific-Override** (Jajodia et al.):
//!   the rules anchored at the *closest* ancestor-or-self node win;
//! * among equally specific rules the [`ConflictResolution`] tie-breaker
//!   applies (deny-takes-precedence by default);
//! * nodes reached by no rule get the policy's default effect
//!   (closed-world = deny).

use crate::map::AccessibilityMap;
use crate::mode::ModeId;
use crate::subject::SubjectId;
use dol_xml::{Document, NodeId};
use std::collections::HashMap;

/// Grant or deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// The subject may perform the action.
    Grant,
    /// The subject may not perform the action.
    Deny,
}

/// How far a rule reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Propagation {
    /// The anchor node only.
    Local,
    /// The anchor node and all of its descendants (until overridden by a
    /// more specific rule).
    Cascade,
}

/// One authorization rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Whose access is being controlled.
    pub subject: SubjectId,
    /// Which action mode.
    pub mode: ModeId,
    /// The anchor node.
    pub node: NodeId,
    /// Grant or deny.
    pub effect: Effect,
    /// Local or cascading.
    pub propagation: Propagation,
}

/// Tie-breaking among equally specific conflicting rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictResolution {
    /// Any applicable deny wins (the common safe default).
    DenyOverrides,
    /// Any applicable grant wins.
    GrantOverrides,
}

/// A set of rules plus resolution configuration.
#[derive(Debug, Clone)]
pub struct Policy {
    rules: Vec<Rule>,
    /// Effect for nodes no rule reaches. `Deny` = closed world.
    pub default_effect: Effect,
    /// Tie-breaker among equally specific rules.
    pub conflict: ConflictResolution,
}

impl Default for Policy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy {
    /// An empty closed-world, deny-overrides policy.
    pub fn new() -> Self {
        Self {
            rules: Vec::new(),
            default_effect: Effect::Deny,
            conflict: ConflictResolution::DenyOverrides,
        }
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Convenience: adds a cascading grant.
    pub fn grant_subtree(&mut self, subject: SubjectId, mode: ModeId, node: NodeId) -> &mut Self {
        self.add_rule(Rule {
            subject,
            mode,
            node,
            effect: Effect::Grant,
            propagation: Propagation::Cascade,
        })
    }

    /// Convenience: adds a cascading deny.
    pub fn deny_subtree(&mut self, subject: SubjectId, mode: ModeId, node: NodeId) -> &mut Self {
        self.add_rule(Rule {
            subject,
            mode,
            node,
            effect: Effect::Deny,
            propagation: Propagation::Cascade,
        })
    }

    /// The rules in insertion order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Resolves accessibility of a single `(subject, mode, node)` triple by
    /// walking ancestors. This is the slow reference semantics; `compile`
    /// must agree with it (property-tested).
    pub fn accessible(
        &self,
        doc: &Document,
        subject: SubjectId,
        mode: ModeId,
        node: NodeId,
    ) -> bool {
        // Rules at the node itself (local or cascade).
        if let Some(e) = self.resolve_at(node, subject, mode, false) {
            return e == Effect::Grant;
        }
        // Nearest ancestor with applicable cascade rules.
        for anc in doc.ancestors(node) {
            if let Some(e) = self.resolve_at(anc, subject, mode, true) {
                return e == Effect::Grant;
            }
        }
        self.default_effect == Effect::Grant
    }

    fn resolve_at(
        &self,
        node: NodeId,
        subject: SubjectId,
        mode: ModeId,
        cascade_only: bool,
    ) -> Option<Effect> {
        let mut found = None;
        for r in &self.rules {
            if r.node != node || r.subject != subject || r.mode != mode {
                continue;
            }
            if cascade_only && r.propagation != Propagation::Cascade {
                continue;
            }
            found = Some(match (found, r.effect, self.conflict) {
                (None, e, _) => e,
                (Some(Effect::Deny), _, ConflictResolution::DenyOverrides) => Effect::Deny,
                (Some(_), Effect::Deny, ConflictResolution::DenyOverrides) => Effect::Deny,
                (Some(Effect::Grant), _, ConflictResolution::GrantOverrides) => Effect::Grant,
                (Some(_), Effect::Grant, ConflictResolution::GrantOverrides) => Effect::Grant,
                (Some(prev), _, _) => prev,
            });
        }
        found
    }

    /// Compiles the policy's net effect for one mode into an accessibility
    /// map over `subjects` subjects, in a single document-order pass that
    /// carries cascading effects on a stack (Most-Specific-Override).
    #[allow(clippy::needless_range_loop, clippy::type_complexity)] // `s` indexes two parallel structures; the frame stack type is local
    pub fn compile(&self, doc: &Document, subjects: usize, mode: ModeId) -> AccessibilityMap {
        let mut by_node: HashMap<NodeId, Vec<&Rule>> = HashMap::new();
        for r in &self.rules {
            if r.mode == mode {
                by_node.entry(r.node).or_default().push(r);
            }
        }
        let mut map = AccessibilityMap::new(subjects, doc.len());
        let mut inherited: Vec<Option<Effect>> = vec![None; subjects];
        // Frames of (subtree end, saved inherited states) to undo on exit.
        let mut frames: Vec<(u32, Vec<(usize, Option<Effect>)>)> = Vec::new();
        for id in doc.preorder() {
            while let Some((_, undo)) = frames.pop_if(|(end, _)| *end <= id.0) {
                for (s, saved) in undo {
                    inherited[s] = saved;
                }
            }
            let node_rules = by_node.get(&id);
            for s in 0..subjects {
                let local = node_rules.and_then(|rs| {
                    self.combine(
                        rs.iter()
                            .filter(|r| r.subject.index() == s)
                            .map(|r| r.effect),
                    )
                });
                let effect = local.or(inherited[s]).unwrap_or(self.default_effect);
                if effect == Effect::Grant {
                    map.set(SubjectId(s as u32), id, true);
                }
            }
            if let Some(rs) = node_rules {
                let mut undo = Vec::new();
                let by_subject: HashMap<usize, Vec<Effect>> = rs
                    .iter()
                    .filter(|r| r.propagation == Propagation::Cascade)
                    .fold(HashMap::new(), |mut m, r| {
                        m.entry(r.subject.index()).or_default().push(r.effect);
                        m
                    });
                for (s, effects) in by_subject {
                    // Every list holds at least the rule that created it.
                    if let Some(e) = self.combine(effects.into_iter()) {
                        undo.push((s, inherited[s]));
                        inherited[s] = Some(e);
                    }
                }
                if !undo.is_empty() {
                    frames.push((id.0 + doc.node(id).size, undo));
                }
            }
        }
        map
    }

    /// Compiles every mode of a catalog.
    pub fn compile_all(
        &self,
        doc: &Document,
        subjects: usize,
        modes: usize,
    ) -> Vec<AccessibilityMap> {
        (0..modes)
            .map(|m| self.compile(doc, subjects, ModeId(m as u8)))
            .collect()
    }

    fn combine(&self, effects: impl Iterator<Item = Effect>) -> Option<Effect> {
        let mut found = None;
        for e in effects {
            found = Some(match (found, e, self.conflict) {
                (None, e, _) => e,
                (_, Effect::Deny, ConflictResolution::DenyOverrides) => Effect::Deny,
                (_, Effect::Grant, ConflictResolution::GrantOverrides) => Effect::Grant,
                (Some(prev), _, _) => prev,
            });
        }
        found
    }
}

/// Resolves a simple absolute path expression to the nodes it selects.
///
/// Supported forms: `/a/b/c` (child steps), `*` as a step wildcard, and a
/// leading `//tag` selecting every node with that tag. This is a
/// rule-authoring convenience, not the query language (see `dol-nok`).
pub fn select_nodes(doc: &Document, path: &str) -> Vec<NodeId> {
    if let Some(tag) = path.strip_prefix("//") {
        return match doc.tags().get(tag) {
            Some(t) => doc.nodes_with_tag(t),
            None => Vec::new(),
        };
    }
    let steps: Vec<&str> = path.trim_start_matches('/').split('/').collect();
    if steps.is_empty() || steps[0].is_empty() {
        return Vec::new();
    }
    let mut current: Vec<NodeId> = Vec::new();
    let root = doc.root();
    if steps[0] == "*" || doc.name_of(root) == steps[0] {
        current.push(root);
    }
    for step in &steps[1..] {
        let mut next = Vec::new();
        for n in current {
            for c in doc.children(n) {
                if *step == "*" || doc.name_of(c) == *step {
                    next.push(c);
                }
            }
        }
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_xml::parse;

    fn doc() -> Document {
        parse("<a><b><c/><d/></b><e><f><g/></f></e></a>").unwrap()
    }

    #[test]
    fn cascade_grant_with_local_override() {
        let doc = doc();
        let s = SubjectId(0);
        let m = ModeId(0);
        let mut p = Policy::new();
        p.grant_subtree(s, m, NodeId(0)); // grant everything
        p.add_rule(Rule {
            subject: s,
            mode: m,
            node: NodeId(2), // deny c locally
            effect: Effect::Deny,
            propagation: Propagation::Local,
        });
        let map = p.compile(&doc, 1, m);
        for id in doc.preorder() {
            let expect = id != NodeId(2);
            assert_eq!(map.accessible(s, id), expect, "node {id}");
            assert_eq!(p.accessible(&doc, s, m, id), expect, "ref node {id}");
        }
    }

    #[test]
    fn most_specific_override_nesting() {
        let doc = doc();
        let s = SubjectId(0);
        let m = ModeId(0);
        let mut p = Policy::new();
        p.grant_subtree(s, m, NodeId(0));
        p.deny_subtree(s, m, NodeId(4)); // deny subtree of e
        p.grant_subtree(s, m, NodeId(5)); // re-grant subtree of f
        let map = p.compile(&doc, 1, m);
        let expect = [true, true, true, true, false, true, true];
        for id in doc.preorder() {
            assert_eq!(map.accessible(s, id), expect[id.index()], "node {id}");
            assert_eq!(p.accessible(&doc, s, m, id), expect[id.index()]);
        }
    }

    #[test]
    fn local_rules_do_not_cascade() {
        let doc = doc();
        let s = SubjectId(0);
        let m = ModeId(0);
        let mut p = Policy::new();
        p.add_rule(Rule {
            subject: s,
            mode: m,
            node: NodeId(1),
            effect: Effect::Grant,
            propagation: Propagation::Local,
        });
        let map = p.compile(&doc, 1, m);
        assert!(map.accessible(s, NodeId(1)));
        assert!(!map.accessible(s, NodeId(2))); // child not granted
    }

    #[test]
    fn deny_overrides_ties() {
        let doc = doc();
        let s = SubjectId(0);
        let m = ModeId(0);
        let mut p = Policy::new();
        p.grant_subtree(s, m, NodeId(0));
        p.deny_subtree(s, m, NodeId(0));
        let map = p.compile(&doc, 1, m);
        assert!(!map.accessible(s, NodeId(0)));
        p.conflict = ConflictResolution::GrantOverrides;
        let map = p.compile(&doc, 1, m);
        assert!(map.accessible(s, NodeId(0)));
    }

    #[test]
    fn modes_are_independent() {
        let doc = doc();
        let s = SubjectId(0);
        let mut p = Policy::new();
        p.grant_subtree(s, ModeId(0), NodeId(0));
        let maps = p.compile_all(&doc, 1, 2);
        assert!(maps[0].accessible(s, NodeId(3)));
        assert!(!maps[1].accessible(s, NodeId(3)));
    }

    #[test]
    fn subjects_are_independent() {
        let doc = doc();
        let mut p = Policy::new();
        p.grant_subtree(SubjectId(1), ModeId(0), NodeId(1));
        let map = p.compile(&doc, 2, ModeId(0));
        assert!(!map.accessible(SubjectId(0), NodeId(2)));
        assert!(map.accessible(SubjectId(1), NodeId(2)));
    }

    #[test]
    fn open_world_default() {
        let doc = doc();
        let mut p = Policy::new();
        p.default_effect = Effect::Grant;
        p.deny_subtree(SubjectId(0), ModeId(0), NodeId(1));
        let map = p.compile(&doc, 1, ModeId(0));
        assert!(map.accessible(SubjectId(0), NodeId(0)));
        assert!(!map.accessible(SubjectId(0), NodeId(3)));
        assert!(map.accessible(SubjectId(0), NodeId(4)));
    }

    #[test]
    fn path_selection() {
        let doc = parse(
            "<site><regions><africa><item/><item/></africa><asia><item/></asia></regions></site>",
        )
        .unwrap();
        assert_eq!(select_nodes(&doc, "/site/regions/africa").len(), 1);
        assert_eq!(select_nodes(&doc, "/site/regions/*").len(), 2);
        assert_eq!(select_nodes(&doc, "//item").len(), 3);
        assert_eq!(select_nodes(&doc, "/nope").len(), 0);
        assert_eq!(select_nodes(&doc, "/site/regions/africa/item").len(), 2);
    }
}
