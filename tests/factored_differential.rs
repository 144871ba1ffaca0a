//! Differential property test: a **group-factored** database is
//! answer-identical to a **flat** database built from the eagerly
//! materialized per-subject matrix — every `(position, subject)`
//! accessibility bit and the full query suite under both secure semantics —
//! across random hierarchies, membership edits, direct-grant updates, and
//! **interleaved compactions** of churn-induced dead columns and duplicate
//! entries.
//!
//! The flat reference is rebuilt from the model after every operation, so
//! the factored handle's whole incremental machinery (derived-column cache,
//! lazily allocated direct columns, membership closure, compaction's
//! column remap) is checked against a from-scratch construction that
//! shares none of it.

use proptest::prelude::*;
use secure_xml::acl::{BitVec, FnOracle, GroupSpace, SubjectId};
use secure_xml::xml::{Document, DocumentBuilder, NodeId};
use secure_xml::{SecureXmlDb, Security};

const SUITE: [&str; 3] = ["//n", "/r/n/n", "//n//m"];

/// A random world: a small document, a layered group DAG, and users with
/// random direct memberships. Groups get logical ids `0..groups` (bound to
/// physical columns `0..groups`), users `groups..groups+users`.
#[derive(Debug, Clone)]
struct World {
    doc_shape: Vec<u8>,
    groups: usize,
    /// Parent choices per non-root group (index into earlier groups).
    group_parents: Vec<u8>,
    users: usize,
    /// Per user: up to two parent groups (raw picks, reduced mod groups).
    user_parents: Vec<(u8, u8)>,
    /// Per physical column: a seed byte pattern for the initial labels.
    col_seeds: Vec<u8>,
}

#[derive(Debug, Clone)]
enum Op {
    /// Toggle one direct membership edge of a user.
    Membership { user: u8, group: u8, member: bool },
    /// Direct node grant/revoke on any logical subject.
    SetNode { pos: u8, subject: u8, allow: bool },
    /// Direct subtree grant/revoke on any logical subject.
    SetSubtree { pos: u8, subject: u8, allow: bool },
    /// Add a scratch subject, grant it a subtree, remove it — leaves dead
    /// columns and duplicate entries for the compactor.
    Churn { pos: u8 },
    /// Compact the codebook and the embedded codes.
    Compact,
}

fn arb_world() -> impl Strategy<Value = World> {
    (
        proptest::collection::vec(0u8..4, 8..40),
        2usize..5,
        proptest::collection::vec(any::<u8>(), 4),
        1usize..6,
        proptest::collection::vec((any::<u8>(), any::<u8>()), 6),
        proptest::collection::vec(any::<u8>(), 5),
    )
        .prop_map(
            |(doc_shape, groups, group_parents, users, user_parents, col_seeds)| World {
                doc_shape,
                groups,
                group_parents,
                users,
                user_parents,
                col_seeds,
            },
        )
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(user, group, member)| {
            Op::Membership {
                user,
                group,
                member,
            }
        }),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(pos, subject, allow)| Op::SetNode {
            pos,
            subject,
            allow
        }),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(pos, subject, allow)| {
            Op::SetSubtree {
                pos,
                subject,
                allow,
            }
        }),
        any::<u8>().prop_map(|pos| Op::Churn { pos }),
        Just(Op::Compact),
    ]
}

fn build_doc(shape: &[u8]) -> Document {
    let mut b = DocumentBuilder::new();
    b.open("r");
    let mut depth = 1usize;
    for (i, &a) in shape.iter().enumerate() {
        match a {
            0 if depth < 5 => {
                b.open("n");
                depth += 1;
            }
            1 => {
                b.leaf(if i % 3 == 0 { "m" } else { "n" }, None);
            }
            2 => {
                b.leaf("m", None);
            }
            _ => {
                if depth > 1 {
                    b.close();
                    depth -= 1;
                }
            }
        }
    }
    while depth > 0 {
        b.close();
        depth -= 1;
    }
    b.finish().unwrap()
}

/// The test-local model: group adjacency, per-user direct memberships, and
/// the direct-grant column of every logical subject — everything needed to
/// compute expected effective bits *without* consulting `GroupSpace`.
struct Model {
    nodes: usize,
    groups: usize,
    users: usize,
    /// Parents of each group (indices < own index: a DAG by construction).
    group_up: Vec<Vec<usize>>,
    /// Direct parent groups of each user.
    user_up: Vec<Vec<usize>>,
    /// Direct-grant column per logical subject (groups: their physical
    /// column; users: lazily dirtied by SetNode/SetSubtree).
    direct: Vec<BitVec>,
}

impl Model {
    fn subjects(&self) -> usize {
        self.groups + self.users
    }

    /// Transitive group closure of a logical subject (groups include
    /// themselves; users do not have a group identity).
    fn closure(&self, s: usize) -> Vec<usize> {
        let mut seen = vec![false; self.groups];
        let mut stack: Vec<usize> = if s < self.groups {
            vec![s]
        } else {
            self.user_up[s - self.groups].clone()
        };
        let mut out = Vec::new();
        while let Some(g) = stack.pop() {
            if seen[g] {
                continue;
            }
            seen[g] = true;
            out.push(g);
            stack.extend(self.group_up[g].iter().copied());
        }
        out
    }

    /// Expected effective bit: own direct grants OR every closure group's.
    fn effective(&self, s: usize) -> BitVec {
        let mut col = self.direct[s].clone();
        col.resize(self.nodes);
        for g in self.closure(s) {
            col.or_assign(&self.direct[g]);
        }
        col
    }
}

fn setup(w: &World) -> (Document, Model, SecureXmlDb) {
    let doc = build_doc(&w.doc_shape);
    let nodes = doc.len();

    let mut group_up: Vec<Vec<usize>> = vec![Vec::new()];
    for g in 1..w.groups {
        let pick = w.group_parents[(g - 1) % w.group_parents.len()] as usize % g;
        group_up.push(vec![pick]);
    }
    let mut user_up = Vec::with_capacity(w.users);
    for u in 0..w.users {
        let (a, b) = w.user_parents[u % w.user_parents.len()];
        let mut ps = vec![a as usize % w.groups];
        let second = b as usize % w.groups;
        if ps[0] != second && b % 3 == 0 {
            ps.push(second);
        }
        user_up.push(ps);
    }

    // Initial physical labels: a deterministic pattern per group column.
    let mut direct = Vec::with_capacity(w.groups + w.users);
    for g in 0..w.groups {
        let seed = w.col_seeds[g % w.col_seeds.len()];
        let mut col = BitVec::zeros(nodes);
        for p in 0..nodes {
            // Short runs, so entries repeat and the codebook stays small.
            col.set(p, (seed as usize + p / 3 + g).is_multiple_of(3));
        }
        direct.push(col);
    }
    for _ in 0..w.users {
        direct.push(BitVec::zeros(nodes));
    }
    let model = Model {
        nodes,
        groups: w.groups,
        users: w.users,
        group_up,
        user_up,
        direct,
    };

    let mut space = GroupSpace::new();
    for g in 0..w.groups {
        let parents: Vec<SubjectId> = model.group_up[g]
            .iter()
            .map(|&p| SubjectId(p as u32))
            .collect();
        let id = space.add_subject(&parents);
        space.bind_direct(id, id.0);
    }
    for u in 0..w.users {
        let parents: Vec<SubjectId> = model.user_up[u]
            .iter()
            .map(|&p| SubjectId(p as u32))
            .collect();
        space.add_subject(&parents);
    }

    let phys = model.direct[..w.groups].to_vec();
    let oracle = FnOracle::new(w.groups, move |n: NodeId, s| phys[s].get(n.index()));
    let fact =
        SecureXmlDb::from_document_factored(doc.clone(), &oracle, space).expect("factored build");
    (doc, model, fact)
}

/// Builds the flat reference database from the model's expected matrix.
fn flat_reference(doc: &Document, model: &Model) -> SecureXmlDb {
    let cols: Vec<BitVec> = (0..model.subjects()).map(|s| model.effective(s)).collect();
    let oracle = FnOracle::new(cols.len(), move |n: NodeId, s| cols[s].get(n.index()));
    SecureXmlDb::from_document(doc.clone(), &oracle).expect("flat build")
}

fn check_equivalent(fact: &SecureXmlDb, doc: &Document, model: &Model) {
    let flat = flat_reference(doc, model);
    for s in 0..model.subjects() {
        let sid = SubjectId(s as u32);
        let expect = model.effective(s);
        for p in 0..model.nodes as u64 {
            let fb = fact.accessible(p, sid).expect("factored accessible");
            let rb = flat.accessible(p, sid).expect("flat accessible");
            assert_eq!(fb, expect.get(p as usize), "factored bit at ({p},{s})");
            assert_eq!(rb, expect.get(p as usize), "flat bit at ({p},{s})");
        }
        for q in SUITE {
            for sec in [
                Security::BindingLevel(sid),
                Security::SubtreeVisibility(sid),
            ] {
                assert_eq!(
                    fact.query(q, sec).expect("factored query").matches,
                    flat.query(q, sec).expect("flat query").matches,
                    "query {q} diverged for subject {s} under {sec:?}"
                );
            }
        }
    }
}

fn apply(fact: &mut SecureXmlDb, model: &mut Model, op: &Op) {
    let nodes = model.nodes as u64;
    match *op {
        Op::Membership {
            user,
            group,
            member,
        } => {
            if model.users == 0 {
                return;
            }
            let u = user as usize % model.users;
            let g = group as usize % model.groups;
            let sid = SubjectId((model.groups + u) as u32);
            let changed = fact
                .set_group_membership(sid, SubjectId(g as u32), member)
                .expect("membership edit");
            let ups = &mut model.user_up[u];
            match (member, ups.contains(&g)) {
                (true, false) => {
                    ups.push(g);
                    assert!(changed, "model says the edge was new");
                }
                (false, true) => {
                    ups.retain(|&x| x != g);
                    assert!(changed, "model says the edge existed");
                }
                _ => assert!(!changed, "model says the edge was a no-op"),
            }
        }
        Op::SetNode {
            pos,
            subject,
            allow,
        } => {
            let p = pos as u64 % nodes;
            let s = subject as usize % model.subjects();
            fact.set_node_access(p, SubjectId(s as u32), allow)
                .expect("set node");
            let col = &mut model.direct[s];
            col.resize(model.nodes);
            col.set(p as usize, allow);
        }
        Op::SetSubtree {
            pos,
            subject,
            allow,
        } => {
            let p = pos as u64 % nodes;
            let s = subject as usize % model.subjects();
            let size = fact.store().node(p).expect("node header").size as u64;
            fact.set_subtree_access(p, SubjectId(s as u32), allow)
                .expect("set subtree");
            let col = &mut model.direct[s];
            col.resize(model.nodes);
            for q in p..p + size {
                col.set(q as usize, allow);
            }
        }
        Op::Churn { pos } => {
            let p = pos as u64 % nodes;
            let scratch = fact.add_subject(None).expect("churn add");
            fact.set_subtree_access(p, scratch, true)
                .expect("churn grant");
            fact.remove_subject(scratch).expect("churn remove");
        }
        Op::Compact => fact.compact_subjects().expect("compact subjects"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn factored_equals_flat_reference(
        w in arb_world(),
        ops in proptest::collection::vec(arb_op(), 0..14),
    ) {
        let (doc, mut model, mut fact) = setup(&w);
        check_equivalent(&fact, &doc, &model);
        for op in &ops {
            apply(&mut fact, &mut model, op);
            check_equivalent(&fact, &doc, &model);
        }
        // Compact once more and check at the fixpoint.
        fact.compact_subjects().expect("final compaction");
        assert!(fact.dol().codebook().is_compact());
        check_equivalent(&fact, &doc, &model);
    }
}
