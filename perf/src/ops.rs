//! Seeded operation sequences and the fingerprints that pin them.

use crate::dataset::Dataset;
use crate::spec::{Workload, MAX_UPDATE_SUBTREE, ORACLE_OPS, UPDATABLE_USERS};
use dol_acl::SubjectId;
use dol_server::{Method, UpdateOp, WireSemantics};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use secure_xml::xml::{Document, NodeId};
use secure_xml::{DbError, SecureXmlDb, Security};

/// FNV-1a over bytes, continuing from `h` (start from [`FNV_INIT`]).
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// One read: a query of the workload's list, a user (index into the
/// dataset's users), and the security semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryOp {
    pub qi: u8,
    pub user: u32,
    pub subtree: bool,
}

impl QueryOp {
    pub fn method(self, w: &Workload, ds: &Dataset) -> Method {
        Method::Query {
            query: w.queries[self.qi as usize].to_string(),
            subject: ds.user(self.user),
            semantics: if self.subtree {
                WireSemantics::Subtree
            } else {
                WireSemantics::Binding
            },
        }
    }

    pub fn security(self, ds: &Dataset) -> Security {
        let s = SubjectId(ds.user(self.user));
        if self.subtree {
            Security::SubtreeVisibility(s)
        } else {
            Security::BindingLevel(s)
        }
    }

    fn bytes(self) -> [u8; 6] {
        let u = self.user.to_le_bytes();
        [self.qi, u8::from(self.subtree), u[0], u[1], u[2], u[3]]
    }

    /// Hash of this op with its answer; summed (wrapping) over a set of ops
    /// it gives a fingerprint that does not depend on completion order.
    pub fn answer_hash(self, matches: &[u64]) -> u64 {
        let mut h = fnv(FNV_INIT, &self.bytes());
        for m in matches {
            h = fnv(h, &m.to_le_bytes());
        }
        h
    }
}

/// Cards in a [`QueryStream`]'s deck.
pub const DECK: usize = 64;

/// A closed-loop client's endless query sequence, dealt from a shuffled deck
/// of [`DECK`] cards: each query holds its Zipf(1) share of the cards and a
/// fixed share of those is under subtree semantics. A deck dealt to its end
/// is shuffled again. Any 64 consecutive ops of one deck are therefore the
/// same mix whatever the seed, which decides only their order and their
/// users (uniform): with independent draws two seeds' windows differed by
/// several percent in how many expensive joins they held.
pub struct QueryStream {
    rng: StdRng,
    deck: Vec<(u8, bool)>,
    dealt: usize,
    users: u32,
}

/// Splits [`DECK`] cards over `n` queries in proportion to 1, 1/2, .. 1/n
/// (largest remainders get the cards that rounding down leaves over).
fn zipf_cards(n: usize) -> Vec<usize> {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let exact: Vec<f64> = (1..=n).map(|r| DECK as f64 / (r as f64 * total)).collect();
    let mut cards: Vec<usize> = exact.iter().map(|x| *x as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |i: usize| exact[i] - cards[i] as f64;
        frac(b).partial_cmp(&frac(a)).expect("finite")
    });
    let left = DECK - cards.iter().sum::<usize>();
    for &i in &by_remainder[..left] {
        cards[i] += 1;
    }
    cards
}

impl QueryStream {
    /// `lane` separates the clients' streams (and the warm-up's) under one
    /// seed.
    pub fn new(w: &Workload, seed: u64, lane: u64) -> Self {
        let mut deck = Vec::with_capacity(DECK);
        for (qi, cards) in zipf_cards(w.queries.len()).into_iter().enumerate() {
            let subtree = (cards as f64 * w.subtree_share).round() as usize;
            deck.extend((0..cards).map(|k| (qi as u8, k < subtree)));
        }
        Self {
            rng: StdRng::seed_from_u64(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            dealt: deck.len(),
            deck,
            users: w.users,
        }
    }

    pub fn next_op(&mut self) -> QueryOp {
        if self.dealt == self.deck.len() {
            self.deck.shuffle(&mut self.rng);
            self.dealt = 0;
        }
        let (qi, subtree) = self.deck[self.dealt];
        self.dealt += 1;
        QueryOp {
            qi,
            user: self.rng.gen_range(0..self.users),
            subtree,
        }
    }
}

const WARM_LANE: u64 = 99;

/// The warm-up pass. When the workload's whole key space fits the result
/// cache, every key once (so the measured window is all hits); otherwise
/// the first draws of a stream of their own.
pub fn warm_ops(w: &Workload, seed: u64) -> Vec<QueryOp> {
    let keys = w.users as usize * w.queries.len() * 2;
    if keys <= 1024 {
        let mut ops = Vec::with_capacity(keys);
        for user in 0..w.users {
            for qi in 0..w.queries.len() as u8 {
                ops.push(QueryOp {
                    qi,
                    user,
                    subtree: false,
                });
                if w.subtree_share > 0.0 {
                    ops.push(QueryOp {
                        qi,
                        user,
                        subtree: true,
                    });
                }
            }
        }
        ops
    } else {
        let mut s = QueryStream::new(w, seed, WARM_LANE);
        (0..ORACLE_OPS).map(|_| s.next_op()).collect()
    }
}

/// Indices into the warm-up pass of the ops checked against the oracle.
pub fn oracle_picks(warm_len: usize) -> Vec<usize> {
    let n = ORACLE_OPS.min(warm_len);
    (0..n).map(|i| i * warm_len / n).collect()
}

/// One ACL update, in wire-level ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    Node {
        pos: u64,
        subject: u32,
        allow: bool,
    },
    Subtree {
        pos: u64,
        subject: u32,
        allow: bool,
    },
    Membership {
        subject: u32,
        group: u32,
        member: bool,
    },
}

impl Update {
    pub fn method(self) -> Method {
        match self {
            Update::Node {
                pos,
                subject,
                allow,
            } => Method::Update(UpdateOp::SetNodeAccess {
                pos,
                subject,
                allow,
            }),
            Update::Subtree {
                pos,
                subject,
                allow,
            } => Method::Update(UpdateOp::SetSubtreeAccess {
                pos,
                subject,
                allow,
            }),
            Update::Membership {
                subject,
                group,
                member,
            } => Method::SetMembership {
                subject,
                group,
                member,
            },
        }
    }

    /// Applies the update through the facade, as the server does.
    pub fn apply(self, db: &mut SecureXmlDb) -> Result<(), DbError> {
        match self {
            Update::Node {
                pos,
                subject,
                allow,
            } => db.set_node_access(pos, SubjectId(subject), allow),
            Update::Subtree {
                pos,
                subject,
                allow,
            } => db.set_subtree_access(pos, SubjectId(subject), allow),
            Update::Membership {
                subject,
                group,
                member,
            } => db
                .set_group_membership(SubjectId(subject), SubjectId(group), member)
                .map(|_| ()),
        }
    }

    fn bytes(self) -> [u8; 14] {
        let (tag, a, b, flag) = match self {
            Update::Node {
                pos,
                subject,
                allow,
            } => (0u8, pos, subject, allow),
            Update::Subtree {
                pos,
                subject,
                allow,
            } => (1, pos, subject, allow),
            Update::Membership {
                subject,
                group,
                member,
            } => (2, u64::from(group), subject, member),
        };
        let mut out = [0u8; 14];
        out[0] = tag;
        out[1] = u8::from(flag);
        out[2..10].copy_from_slice(&a.to_le_bytes());
        out[10..14].copy_from_slice(&b.to_le_bytes());
        out
    }
}

const UPDATE_LANE: u64 = 77;

/// The update sequence: of every ten updates, in shuffled order, seven
/// single-node grants or revokes, two on small subtrees and one membership
/// edge (dealt, like the queries, so that every run writes the same mix), all
/// on the first few users.
pub fn gen_updates(
    w: &Workload,
    ds: &Dataset,
    doc: &Document,
    seed: u64,
    count: usize,
) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed ^ UPDATE_LANE.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n = doc.len() as u64;
    let users = UPDATABLE_USERS.min(w.users);
    // 0: node, 1: subtree, 2: membership.
    let mut kinds = [0u8, 0, 0, 0, 0, 0, 0, 1, 1, 2];
    (0..count)
        .map(|k| {
            if k % kinds.len() == 0 {
                kinds.shuffle(&mut rng);
            }
            let subject = ds.user(rng.gen_range(0..users));
            match kinds[k % kinds.len()] {
                0 => Update::Node {
                    pos: rng.gen_range(1..n),
                    subject,
                    allow: rng.gen_bool(0.5),
                },
                1 => {
                    let pos = loop {
                        let p = rng.gen_range(1..n);
                        let size = doc.node(NodeId(p as u32)).size;
                        if (2..=MAX_UPDATE_SUBTREE).contains(&size) {
                            break p;
                        }
                    };
                    Update::Subtree {
                        pos,
                        subject,
                        allow: rng.gen_bool(0.5),
                    }
                }
                _ => Update::Membership {
                    subject,
                    group: ds.groups[rng.gen_range(0..ds.groups.len())],
                    member: rng.gen_bool(0.5),
                },
            }
        })
        .collect()
}

/// What identifies a run's inputs and answers. The data fingerprints
/// (`nodes`, `doc_fnv`, `acl_fnv`) do not depend on the seed and are checked
/// on every run; the op and answer fingerprints are pinned for the default
/// seed and printed for every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprints {
    pub nodes: u64,
    pub doc_fnv: u64,
    pub acl_fnv: u64,
    pub ops_fnv: u64,
    /// Order-independent hash of the warm-up pass's wire answers.
    pub answers_fnv: u64,
}

/// Hashes the serialized document, a sample of the ACL matrix (with the
/// membership table), and a prefix of every op sequence of the workload.
pub fn input_fingerprints(w: &Workload, ds: &Dataset, doc: &Document, seed: u64) -> Fingerprints {
    let doc_fnv = fnv(FNV_INIT, doc.to_xml().as_bytes());

    let sample_users: Vec<u32> = (0..8).map(|k| k * (w.users - 1) / 7).collect();
    let map = ds.oracle_map(doc, &sample_users);
    let mut acl_fnv = fnv(FNV_INIT, &ds.space_bytes());
    let mut rng = StdRng::seed_from_u64(crate::spec::DATA_SEED ^ 0xac1);
    for k in 0..sample_users.len() as u32 {
        for _ in 0..256 {
            let pos = rng.gen_range(0..doc.len() as u32);
            let bit = map.accessible(SubjectId(k), NodeId(pos));
            acl_fnv = fnv(acl_fnv, &[u8::from(bit)]);
        }
    }

    let mut ops_fnv = FNV_INIT;
    for q in w.queries {
        ops_fnv = fnv(ops_fnv, q.as_bytes());
    }
    for op in warm_ops(w, seed) {
        ops_fnv = fnv(ops_fnv, &op.bytes());
    }
    for lane in 0..crate::spec::CLIENTS as u64 {
        let mut s = QueryStream::new(w, seed, lane);
        for _ in 0..1024 {
            ops_fnv = fnv(ops_fnv, &s.next_op().bytes());
        }
    }
    for u in gen_updates(w, ds, doc, seed, 256) {
        ops_fnv = fnv(ops_fnv, &u.bytes());
    }

    Fingerprints {
        nodes: doc.len() as u64,
        doc_fnv,
        acl_fnv,
        ops_fnv,
        answers_fnv: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_lanes() {
        let w = &WORKLOADS[1];
        let draw = |seed, lane| {
            let mut s = QueryStream::new(w, seed, lane);
            (0..64).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert!(draw(7, 0).iter().all(|op| !op.subtree && op.user < w.users));
    }

    #[test]
    fn every_deck_holds_the_same_mix() {
        assert_eq!(zipf_cards(6), [26, 13, 9, 7, 5, 4]);
        assert_eq!(zipf_cards(4), [31, 15, 10, 8]);
        let w = &WORKLOADS[0];
        let mix = |seed, skip: usize| {
            let mut s = QueryStream::new(w, seed, 0);
            let mut ops: Vec<(u8, bool)> = (0..skip + DECK)
                .map(|_| s.next_op())
                .skip(skip)
                .map(|op| (op.qi, op.subtree))
                .collect();
            ops.sort_unstable();
            ops
        };
        assert_eq!(mix(1, 0), mix(2, 3 * DECK));
        assert_eq!(mix(1, 0).iter().filter(|c| c.1).count(), 16);
    }

    #[test]
    fn warm_up_covers_a_small_key_space_and_samples_a_large_one() {
        let hot = &WORKLOADS[0];
        assert_eq!(warm_ops(hot, 1).len(), 16 * 6 * 2);
        let cold = &WORKLOADS[1];
        assert_eq!(warm_ops(cold, 1).len(), ORACLE_OPS);
        let picks = oracle_picks(192);
        assert_eq!(picks.len(), ORACLE_OPS);
        assert!(picks.windows(2).all(|p| p[0] < p[1]) && picks[63] < 192);
    }

    #[test]
    fn answer_hash_ignores_completion_order_but_not_answers() {
        let a = QueryOp {
            qi: 1,
            user: 2,
            subtree: false,
        };
        let b = QueryOp {
            qi: 3,
            user: 4,
            subtree: true,
        };
        let fold = |ops: &[(QueryOp, &[u64])]| {
            ops.iter()
                .fold(0u64, |acc, (op, m)| acc.wrapping_add(op.answer_hash(m)))
        };
        assert_eq!(
            fold(&[(a, &[1, 2]), (b, &[3])]),
            fold(&[(b, &[3]), (a, &[1, 2])])
        );
        assert_ne!(fold(&[(a, &[1, 2])]), fold(&[(a, &[1, 3])]));
    }
}
